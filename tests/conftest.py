"""Shared brute-force oracles and random data for the test suite.

These deliberately avoid the library's own decision procedures: membership
is certified by searching small rational combinations, non-membership and
apex questions by exhaustive scans over integer directions.  For inputs
with coordinates bounded by b the scans are complete once the direction
box reaches 2b (a separating or separating-strictly direction can always
be chosen as a rotation of an input vector or a sum of two of them), so
the oracles are exact on the bounded data the tests feed them.
"""

from fractions import Fraction
from itertools import product

from conestab.cones import dot
from conestab.verify import TrialConfig, random_datum


def combo_certifies(gens, p, max_numerator=6, denominator=3):
    """Search nonnegative rational combinations of gens that equal p.

    Coefficients range over k/denominator for 0 <= k <= max_numerator *
    denominator.  Finding one proves membership; not finding one proves
    nothing, so callers only assert the positive direction.
    """
    coeffs = [Fraction(k, denominator) for k in range(max_numerator * denominator + 1)]
    px, py = Fraction(p[0]), Fraction(p[1])
    for combo in product(coeffs, repeat=len(gens)):
        sx = sum(c * g[0] for c, g in zip(combo, gens))
        sy = sum(c * g[1] for c, g in zip(combo, gens))
        if sx == px and sy == py:
            return True
    return False


def _direction_box(bound):
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) != (0, 0):
                yield (x, y)


def scan_separator(gens, p):
    """Exhaustively look for alpha with <g, alpha> >= 0 for all g and <p, alpha> < 0.

    Such a direction exists iff p is outside the closed cone of gens; the
    scan box 2 * (coordinate bound) + 1 is large enough to be complete.
    """
    bound = 2 * max(
        [1] + [abs(c) for g in gens for c in g] + [abs(c) for c in p]
    ) + 1
    for alpha in _direction_box(bound):
        if dot(p, alpha) < 0 and all(dot(g, alpha) >= 0 for g in gens):
            return alpha
    return None


def scan_strict_separator(vectors):
    """Exhaustively look for alpha strictly positive on every input vector."""
    vs = list(vectors)
    if not vs:
        return (1, 0)
    bound = 2 * max(1, max(abs(c) for v in vs for c in v)) + 1
    for alpha in _direction_box(bound):
        if all(dot(v, alpha) > 0 for v in vs):
            return alpha
    return None


def oracle_contains(gens, p):
    """Exact membership oracle via the separation scan."""
    return scan_separator(gens, p) is None


def random_test_datum(rng, bound=8, constrained=True):
    return random_datum(TrialConfig(coord_bound=bound, enforce_constraint=constrained), rng)
