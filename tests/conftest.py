"""Shared brute-force oracles and random data for the test suite.

These deliberately avoid the library's own decision procedures: membership
is certified by searching small rational combinations, non-membership and
apex questions by exhaustive scans over integer directions.  For inputs
with coordinates bounded by b the scans are complete once the direction
box reaches 2b (a separating or separating-strictly direction can always
be chosen as a rotation of an input vector or a sum of two of them), so
the oracles are exact on the bounded data the tests feed them.

The reference verdicts at the end are of another kind: they keep the
classifiers' per-pattern scans of weight masks, built from the cone
primitives, against which the pattern bitsets are checked.
"""

from fractions import Fraction
from itertools import product

from conestab.cones import Cone2, ZERO, cross, dot, neg, on_ray, perp
from conestab.stability import (
    ALL_PATTERNS,
    StabilityClass,
    classify_by_one_ps,
)
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


def scan_interior(gens, p):
    """Exhaustive interior oracle: p is not interior iff some nonzero alpha
    of the scan box pairs >= 0 with every generator and <= 0 with p.

    Such an alpha is a nonzero dual direction that does not pair strictly
    positively with p.  The dual's boundary rays are rotations of inputs, so
    the box is complete, and the scan is exact for every shape: {0}, rays
    and lines, whose duals are the plane, a half-plane or a line, have
    empty interior, and for R^2 no alpha qualifies.
    """
    bound = 2 * max(
        [1] + [abs(c) for g in gens for c in g] + [abs(c) for c in p]
    ) + 1
    for alpha in _direction_box(bound):
        if dot(p, alpha) <= 0 and all(dot(g, alpha) >= 0 for g in gens):
            return False
    return True


def strict_separators(vectors):
    """Every alpha of the scan box strictly positive on every input vector,
    in box order."""
    vs = list(vectors)
    bound = 2 * max([1] + [abs(c) for v in vs for c in v]) + 1
    return (alpha for alpha in _direction_box(bound) if all(dot(v, alpha) > 0 for v in vs))


def scan_strict_separator(vectors):
    """Exhaustively look for alpha strictly positive on every input vector."""
    return next(strict_separators(vectors), None)


def oracle_contains(gens, p):
    """Exact membership oracle via the separation scan."""
    return scan_separator(gens, p) is None


def random_test_datum(rng, bound=8, constrained=True):
    return random_datum(TrialConfig(coord_bound=bound, enforce_constraint=constrained), rng)


def _dual_mask(ws, alpha):
    return sum(1 << k for k, v in enumerate(ws) if dot(v, alpha) >= 0)


def reference_verdicts(datum):
    """Both classifiers' verdicts on ALL_PATTERNS, by scanning each
    pattern's mask against lists of weight masks.

    This is the form the pattern bitsets replaced.  One-ps: a pattern
    within a destabilizing dual mask is unstable, else within a null one
    strictly semistable, else stable.  Cone: a pattern holding no weight or
    pair whose cone contains c is unstable, else one holding no spanning
    pair or lying within a dual mask is strictly semistable.
    """
    ws, c = datum.weights(), datum.c
    rotations = [alpha for v in ws + (c,) if v != ZERO for alpha in (perp(v), neg(perp(v)))]
    destabilizing = [_dual_mask(ws, a) for a in [neg(c)] + rotations if dot(c, a) < 0]
    null = [_dual_mask(ws, a) for a in rotations if dot(c, a) == 0]
    dual = [_dual_mask(ws, a) for a in rotations if dot(c, a) <= 0]
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    containing = [1 << i for i in range(6) if on_ray(ws[i], c)] + [
        1 << i | 1 << j for i, j in pairs if Cone2((ws[i], ws[j])).contains(c)
    ]
    spanning = [1 << i | 1 << j for i, j in pairs if cross(ws[i], ws[j]) != 0]
    S = StabilityClass
    one_ps, cone = [], []
    for p in ALL_PATTERNS:
        m = p._mask
        if any(m & d == m for d in destabilizing):
            one_ps.append(S.UNSTABLE)
        elif any(m & d == m for d in null):
            one_ps.append(S.STRICTLY_SEMISTABLE)
        else:
            one_ps.append(S.STABLE)
        if not any(s & m == s for s in containing):
            cone.append(S.UNSTABLE)
        elif not any(s & m == s for s in spanning) or any(m & d == m for d in dual):
            cone.append(S.STRICTLY_SEMISTABLE)
        else:
            cone.append(S.STABLE)
    return one_ps, cone


def pattern_level_equality(datum):
    """Stable locus == semistable locus == open locus, read off the patterns
    one at a time: the loop form of main_theorem_sides' right-hand side."""
    for s in ALL_PATTERNS:
        if not s.is_realizable():
            continue
        verdict = classify_by_one_ps(datum, s)
        if s.is_open_pattern():
            if verdict is not StabilityClass.STABLE:
                return False
        elif verdict.semistable:
            return False
    return True
