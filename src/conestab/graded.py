"""Character-graded pieces of the coordinate ring of the quadric.

The ring is C[z_1..z_3, w_1..w_3] modulo the relation sum(z_i w_i); under
the lexicographic order with z_1 > w_1 > the rest, the relation has
leading monomial z_1 w_1, so the monomials not divisible by z_1 w_1 form a
vector-space basis of the quotient.  The dimension of the weight-t piece
is therefore P(t) - P(t - a_1 - b_1), where P(t) is the vector partition
function of the six weights: the number of exponent vectors of weight t.
P is finite exactly when the degree-0 invariants are trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from conestab.cones import ZERO, Vec2, dot, positive_relation, strictly_separates
from conestab.stability import WeightDatum


@dataclass(frozen=True)
class Monomial:
    """Monomial z^k w^l with nonnegative integer exponent triples."""

    z_exp: tuple[int, int, int]
    w_exp: tuple[int, int, int]

    def __post_init__(self):
        k = tuple(int(e) for e in self.z_exp)
        l = tuple(int(e) for e in self.w_exp)
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


def _exponent_count(ws: tuple[Vec2, ...], f: Vec2, target: Vec2) -> int:
    """Number of exponent vectors e >= 0 with sum(e_i * ws[i]) == target.

    f pairs strictly positively with every weight, so each partial sum x
    of a solution satisfies f.x <= f.target.  The partial sums over all
    weights but the last are tabulated as {point: count}, one weight at a
    time; the last weight is then walked back from the target.
    """
    budget = dot(f, target)
    if budget < 0:
        return 0
    counts = {ZERO: 1}
    for w in ws[:-1]:
        step = dot(f, w)
        grown: dict[Vec2, int] = {}
        for (x, y), n in counts.items():
            for k in range((budget - dot(f, (x, y))) // step + 1):
                p = (x + k * w[0], y + k * w[1])
                grown[p] = grown.get(p, 0) + n
        counts = grown
    last = ws[-1]
    return sum(
        counts.get((target[0] - k * last[0], target[1] - k * last[1]), 0)
        for k in range(budget // dot(f, last) + 1)
    )


def graded_dim(datum: WeightDatum, degree: int) -> int:
    """Dimension of the weight-(degree * c) piece of the quotient ring.

    The standard monomials of weight t are all monomials of weight t minus
    the multiples of z_1 w_1, which are z_1 w_1 times any monomial of weight
    t - a_1 - b_1.  So the dimension is P(t) - P(t - a_1 - b_1), where P
    is the vector partition function of the six weights (Sturmfels, "On
    vector partition functions", JCTA 72, 1995).  P is finite because a
    strictly positive functional on the weights exists precisely when the
    degree-0 invariants are trivial.  Unreachable degrees count zero.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    ws = datum.weights()
    f = strictly_separates(ws)
    if f is None:
        raise ValueError(
            "graded dimensions are finite only when the degree-0 invariants are "
            "trivial (all weights nonzero and spanning a cone with apex); "
            "this datum admits a nonconstant invariant monomial"
        )
    t = (degree * datum.c[0], degree * datum.c[1])
    a1, b1 = datum.a[0], datum.b[0]
    rest = (t[0] - a1[0] - b1[0], t[1] - a1[1] - b1[1])
    return _exponent_count(ws, f, t) - _exponent_count(ws, f, rest)


def hilbert_table(datum: WeightDatum, n_max: int) -> list[int]:
    """Graded dimensions for degrees 0..n_max inclusive."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [graded_dim(datum, n) for n in range(n_max + 1)]


def find_invariant_monomial(datum: WeightDatum) -> Monomial | None:
    """A nonconstant monomial of weight (0, 0), or None when there is none.

    Its exponents are the first nonnegative relation among the six weights
    that ``positive_relation`` finds, divided by their gcd.  The witness
    weight is re-verified before returning.
    """
    coeffs = positive_relation(datum.weights())
    if coeffs is None:
        return None
    g = gcd(*coeffs.values())
    exps = [0] * 6
    for i, e in coeffs.items():
        exps[i] = e // g
    m = Monomial(z_exp=tuple(exps[:3]), w_exp=tuple(exps[3:]))
    assert m.weight(datum) == ZERO and not m.is_constant()
    return m
