"""Character-graded pieces of the coordinate ring of the quadric.

The ring is C[z_1..z_3, w_1..w_3] modulo the relation sum(z_i w_i); under
the lexicographic order with z_1 > w_1 > the rest, the relation has
leading monomial z_1 w_1, so the monomials not divisible by z_1 w_1 form a
vector-space basis of the quotient.  The dimension of the weight-t piece
is therefore P(t) - P(t - a_1 - b_1), where P(t) is the vector partition
function of the six weights: the number of exponent vectors of weight t.
P is finite exactly when the degree-0 invariants are trivial.  One DP
counts P at every degree of a table, and its work is bounded before it
starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from conestab.cones import ZERO, Vec2, cross, dot, positive_relation, strictly_separates
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


# A Hilbert table's work is bounded before its DP starts (``_work_bound``),
# and a table whose bound exceeds this cap is refused with a ValueError.
# The flag table to degree 40 is bounded by 6,723 steps, as is the flag
# with every weight and C scaled by any factor, and every table
# the tests, the demos and the benchmark ask for stays below 10,000.  Near
# the cap a table took 0.4-1.1 s and under 100 MB on a 2-core Xeon.
MAX_TABLE_WORK = 250_000

# Tables are memoised per (datum, n_max) in a small cache, like the
# classifiers' tables: hilbert_table's call of graded_dim fills the entry
# that hilbert_table then copies out.
_TABLE_CACHE_SIZE = 16


def _lattice_basis(ws: tuple[Vec2, ...]) -> tuple[Vec2, Vec2]:
    """A basis (e, (0, h)) of the lattice the weights span, with e_x >= 0.

    Euclid runs on the first coordinates of e and each weight in turn,
    carrying whole vectors, so every step is a unimodular change of the
    pair; the partner left with first coordinate 0 folds into h, the gcd
    of such second coordinates.  e_y is then reduced into [-h/2, h/2].
    The lattice has index e_x h in Z^2, and rank below 2 when that is 0.
    """
    e, h = ZERO, 0
    for w in ws:
        while w[0]:
            q = e[0] // w[0]
            e, w = w, (e[0] - q * w[0], e[1] - q * w[1])
        h = gcd(h, w[1])
    if e[0] < 0:
        e = (-e[0], -e[1])
    if h:
        r = e[1] % h
        e = (e[0], r - h if 2 * r > h else r)
    return e, (0, h)


def _work_bound(ws: tuple[Vec2, ...], f: Vec2, budget: int, n_max: int) -> int:
    """Upper bound on the DP states plus the walk-back steps of one table.

    The states are points of the lattice L that the weights span, inside
    the triangle K = {x in cone(ws) : f.x <= budget}, whose vertices are 0
    and the points p, q where the cone's two extreme rays meet the line
    f.x = budget.  For a basis e1, e2 of L, of index D in Z^2, the
    half-open cells x + {s e1 + t e2 : 0 <= s, t < 1} of the points x of L
    in K are disjoint, each of area D, and lie in K + [0, e1] + [0, e2],
    whose area is area(K) + w1 + w2 + D, where wi is the spread of
    cross(ei, .) over K.  So L holds at most (area(K) + w1 + w2) / D + 1
    points of K; for L = Z^2, w1 + w2 is half K's L1 perimeter.  When the
    weights lie on one ray, L is spanned by one vector g and holds at most
    budget / f.g + 1 points of K.  The sum is taken in integers, scaled by
    a common denominator.  Walking the last weight l back from a target t
    visits floor(f.t / f.l) + 1 points; the 2 (n_max + 1) targets have
    f.t <= n f.c at degree n.
    """
    # the extreme rays u, v: every weight lies counterclockwise of u, clockwise of v
    u = next(w for w in ws if all(cross(w, x) >= 0 for x in ws))
    v = next(w for w in ws if all(cross(x, w) >= 0 for x in ws))
    fu, fv, fl = dot(f, u), dot(f, v), dot(f, ws[-1])
    d = 2 * fu * fv * fl
    walks = (n_max + 1) * (2 * d + 2 * fu * fv * budget)
    e1, e2 = _lattice_basis(ws)
    index = e1[0] * e2[1]
    if index == 0:
        fg = abs(dot(f, e1 if e1 != ZERO else e2))
        return (budget * d + fg * (d + walks)) // (fg * d)
    # f.u f.v p and f.u f.v q; area(K) and the spreads are scaled by d
    p = (budget * fv * u[0], budget * fv * u[1])
    q = (budget * fu * v[0], budget * fu * v[1])
    area = budget * budget * abs(cross(u, v)) * fl
    spreads = 0
    for e in (e1, e2):
        ep, eq = cross(e, p), cross(e, q)
        spreads += max(0, ep, eq) - min(0, ep, eq)
    return (area + 2 * fl * spreads + index * (d + walks)) // (index * d)


def _magnitude(n: int) -> str:
    return f"{n:,}" if n.bit_length() <= 64 else f"over 2^{n.bit_length() - 1}"


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table(datum: WeightDatum, n_max: int) -> tuple[int, ...]:
    """Graded dimensions for degrees 0..n_max, from one partition-count DP.

    f pairs strictly positively with every weight, so every partial sum x
    of an exponent vector of weight n c satisfies f.x <= n_max f.c, the
    budget.  The partial sums over the first five weights are tabulated
    once under the budget as {point: count}; P(t) is then the sum of the
    counts at t, t - l, t - 2 l, ... for the last weight l, walked back
    from t = n c and from t = n c - a_1 - b_1 at every degree n.
    """
    ws = datum.weights()
    f = strictly_separates(ws)
    if f is None:
        raise ValueError(
            "graded dimensions are finite only when the degree-0 invariants are "
            "trivial (all weights nonzero and spanning a cone with apex); "
            "this datum admits a nonconstant invariant monomial"
        )
    budget = n_max * dot(f, datum.c)
    # with budget <= 0 only the constants are reachable
    work = _work_bound(ws, f, budget, n_max) if budget > 0 else n_max + 1
    if work > MAX_TABLE_WORK:
        raise ValueError(
            f"this Hilbert table may take {_magnitude(work)} DP states and walk-back "
            f"steps, past the cap MAX_TABLE_WORK = {MAX_TABLE_WORK:,}"
        )
    if budget <= 0:
        return (1,) + (0,) * n_max
    f0, f1 = f
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
                grown[x, y] = n
                room -= step
        counts = grown
    lx, ly = ws[-1]
    step = f0 * lx + f1 * ly

    def partitions(x: int, y: int) -> int:
        # a negative f-value walks no steps
        return sum(
            counts.get((x - k * lx, y - k * ly), 0)
            for k in range((f0 * x + f1 * y) // step + 1)
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
    so it raises ValueError when that table's work bound exceeds
    MAX_TABLE_WORK.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return _table(datum, degree)[degree]


def hilbert_table(datum: WeightDatum, n_max: int) -> list[int]:
    """Graded dimensions for degrees 0..n_max inclusive.

    Raises ValueError when the table's work bound exceeds MAX_TABLE_WORK.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    graded_dim(datum, n_max)  # fills the cache entry copied out below
    return list(_table(datum, n_max))


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
