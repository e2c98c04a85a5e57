"""Exact geometry of rational polyhedral cones in the integer plane.

Everything here runs on arbitrary-precision integers; no floating point is
involved.  A cone is the set of nonnegative real combinations of finitely
many integer generators, and in two dimensions every membership or
separation question reduces to sign tests on cross and dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index as _as_int
from typing import Iterable

Vec2 = tuple[int, int]

ZERO: Vec2 = (0, 0)


def as_vec2(v) -> Vec2:
    """Coerce a length-2 sequence of integers to a plain tuple.

    Floats are rejected outright so no inexact value can sneak into the
    exact predicates.
    """
    x, y = v
    return (_as_int(x), _as_int(y))


def dot(u: Vec2, v: Vec2) -> int:
    return u[0] * v[0] + u[1] * v[1]


def cross(u: Vec2, v: Vec2) -> int:
    return u[0] * v[1] - u[1] * v[0]


def neg(v: Vec2) -> Vec2:
    return (-v[0], -v[1])


def perp(v: Vec2) -> Vec2:
    """Rotate a vector by +90 degrees."""
    return (-v[1], v[0])


def on_ray(a: Vec2, p: Vec2) -> bool:
    """True iff p lies on {t*a : t >= 0}, the cone of the single generator a."""
    if a == ZERO:
        return p == ZERO
    return cross(a, p) == 0 and dot(a, p) >= 0


def _in_pair_cone(a: Vec2, b: Vec2, p: Vec2) -> bool:
    """Membership of p in cone(a, b), including every degenerate shape.

    For independent a, b the 2x2 system p = s*a + t*b is solved by Cramer's
    rule and only the signs of the numerators matter.  Collinear pairs
    collapse to a ray or a line, which reduce to single-ray tests.
    """
    if p == ZERO:
        return True
    d = cross(a, b)
    if d == 0:
        # {0}, one ray, or (for opposite generators) the whole line; the
        # line case is exactly the union of the two rays.
        return on_ray(a, p) or on_ray(b, p)
    s = cross(p, b)  # s/d is the coefficient of a
    t = cross(a, p)  # t/d is the coefficient of b
    if d > 0:
        return s >= 0 and t >= 0
    return s <= 0 and t <= 0


def positive_relation(vectors: Iterable[Vec2]) -> dict[int, int] | None:
    """A nontrivial nonnegative integer relation among the inputs, or None.

    Returns {index: coefficient} with positive coefficients whose weighted
    sum of inputs is (0, 0).  In the plane a minimal relation is supported
    on a zero vector, an opposite pair, or a triple whose triangle
    surrounds the origin (Caratheodory), so those three shapes are
    enumerated in that order and the first hit is returned.  By Gordan's
    alternative the answer is None exactly when some linear form is
    strictly positive on every input, the question ``strictly_separates``
    answers from the dual side.  The inputs must already be ``Vec2``
    tuples: they are not coerced, because ``has_apex`` sits on hot paths.
    """
    vs = tuple(vectors)
    if ZERO in vs:
        return {vs.index(ZERO): 1}
    n = len(vs)
    for i in range(n):
        u = vs[i]
        for j in range(i + 1, n):
            v = vs[j]
            if cross(u, v) == 0 and dot(u, v) < 0:
                if u[0] != 0:
                    return {i: abs(v[0]), j: abs(u[0])}
                return {i: abs(v[1]), j: abs(u[1])}
    for i in range(n):
        u = vs[i]
        for j in range(i + 1, n):
            v = vs[j]
            c1 = cross(u, v)
            for k in range(j + 1, n):
                w = vs[k]
                c2 = cross(v, w)
                c3 = cross(w, u)
                if c1 == 0 and c2 == 0 and c3 == 0:
                    continue
                if c1 >= 0 and c2 >= 0 and c3 >= 0:
                    return {i: c2, j: c3, k: c1}
                if c1 <= 0 and c2 <= 0 and c3 <= 0:
                    return {i: -c2, j: -c3, k: -c1}
    return None


def strictly_separates(vectors: Iterable[Vec2]) -> Vec2 | None:
    """An integer direction pairing strictly positively with every input, or None.

    The empty collection yields (1, 0); a zero vector makes the problem
    infeasible.  One pass keeps the extreme inputs lo, hi of the
    counterclockwise wedge the inputs span, and stops as soon as an input
    would widen it to a half-plane.  A narrower wedge is strictly
    separated by perp(lo) - perp(hi), the sum of its inward normals, or by
    lo when it is a single ray.  The answer is verified before it is
    returned, by a check that raises AssertionError even under
    ``python -O``.  This is the dual side of ``positive_relation``.
    """
    vs = [as_vec2(v) for v in vectors]
    if not vs:
        return (1, 0)
    if ZERO in vs:
        return None
    lo = hi = vs[0]
    for v in vs[1:]:
        after_lo, before_hi = cross(lo, v), cross(v, hi)
        if after_lo < 0 < before_hi:
            lo = v
        elif before_hi < 0 < after_lo:
            hi = v
        elif after_lo < 0 or before_hi < 0 or (after_lo == 0 == before_hi and dot(lo, v) < 0):
            return None
    p, q = perp(lo), perp(hi)
    alpha = lo if cross(lo, hi) == 0 else (p[0] - q[0], p[1] - q[1])
    if not all(dot(v, alpha) > 0 for v in vs):
        raise AssertionError("strictly_separates: the separator fails on an input")
    return alpha


@dataclass(frozen=True, eq=False)
class Cone2:
    """Convex cone in the plane spanned by integer generators.

    The generator list is kept verbatim (duplicates and zero vectors
    included); all predicates are about the generated set.
    """

    generators: tuple[Vec2, ...] = ()

    def __post_init__(self):
        gens = tuple(as_vec2(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)

    def _nonzero(self) -> list[Vec2]:
        return [g for g in self.generators if g != ZERO]

    def contains(self, p) -> bool:
        """Exact membership: is p a nonnegative combination of the generators?

        By Caratheodory's theorem for conical hulls a member of a planar
        cone already lies in the cone of at most two generators, so it is
        enough to scan generator pairs and solve each 2x2 system exactly.
        """
        p = as_vec2(p)
        if p == ZERO:
            return True
        gens = self.generators
        m = len(gens)
        if m == 1:
            return on_ray(gens[0], p)
        for i in range(m):
            a = gens[i]
            for j in range(i + 1, m):
                if _in_pair_cone(a, gens[j], p):
                    return True
        return False

    def interior_contains(self, p) -> bool:
        """Membership in the topological interior of the cone in R^2.

        Decided on the dual side alone.  A cone whose linear hull is a
        point or a line has empty interior.  Otherwise p is interior iff
        <p, alpha> > 0 for every nonzero alpha of the dual cone, and it is
        enough to test the dual's boundary rays: each is a +-90 degree
        rotation of a generator that pairs nonnegatively with every
        generator.  For the cone R^2 the dual is {0}, no rotation
        qualifies, and every p, 0 included, is interior.
        """
        p = as_vec2(p)
        if self.linear_hull_dim() < 2:
            return False
        nz = self._nonzero()
        for v in nz:
            for q in ((-v[1], v[0]), (v[1], -v[0])):  # perp(v) and its negation
                if dot(p, q) > 0:
                    continue
                for g in nz:
                    if dot(g, q) < 0:
                        break
                else:  # q is in the dual and pairs nonpositively with p
                    return False
        return True

    def has_apex(self) -> bool:
        """True iff some linear form is strictly positive on every nonzero generator.

        By Gordan's alternative that fails exactly when the nonzero
        generators satisfy a nontrivial nonnegative relation, which
        ``positive_relation`` searches for.
        """
        return positive_relation(self._nonzero()) is None

    def linear_hull_dim(self) -> int:
        """Dimension (0, 1 or 2) of the linear span of the generators."""
        nz = self._nonzero()
        if not nz:
            return 0
        d = nz[0]
        if all(cross(d, g) == 0 for g in nz[1:]):
            return 1
        return 2

    def __repr__(self) -> str:
        inner = ", ".join(repr(g) for g in self.generators)
        return f"Cone2(({inner}))"
