"""Stability classification for a rank-2 torus acting on the quadric sum(z_i w_i) = 0.

The torus (C*)^2 acts diagonally on C^3 x C^3 with integer weight vectors
a_1..a_3 on the z block and b_1..b_3 on the w block; a nonzero character
weight c fixes the linearisation.  Whether a point of the quadric is
stable, strictly semistable or unstable depends only on which coordinates
vanish, so the classifiers below take a support pattern rather than a
point, and every verdict is computed exactly.

Two classifiers are provided on purpose.  ``classify_by_one_ps`` argues
through one-parameter subgroups: a destabilising direction makes the point
flow into the zero level of the character line, a null direction witnesses
a vanishing Hilbert-Mumford weight.  ``classify_by_cone`` answers the same
question through membership of the character in the cone spanned by the
supported weights.  They share no decision code, which makes their
agreement a meaningful consistency check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from conestab.cones import (
    Cone2,
    Vec2,
    ZERO,
    as_vec2,
    cross,
    dot,
    neg,
    on_ray,
    perp,
    positive_relation,
)

_INDICES = (1, 2, 3)


class StabilityClass(Enum):
    UNSTABLE = "unstable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    STABLE = "stable"

    @property
    def semistable(self) -> bool:
        return self is not StabilityClass.UNSTABLE

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SupportPattern:
    """Which of the coordinates z_1..z_3 and w_1..w_3 are nonzero."""

    z_support: frozenset[int]
    w_support: frozenset[int]
    # bit k is set iff weight k of WeightDatum.weights() is supported
    _mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z = frozenset(self.z_support)
        w = frozenset(self.w_support)
        for s in (z, w):
            if not s.issubset(_INDICES):
                raise ValueError(f"support indices must lie in {{1, 2, 3}}, got {sorted(s)}")
        object.__setattr__(self, "z_support", z)
        object.__setattr__(self, "w_support", w)
        mask = sum(1 << (i - 1) for i in z) | sum(1 << (j + 2) for j in w)
        object.__setattr__(self, "_mask", mask)

    def is_realizable(self) -> bool:
        """Some point of the quadric sum(z_i w_i) = 0 has exactly this support.

        The quadric constraint only couples coordinates with a common
        index; a single common index forces a nonzero product, two or more
        can cancel, none is unconstrained.
        """
        return len(self.z_support & self.w_support) != 1

    def is_open_pattern(self) -> bool:
        """Realizable with z != 0 and w != 0, the support of a point of the
        open locus where both blocks survive."""
        return bool(self.z_support) and bool(self.w_support) and self.is_realizable()

    def __str__(self) -> str:
        z = "".join(str(i) for i in sorted(self.z_support)) or "-"
        w = "".join(str(i) for i in sorted(self.w_support)) or "-"
        return f"z{{{z}}}w{{{w}}}"


def _subsets() -> tuple[frozenset[int], ...]:
    out = []
    for mask in range(8):
        out.append(frozenset(i for i in _INDICES if mask >> (i - 1) & 1))
    return tuple(out)


ALL_PATTERNS: tuple[SupportPattern, ...] = tuple(
    SupportPattern(z, w) for z in _subsets() for w in _subsets()
)


@dataclass(frozen=True)
class WeightDatum:
    """Six torus weights plus the character weight of the linearisation.

    The quadric relation is semi-invariant only when the weight of every
    z_i w_i agrees, so a_i + b_i must be the same for all i; construction
    with ``constrained=False`` waives that check for exploratory data and
    the waiver is recorded on the instance.  The character weight c must be
    nonzero throughout: linearising by the trivial character is excluded.
    """

    a: tuple[Vec2, Vec2, Vec2]
    b: tuple[Vec2, Vec2, Vec2]
    c: Vec2
    constrained: bool = True

    def __post_init__(self):
        a = tuple(as_vec2(v) for v in self.a)
        b = tuple(as_vec2(v) for v in self.b)
        c = as_vec2(self.c)
        if len(a) != 3 or len(b) != 3:
            raise ValueError("exactly three z weights and three w weights are required")
        if c == ZERO:
            raise ValueError(
                "character weight C must be nonzero; the torus character is assumed nontrivial"
            )
        if self.constrained:
            sums = [(ai[0] + bi[0], ai[1] + bi[1]) for ai, bi in zip(a, b)]
            if len(set(sums)) != 1:
                try:
                    got = f"got {sorted(set(sums))}"
                except ValueError:  # a sum is past the int-to-str digit limit
                    differ = " and ".join(
                        f"a_{i} + b_{i}" for i in (2, 3) if sums[i - 1] != sums[0]
                    )
                    got = f"a_1 + b_1 differs from {differ}; the sums are too long to print"
                raise ValueError(
                    "weight sums a_i + b_i must be constant across i "
                    f"({got}); pass constrained=False to waive"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def weights(self) -> tuple[Vec2, ...]:
        """All six weight vectors, z block first."""
        return self.a + self.b

    def supported_weights(self, pattern: SupportPattern) -> list[Vec2]:
        return [self.a[i - 1] for i in sorted(pattern.z_support)] + [
            self.b[j - 1] for j in sorted(pattern.w_support)
        ]


def flag_datum() -> WeightDatum:
    """The weight datum whose quotient is the full flag variety of C^3."""
    return WeightDatum(
        a=((1, 0), (1, 0), (1, 0)),
        b=((0, 1), (0, 1), (0, 1)),
        c=(1, 1),
    )


def hm_weight(datum: WeightDatum, pattern: SupportPattern, alpha) -> int:
    """Hilbert-Mumford weight of the one-parameter subgroup t -> (t^a1, t^a2).

    Computed as minus the minimum of the pairings of alpha with the
    supported weights together with minus the character pairing; the
    trivial subgroup alpha = (0, 0) always scores zero.
    """
    alpha = as_vec2(alpha)
    entries = [dot(v, alpha) for v in datum.supported_weights(pattern)]
    entries.append(-dot(datum.c, alpha))
    return -min(entries)


# Each classifier memoises a small table of datum-level facts, so that
# classifying one pattern is a handful of tests of its 6-bit support mask
# against that table.  A cache of a few data serves every caller that
# classifies the patterns of one datum in a row.
_TABLE_CACHE_SIZE = 16


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _one_ps_table(datum: WeightDatum) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Candidate one-parameter subgroups of the datum, as dual masks.

    The candidates are -c and the +-90 degree rotations of every nonzero
    weight and of c.  Returns the masks of weights pairing nonnegatively
    with a candidate alpha, split into those with <c, alpha> < 0
    (destabilizing once the supported weights lie in the mask) and those
    with <c, alpha> == 0 (a vanishing Hilbert-Mumford weight).  Candidates
    with <c, alpha> > 0 witness neither: the entry -<c, alpha> of the
    weight is then negative, whatever the supported weights pair to.
    """
    ws = datum.weights()
    c = datum.c
    candidates = [neg(c)]
    for v in ws + (c,):
        if v != ZERO:
            q = perp(v)
            candidates += (q, neg(q))
    destabilizing, null = set(), set()
    for alpha in candidates:
        pairing = dot(c, alpha)
        if pairing <= 0:
            mask = sum(1 << k for k, v in enumerate(ws) if dot(v, alpha) >= 0)
            (destabilizing if pairing < 0 else null).add(mask)
    return tuple(destabilizing), tuple(null)


def classify_by_one_ps(datum: WeightDatum, pattern: SupportPattern) -> StabilityClass:
    """Classify a support pattern by scanning one-parameter subgroups.

    Unstable when some subgroup alpha drags the lifted point into the zero
    level of the character line: <v, alpha> >= 0 for every supported
    weight v and <c, alpha> < 0.  Such a direction exists iff one exists
    among -c and the rotations of the supported weights, because a linear
    functional is negative somewhere on a planar cone iff it is negative
    on a boundary ray, or the cone is the whole plane and -c qualifies.
    Strictly semistable when otherwise some nonzero subgroup has vanishing
    Hilbert-Mumford weight; any nonzero cone cut out by finitely many
    half-planes contains a ray perpendicular to one of its defining
    vectors, so the rotations of the supported weights and of c suffice.
    Stable otherwise.

    The candidates are taken once per datum, from all six weights rather
    than the supported ones (``_one_ps_table``).  That cannot create a
    false verdict: every candidate is a genuine direction, checked against
    exactly the supported weights, and the candidates of the pattern are a
    subset of those of the datum.  The randomized harness double-checks
    the reduction against a dense sweep.
    """
    destabilizing, null = _one_ps_table(datum)
    m = pattern._mask
    for mask in destabilizing:
        if m & mask == m:
            return StabilityClass.UNSTABLE
    for mask in null:
        if m & mask == m:
            return StabilityClass.STRICTLY_SEMISTABLE
    return StabilityClass.STABLE


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _cone_table(datum: WeightDatum) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Datum-level cone facts, as masks of weights.

    Returns the single weights and weight pairs whose cone contains c, the
    pairs that span the plane, and the dual masks (weights pairing
    nonnegatively) of the +-90 degree rotations alpha of every nonzero
    weight and of c with <c, alpha> <= 0.
    """
    ws = datum.weights()
    c = datum.c
    n = len(ws)
    containing = [1 << i for i in range(n) if on_ray(ws[i], c)]
    spanning = []
    for i in range(n):
        for j in range(i + 1, n):
            pair = 1 << i | 1 << j
            if Cone2((ws[i], ws[j])).contains(c):
                containing.append(pair)
            if cross(ws[i], ws[j]) != 0:
                spanning.append(pair)
    dual = set()
    for v in ws + (c,):
        if v != ZERO:
            q = perp(v)
            for alpha in (q, neg(q)):
                if dot(c, alpha) <= 0:
                    dual.add(sum(1 << k for k, u in enumerate(ws) if dot(u, alpha) >= 0))
    return tuple(containing), tuple(spanning), tuple(dual)


def classify_by_cone(datum: WeightDatum, pattern: SupportPattern) -> StabilityClass:
    """Classify a support pattern by cone membership of the character weight.

    Semistable iff c lies in the cone spanned by the supported weights,
    which by Caratheodory means in the cone of one or two of them.  Stable
    additionally needs that cone to span the plane, which some supported
    pair then does, and no nonzero direction to pair nonnegatively with all
    supported weights while pairing nonpositively with c (which would make
    the Hilbert-Mumford weight vanish there); such a direction exists iff
    one exists among the rotations of the supported weights and of c.

    The cones and the directions are examined once per datum, over all six
    weights (``_cone_table``).  That cannot create a false verdict: every
    listed cone and direction is genuine, a pattern uses only the cones of
    its supported weights and checks each direction against exactly its
    supported weights, and the directions of the pattern are a subset of
    those of the datum.  Implemented purely with cone primitives;
    ``classify_by_one_ps`` re-derives the same verdicts independently.
    """
    containing, spanning, dual = _cone_table(datum)
    m = pattern._mask
    for mask in containing:
        if mask & m == mask:
            break
    else:
        return StabilityClass.UNSTABLE
    for mask in spanning:
        if mask & m == mask:
            break
    else:
        return StabilityClass.STRICTLY_SEMISTABLE
    for mask in dual:
        if m & mask == m:
            return StabilityClass.STRICTLY_SEMISTABLE
    return StabilityClass.STABLE


def fan_condition(datum: WeightDatum) -> bool:
    """Apex plus interior condition on the weight arrangement.

    True iff the six weights span a cone with apex 0 and the character
    weight is interior to cone(a_i, b_j) for every mixed pair i != j.
    This is exactly the condition under which the stable locus, the
    semistable locus and the open locus z != 0 != w all coincide.  The
    pair cones come first, so a datum that fails one skips the apex test,
    a relation search that ``r0_is_trivial`` repeats.
    """
    c = datum.c
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            if not Cone2((datum.a[i], datum.b[j])).interior_contains(c):
                return False
    return Cone2(datum.weights()).has_apex()


def fan_condition_membership(datum: WeightDatum) -> bool:
    """Reformulation of ``fan_condition`` using closed-cone membership only.

    True iff the character weight lies in cone(a_i, b_j) for all i, j
    (including i = j) and in no cone(a_i, a_j) or cone(b_i, b_j).  The two
    formulations are provably equivalent; keeping both makes the
    equivalence testable.
    """
    c = datum.c
    for i in range(3):
        for j in range(3):
            if Cone2((datum.a[i], datum.a[j])).contains(c):
                return False
            if Cone2((datum.b[i], datum.b[j])).contains(c):
                return False
            if not Cone2((datum.a[i], datum.b[j])).contains(c):
                return False
    return True


def r0_is_trivial(datum: WeightDatum) -> bool:
    """Do the degree-0 invariants reduce to constants?

    An invariant monomial is a nonnegative integer relation among the six
    weights, so they are trivial iff ``positive_relation`` finds none:
    every weight is nonzero and the six span a cone with apex 0.  The same
    search yields the witness of ``find_invariant_monomial``; the r0 suite
    checks it against ``strictly_separates``, the dual answer.
    """
    return positive_relation(datum.weights()) is None


def weights_from_biquotient(w_left, w_right) -> WeightDatum:
    """Translate two-sided torus exponent data into a weight datum.

    ``w_left`` and ``w_right`` each collect three integer exponent pairs of
    a rank-2 torus acting from the left and from the right; the induced
    weights on the quadric model are a_j = wL_j - wR_1 and
    b_j = -wL_j + wR_3, with character weight c = -wR_1 + wR_3.  The
    constant-sum constraint holds automatically.  Input with wR_1 = wR_3
    makes the character trivial and is rejected.
    """
    wl = tuple(as_vec2(v) for v in w_left)
    wr = tuple(as_vec2(v) for v in w_right)
    if len(wl) != 3 or len(wr) != 3:
        raise ValueError("both exponent collections must have exactly three pairs")
    r1, r3 = wr[0], wr[2]
    a = tuple((v[0] - r1[0], v[1] - r1[1]) for v in wl)
    b = tuple((r3[0] - v[0], r3[1] - v[1]) for v in wl)
    c = (r3[0] - r1[0], r3[1] - r1[1])
    if c == ZERO:
        raise ValueError(
            "first and third right exponents coincide: the induced character "
            "weight C is zero, but the torus character is assumed nontrivial"
        )
    return WeightDatum(a=a, b=b, c=c)
