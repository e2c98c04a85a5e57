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
from functools import cached_property
from operator import index as _as_int

from conestab.cones import (
    Cone2,
    Vec2,
    ZERO,
    _in_pair_cone,
    as_vec2,
    dot,
    on_ray,
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
        z = frozenset(map(_as_int, self.z_support))
        w = frozenset(map(_as_int, self.w_support))
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


_SUBSETS = tuple(frozenset(i for i in _INDICES if mask >> (i - 1) & 1) for mask in range(8))
ALL_PATTERNS: tuple[SupportPattern, ...] = tuple(
    SupportPattern(z, w) for z in _SUBSETS for w in _SUBSETS
)


@dataclass(frozen=True)
class WeightDatum:
    """Six torus weights plus the character weight of the linearisation.

    The quadric relation is semi-invariant only when the weight of every
    z_i w_i agrees, so a_i + b_i must be the same for all i; construction
    with ``constrained=False`` waives that check for exploratory data and
    the waiver is recorded on the instance.  The character weight c must be
    nonzero throughout: linearising by the trivial character is excluded.

    Each classifier's verdicts on all 64 patterns are built on first use
    and kept on the datum as two 64-bit pattern bitsets, semistable and
    stable, where bit m stands for the pattern whose ``_mask`` is m
    (``_one_ps_bits``, ``_cone_bits``); neither is a field, so equality,
    hash and repr ignore both.
    """

    a: tuple[Vec2, Vec2, Vec2]
    b: tuple[Vec2, Vec2, Vec2]
    c: Vec2
    constrained: bool = True

    def __post_init__(self):
        a = tuple(as_vec2(v) for v in self.a)
        b = tuple(as_vec2(v) for v in self.b)
        c = as_vec2(self.c)
        if type(self.constrained) is not bool:
            raise TypeError(f"constrained must be a bool, got {self.constrained!r}")
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

    @cached_property
    def _one_ps_bits(self) -> tuple[int, int]:
        return _one_ps_table(self)

    @cached_property
    def _cone_bits(self) -> tuple[int, int]:
        return _cone_table(self)


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


# Bit m of a pattern bitset stands for the pattern whose _mask is m.
_ALL_BITS = (1 << 64) - 1
# A pattern's class by the number of the semistable and stable bitsets holding it.
_BY_RANK = (StabilityClass.UNSTABLE, StabilityClass.STRICTLY_SEMISTABLE, StabilityClass.STABLE)


# Entry d is the bitset of the masks within d.
_SUBMASK_BITS = tuple(sum(1 << s for s in range(64) if s & ~d == 0) for d in range(64))


def _one_ps_table(datum: WeightDatum) -> tuple[int, int]:
    """The semistable and the stable patterns of the datum, as bitsets.

    The candidate one-parameter subgroups are -c and the +-90 degree
    rotations of every nonzero weight and of c.  The dual mask of a
    candidate alpha holds the weights pairing nonnegatively with it.  With
    <c, alpha> < 0 it destabilizes every pattern within its dual mask; with
    <c, alpha> == 0 it gives each of them a vanishing Hilbert-Mumford
    weight.  Candidates with <c, alpha> > 0 witness neither: the entry
    -<c, alpha> of the weight is then negative, whatever the supported
    weights pair to.  A weight w pairs with the rotation (-y, x) of
    v = (x, y) to the cross product of v and w.
    """
    ws = datum.weights()
    cx, cy = datum.c
    mask = 0
    for k, (x, y) in enumerate(ws):
        if x * cx + y * cy <= 0:
            mask |= 1 << k
    unstable = _SUBMASK_BITS[mask]  # alpha = -c, and <c, -c> < 0
    null = 0
    for vx, vy in ws + (datum.c,):
        if not (vx or vy):
            continue
        left = right = 0  # the dual masks of (-vy, vx) and of (vy, -vx)
        for k, (x, y) in enumerate(ws):
            side = vx * y - vy * x
            if side >= 0:
                left |= 1 << k
            if side <= 0:
                right |= 1 << k
        pairing = vx * cy - vy * cx  # <c, (-vy, vx)>
        if pairing < 0:
            unstable |= _SUBMASK_BITS[left]
        elif pairing > 0:
            unstable |= _SUBMASK_BITS[right]
        else:
            null |= _SUBMASK_BITS[left] | _SUBMASK_BITS[right]
    return _ALL_BITS ^ unstable, _ALL_BITS ^ (unstable | null)


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
    than the supported ones, and turned into two bitsets over the 64
    patterns, the semistable and the stable ones (``_one_ps_table``); a
    verdict is then two bit tests.  That cannot create a false verdict:
    every candidate is a genuine direction, checked against exactly the
    supported weights, and the candidates of the pattern are a subset of
    those of the datum.  The randomized harness double-checks the
    reduction against a dense sweep.
    """
    semistable, stable = datum._one_ps_bits
    m = pattern._mask
    return _BY_RANK[(semistable >> m & 1) + (stable >> m & 1)]


# The cone classifier's own tables: entry m of the first is the bitset of
# the masks containing m, entry d of the second that of the masks with a
# weight outside d.
_SUPERMASK_BITS = tuple(sum(1 << s for s in range(64) if s & m == m) for m in range(64))
_ESCAPING_BITS = tuple(sum(1 << s for s in range(64) if s & ~d) for d in range(64))


def _cone_table(datum: WeightDatum) -> tuple[int, int]:
    """The semistable and the stable patterns of the datum, as bitsets.

    Semistable are the patterns containing a single weight or a weight pair
    whose cone holds c.  Stable are those that also escape the dual mask
    (the weights pairing nonnegatively) of every +-90 degree rotation alpha
    of a nonzero weight or of c with <c, alpha> <= 0.  That covers the
    spanning condition of ``classify_by_cone``: a semistable pattern whose
    supported weights do not span the plane holds c on their line, so the
    rotation of one supported weight pairs to 0 with c and with all of
    them, and its dual mask holds the pattern.
    """
    ws = datum.weights()
    c = datum.c
    cx, cy = c
    semistable = 0
    for i in range(6):
        u = ws[i]
        if on_ray(u, c):
            semistable |= _SUPERMASK_BITS[1 << i]
        for j in range(i + 1, 6):
            if _in_pair_cone(u, ws[j], c):
                semistable |= _SUPERMASK_BITS[1 << i | 1 << j]
    free = _ALL_BITS
    for vx, vy in ws + (c,):
        if vx or vy:
            for ax, ay in ((-vy, vx), (vy, -vx)):
                if cx * ax + cy * ay <= 0:
                    dual = 0
                    for k, (x, y) in enumerate(ws):
                        if x * ax + y * ay >= 0:
                            dual |= 1 << k
                    free &= _ESCAPING_BITS[dual]
    return semistable, semistable & free


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
    weights, and turned into two bitsets over the 64 patterns, the
    semistable and the stable ones (``_cone_table``); a verdict is then two
    bit tests.  That cannot create a false verdict: every listed cone and
    direction is genuine, a pattern uses only the cones of its supported
    weights and checks each direction against exactly its supported
    weights, and the directions of the pattern are a subset of those of the
    datum.  Implemented purely with cone primitives and its own bitset
    tables; ``classify_by_one_ps`` re-derives the same verdicts
    independently.
    """
    semistable, stable = datum._cone_bits
    m = pattern._mask
    return _BY_RANK[(semistable >> m & 1) + (stable >> m & 1)]


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
    equivalence testable.  Each distinct cone is tested once: cone(v, v)
    is the ray of v, and cone(v_i, v_j) = cone(v_j, v_i).
    """
    c = datum.c
    for block in (datum.a, datum.b):
        for i in range(3):
            u = block[i]
            if on_ray(u, c):
                return False
            for j in range(i + 1, 3):
                if _in_pair_cone(u, block[j], c):
                    return False
    return all(_in_pair_cone(u, v, c) for u in datum.a for v in datum.b)


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
