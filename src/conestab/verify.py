"""Randomized and exhaustive consistency checks, plus the moment map.

Every suite draws reproducible trial data from an explicit seed, compares
two independently implemented answers, and reports the first failing
datum verbatim.  A passing report means zero disagreements; any
disagreement is an implementation bug, never acceptable noise.

Floating point appears only in moment_map and never feeds the exact
predicates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import index as _as_int
from typing import Iterator, NamedTuple

import numpy as np

from conestab.cones import Cone2, Vec2, cross, dot, neg, strictly_separates
from conestab.graded import find_invariant_monomial
from conestab.stability import (
    ALL_PATTERNS,
    StabilityClass,
    WeightDatum,
    classify_by_one_ps,
    fan_condition,
    fan_condition_membership,
    hm_weight,
)


@dataclass(frozen=True)
class TrialConfig:
    """Reproducible trial-stream parameters for the verification suites."""

    seed: int = 0
    trials: int = 100
    coord_bound: int = 20
    enforce_constraint: bool = True

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_int(self.seed))
        object.__setattr__(self, "trials", _as_int(self.trials))
        object.__setattr__(self, "coord_bound", _as_int(self.coord_bound))
        if type(self.enforce_constraint) is not bool:
            raise TypeError(f"enforce_constraint must be a bool, got {self.enforce_constraint!r}")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.coord_bound <= 0:
            raise ValueError("coord_bound must be positive")


@dataclass
class VerifyReport:
    suite: str
    config: TrialConfig
    checked: int = 0
    disagreements: int = 0
    first_failure: str | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.disagreements == 0

    def record_failure(self, description: str) -> None:
        self.disagreements += 1
        if self.first_failure is None:
            self.first_failure = description

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.config.seed,
            "trials": self.config.trials,
            "coord_bound": self.config.coord_bound,
            "enforce_constraint": self.config.enforce_constraint,
            "checked": self.checked,
            "disagreements": self.disagreements,
            "first_failure": self.first_failure,
            "details": dict(sorted(self.details.items())),
            "passed": self.passed,
        }


def random_datum(cfg: TrialConfig, rng: random.Random) -> WeightDatum:
    """One trial datum drawn from the coordinate box.

    The three z-weights and a common sum are sampled uniformly; with the
    constraint enforced the w-weights are the differences, otherwise they
    are sampled independently.  The character is resampled until nonzero.
    """
    b = cfg.coord_bound

    def vec() -> Vec2:
        return (rng.randint(-b, b), rng.randint(-b, b))

    a = (vec(), vec(), vec())
    if cfg.enforce_constraint:
        s = vec()
        bs = tuple((s[0] - ai[0], s[1] - ai[1]) for ai in a)
    else:
        bs = (vec(), vec(), vec())
    c = vec()
    while c == (0, 0):
        c = vec()
    return WeightDatum(a=a, b=bs, c=c, constrained=cfg.enforce_constraint)


def datum_stream(cfg: TrialConfig) -> Iterator[WeightDatum]:
    """The reproducible sequence of cfg.trials data for this config."""
    rng = random.Random(cfg.seed)
    for _ in range(cfg.trials):
        yield random_datum(cfg, rng)


def main_theorem_sides(datum: WeightDatum) -> tuple[bool, bool]:
    """Left side: the fan condition.  Right side: the stable locus, the
    semistable locus and the open locus with both blocks nonzero all agree
    at pattern level.  The two sides are expected to coincide for every
    datum; the main-theorem suite checks that on random data."""
    lhs = fan_condition(datum)
    rhs = True
    for p in ALL_PATTERNS:
        if not p.is_realizable():
            continue
        cls = classify_by_one_ps(datum, p)
        if p.is_open_pattern():
            if cls is not StabilityClass.STABLE:
                rhs = False
                break
        elif cls.semistable:
            rhs = False
            break
    return lhs, rhs


def verify_main_theorem(cfg: TrialConfig) -> VerifyReport:
    """Fan condition iff stable = semistable = open locus, per pattern."""
    report = VerifyReport(suite="main-theorem", config=cfg)
    for d in datum_stream(cfg):
        lhs, rhs = main_theorem_sides(d)
        report.checked += 1
        if lhs != rhs:
            report.record_failure(f"fan={lhs} but pattern-level equality={rhs} for {d!r}")
    return report


def verify_star_equivalence(cfg: TrialConfig) -> VerifyReport:
    """Interior form of the fan condition iff the membership form."""
    report = VerifyReport(suite="star-equivalence", config=cfg)
    for d in datum_stream(cfg):
        lhs = fan_condition(d)
        rhs = fan_condition_membership(d)
        report.checked += 1
        if lhs != rhs:
            report.record_failure(f"interior form={lhs} but membership form={rhs} for {d!r}")
    return report


_EXHAUSTIVE_INTCONE_BOUND = 6


def _intcone_hypothesis(a: Vec2, b: Vec2, c: Vec2) -> bool:
    """c = s*a + t*b with s, t > 0 for independent a, b, by Cramer's rule.

    Only the signs of the numerators against the determinant matter.
    Degenerate pairs never qualify: their cone is a union of two rays.
    """
    d = cross(a, b)
    return d != 0 and cross(c, b) * d > 0 and cross(a, c) * d > 0


def verify_intcone(cfg: TrialConfig) -> VerifyReport:
    """Membership off both rays implies interior membership, for pairs.

    Exhaustive over the whole coordinate box when the bound is small
    enough; randomized triples otherwise.
    """
    report = VerifyReport(suite="intcone", config=cfg)
    exhaustive = cfg.coord_bound <= _EXHAUSTIVE_INTCONE_BOUND
    report.details["exhaustive"] = exhaustive
    hits = 0

    def check(a: Vec2, b: Vec2, c: Vec2, cone: Cone2) -> None:
        nonlocal hits
        report.checked += 1
        if not _intcone_hypothesis(a, b, c):
            return
        hits += 1
        if not cone.contains(c):
            report.record_failure(f"pre-filter accepted {c} outside cone({a}, {b})")
            return
        if not cone.interior_contains(c):
            report.record_failure(
                f"{c} in cone({a}, {b}) off both rays but not in the interior"
            )

    if exhaustive:
        bound = cfg.coord_bound
        box = [
            (x, y)
            for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1)
        ]
        for a in box:
            for b in box:
                if cross(a, b) == 0:
                    report.checked += len(box)
                    continue
                cone = Cone2((a, b))
                for c in box:
                    check(a, b, c, cone)
    else:
        rng = random.Random(cfg.seed)
        bound = cfg.coord_bound

        def vec() -> Vec2:
            return (rng.randint(-bound, bound), rng.randint(-bound, bound))

        for _ in range(cfg.trials):
            a, b, c = vec(), vec(), vec()
            check(a, b, c, Cone2((a, b)))

    report.details["hypothesis_hits"] = hits
    return report


def _primitive_direction_array(sweep_bound: int) -> np.ndarray:
    side = np.arange(-sweep_bound, sweep_bound + 1, dtype=np.int64)
    xs, ys = np.meshgrid(side, side, indexing="ij")
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
    mask = np.gcd(np.abs(grid[:, 0]), np.abs(grid[:, 1])) == 1
    return grid[mask]


def _sweep_columns(datum: WeightDatum, sweep_bound: int) -> np.ndarray:
    """The six weights and -c as the sweep's seven columns.

    int64 is ample for sane inputs; exact Python integers (dtype=object)
    when a pairing with a direction of the sweep could approach the
    overflow line.
    """
    ws = datum.weights() + (neg(datum.c),)
    big = max(abs(x) for v in ws for x in v)
    return np.array(ws, dtype=np.int64 if 2 * big * sweep_bound < 2**62 else object)


# Column i - 1 pairs with a_i, column j + 2 with b_j and column 6 with -c.
# A pattern's weight at a direction is minus the least pairing over its
# columns; its mask has one bit per column.
_SWEEP_PATTERN_COLUMNS = tuple(
    tuple(sorted(i - 1 for i in p.z_support))
    + tuple(sorted(j + 2 for j in p.w_support))
    + (6,)
    for p in ALL_PATTERNS
)
_PATTERN_MASKS = np.array(
    [[sum(1 << k for k in columns)] for columns in _SWEEP_PATTERN_COLUMNS], dtype=np.int64
)
_COLUMN_BITS = 1 << np.arange(7, dtype=np.int64)
# a direction's row of seven signs is one base-3 code, digit k = sign + 1
_SIGN_DIGITS = 3 ** np.arange(7, dtype=np.int64)


def _sweep_flags(cols: np.ndarray, dirs: np.ndarray) -> list[tuple[bool, bool]]:
    """(found_negative, found_zero) for each pattern of ALL_PATTERNS, from a
    datum's sweep columns (``_sweep_columns``) and the sweep's directions.

    found_negative: some direction of dirs gives the pattern a negative
    weight, i.e. pairs every column of the pattern positively.
    found_zero: some direction gives it weight zero, i.e. pairs every
    column nonnegatively and one of them to zero.  Each direction reduces
    to its row of signs; only the few dozen distinct rows are tested, by
    mask, against the 64 patterns.
    """
    vals = dirs @ cols.T
    codes = np.asarray((np.sign(vals) + 1) @ _SIGN_DIGITS, dtype=np.int64)
    digits = np.flatnonzero(np.bincount(codes))[:, None] // _SIGN_DIGITS % 3
    positive = (digits == 2) @ _COLUMN_BITS
    nonnegative = (digits >= 1) @ _COLUMN_BITS
    m = _PATTERN_MASKS
    all_positive = (positive & m) == m  # (patterns, distinct rows)
    found_zero = ((nonnegative & m) == m) & ~all_positive
    return list(zip(all_positive.any(axis=1).tolist(), found_zero.any(axis=1).tolist()))


def verify_hm_reduction(cfg: TrialConfig, sweep_bound: int = 50) -> VerifyReport:
    """Dense one-parameter-subgroup sweep against the finite reduction.

    The sweep sees finitely many directions, so it can only weaken
    verdicts: a negative weight found by the sweep forces Unstable, a zero
    weight forces not-Stable.  Contradictions mean the finite
    critical-direction reduction in the classifier is wrong.  Each datum
    is swept once: every direction's pairings reduce to a row of signs,
    the distinct rows are kept, and all 64 patterns are tested against
    them by mask (``_sweep_flags``).
    """
    if sweep_bound <= 0:
        raise ValueError("sweep_bound must be positive")
    report = VerifyReport(suite="hm-reduction", config=cfg)
    report.details["sweep_bound"] = sweep_bound
    dirs = _primitive_direction_array(sweep_bound)
    cross_rng = random.Random(cfg.seed ^ 0x5EED)
    cross_checks = 0
    fallback_data = 0

    for d in datum_stream(cfg):
        cols = _sweep_columns(d, sweep_bound)
        use_int64 = cols.dtype == np.int64
        if not use_int64:
            fallback_data += 1
        flags = _sweep_flags(cols, dirs)
        for idx, p in enumerate(ALL_PATTERNS):
            verdict = classify_by_one_ps(d, p)
            report.checked += 1
            found_negative, found_zero = flags[idx]
            if found_negative and verdict is not StabilityClass.UNSTABLE:
                report.record_failure(
                    f"sweep found destabilizing direction but verdict is "
                    f"{verdict} for pattern {p} of {d!r}"
                )
            elif found_zero and verdict is StabilityClass.STABLE:
                report.record_failure(
                    f"sweep found a zero-weight direction but verdict is "
                    f"Stable for pattern {p} of {d!r}"
                )
            # spot-check the vectorized weights against the exact formula
            if use_int64 and idx % 17 == 0 and cross_checks < 64:
                row = cross_rng.randrange(dirs.shape[0])
                alpha = (int(dirs[row, 0]), int(dirs[row, 1]))
                exact = hm_weight(d, p, alpha)
                pairings = dirs[row] @ cols.T
                swept = -min(int(pairings[k]) for k in _SWEEP_PATTERN_COLUMNS[idx])
                cross_checks += 1
                if exact != swept:
                    report.record_failure(
                        f"vectorized weight {swept} != exact {exact} at "
                        f"alpha={alpha}, pattern {p} of {d!r}"
                    )
    report.details["exact_cross_checks"] = cross_checks
    report.details["exact_fallback_data"] = fallback_data
    return report


def _degenerate_variants(d: WeightDatum) -> list[WeightDatum]:
    zeroed = WeightDatum(
        a=((0, 0),) + d.a[1:], b=d.b, c=d.c, constrained=False
    )
    opposite = WeightDatum(
        a=d.a,
        b=((-d.a[0][0], -d.a[0][1]),) + d.b[1:],
        c=d.c,
        constrained=False,
    )
    return [zeroed, opposite]


def verify_r0(cfg: TrialConfig) -> VerifyReport:
    """Gordan's alternative for the six weights, each side with its certificate.

    Exactly one of an invariant monomial (a nonnegative relation among the
    weights, from ``positive_relation``) and a direction pairing strictly
    positively with every weight (``strictly_separates``) must exist.  Each
    certificate is checked on its own: the monomial has weight (0, 0) and
    is nonconstant, the direction pairs positively with each weight.  Every
    trial also exercises two forced degenerations (a zeroed weight and an
    opposite pair) since random data rarely hits them.
    """
    report = VerifyReport(suite="r0", config=cfg)
    for d in datum_stream(cfg):
        for variant in [d] + _degenerate_variants(d):
            report.checked += 1
            ws = variant.weights()
            witness = find_invariant_monomial(variant)
            alpha = strictly_separates(ws)
            if (witness is None) == (alpha is None):
                report.record_failure(
                    f"witness={witness} and separator={alpha} for {variant!r}"
                )
            elif witness is not None and (
                witness.weight(variant) != (0, 0) or witness.is_constant()
            ):
                report.record_failure(
                    f"bad witness {witness} for {variant!r}"
                )
            elif alpha is not None and not all(dot(w, alpha) > 0 for w in ws):
                report.record_failure(
                    f"bad separator {alpha} for {variant!r}"
                )
    return report


VERIFY_SUITES = {
    "main-theorem": verify_main_theorem,
    "star-equivalence": verify_star_equivalence,
    "intcone": verify_intcone,
    "hm-reduction": verify_hm_reduction,
    "r0": verify_r0,
}


ComplexVec3 = tuple[complex, complex, complex]


class MomentValue(NamedTuple):
    phi: tuple[float, float]
    residual: float


def _as_complex3(point) -> ComplexVec3:
    vals = list(point)
    if len(vals) != 3:
        raise ValueError("expected three complex coordinates")
    out = []
    for q in vals:
        if isinstance(q, complex):
            out.append(q)
        elif isinstance(q, (int, float)):
            out.append(complex(q))
        else:
            re, im = q
            out.append(complex(float(re), float(im)))
    return tuple(out)


def moment_map(datum: WeightDatum, z, w) -> MomentValue:
    """Weighted coordinate norms, plus the quadric residual of the point.

    phi = sum_j (a_j |z_j|^2 + b_j |w_j|^2); the residual |sum z_j w_j|
    lets callers check numerically whether the point lies on the quadric.
    Double precision throughout; the result never feeds exact predicates.
    """
    zs = _as_complex3(z)
    ws = _as_complex3(w)
    px = py = 0.0
    for (ax, ay), q in zip(datum.a, zs):
        m = q.real * q.real + q.imag * q.imag
        px += ax * m
        py += ay * m
    for (bx, by), q in zip(datum.b, ws):
        m = q.real * q.real + q.imag * q.imag
        px += bx * m
        py += by * m
    residual = abs(sum(zq * wq for zq, wq in zip(zs, ws)))
    return MomentValue(phi=(px, py), residual=residual)
