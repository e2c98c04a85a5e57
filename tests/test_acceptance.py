"""Acceptance gate: the nine top-level guarantees at full scale.

Each test emits exactly one ACCEPTANCE PASS/FAIL line (written past the
capture so it always reaches the terminal).  Scales, seeds and tolerances
are pinned here and are not to be weakened: the checks are exact except
for the floating-point moment map, which gets 1e-12 relative.
"""

import random
import time

import pytest

from conestab.cones import Cone2, strictly_separates
from conestab.graded import hilbert_table
from conestab.moment import moment_map
from conestab.stability import (
    ALL_PATTERNS,
    WeightDatum,
    classify_by_cone,
    classify_by_one_ps,
    flag_datum,
)
from conestab.verify import (
    TrialConfig,
    datum_stream,
    verify_hm_reduction,
    verify_intcone,
    verify_main_theorem,
    verify_r0,
    verify_star_equivalence,
)


@pytest.fixture
def report(capfd):
    """One ACCEPTANCE PASS/FAIL line per criterion, written outside the
    capture so it always reaches the terminal."""

    def emit(name: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}"
        if detail and not ok:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_exhaustive_pair_cone_interior(report):
    """Membership off both rays forces interior membership, over the whole
    coordinate box [-6, 6]^2; zero violations, under one minute."""
    start = time.perf_counter()
    result = verify_intcone(TrialConfig(seed=101, trials=1, coord_bound=6))
    elapsed = time.perf_counter() - start
    ok = result.passed and result.details["exhaustive"] and elapsed < 60.0
    report(
        "exhaustive pair-cone interior check in the [-6,6] box",
        ok,
        f"disagreements={result.disagreements} elapsed={elapsed:.1f}s "
        f"first={result.first_failure}",
    )


def test_half_plane_separator_counterexample(report):
    """A cone without an apex admits no strict separator even for an
    outside point: generators (0,1), (0,-1), (1,1) against (-1,0)."""
    vs = [(0, 1), (0, -1), (1, 1)]
    u = (-1, 0)
    no_separator = strictly_separates(vs + [(1, 0)]) is None
    outside = not Cone2(vs).contains(u)
    report(
        "separator absence on an apexless cone with an outside point",
        no_separator and outside,
        f"separator_missing={no_separator} outside={outside}",
    )


def test_classifier_agreement_at_scale(report):
    """Both stability classifiers agree on 10,000 random data times all 64
    support patterns, coordinate bound 20; zero disagreements, under five
    minutes."""
    start = time.perf_counter()
    cfg = TrialConfig(seed=301, trials=10_000, coord_bound=20)
    bad = None
    for d in datum_stream(cfg):
        for p in ALL_PATTERNS:
            if classify_by_one_ps(d, p) is not classify_by_cone(d, p):
                bad = (d, p)
                break
        if bad:
            break
    elapsed = time.perf_counter() - start
    ok = bad is None and elapsed < 300.0
    report(
        "independent classifier agreement on 10,000 data x 64 patterns",
        ok,
        f"first={bad} elapsed={elapsed:.1f}s",
    )


def test_fan_condition_matches_pattern_classification_at_scale(report):
    """The fan condition holds exactly when every realizable pattern
    classifies stable-iff-open; 10,000 trials, bound 20, exact."""
    result = verify_main_theorem(TrialConfig(seed=401, trials=10_000, coord_bound=20))
    report(
        "fan condition iff pattern-level stable/semistable/open agreement, "
        "10,000 trials",
        result.passed,
        f"disagreements={result.disagreements} first={result.first_failure}",
    )


def test_fan_condition_forms_agree_at_scale(report):
    """Interior form and closed-membership form of the fan condition agree
    on 10,000 trials each with and without the constant-sum constraint."""
    with_constraint = verify_star_equivalence(
        TrialConfig(seed=501, trials=10_000, coord_bound=20)
    )
    without_constraint = verify_star_equivalence(
        TrialConfig(seed=502, trials=10_000, coord_bound=20, enforce_constraint=False)
    )
    ok = with_constraint.passed and without_constraint.passed
    report(
        "fan condition interior form iff membership form, both constraint "
        "regimes",
        ok,
        f"constrained_first={with_constraint.first_failure} "
        f"unconstrained_first={without_constraint.first_failure}",
    )


def test_invariant_triviality_agreement_at_scale(report):
    """Trivial degree-0 invariants exactly when no invariant monomial is
    found, on 10,000 trials plus forced zero-weight and opposite-pair
    degenerations of each."""
    result = verify_r0(TrialConfig(seed=601, trials=10_000, coord_bound=20))
    ok = result.passed and result.checked == 30_000
    report(
        "degree-0 invariant triviality iff no invariant monomial, with "
        "forced degenerations",
        ok,
        f"checked={result.checked} disagreements={result.disagreements} "
        f"first={result.first_failure}",
    )


def test_flag_dimension_table(report):
    """Graded dimensions of the flag datum equal the independent
    difference-of-triangles count (n+1)^3 for n = 0..6, under ten
    seconds."""

    def triangle(n):
        return (n + 1) * (n + 2) // 2 if n >= 0 else 0

    expected = [triangle(n) ** 2 - triangle(n - 1) ** 2 for n in range(7)]
    closed_form = [(n + 1) ** 3 for n in range(7)]
    start = time.perf_counter()
    computed = hilbert_table(flag_datum(), 6)
    elapsed = time.perf_counter() - start
    ok = expected == closed_form == computed and elapsed < 10.0
    report(
        "flag-datum graded dimensions match the independent count for "
        "degrees 0..6",
        ok,
        f"expected={expected} computed={computed} elapsed={elapsed:.1f}s",
    )


def test_one_ps_sweep_consistency_at_scale(report):
    """A dense sweep of one-parameter directions (box bound 50) never
    contradicts the finite-reduction classifier on 1,000 random data;
    under five minutes."""
    start = time.perf_counter()
    result = verify_hm_reduction(
        TrialConfig(seed=801, trials=1_000, coord_bound=20), sweep_bound=50
    )
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 300.0
    report(
        "dense one-parameter sweep consistency on 1,000 data, bound 50",
        ok,
        f"disagreements={result.disagreements} elapsed={elapsed:.1f}s "
        f"first={result.first_failure}",
    )


def test_moment_map_floating_properties(report):
    """Scaling homogeneity and unit-torus invariance to 1e-12 relative on
    1,000 random points; the flag-datum golden point is exact."""
    golden = moment_map(flag_datum(), (1, 0, 0), (0, 1, 0))
    ok = golden.phi == (1.0, 1.0) and golden.residual == 0.0
    detail = f"golden={golden}"

    rng = random.Random(901)
    d = WeightDatum(
        a=((2, -1), (0, 3), (-1, -1)),
        b=((1, 4), (3, 0), (4, 4)),
        c=(3, 3),
    )
    import cmath

    for _ in range(1_000):
        z = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        w = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        base = moment_map(d, z, w)

        lam = rng.uniform(0.1, 3.0) * rng.choice([-1, 1])
        scaled = moment_map(d, tuple(lam * q for q in z), tuple(lam * q for q in w))
        for got, want in zip(scaled.phi, base.phi):
            if abs(got - lam * lam * want) > 1e-12 * max(1.0, abs(want)):
                ok = False
                detail = f"homogeneity broke at z={z} w={w} lam={lam}"
                break

        t1, t2 = rng.uniform(0, 2 * cmath.pi), rng.uniform(0, 2 * cmath.pi)
        g1, g2 = cmath.exp(1j * t1), cmath.exp(1j * t2)
        gz = tuple((g1**ax) * (g2**ay) * q for (ax, ay), q in zip(d.a, z))
        gw = tuple((g1**bx) * (g2**by) * q for (bx, by), q in zip(d.b, w))
        moved = moment_map(d, gz, gw)
        for got, want in zip(moved.phi, base.phi):
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                ok = False
                detail = f"invariance broke at z={z} w={w} g=({t1},{t2})"
                break
        if not ok:
            break

    report(
        "moment map homogeneity and torus invariance at 1e-12, golden "
        "point exact",
        ok,
        detail,
    )
