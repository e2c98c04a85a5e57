"""Tests for the verification suites and the moment map."""

import cmath
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conestab import verify
from conestab.cones import Cone2, neg
from conestab.moment import MomentValue, moment_map
from conestab.stability import (
    ALL_PATTERNS,
    StabilityClass,
    WeightDatum,
    classify_by_cone,
    classify_by_one_ps,
    flag_datum,
    hm_weight,
)
from conestab.verify import (
    VERIFY_SUITES,
    TrialConfig,
    VerifyReport,
    datum_stream,
    main_theorem_sides,
    random_datum,
    verify_hm_reduction,
    verify_intcone,
    verify_main_theorem,
    verify_r0,
    verify_star_equivalence,
)


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)
        with pytest.raises(ValueError):
            TrialConfig(coord_bound=0)
        with pytest.raises(TypeError):  # never truncated to (2, 3, 1)
            TrialConfig(seed=2.9, trials=3.7, coord_bound=1.2)
        # a truthy string would draw constrained data, and 0 would be
        # reported as 0, not false
        for flag in ("no", "", 0, 1, None, 1.0):
            with pytest.raises(TypeError, match="enforce_constraint must be a bool"):
                TrialConfig(trials=2, enforce_constraint=flag)

    def test_stream_is_reproducible(self):
        cfg = TrialConfig(seed=11, trials=25, coord_bound=9)
        assert list(datum_stream(cfg)) == list(datum_stream(cfg))

    def test_random_datum_reproducible(self):
        cfg = TrialConfig(seed=1, trials=1, coord_bound=5)
        d1 = random_datum(cfg, random.Random(cfg.seed))
        d2 = random_datum(cfg, random.Random(cfg.seed))
        assert d1 == d2

    def test_constraint_and_character(self):
        cfg = TrialConfig(seed=3, trials=40, coord_bound=6)
        for d in datum_stream(cfg):
            sums = {(ai[0] + bi[0], ai[1] + bi[1]) for ai, bi in zip(d.a, d.b)}
            assert len(sums) == 1
            assert d.c != (0, 0)

    def test_unconstrained_stream(self):
        cfg = TrialConfig(seed=3, trials=40, coord_bound=6, enforce_constraint=False)
        for d in datum_stream(cfg):
            assert not d.constrained
            assert d.c != (0, 0)


class TestReportPlumbing:
    def test_record_keeps_first_failure(self):
        r = VerifyReport(suite="x", config=TrialConfig())
        assert r.passed
        r.record_failure("first")
        r.record_failure("second")
        assert r.disagreements == 2
        assert r.first_failure == "first"
        assert not r.passed

    def test_as_dict_shape(self):
        cfg = TrialConfig(seed=5, trials=7, coord_bound=3, enforce_constraint=False)
        d = VerifyReport(suite="s", config=cfg, checked=7).as_dict()
        assert d["suite"] == "s"
        assert d["seed"] == 5
        assert d["trials"] == 7
        assert d["coord_bound"] == 3
        assert d["enforce_constraint"] is False
        assert d["passed"] is True
        assert d["first_failure"] is None

    def test_suite_registry(self):
        assert set(VERIFY_SUITES) == {
            "main-theorem",
            "star-equivalence",
            "intcone",
            "hm-reduction",
            "r0",
        }


class TestMainTheoremSuite:
    def test_flag_sides(self):
        assert main_theorem_sides(flag_datum()) == (True, True)

    def test_opposite_pair_sides(self):
        d = WeightDatum(
            a=((1, 0), (0, 1), (1, 1)),
            b=((-1, 0), (2, -1), (1, -1)),
            c=(2, 1),
            constrained=False,
        )
        assert main_theorem_sides(d) == (False, False)

    def test_sides_differ_without_constant_sums(self):
        """Outside the theorem's hypothesis: the sums a_i + b_i differ, every
        mixed pair cone holds c in its interior, the weights have no apex,
        and the loci still agree.  The first disagreement of
        ``verify main-theorem --no-constraint --seed 1 --trials 2000``."""
        d = WeightDatum(
            a=((15, -6), (5, -2), (19, 2)),
            b=((7, -20), (-18, -4), (-13, 1)),
            c=(12, -12),
            constrained=False,
        )
        assert all(
            Cone2((d.a[i], d.b[j])).interior_contains(d.c)
            for i in range(3) for j in range(3) if i != j
        )
        assert not Cone2(d.weights()).has_apex()
        assert main_theorem_sides(d) == (False, True)
        assert [classify_by_one_ps(d, p) for p in ALL_PATTERNS] == [
            classify_by_cone(d, p) for p in ALL_PATTERNS
        ]
        report = verify_main_theorem(
            TrialConfig(seed=1, trials=2000, enforce_constraint=False)
        )
        assert report.disagreements == 2
        assert report.first_failure == f"fan=False but pattern-level equality=True for {d!r}"

    @pytest.mark.parametrize("constrained", [True, False])
    def test_random_batch_passes(self, constrained):
        cfg = TrialConfig(
            seed=71, trials=150, coord_bound=8, enforce_constraint=constrained
        )
        report = verify_main_theorem(cfg)
        assert report.passed, report.first_failure
        assert report.checked == 150

    def test_report_reproducible(self):
        cfg = TrialConfig(seed=13, trials=30, coord_bound=7)
        assert verify_main_theorem(cfg).as_dict() == verify_main_theorem(cfg).as_dict()


class TestStarEquivalenceSuite:
    @pytest.mark.parametrize("constrained", [True, False])
    def test_random_batch_passes(self, constrained):
        cfg = TrialConfig(
            seed=72, trials=200, coord_bound=8, enforce_constraint=constrained
        )
        report = verify_star_equivalence(cfg)
        assert report.passed, report.first_failure
        assert report.checked == 200


class TestIntconeSuite:
    def test_exhaustive_small_box(self):
        cfg = TrialConfig(seed=0, trials=1, coord_bound=3)
        report = verify_intcone(cfg)
        assert report.passed, report.first_failure
        assert report.details["exhaustive"] is True
        assert report.details["hypothesis_hits"] > 0
        assert report.checked == 49**3

    def test_sampled_mode(self):
        cfg = TrialConfig(seed=9, trials=3000, coord_bound=12)
        report = verify_intcone(cfg)
        assert report.passed, report.first_failure
        assert report.details["exhaustive"] is False
        assert report.checked == 3000

    def test_hypothesis_examples(self):
        from conestab.verify import _intcone_hypothesis

        assert _intcone_hypothesis((1, 0), (0, 1), (1, 1))
        # on the first ray: membership holds but the hypothesis excludes it
        assert not _intcone_hypothesis((1, 0), (2, 0), (3, 0))
        assert not _intcone_hypothesis((1, 0), (0, 1), (1, 0))
        assert not _intcone_hypothesis((1, 0), (0, 1), (0, 0))
        # a clockwise pair: cross(a, b) < 0
        assert _intcone_hypothesis((0, 1), (1, 0), (1, 1))
        assert not _intcone_hypothesis((0, 1), (1, 0), (-1, 1))
        assert not _intcone_hypothesis((0, 1), (1, 0), (1, 0))


class TestHmReductionSuite:
    @pytest.mark.parametrize("constrained", [True, False])
    def test_small_sweep_passes(self, constrained):
        cfg = TrialConfig(
            seed=77, trials=20, coord_bound=6, enforce_constraint=constrained
        )
        report = verify_hm_reduction(cfg, sweep_bound=12)
        assert report.passed, report.first_failure
        assert report.checked == 20 * 64
        assert report.details["sweep_bound"] == 12
        assert report.details["exact_cross_checks"] > 0
        assert report.details["exact_fallback_data"] == 0

    def test_sweep_bound_is_an_integer(self):
        # a float would sweep the lopsided box [-2, 3] and report 2.5
        with pytest.raises(TypeError):
            verify_hm_reduction(TrialConfig(trials=2), sweep_bound=2.5)

    def test_exact_fallback_on_huge_coordinates(self):
        cfg = TrialConfig(seed=5, trials=2, coord_bound=2**61)
        report = verify_hm_reduction(cfg, sweep_bound=3)
        assert report.details["exact_fallback_data"] > 0
        assert report.passed, report.first_failure

    @pytest.mark.parametrize("sweep_bound", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "coord_bound, constrained",
        [(2, True), (2, False), (20, True), (20, False), (2**61, True), (2**61, False)],
    )
    def test_sweep_bits_match_exact_weights(self, sweep_bound, coord_bound, constrained):
        dirs = verify._primitive_direction_array(sweep_bound)
        alphas = [(int(x), int(y)) for x, y in dirs]
        cfg = TrialConfig(
            seed=sweep_bound, trials=3, coord_bound=coord_bound, enforce_constraint=constrained
        )
        regimes = set()
        for d in datum_stream(cfg):
            cols = verify._sweep_columns(d, sweep_bound)
            regimes.add(cols.dtype == object)
            negative = zero = 0
            for p in ALL_PATTERNS:
                weights = [hm_weight(d, p, alpha) for alpha in alphas]
                negative |= any(w < 0 for w in weights) << p._mask
                zero |= any(w == 0 for w in weights) << p._mask
            assert verify._sweep_bits(cols, dirs) == (negative, zero)
        # int64 for small coordinates, exact Python integers near 2**61
        if coord_bound < 2**61:
            assert regimes == {False}
        elif sweep_bound > 1:
            assert True in regimes

    def test_report_bytes_are_pinned(self):
        report = verify_hm_reduction(TrialConfig(seed=77, trials=20, coord_bound=6), sweep_bound=12)
        assert report.as_dict() == {
            "suite": "hm-reduction", "seed": 77, "trials": 20, "coord_bound": 6,
            "enforce_constraint": True, "checked": 1280, "disagreements": 0,
            "first_failure": None, "passed": True,
            "details": {"exact_cross_checks": 64, "exact_fallback_data": 0, "sweep_bound": 12},
        }
        report = verify_hm_reduction(TrialConfig(seed=5, trials=2, coord_bound=2**61), sweep_bound=3)
        assert report.as_dict() == {
            "suite": "hm-reduction", "seed": 5, "trials": 2, "coord_bound": 2**61,
            "enforce_constraint": True, "checked": 128, "disagreements": 0,
            "first_failure": None, "passed": True,
            "details": {"exact_cross_checks": 0, "exact_fallback_data": 2, "sweep_bound": 3},
        }

    def test_spot_check_directions_are_pinned(self, monkeypatch):
        calls = []

        def spy(d, p, alpha):
            calls.append((str(p), alpha))
            return hm_weight(d, p, alpha)

        monkeypatch.setattr(verify, "hm_weight", spy)
        verify_hm_reduction(TrialConfig(seed=77, trials=20, coord_bound=6), sweep_bound=12)
        assert len(calls) == 64
        assert calls[:2] == [("z{-}w{-}", (-7, -4)), ("z{2}w{1}", (-7, -3))]
        assert calls[-2:] == [("z{3}w{2}", (5, -6)), ("z{23}w{12}", (3, -7))]

    def test_rejects_bad_sweep_bound(self):
        with pytest.raises(ValueError):
            verify_hm_reduction(TrialConfig(), sweep_bound=0)

    def test_sweep_bound_is_capped(self, monkeypatch):
        # the box of the cap itself is swept with the bound-1 directions:
        # no large sweep runs here
        small = verify._primitive_direction_array(1)
        built = []
        monkeypatch.setattr(verify, "_primitive_direction_array", lambda b: built.append(b) or small)
        cap = verify.MAX_SWEEP_BOUND
        assert cap >= 50  # the default, and the bound of every caller
        with pytest.raises(ValueError, match="sweep_bound"):
            verify_hm_reduction(TrialConfig(trials=1), sweep_bound=cap + 1)
        assert built == []
        report = verify_hm_reduction(TrialConfig(trials=1), sweep_bound=cap)
        assert built == [cap] and report.details["sweep_bound"] == cap

    @pytest.mark.parametrize(
        "name, fault, message",
        [
            (
                "classify_by_one_ps",
                lambda real: lambda d, p: StabilityClass.STABLE,
                "sweep found destabilizing direction but verdict is stable",
            ),
            (
                "classify_by_one_ps",
                lambda real: lambda d, p: StabilityClass.STRICTLY_SEMISTABLE,
                "sweep found destabilizing direction but verdict is strictly-semistable",
            ),
            (
                "classify_by_one_ps",
                lambda real: lambda d, p: (
                    StabilityClass.STABLE
                    if real(d, p) is StabilityClass.STRICTLY_SEMISTABLE
                    else real(d, p)
                ),
                "sweep found a zero-weight direction but verdict is Stable",
            ),
            ("hm_weight", lambda real: lambda d, p, alpha: real(d, p, alpha) + 1, "vectorized weight"),
        ],
        ids=["always-stable", "always-semistable", "stable-for-semistable", "weight-off-by-one"],
    )
    def test_planted_fault_is_reported(self, monkeypatch, name, fault, message):
        monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
        report = verify_hm_reduction(TrialConfig(seed=77, trials=20, coord_bound=6), sweep_bound=12)
        assert not report.passed
        assert report.first_failure.startswith(message)


class TestR0Suite:
    @pytest.mark.parametrize("constrained", [True, False])
    def test_random_batch_with_degenerates(self, constrained):
        cfg = TrialConfig(
            seed=42, trials=120, coord_bound=6, enforce_constraint=constrained
        )
        report = verify_r0(cfg)
        assert report.passed, report.first_failure
        # each trial also checks a zeroed-weight and an opposite-pair variant
        assert report.checked == 3 * 120

    @pytest.mark.parametrize(
        "fault, message",
        [(lambda alpha: None, "witness=None"), (neg, "bad separator")],
        ids=["missing-separator", "non-separating"],
    )
    def test_planted_separator_fault_is_reported(self, monkeypatch, fault, message):
        real = verify.strictly_separates

        def planted(vs):
            alpha = real(vs)
            return None if alpha is None else fault(alpha)

        monkeypatch.setattr(verify, "strictly_separates", planted)
        report = verify_r0(TrialConfig(seed=42, trials=120, coord_bound=6))
        assert not report.passed
        assert report.first_failure.startswith(message)


BEYOND_DOUBLE = "weights are beyond double range; the moment map cannot be evaluated"
OVERFLOW = "the moment map overflows double precision at this point"


def with_a1(a1):
    return WeightDatum(a=(a1, (1, 0), (1, 0)), b=((0, 1),) * 3, c=(1, 1), constrained=False)


class TestMomentMap:
    def test_flag_point(self):
        out = moment_map(flag_datum(), (1, 0, 0), (0, 1, 0))
        assert out == MomentValue(phi=(1.0, 1.0), residual=0.0)

    def test_zero_point(self):
        out = moment_map(flag_datum(), (0, 0, 0), (0, 0, 0))
        assert out.phi == (0.0, 0.0)
        assert out.residual == 0.0

    def test_off_quadric_residual(self):
        out = moment_map(flag_datum(), (1, 0, 0), (1, 0, 0))
        assert out.residual == 1.0

    def test_accepts_re_im_pairs(self):
        d = flag_datum()
        a = moment_map(d, ((1, 2), (0, 0), (0, -1)), ((0, 1), (3, 0), (0, 0)))
        b = moment_map(d, (1 + 2j, 0, -1j), (1j, 3, 0))
        assert a == b

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            moment_map(flag_datum(), (1, 0), (0, 0, 0))

    def test_complex_real_and_pair_coordinates_agree(self):
        d = flag_datum()
        want = moment_map(d, (2 + 0j, 1.5j, 0j), (0j, 1 + 0j, 0.5 + 0j))
        assert moment_map(d, (2, (0, 1.5), 0.0), [0, [1, 0], 0.5]) == want
        assert moment_map(d, ("2", ("0", "1.5"), "0"), ("0", 1, "0.5")) == want
        # numpy integers and floats, Fraction and Decimal are numbers too
        assert moment_map(d, (np.int64(2), (Fraction(0), Decimal("1.5")), np.float64(0)),
                          (0, 1, 0.5)) == want

    def test_strings_are_json_numbers(self):
        d = flag_datum()
        assert moment_map(d, ("12", 0, 0), (0, 1, 0)) == moment_map(d, (12, 0, 0), (0, 1, 0))
        assert moment_map(d, ("12", 0, 0), (0, 1, 0)).phi == (144.0, 1.0)

    @pytest.mark.parametrize(
        "z, w, message",
        [
            ((True, 0, 0), (0, 0, 0), "z[0]: expected a number, got a boolean"),
            ((0, 0, 0), (0, (1, False), 0), "w[1]: expected a number, got a boolean"),
            ((0, float("nan"), 0), (0, 0, 0), "z[1]: entries must be finite numbers"),
            ((0, 0, complex(0, float("inf"))), (0, 0, 0), "z[2]: entries must be finite numbers"),
            (((" 1 ", "2"), 0, 0), (0, 0, 0), "z[0]: a string entry must be a JSON number"),
            (((1, "2_0"), 0, 0), (0, 0, 0), "z[0]: a string entry must be a JSON number"),
            ((0, 0, 0), "123", "w: expected three coordinates, each a number or an [re, im] pair"),
            ((0, (1, 2, 3), 0), (0, 0, 0), "z[1]: expected a number or an [re, im] pair"),
            (iter((0, 0, 0)), (0, 0, 0), "z: expected three coordinates"),
            ((True, 0, 0), "w", "z[0]: expected a number, got a boolean"),
            # not a numbers.Number, though float() would read it as 1.0
            ((np.bool_(True), 0, 0), (0, 0, 0), "z[0]: entries must be finite numbers"),
        ],
        ids=["bool", "bool-in-pair", "nan", "inf-imaginary", "spaced-string",
             "underscored-string", "string-container", "triple-entry", "iterator",
             "z-before-w", "numpy-bool"],
    )
    def test_malformed_points_are_named(self, z, w, message):
        with pytest.raises(ValueError) as e:
            moment_map(flag_datum(), z, w)
        assert str(e.value).startswith(message)

    @pytest.mark.parametrize(
        "datum, z, w, message",
        [
            (with_a1((10**400, 0)), (1, 0, 0), (0, 1, 0), BEYOND_DOUBLE),
            (with_a1((10**300, 0)), (1e200, 0, 0), (0, 1, 0), OVERFLOW),  # phi would be (inf, nan)
            (flag_datum(), (1e300, 0, 0), (1e300, 1, 0), OVERFLOW),  # residual would be inf
            # the phi terms of z_1 and w_1 cancel those of z_0 and w_0, but
            # |sum z_j w_j| = |c + ci| is past double range
            (WeightDatum(a=((1, 0), (-1, 0), (0, 1)), b=((1, 0), (-1, 0), (0, 1)), c=(1, 1),
                         constrained=False),
             (1.3e154, 1.3e154, 0), (1.3e154, 1.3e154j, 0), OVERFLOW),
        ],
        ids=["weight-beyond-double", "infinite-phi", "infinite-residual", "residual-modulus"],
    )
    def test_float_failures_raise_value_error(self, datum, z, w, message):
        with pytest.raises(ValueError) as e:
            moment_map(datum, z, w)
        assert str(e.value) == message

    def test_real_scaling_homogeneity(self):
        rng = random.Random(404)
        d = WeightDatum(
            a=((2, -1), (0, 3), (-1, -1)),
            b=((1, 4), (3, 0), (4, 4)),
            c=(3, 3),
        )
        for _ in range(50):
            z = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            w = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            lam = rng.uniform(0.1, 3.0) * rng.choice([-1, 1])
            base = moment_map(d, z, w)
            scaled = moment_map(
                d, tuple(lam * q for q in z), tuple(lam * q for q in w)
            )
            for got, want in zip(scaled.phi, base.phi):
                assert abs(got - lam * lam * want) <= 1e-12 * max(1.0, abs(want))

    def test_torus_invariance(self):
        rng = random.Random(505)
        d = WeightDatum(
            a=((2, -1), (0, 3), (-1, -1)),
            b=((1, 4), (3, 0), (4, 4)),
            c=(3, 3),
        )
        for _ in range(50):
            z = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            w = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            t1, t2 = rng.uniform(0, 2 * cmath.pi), rng.uniform(0, 2 * cmath.pi)
            g1, g2 = cmath.exp(1j * t1), cmath.exp(1j * t2)
            gz = tuple(
                (g1 ** ax) * (g2 ** ay) * q for (ax, ay), q in zip(d.a, z)
            )
            gw = tuple(
                (g1 ** bx) * (g2 ** by) * q for (bx, by), q in zip(d.b, w)
            )
            base = moment_map(d, z, w)
            moved = moment_map(d, gz, gw)
            for got, want in zip(moved.phi, base.phi):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
