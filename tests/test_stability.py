"""Tests for support patterns, the two classifiers and the fan conditions."""

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conestab import cones, stability
from conestab.cli import build_analysis_report
from conestab.cones import Cone2, dot
from conestab.stability import (
    ALL_PATTERNS,
    StabilityClass,
    SupportPattern,
    WeightDatum,
    classify_by_cone,
    classify_by_one_ps,
    fan_condition,
    fan_condition_membership,
    flag_datum,
    hm_weight,
    r0_is_trivial,
    weights_from_biquotient,
)
from conestab.verify import main_theorem_sides

from conftest import pattern_level_equality, random_test_datum, reference_verdicts

S = StabilityClass


def primitive_directions(bound):
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1:
                yield (x, y)


class TestSupportPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupportPattern(frozenset({0}), frozenset())
        with pytest.raises(ValueError):
            SupportPattern(frozenset({1}), frozenset({4}))

    def test_pattern_count(self):
        assert len(ALL_PATTERNS) == 64
        assert len(set(ALL_PATTERNS)) == 64

    def test_realizability_examples(self):
        assert SupportPattern(frozenset({1}), frozenset({2})).is_realizable()
        assert not SupportPattern(frozenset({1}), frozenset({1})).is_realizable()
        assert SupportPattern(frozenset({1, 2}), frozenset({1, 2})).is_realizable()
        assert SupportPattern(frozenset(), frozenset()).is_realizable()

    def test_realizability_against_point_enumeration(self):
        """Brute-force the quadric over a small integer grid and compare the
        achieved support patterns with the predicate."""
        achieved = set()
        grid = range(-2, 3)
        for z in product(grid, repeat=3):
            for w in product(grid, repeat=3):
                if sum(zi * wi for zi, wi in zip(z, w)) == 0:
                    achieved.add(
                        (
                            frozenset(i + 1 for i in range(3) if z[i]),
                            frozenset(j + 1 for j in range(3) if w[j]),
                        )
                    )
        for s in ALL_PATTERNS:
            assert ((s.z_support, s.w_support) in achieved) == s.is_realizable()

    def test_open_pattern(self):
        assert SupportPattern(frozenset({1}), frozenset({2})).is_open_pattern()
        assert not SupportPattern(frozenset({1}), frozenset()).is_open_pattern()
        assert not SupportPattern(frozenset({1}), frozenset({1})).is_open_pattern()


class TestWeightDatum:
    def test_flag_datum(self):
        d = flag_datum()
        assert d.weights() == ((1, 0),) * 3 + ((0, 1),) * 3
        assert d.c == (1, 1)
        assert d.constrained

    def test_nonzero_character_required(self):
        with pytest.raises(ValueError, match="nontrivial"):
            WeightDatum(a=((1, 0),) * 3, b=((0, 1),) * 3, c=(0, 0))

    def test_constant_sum_enforced(self):
        with pytest.raises(ValueError, match="constant"):
            WeightDatum(a=((1, 0), (2, 0), (1, 0)), b=((0, 1),) * 3, c=(1, 1))
        d = WeightDatum(
            a=((1, 0), (2, 0), (1, 0)), b=((0, 1),) * 3, c=(1, 1), constrained=False
        )
        assert not d.constrained
        # a truthy string would enforce the constraint, and 0 would be
        # reported as 0, not false
        for flag in ("no", "", 0, 1, None, 1.0):
            with pytest.raises(TypeError, match="constrained must be a bool"):
                WeightDatum(a=((1, 0),) * 3, b=((0, 1),) * 3, c=(1, 1), constrained=flag)


class TestHMWeight:
    def test_trivial_subgroup_scores_zero(self):
        s = SupportPattern(frozenset({1}), frozenset({2}))
        assert hm_weight(flag_datum(), s, (0, 0)) == 0

    def test_flag_values(self):
        s = SupportPattern(frozenset({1}), frozenset({2}))
        # entries for alpha=(1,-1): <a1,alpha>=1, <b2,alpha>=-1, -<c,alpha>=0
        assert hm_weight(flag_datum(), s, (1, -1)) == 1
        # entries for alpha=(1,1): 1, 1, -2
        assert hm_weight(flag_datum(), s, (1, 1)) == 2

    @settings(max_examples=200)
    @given(
        st.integers(0, 63),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        st.integers(1, 4),
    )
    def test_positive_homogeneity(self, idx, alpha, k):
        d = flag_datum()
        s = ALL_PATTERNS[idx]
        ka = (k * alpha[0], k * alpha[1])
        assert hm_weight(d, s, ka) == k * hm_weight(d, s, alpha)


class TestClassifiers:
    def test_flag_examples(self):
        d = flag_datum()
        mixed = SupportPattern(frozenset({1}), frozenset({2}))
        z_only = SupportPattern(frozenset({1, 2, 3}), frozenset())
        nothing = SupportPattern(frozenset(), frozenset())
        for classify in (classify_by_one_ps, classify_by_cone):
            assert classify(d, mixed) is S.STABLE
            assert classify(d, z_only) is S.UNSTABLE
            assert classify(d, nothing) is S.UNSTABLE

    def test_character_on_single_ray(self):
        # a_1 equals the character weight, so sigma is the ray through c
        d = WeightDatum(
            a=((1, 1), (1, 0), (0, 1)),
            b=((0, 0), (0, 1), (1, 0)),
            c=(1, 1),
        )
        s = SupportPattern(frozenset({1}), frozenset())
        assert classify_by_one_ps(d, s) is S.STRICTLY_SEMISTABLE
        assert classify_by_cone(d, s) is S.STRICTLY_SEMISTABLE

    def test_zero_supported_weight(self):
        # b_1 = 0 supported alone: sigma is the origin, so c is outside it
        d = WeightDatum(
            a=((1, 1), (1, 0), (0, 1)),
            b=((0, 0), (0, 1), (1, 0)),
            c=(1, 1),
        )
        s = SupportPattern(frozenset(), frozenset({1}))
        assert classify_by_one_ps(d, s) is S.UNSTABLE
        assert classify_by_cone(d, s) is S.UNSTABLE

    def test_line_support_cone(self):
        # supported weights span a full line while c points off it
        d = WeightDatum(
            a=((0, 1), (1, 0), (0, 1)),
            b=((0, -1), (-1, 0), (0, -1)),
            c=(1, 0),
            constrained=True,
        )
        s = SupportPattern(frozenset({1}), frozenset({1}))
        assert classify_by_cone(d, s) is S.UNSTABLE
        assert classify_by_one_ps(d, s) is S.UNSTABLE

    def test_semistable_implies_property(self):
        assert not S.UNSTABLE.semistable
        assert S.STABLE.semistable
        assert S.STRICTLY_SEMISTABLE.semistable

    def test_agreement_random_batches(self):
        rng = random.Random(1203)
        for constrained in (True, False):
            for _ in range(150):
                d = random_test_datum(rng, bound=7, constrained=constrained)
                for s in ALL_PATTERNS:
                    assert classify_by_one_ps(d, s) is classify_by_cone(d, s), (d, s)

    def test_against_dense_sweep(self):
        """The finite candidate reductions may only strengthen the dense sweep:
        a negative weight in the sweep forces Unstable, a vanishing one
        forbids Stable."""
        rng = random.Random(77)
        dirs = list(primitive_directions(9))
        for _ in range(25):
            d = random_test_datum(rng, bound=5)
            for s in ALL_PATTERNS:
                verdict = classify_by_one_ps(d, s)
                values = [hm_weight(d, s, alpha) for alpha in dirs]
                if any(v < 0 for v in values):
                    assert verdict is S.UNSTABLE
                if any(v == 0 for v in values):
                    assert verdict is not S.STABLE

    def test_scaling_invariance(self):
        rng = random.Random(9)
        for _ in range(40):
            d = random_test_datum(rng, bound=5)
            k = rng.randint(2, 5)
            scaled = WeightDatum(
                a=tuple((k * x, k * y) for x, y in d.a),
                b=tuple((k * x, k * y) for x, y in d.b),
                c=(k * d.c[0], k * d.c[1]),
            )
            for s in ALL_PATTERNS:
                assert classify_by_one_ps(d, s) is classify_by_one_ps(scaled, s)

    def test_mixed_pair_stability_matches_interior(self):
        """c interior to cone(a_i, b_j) exactly characterises stability of the
        corresponding two-coordinate pattern."""
        rng = random.Random(5150)
        for _ in range(120):
            d = random_test_datum(rng, bound=6)
            for i in range(1, 4):
                for j in range(1, 4):
                    if i == j:
                        continue
                    s = SupportPattern(frozenset({i}), frozenset({j}))
                    interior = Cone2((d.a[i - 1], d.b[j - 1])).interior_contains(d.c)
                    assert interior == (classify_by_one_ps(d, s) is S.STABLE)


def small_hostile_data(rng):
    """Bound <= 3 data with zero, collinear and opposite weights, and pairs
    of data that are equal except for c or for the constraint flag."""
    out = []
    for bound in (1, 2, 3):
        for _ in range(5):
            d = random_test_datum(rng, bound=bound)
            a1 = d.a[0]
            other_c = d.c
            while other_c == d.c:
                other_c = (rng.randint(-bound, bound), rng.randint(-bound, bound))
                if other_c == (0, 0):
                    other_c = d.c
            out += [
                d,
                WeightDatum(a=d.a, b=d.b, c=d.c, constrained=False),
                WeightDatum(a=d.a, b=d.b, c=other_c),
                WeightDatum(a=((0, 0),) + d.a[1:], b=d.b, c=d.c, constrained=False),
                WeightDatum(a=d.a, b=((-a1[0], -a1[1]),) + d.b[1:], c=d.c, constrained=False),
                WeightDatum(a=(a1, a1, d.a[2]), b=d.b, c=d.c, constrained=False),
            ]
    return out


class TestDirectionTables:
    """Each classifier keeps a per-datum table on the datum; verdicts must
    not depend on which data already hold one."""

    def test_verdicts_do_not_depend_on_cache_state(self):
        rng = random.Random(2718)
        data = small_hostile_data(rng)
        # each datum's patterns are spread over a window of other data, so
        # classification of one datum interleaves with that of others
        order = sorted(
            ((i, k) for i in range(len(data)) for k in range(64)),
            key=lambda ik: (ik[0] + rng.randint(0, 24), rng.random()),
        )
        fresh_patterns = [
            SupportPattern(frozenset(set(p.z_support)), frozenset(set(p.w_support)))
            for p in ALL_PATTERNS
        ]
        seen = {}
        for i, k in order:
            d, p = data[i], fresh_patterns[k]
            seen[i, k] = (classify_by_one_ps(d, p), classify_by_cone(d, p))

        for i, d in enumerate(data):
            # Hilbert-Mumford weights over a direction box that is complete
            # for the datum's coordinate bound
            box = 2 * max(abs(x) for v in d.weights() + (d.c,) for x in v) + 1
            rows = [
                ([dot(v, alpha) for v in d.weights()], -dot(d.c, alpha))
                for alpha in primitive_directions(box)
            ]
            fresh = WeightDatum(a=d.a, b=d.b, c=d.c, constrained=d.constrained)
            for k, p in enumerate(ALL_PATTERNS):
                hm, cone = seen[i, k]
                assert hm is cone, (d, p)
                again = (classify_by_one_ps(fresh, p), classify_by_cone(fresh, p))
                assert again == (hm, cone), (d, p)
                sel = [z - 1 for z in p.z_support] + [w + 2 for w in p.w_support]
                values = [-min([row[j] for j in sel] + [minus_c]) for row, minus_c in rows]
                if any(v < 0 for v in values):
                    assert hm is S.UNSTABLE, (d, p)
                if any(v == 0 for v in values):
                    assert hm is not S.STABLE, (d, p)

    def test_bitsets_match_mask_scans(self):
        """Every verdict read off either classifier's bitsets equals the scan
        of that pattern's mask against the datum's mask lists, and
        main_theorem_sides equals its loop form, on random data at bounds
        1, 2, 20 and 10^18 in both constraint regimes and on variants of
        each with a zero, an equal, an opposite or a collinear weight."""
        rng = random.Random(1618)
        data = []
        for i in range(2000):
            d = random_test_datum(
                rng, bound=(1, 2, 20, 10**18)[i % 4], constrained=i % 8 < 4
            )
            a1 = d.a[0]
            k = rng.choice([2, 3, -2])
            data += [
                d,
                (
                    WeightDatum(a=((0, 0),) + d.a[1:], b=d.b, c=d.c, constrained=False),
                    WeightDatum(a=(a1, a1, d.a[2]), b=d.b, c=d.c, constrained=False),
                    WeightDatum(a=d.a, b=((-a1[0], -a1[1]),) + d.b[1:], c=d.c,
                                constrained=False),
                    WeightDatum(a=d.a, b=((k * a1[0], k * a1[1]),) + d.b[1:],
                                c=(a1 if a1 != (0, 0) else d.c), constrained=False),
                )[i % 4],
            ]
        for d in data:
            one_ps, cone = reference_verdicts(d)
            assert [classify_by_one_ps(d, p) for p in ALL_PATTERNS] == one_ps, d
            assert [classify_by_cone(d, p) for p in ALL_PATTERNS] == cone, d
            assert main_theorem_sides(d) == (fan_condition(d), pattern_level_equality(d)), d

    def test_one_table_per_datum(self, monkeypatch):
        built = {"_one_ps_table": 0, "_cone_table": 0}

        def counting(name):
            table = getattr(stability, name)

            def wrapper(datum):
                built[name] += 1
                return table(datum)

            return wrapper

        for name in built:
            monkeypatch.setattr(stability, name, counting(name))

        def fresh():
            return WeightDatum(a=((1, 0), (0, 1), (1, 1)), b=((0, 1), (1, 0), (0, 0)), c=(1, 1))

        d = fresh()
        build_analysis_report(d)
        build_analysis_report(d)
        assert built == {"_one_ps_table": 1, "_cone_table": 1}

        built.update(dict.fromkeys(built, 0))
        main_theorem_sides(fresh())
        assert built == {"_one_ps_table": 1, "_cone_table": 0}

        # equal but distinct data each build their own tables, and a table
        # kept on a datum leaves its equality, hash and repr alone
        built.update(dict.fromkeys(built, 0))
        d1, d2 = fresh(), fresh()
        assert d1 == d2 and d1 is not d2
        before = repr(d1), hash(d1)
        for p in ALL_PATTERNS:
            assert classify_by_one_ps(d1, p) is classify_by_cone(d2, p)
            assert classify_by_cone(d1, p) is classify_by_one_ps(d2, p)
        assert built == {"_one_ps_table": 2, "_cone_table": 2}
        assert d1 == d2 == fresh()
        assert (repr(d1), hash(d1)) == before == (repr(fresh()), hash(fresh()))


class TestFanCondition:
    def test_flag_satisfies_both_forms(self):
        d = flag_datum()
        assert fan_condition(d)
        assert fan_condition_membership(d)

    def test_character_equal_to_a_weight_fails(self):
        d = WeightDatum(a=((1, 0),) * 3, b=((0, 1),) * 3, c=(1, 0))
        assert not fan_condition(d)
        assert not fan_condition_membership(d)

    def test_opposite_weights_fail(self):
        d = WeightDatum(
            a=((1, 0), (0, 1), (1, 1)),
            b=((-1, 0), (0, -1), (-1, -1)),
            c=(1, 1),
        )
        assert not Cone2(d.weights()).has_apex()
        assert not fan_condition(d)
        assert not fan_condition_membership(d)

    def test_forms_agree_on_random_data(self):
        rng = random.Random(4242)
        for constrained in (True, False):
            for _ in range(400):
                d = random_test_datum(rng, bound=6, constrained=constrained)
                assert fan_condition(d) == fan_condition_membership(d), d

    @staticmethod
    def _guard_data():
        rng = random.Random(1919)
        return [
            random_test_datum(rng, bound=bound, constrained=constrained)
            for bound in (3, 20)
            for constrained in (True, False)
            for _ in range(500)
        ]

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("the other form's decider was reached")

    def test_interior_form_uses_no_membership_decider(self, monkeypatch):
        """fan_condition answers with the Cramer pair test and the ray test
        both gone, so star-equivalence compares two independent deciders."""
        data = self._guard_data()
        expected = [fan_condition(d) for d in data]
        for module in (cones, stability):
            monkeypatch.setattr(module, "_in_pair_cone", self._refuse)
            monkeypatch.setattr(module, "on_ray", self._refuse)
        assert [fan_condition(d) for d in data] == expected

    def test_membership_form_uses_no_interior_decider(self, monkeypatch):
        data = self._guard_data()
        expected = [fan_condition_membership(d) for d in data]
        monkeypatch.setattr(Cone2, "interior_contains", self._refuse)
        monkeypatch.setattr(Cone2, "has_apex", self._refuse)
        assert [fan_condition_membership(d) for d in data] == expected


class TestMainEquivalence:
    def test_flag_both_sides_true(self):
        d = flag_datum()
        assert fan_condition(d) and pattern_level_equality(d)

    def test_no_apex_both_sides_false(self):
        d = WeightDatum(
            a=((1, 0), (0, 1), (1, 1)),
            b=((-1, 0), (0, -1), (-1, -1)),
            c=(1, 1),
        )
        assert not fan_condition(d)
        assert not pattern_level_equality(d)

    def test_random_data(self):
        rng = random.Random(31337)
        for constrained in (True, False):
            for _ in range(150):
                d = random_test_datum(rng, bound=6, constrained=constrained)
                assert fan_condition(d) == pattern_level_equality(d), d


class TestR0Trivial:
    def test_flag(self):
        assert r0_is_trivial(flag_datum())

    def test_zero_weight(self):
        d = WeightDatum(
            a=((0, 0), (1, 0), (1, 0)),
            b=((1, 1), (0, 1), (0, 1)),
            c=(1, 1),
        )
        assert not r0_is_trivial(d)

    def test_opposite_pair(self):
        d = WeightDatum(
            a=((1, 0), (3, 1), (2, 2)),
            b=((1, 1), (-1, 0), (0, -1)),
            c=(1, 1),
        )
        assert not r0_is_trivial(d)


class TestBiquotient:
    def test_spec_translation(self):
        d = weights_from_biquotient(
            w_left=((0, 0), (0, 0), (0, 0)),
            w_right=((-1, 0), (0, 0), (1, 0)),
        )
        assert d.a == ((1, 0), (1, 0), (1, 0))
        assert d.b == ((1, 0), (1, 0), (1, 0))
        assert d.c == (2, 0)
        assert not fan_condition(d)  # everything collinear, no interior

    def test_trivial_character_rejected(self):
        with pytest.raises(ValueError, match="nontrivial"):
            weights_from_biquotient(
                w_left=((1, 2), (3, 4), (5, 6)),
                w_right=((2, 2), (0, 0), (2, 2)),
            )

    def test_sum_identity(self):
        rng = random.Random(8)
        for _ in range(100):
            wl = tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3))
            wr = tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3))
            if wr[0] == wr[2]:
                continue
            d = weights_from_biquotient(wl, wr)
            assert d.constrained
            for ai, bi in zip(d.a, d.b):
                assert (ai[0] + bi[0], ai[1] + bi[1]) == d.c
