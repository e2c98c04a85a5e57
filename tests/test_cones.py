"""Unit and property tests for the planar cone primitives."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conestab.cones import (
    Cone2,
    cross,
    dot,
    neg,
    on_ray,
    perp,
    positive_relation,
    strictly_separates,
)
from conftest import (
    combo_certifies,
    oracle_contains,
    scan_interior,
    scan_separator,
    scan_strict_separator,
)

ivec = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
small_cones = st.lists(ivec, min_size=0, max_size=5).map(Cone2)
_BIG = 10**30
bigvec = st.tuples(st.integers(-_BIG, _BIG), st.integers(-_BIG, _BIG))


@st.composite
def gordan_lists(draw):
    """Up to 7 vectors, small or 10^30-sized, with zeros and collinear copies."""
    vs = draw(st.lists(st.one_of(ivec, bigvec, st.just((0, 0))), max_size=7))
    for i in draw(st.lists(st.integers(0, 6), max_size=3)):
        if i < len(vs):
            u = draw(st.sampled_from(vs))
            k = draw(st.sampled_from([-3, -1, 1, 2]))
            vs[i] = (k * u[0], k * u[1])
    return vs


class TestContains:
    def test_zero_in_any_cone(self):
        assert Cone2(((1, 0), (0, 1))).contains((0, 0))
        assert Cone2(()).contains((0, 0))
        assert Cone2(((0, 0),)).contains((0, 0))

    def test_empty_cone_misses_nonzero(self):
        assert not Cone2(()).contains((1, 0))

    def test_half_plane_misses_opposite_side(self):
        # the generated set is the half plane x >= 0
        c = Cone2(((0, 1), (0, -1), (1, 1)))
        assert not c.contains((-1, 0))

    def test_half_plane_boundary_point(self):
        c = Cone2(((0, 1), (0, -1), (1, 1)))
        assert combo_certifies(c.generators, (0, 5))  # 5 * (0, 1)
        assert c.contains((0, 5))

    def test_quadrant(self):
        c = Cone2(((1, 0), (0, 1)))
        assert c.contains((3, 4))
        assert not c.contains((-1, 4))

    def test_line_cone(self):
        c = Cone2(((2, 4), (-1, -2)))
        assert c.contains((1, 2))
        assert c.contains((-3, -6))
        assert not c.contains((1, 3))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Cone2(((1.0, 0), (0, 1)))
        with pytest.raises(TypeError):
            Cone2(((1, 0),)).contains((0.5, 0))

    @settings(max_examples=300)
    @given(small_cones, ivec)
    def test_matches_separation_oracle(self, cone, p):
        assert cone.contains(p) == oracle_contains(cone.generators, p)

    @settings(max_examples=200)
    @given(small_cones, ivec, st.integers(1, 5))
    def test_scaling_invariance(self, cone, p, k):
        assert cone.contains(p) == cone.contains((k * p[0], k * p[1]))

    @settings(max_examples=200)
    @given(small_cones, ivec)
    def test_generator_order_irrelevant(self, cone, p):
        rev = Cone2(tuple(reversed(cone.generators)))
        assert cone.contains(p) == rev.contains(p)


class TestInterior:
    def test_quadrant_interior_point(self):
        c = Cone2(((1, 0), (0, 1)))
        # (1, 1) = 1*(1,0) + 1*(0,1) with both coefficients positive
        assert c.interior_contains((1, 1))

    def test_quadrant_boundary_point(self):
        assert not Cone2(((1, 0), (0, 1))).interior_contains((1, 0))

    def test_ray_has_empty_interior(self):
        assert not Cone2(((1, 0),)).interior_contains((1, 0))

    def test_line_has_empty_interior(self):
        c = Cone2(((1, 0), (-1, 0)))
        assert not c.interior_contains((1, 0))

    def test_full_plane_interior_is_everything(self):
        c = Cone2(((1, 0), (-1, 1), (-1, -1)))
        assert c.interior_contains((0, 0))
        assert c.interior_contains((7, -5))

    def test_half_plane(self):
        c = Cone2(((0, 1), (0, -1), (1, 1)))
        assert c.interior_contains((3, -7))
        assert not c.interior_contains((0, 5))
        assert not c.interior_contains((0, 0))

    @settings(max_examples=300)
    @given(small_cones, ivec)
    def test_interior_implies_membership(self, cone, p):
        if cone.interior_contains(p):
            assert cone.contains(p)

    @settings(max_examples=200)
    @given(small_cones, ivec, st.integers(1, 5))
    def test_scaling_invariance(self, cone, p, k):
        q = (k * p[0], k * p[1])
        assert cone.interior_contains(p) == cone.interior_contains(q)

    def test_matches_scan_oracle_exhaustively(self):
        box = [(x, y) for x in range(-1, 2) for y in range(-1, 2)]
        for k in range(4):
            for gens in product(box, repeat=k):
                cone = Cone2(gens)
                for p in box:
                    assert cone.interior_contains(p) == scan_interior(gens, p), (gens, p)

    def test_matches_scan_oracle_on_random_cones(self):
        rng = random.Random(1917)

        def vec():
            return (rng.randint(-3, 3), rng.randint(-3, 3))

        for _ in range(2000):
            gens = [vec() for _ in range(rng.randint(1, 6))]
            p = vec()
            assert Cone2(gens).interior_contains(p) == scan_interior(gens, p), (gens, p)


class TestTwoGeneratorInteriorCriterion:
    """Two-generator cones: membership off both rays forces interior membership."""

    @settings(max_examples=500)
    @given(ivec, ivec, ivec)
    def test_two_generator_interior_criterion(self, a, b, c):
        cone = Cone2((a, b))
        hyp = cone.contains(c) and not on_ray(a, c) and not on_ray(b, c)
        if hyp:
            assert cone.interior_contains(c)

    def test_concrete_instance(self):
        cone = Cone2(((2, 1), (1, 3)))
        assert cone.contains((3, 4)) and not on_ray((2, 1), (3, 4))
        assert not on_ray((1, 3), (3, 4))
        assert cone.interior_contains((3, 4))


class TestApexAndSeparation:
    def test_salient_cone_has_apex(self):
        assert Cone2(((1, 0), (0, 1), (1, 1))).has_apex()
        assert scan_strict_separator([(1, 0), (0, 1), (1, 1)]) is not None

    def test_half_plane_has_no_apex(self):
        assert not Cone2(((0, 1), (0, -1), (1, 1))).has_apex()

    def test_empty_and_zero_generators(self):
        assert Cone2(()).has_apex()
        assert Cone2(((0, 0),)).has_apex()
        assert Cone2(((0, 0), (2, 3))).has_apex()

    def test_separator_witness_examples(self):
        assert strictly_separates([]) == (1, 0)
        alpha = strictly_separates([(1, 0), (0, 1)])
        assert alpha == (1, 1)
        assert strictly_separates([(1, 0), (-1, 0)]) is None
        assert strictly_separates([(0, 0)]) is None
        assert strictly_separates([(0, 0), (1, 0)]) is None

    @settings(max_examples=300)
    @given(st.lists(ivec, min_size=0, max_size=5))
    def test_separator_agrees_with_scan(self, vs):
        alpha = strictly_separates(vs)
        found = scan_strict_separator(vs) is not None
        assert (alpha is not None) == found
        if alpha is not None:
            assert all(dot(v, alpha) > 0 for v in vs) or not vs

    def test_positive_relation_examples(self):
        assert positive_relation([]) is None
        assert positive_relation([(1, 0), (0, 1)]) is None
        assert positive_relation([(1, 0), (0, 0)]) == {1: 1}
        assert positive_relation([(2, 0), (-3, 0)]) == {0: 3, 1: 2}
        assert positive_relation([(1, 0), (0, 1), (-1, -1)]) == {0: 1, 1: 1, 2: 1}

    @settings(max_examples=500)
    @given(gordan_lists())
    def test_gordan_alternative(self, vs):
        relation = positive_relation(vs)
        alpha = strictly_separates(vs)
        assert (relation is None) != (alpha is None)
        if relation is not None:
            assert all(e >= 0 for e in relation.values()) and any(relation.values())
            for k in (0, 1):
                assert sum(e * vs[i][k] for i, e in relation.items()) == 0
        else:
            assert all(dot(v, alpha) > 0 for v in vs)

    @settings(max_examples=300)
    @given(st.lists(ivec, min_size=0, max_size=5))
    def test_apex_iff_nonzero_separator(self, vs):
        cone = Cone2(vs)
        nonzero = [v for v in vs if v != (0, 0)]
        assert cone.has_apex() == (strictly_separates(nonzero) is not None)


class TestNoApexCounterexample:
    """Membership can fail without any strict separator when the apex is absent."""

    VS = ((0, 1), (0, -1), (1, 1))
    U = (-1, 0)

    def test_no_strict_separator(self):
        vectors = list(self.VS) + [neg(self.U)]
        assert strictly_separates(vectors) is None
        assert scan_strict_separator(vectors) is None

    def test_yet_not_a_member(self):
        assert not Cone2(self.VS).contains(self.U)
        assert scan_separator(self.VS, self.U) is not None

    def test_apex_fails_here(self):
        assert not Cone2(self.VS).has_apex()


class TestHullDim:
    def test_dims(self):
        assert Cone2(()).linear_hull_dim() == 0
        assert Cone2(((0, 0),)).linear_hull_dim() == 0
        assert Cone2(((2, 1),)).linear_hull_dim() == 1
        assert Cone2(((2, 1), (-4, -2))).linear_hull_dim() == 1
        assert Cone2(((2, 1), (1, 2))).linear_hull_dim() == 2

    @settings(max_examples=200)
    @given(small_cones)
    def test_dim_zero_iff_trivial(self, cone):
        trivial = all(g == (0, 0) for g in cone.generators)
        assert (cone.linear_hull_dim() == 0) == trivial


def test_perp_and_cross_conventions():
    assert perp((2, 3)) == (-3, 2)
    assert cross((1, 0), (0, 1)) == 1
    assert dot(perp((2, 3)), (2, 3)) == 0
