"""Tests for graded dimensions and invariant-monomial search."""

import random
from itertools import product

import pytest

from conestab.cones import strictly_separates
from conestab.graded import Monomial, find_invariant_monomial, graded_dim, hilbert_table
from conestab.stability import WeightDatum, flag_datum, r0_is_trivial
from conftest import scan_strict_separator

from test_stability import random_test_datum


def triangle(n):
    return (n + 1) * (n + 2) // 2 if n >= 0 else 0


def flag_dim_oracle(n):
    """Bihomogeneous sections of degree (n, n) minus the multiples of the
    quadric relation, counted on the product of two projective planes."""
    return triangle(n) ** 2 - triangle(n - 1) ** 2


def brute_force_dim(datum, degree):
    """Direct lattice enumeration using an independently scanned positive
    functional to bound the exponents."""
    f = scan_strict_separator(datum.weights())
    assert f is not None
    ws = datum.weights()
    fvals = [f[0] * x + f[1] * y for x, y in ws]
    budget = degree * (f[0] * datum.c[0] + f[1] * datum.c[1])
    if budget < 0:
        return 0
    bounds = [budget // fv + 1 for fv in fvals]
    target = (degree * datum.c[0], degree * datum.c[1])
    count = 0
    for exps in product(*(range(b) for b in bounds)):
        if exps[0] >= 1 and exps[3] >= 1:  # divisible by z1*w1
            continue
        wx = sum(e * v[0] for e, v in zip(exps, ws))
        wy = sum(e * v[1] for e, v in zip(exps, ws))
        if (wx, wy) == target:
            count += 1
    return count


class TestMonomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial((1, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            Monomial((1, 0, -1), (0, 0, 0))

    def test_weight_and_degree(self):
        m = Monomial((1, 0, 0), (0, 1, 0))
        assert m.weight(flag_datum()) == (1, 1)
        assert m.total_degree() == 2
        assert not m.is_constant()
        assert Monomial((0, 0, 0), (0, 0, 0)).is_constant()

    def test_str(self):
        assert str(Monomial((0, 0, 0), (0, 0, 0))) == "1"
        assert str(Monomial((2, 0, 1), (0, 1, 0))) == "z1^2*z3*w2"


class TestGradedDim:
    def test_degree_zero_counts_constants(self):
        assert graded_dim(flag_datum(), 0) == 1

    def test_flag_degree_one(self):
        # nine products z_i w_j minus the excluded z1 w1
        assert graded_dim(flag_datum(), 1) == 8

    def test_flag_against_combinatorial_oracle(self):
        d = flag_datum()
        for n in range(7):
            expected = flag_dim_oracle(n)
            assert expected == (n + 1) ** 3
            assert graded_dim(d, n) == expected

    def test_unreachable_degree_counts_zero(self):
        d = WeightDatum(a=((1, 0),) * 3, b=((0, 1),) * 3, c=(-1, -1), constrained=True)
        assert r0_is_trivial(d)
        assert graded_dim(d, 1) == 0
        assert hilbert_table(d, 3) == [1, 0, 0, 0]

    def test_rejects_nontrivial_invariants(self):
        d = WeightDatum(
            a=((0, 0), (1, 0), (1, 0)),
            b=((1, 1), (0, 1), (0, 1)),
            c=(1, 1),
        )
        with pytest.raises(ValueError, match="invariant"):
            graded_dim(d, 1)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            graded_dim(flag_datum(), -1)

    def test_against_brute_force_on_random_data(self):
        rng = random.Random(606)
        for constrained in (True, False):
            checked = 0
            while checked < 10:
                d = random_test_datum(rng, bound=2, constrained=constrained)
                if not r0_is_trivial(d):
                    continue
                checked += 1
                for n in range(3):
                    assert graded_dim(d, n) == brute_force_dim(d, n), (d, n)

    def test_product_superadditivity(self):
        rng = random.Random(1914)
        checked = 0
        while checked < 10:
            d = random_test_datum(rng, bound=4)
            if not r0_is_trivial(d):
                continue
            checked += 1
            dims = hilbert_table(d, 4)
            for m in range(1, 3):
                for n in range(1, 3):
                    if dims[m] >= 1 and dims[n] >= 1:
                        assert dims[m + n] >= 1


class TestHilbertTable:
    def test_flag_table(self):
        assert hilbert_table(flag_datum(), 3) == [1, 8, 27, 64]
        assert hilbert_table(flag_datum(), 0) == [1]
        assert hilbert_table(flag_datum(), 30) == [(n + 1) ** 3 for n in range(31)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hilbert_table(flag_datum(), -1)


class TestFindInvariantMonomial:
    def test_flag_has_none(self):
        assert find_invariant_monomial(flag_datum()) is None

    def test_zero_weight_witness(self):
        d = WeightDatum(
            a=((0, 0), (1, 0), (1, 0)),
            b=((1, 1), (0, 1), (0, 1)),
            c=(1, 1),
        )
        m = find_invariant_monomial(d)
        assert m == Monomial((1, 0, 0), (0, 0, 0))
        assert str(m) == "z1"

    def test_opposite_pair_witness(self):
        # b_1 = -a_2, so z2 w1 is invariant
        d = WeightDatum(
            a=((1, 0), (0, 1), (2, 0)),
            b=((0, -1), (1, -2), (-1, -1)),
            c=(1, -1),
        )
        m = find_invariant_monomial(d)
        assert m == Monomial((0, 1, 0), (1, 0, 0))
        assert str(m) == "z2*w1"

    def test_surrounding_triple_witness(self):
        # no zero weight, no opposite pair; the z-weights surround the origin
        d = WeightDatum(
            a=((1, 0), (0, 1), (-1, -2)),
            b=((5, 7), (7, 5), (9, 11)),
            c=(1, 0),
            constrained=False,
        )
        m = find_invariant_monomial(d)
        assert m is not None
        assert m.weight(d) == (0, 0)
        assert m == Monomial((1, 2, 1), (0, 0, 0))
        assert str(m) == "z1*z2^2*z3"

    def test_agrees_with_r0_on_random_data(self):
        rng = random.Random(2718)
        for constrained in (True, False):
            for _ in range(300):
                d = random_test_datum(rng, bound=4, constrained=constrained)
                m = find_invariant_monomial(d)
                assert (m is None) == r0_is_trivial(d), d
                # the dual side shares no code with the monomial search
                assert (m is None) == (strictly_separates(d.weights()) is not None), d
                if m is not None:
                    assert m.weight(d) == (0, 0)
                    assert not m.is_constant()

    def test_brute_force_finds_witness_when_reported(self):
        """When a witness exists there is one of bounded degree; compare with a
        direct small-exponent search."""
        rng = random.Random(99)
        hits = 0
        while hits < 8:
            d = random_test_datum(rng, bound=2)
            m = find_invariant_monomial(d)
            found = False
            for exps in product(range(5), repeat=6):
                if all(e == 0 for e in exps):
                    continue
                wx = sum(e * v[0] for e, v in zip(exps, d.weights()))
                wy = sum(e * v[1] for e, v in zip(exps, d.weights()))
                if (wx, wy) == (0, 0):
                    found = True
                    break
            if found:
                hits += 1
                assert m is not None
