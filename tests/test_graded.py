"""Tests for graded dimensions and invariant-monomial search."""

import random
from itertools import product
from math import gcd

import pytest

from conestab import graded
from conestab.cones import Cone2, dot, strictly_separates
from conestab.graded import (
    MAX_TABLE_WORK,
    Monomial,
    find_invariant_monomial,
    graded_dim,
    hilbert_table,
)
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
        assert hilbert_table(flag_datum(), 40) == [(n + 1) ** 3 for n in range(41)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hilbert_table(flag_datum(), -1)


def trivial_data(rng, count):
    """r0-trivial data at bounds 2 and 3, each followed by variants equal to
    it except for c, for the constraint flag, or for a_1 + b_1 (a_1 and a_2
    swapped: the same six weights, another relation)."""
    data = []
    while len(data) < count:
        d = random_test_datum(rng, bound=rng.choice([2, 3]), constrained=rng.random() < 0.5)
        if not r0_is_trivial(d):
            continue
        data.append(d)
        c = (d.c[0] + 1, d.c[1]) if d.c != (-1, 0) else (0, 1)
        data.append(WeightDatum(a=d.a, b=d.b, c=c, constrained=d.constrained))
        if d.constrained:
            data.append(WeightDatum(a=d.a, b=d.b, c=d.c, constrained=False))
        if d.a[0] != d.a[1]:
            a = (d.a[1], d.a[0], d.a[2])
            data.append(WeightDatum(a=a, b=d.b, c=d.c, constrained=False))
    return data


class TestTableMemo:
    """graded_dim and hilbert_table read a per-(datum, n_max) table cache;
    their answers must not depend on what the cache holds."""

    NMAX = 5

    def test_dims_do_not_depend_on_cache_state(self):
        rng = random.Random(4242)
        data = trivial_data(rng, 60)
        assert len(set(data)) == len(data) > 3 * graded._TABLE_CACHE_SIZE
        expected = []
        for d in data:
            graded._table.cache_clear()
            expected.append(hilbert_table(d, self.NMAX))
        for d, dims in zip(data[:12], expected):
            for n in range(3):
                assert dims[n] == brute_force_dim(d, n), (d, n)

        # each datum's queries are spread over a window of other data, with
        # degrees in mixed order, so lookups mix hits, misses and evictions
        queries = sorted(
            (
                (i, rng.randint(0, self.NMAX), rng.random() < 0.5)
                for i in range(len(data))
                for _ in range(6)
            ),
            key=lambda q: q[0] + rng.randint(0, 30),
        )
        hits = misses = 0
        graded._table.cache_clear()
        for step, (i, n, whole) in enumerate(queries, start=1):
            d, dims = data[i], expected[i]
            if whole:
                assert hilbert_table(d, n) == dims[: n + 1], (d, n)
            else:
                assert graded_dim(d, n) == dims[n], (d, n)
            if step % 97 == 0 or step == len(queries):
                info = graded._table.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
                graded._table.cache_clear()
        # a hilbert_table call hits the entry its graded_dim call just filled
        assert hits > sum(whole for _, _, whole in queries) and misses > len(data)

        for d, dims in zip(data, expected):
            for n in range(self.NMAX + 1):
                assert graded_dim(d, n) == hilbert_table(d, self.NMAX)[n] == dims[n], (d, n)

    def test_returned_lists_are_fresh(self):
        d = flag_datum()
        dims = hilbert_table(d, 4)
        dims[1] = -1
        dims.append(0)
        assert hilbert_table(d, 4) == [1, 8, 27, 64, 125]
        assert graded_dim(d, 4) == 125

    def test_one_separator_per_table(self, monkeypatch):
        calls = []

        def counted(ws):
            calls.append(ws)
            return strictly_separates(ws)

        monkeypatch.setattr(graded, "strictly_separates", counted)
        graded._table.cache_clear()
        assert hilbert_table(flag_datum(), 12) == [(n + 1) ** 3 for n in range(13)]
        assert len(calls) == 1


def dp_states(ws, f, budget):
    """Every nonnegative integer combination of the weights with f-value at
    most the budget: a superset of the points the DP tabulates."""
    seen, todo = {(0, 0)}, [(0, 0)]
    while todo:
        x, y = todo.pop()
        for w in ws:
            p = (x + w[0], y + w[1])
            if dot(f, p) <= budget and p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def scaled(d, s):
    """The datum with every weight and C multiplied by s."""
    return WeightDatum(
        a=tuple((s * x, s * y) for x, y in d.a),
        b=tuple((s * x, s * y) for x, y in d.b),
        c=(s * d.c[0], s * d.c[1]),
        constrained=d.constrained,
    )


def in_lattice(basis, p):
    """Whether p is an integer combination of the two basis vectors."""
    e1, e2 = basis
    det = e1[0] * e2[1] - e1[1] * e2[0]
    s, t = p[0] * e2[1] - p[1] * e2[0], e1[0] * p[1] - e1[1] * p[0]
    return s % det == 0 and t % det == 0


def walk_steps(d, f, n_max):
    """Points visited walking the last weight back from every target."""
    step = dot(f, d.weights()[-1])
    s = (d.a[0][0] + d.b[0][0], d.a[0][1] + d.b[0][1])
    total = 0
    for n in range(n_max + 1):
        for t in ((n * d.c[0], n * d.c[1]), (n * d.c[0] - s[0], n * d.c[1] - s[1])):
            total += max(0, dot(f, t) // step + 1)
    return total


class TestWorkBound:
    def test_bounds_the_states_and_walks_on_random_data(self):
        rng = random.Random(5150)
        checked = boxed = 0
        while checked < 200:
            d = random_test_datum(rng, bound=rng.choice([2, 3, 4]), constrained=rng.random() < 0.5)
            if not r0_is_trivial(d):
                continue
            # scaled data span sparser lattices, whose index the bound divides by
            d = scaled(d, rng.choice([1, 1, 2, 3]))
            ws, n_max = d.weights(), rng.randint(1, 6)
            f = strictly_separates(ws)
            budget = n_max * dot(f, d.c)
            if budget <= 0:
                continue
            checked += 1
            bound = graded._work_bound(ws, f, budget, n_max)
            states = dp_states(ws, f, budget)
            assert bound >= len(states) + walk_steps(d, f, n_max), (d, n_max)
            # every point of the weights' lattice in the triangle, counted
            # in its bounding box
            reach = max(budget * abs(x) // dot(f, w) for w in ws for x in w)
            if reach <= 40:
                boxed += 1
                cone, basis = Cone2(ws), graded._lattice_basis(ws)
                lattice = sum(
                    1
                    for x in range(-reach, reach + 1)
                    for y in range(-reach, reach + 1)
                    if dot(f, (x, y)) <= budget
                    and cone.contains((x, y))
                    and in_lattice(basis, (x, y))
                )
                assert lattice >= len(states)
                assert bound >= lattice + walk_steps(d, f, n_max), (d, n_max)
        assert boxed >= 20

    def test_flag_bound_and_cap(self):
        d = flag_datum()
        f = strictly_separates(d.weights())
        # 81 * 82 / 2 = 3,321 states; the bound counts 3,361, plus 3,362 walk steps
        assert graded._work_bound(d.weights(), f, 80, 40) == 6723
        assert len(dp_states(d.weights(), f, 80)) == 3321
        assert 20 * 6723 < MAX_TABLE_WORK

    def test_lattice_basis_spans_the_weights(self):
        rng = random.Random(2718)
        for _ in range(300):
            d = scaled(random_test_datum(rng, bound=rng.choice([2, 4, 9])), rng.randint(1, 12))
            ws = d.weights()
            e1, e2 = graded._lattice_basis(ws)
            index = e1[0] * e2[1]
            minors = 0
            for i, v in enumerate(ws):
                for w in ws[i + 1 :]:
                    minors = gcd(minors, v[0] * w[1] - v[1] * w[0])
            # a basis of a lattice holding every weight, with the weights'
            # index, spans exactly the weights' lattice
            assert index == minors, d
            if index:
                assert all(in_lattice((e1, e2), w) for w in ws), d

    def test_scaled_flag_is_bounded_like_the_flag(self):
        for s in (1, 10, 100):
            d = scaled(flag_datum(), s)
            f = strictly_separates(d.weights())
            for n_max, bound in ((6, 195), (40, 6723)):
                budget = n_max * dot(f, d.c)
                assert graded._work_bound(d.weights(), f, budget, n_max) == bound, (s, n_max)
                graded._table.cache_clear()
                assert hilbert_table(d, n_max) == [(n + 1) ** 3 for n in range(n_max + 1)]

    def test_weights_on_one_ray(self):
        d = WeightDatum(a=((1, 0),) * 3, b=((2, 0),) * 3, c=(3, 0))
        dims = [brute_force_dim(d, n) for n in range(4)]
        assert dims == [1, 18, 100, 315]
        for s in (1, 100):
            ds = scaled(d, s)
            ws, f = ds.weights(), strictly_separates(ds.weights())
            assert graded._lattice_basis(ws) == ((s, 0), (0, 0))
            assert hilbert_table(ds, 3) == dims
            budget = 6 * dot(f, ds.c)
            bound = graded._work_bound(ws, f, budget, 6)
            assert bound == 96
            assert bound >= len(dp_states(ws, f, budget)) + walk_steps(ds, f, 6)

    def test_past_the_cap_raises(self):
        d = WeightDatum(
            a=((10**400, 0), (1, 0), (1, 0)),
            b=((0, 1), (0, 1), (0, 1)),
            c=(1, 1),
            constrained=False,
        )
        with pytest.raises(ValueError, match="MAX_TABLE_WORK"):
            hilbert_table(d, 1)
        with pytest.raises(ValueError, match="over 2\\^"):
            hilbert_table(flag_datum(), 10**30)
        unreachable = WeightDatum(a=((1, 0),) * 3, b=((0, 1),) * 3, c=(-1, -1))
        assert hilbert_table(unreachable, MAX_TABLE_WORK - 1)[:2] == [1, 0]
        with pytest.raises(ValueError, match="250,000"):
            hilbert_table(unreachable, MAX_TABLE_WORK)


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
