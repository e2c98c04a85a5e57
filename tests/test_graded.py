"""Tests for graded dimensions and invariant-monomial search."""

import random
from itertools import product

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
from conftest import random_test_datum, scan_strict_separator


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
        with pytest.raises(TypeError):  # never truncated to z1
            Monomial(z_exp=(1.5, 0, 0), w_exp=(0, 0, 0))

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


def mapped(d, m):
    """The datum with every weight and C multiplied by the integer matrix m.

    For invertible m, an exponent vector has weight n c for d exactly when
    it has weight n m c for the image, so both have the same graded
    dimensions."""
    (p, q), (r, s) = m
    return WeightDatum(
        a=tuple((p * x + q * y, r * x + s * y) for x, y in d.a),
        b=tuple((p * x + q * y, r * x + s * y) for x, y in d.b),
        c=(p * d.c[0] + q * d.c[1], r * d.c[0] + s * d.c[1]),
        constrained=d.constrained,
    )


class TestIntegerKey:
    """The DP keys a point p by (f.p) S + g.p + span, with g = (0, 1) when
    f_0 != 0 and (1, 0) otherwise; every table must match the brute-force
    count whichever g is chosen and however far g.p runs from f.p."""

    @staticmethod
    def kind(d):
        f = strictly_separates(d.weights())
        if dot(f, d.c) > 0 and not Cone2(d.weights()).contains(d.c):
            return "outside"
        return "f0 == 0" if f[0] == 0 else "f0 != 0"

    def test_against_brute_force_for_both_keys(self):
        rng = random.Random(1616)
        quota = dict.fromkeys(("f0 == 0", "f0 != 0", "outside"), 4)
        seen = {"f0 == 0": 0, "f0 != 0": 0, "skewed": 0}
        while any(quota.values()):
            d = random_test_datum(rng, bound=2, constrained=rng.random() < 0.5)
            if not r0_is_trivial(d):
                continue
            kind = self.kind(d)
            if not quota[kind]:
                continue
            quota[kind] -= 1
            dims = [brute_force_dim(d, n) for n in range(4)]
            # f maps along with a shear, so every f.w is kept, while g.w
            # moves by 40 times the other coordinate
            for e in (d, mapped(d, ((1, 0), (40, 1))), mapped(d, ((1, 40), (0, 1))), scaled(d, 100)):
                graded._table.cache_clear()
                assert hilbert_table(e, 3) == dims, (d, e)
                ws, f = e.weights(), strictly_separates(e.weights())
                g = 1 if f[0] else 0
                seen["f0 != 0" if f[0] else "f0 == 0"] += 1
                seen["skewed"] += max(abs(w[g]) for w in ws) > 10 * max(dot(f, w) for w in ws)
        assert all(n >= 4 for n in seen.values()), seen

    def test_each_term_of_the_span_is_needed(self):
        # Without n_max |g.c|, the walk back from n c, far below or left of
        # the states on one axis, aliases the origin's key; without the + 1
        # per weight, a point one step back from a state or past the budget
        # aliases another.  Each datum was found wrong under one omission.
        outside = [
            (((3, 0), (1, 0), (1, 0)), ((2, 0), (3, 0), (3, 0)), (3, -9), 4),  # g.p = y
            (((0, 1), (0, 1), (0, 2)), ((0, 1), (0, 3), (0, 1)), (5, 2), 4),  # g.p = x
        ]
        for a, b, c, n_max in outside:
            d = WeightDatum(a=a, b=b, c=c, constrained=False)
            assert not Cone2(d.weights()).contains(c)
            graded._table.cache_clear()
            assert hilbert_table(d, n_max) == [1] + [0] * n_max, d
        for a, b, c, n_max in (
            (((3, 0), (1, 0), (2, -8)), ((3, 9), (3, 0), (1, 8)), (1, 0), 1),
            (((2, -7), (1, 0), (2, 0)), ((1, 0), (2, 0), (2, 0)), (0, 2), 3),
        ):
            d = WeightDatum(a=a, b=b, c=c, constrained=False)
            graded._table.cache_clear()
            assert hilbert_table(d, n_max) == [brute_force_dim(d, n) for n in range(n_max + 1)], d

    def test_skewed_flag(self):
        # every f.w of the flag is 1, and stays 1 under these maps of
        # determinant 1, while g.w grows to 1,000 or more
        for m, f in ((((1, 0), (1000, 1)), (-999, 1)), (((1001, 1000), (1, 1)), (0, 1))):
            d = mapped(flag_datum(), m)
            assert strictly_separates(d.weights()) == f
            graded._table.cache_clear()
            assert hilbert_table(d, 12) == [(n + 1) ** 3 for n in range(13)], m


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
    most the budget: for the first five weights, the points the DP
    tabulates."""
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
    return mapped(d, ((s, 0), (0, s)))


def counted_work(d, n_max):
    """The work a table is charged: (n_max + 1)(2 + budget / f.l) walk-back
    steps, floored, plus the DP's states other than the origin."""
    ws = d.weights()
    f = strictly_separates(ws)
    budget = n_max * dot(f, d.c)
    fl = dot(f, ws[-1])
    return (n_max + 1) * (2 * fl + budget) // fl + len(dp_states(ws[:-1], f, budget)) - 1


def table_at_exact_cap(monkeypatch, d, n_max, work):
    """The table, computed with the cap at work; one below, it is refused."""
    monkeypatch.setattr(graded, "MAX_TABLE_WORK", work - 1)
    graded._table.cache_clear()
    with pytest.raises(ValueError, match=f"needs more than MAX_TABLE_WORK = {work - 1:,} "):
        hilbert_table(d, n_max)
    monkeypatch.setattr(graded, "MAX_TABLE_WORK", work)
    graded._table.cache_clear()
    return hilbert_table(d, n_max)


PAST_CAP = (
    f"this Hilbert table needs more than MAX_TABLE_WORK = {MAX_TABLE_WORK:,} "
    "DP states and walk-back steps"
)


class TestWorkBound:
    """A table's DP states and walk-back steps are counted against
    MAX_TABLE_WORK as the DP runs."""

    def test_bounds_the_states_and_walks_on_random_data(self, monkeypatch):
        rng = random.Random(5150)
        checked = 0
        while checked < 50:
            d = random_test_datum(rng, bound=rng.choice([2, 3, 4]), constrained=rng.random() < 0.5)
            if not r0_is_trivial(d):
                continue
            d = scaled(d, rng.choice([1, 1, 2, 3]))
            n_max = rng.randint(1, 6)
            if dot(strictly_separates(d.weights()), d.c) <= 0:
                continue
            checked += 1
            monkeypatch.undo()
            graded._table.cache_clear()
            dims = hilbert_table(d, n_max)
            assert table_at_exact_cap(monkeypatch, d, n_max, counted_work(d, n_max)) == dims

    def test_flag_bound_and_cap(self, monkeypatch):
        # 81 * 82 / 2 = 3,321 states, 3,320 of them new, plus 41 * 82 walk steps
        assert counted_work(flag_datum(), 40) == 3320 + 3362
        assert table_at_exact_cap(monkeypatch, flag_datum(), 40, 6682) == [
            (n + 1) ** 3 for n in range(41)
        ]
        assert 20 * 6682 < MAX_TABLE_WORK

    def test_scaled_flag_is_bounded_like_the_flag(self, monkeypatch):
        for s in (1, 10, 100):
            d = scaled(flag_datum(), s)
            for n_max, work in ((6, 188), (40, 6682)):
                assert counted_work(d, n_max) == work, (s, n_max)
                assert table_at_exact_cap(monkeypatch, d, n_max, work) == [
                    (n + 1) ** 3 for n in range(n_max + 1)
                ]

    def test_weights_on_one_ray(self, monkeypatch):
        d = WeightDatum(a=((1, 0),) * 3, b=((2, 0),) * 3, c=(3, 0))
        dims = [brute_force_dim(d, n) for n in range(4)]
        assert dims == [1, 18, 100, 315]
        for s in (1, 100):
            ds = scaled(d, s)
            graded._table.cache_clear()
            assert hilbert_table(ds, 3) == dims
            # 18 new states along the ray, 7 * (2 + 18 / 2) walk steps
            assert counted_work(ds, 6) == 18 + 77
            assert table_at_exact_cap(monkeypatch, ds, 6, 95)[:4] == dims

    def test_table_past_the_lattice_bound(self):
        # 50,077 DP states, 50,076 of them new, and 58 walk steps
        d = WeightDatum(
            a=((13, -6), (-24, -10), (29, 7)),
            b=((2, -18), (39, -14), (-14, -31)),
            c=(9, -25),
            constrained=True,
        )
        graded._table.cache_clear()
        assert hilbert_table(d, 6) == [1, 0, 0, 0, 0, 0, 1]
        assert counted_work(d, 6) == 50076 + 58 < MAX_TABLE_WORK

    def test_past_the_cap_raises(self):
        d = WeightDatum(
            a=((10**400, 0), (1, 0), (1, 0)),
            b=((0, 1), (0, 1), (0, 1)),
            c=(1, 1),
            constrained=False,
        )
        with pytest.raises(ValueError) as e:
            hilbert_table(d, 1)
        assert str(e.value) == PAST_CAP
        with pytest.raises(ValueError) as e:
            hilbert_table(flag_datum(), 10**30)
        assert str(e.value) == PAST_CAP
        unreachable = WeightDatum(a=((1, 0),) * 3, b=((0, 1),) * 3, c=(-1, -1))
        assert hilbert_table(unreachable, MAX_TABLE_WORK - 1)[:2] == [1, 0]
        with pytest.raises(ValueError) as e:
            hilbert_table(unreachable, MAX_TABLE_WORK)
        assert str(e.value) == PAST_CAP


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
