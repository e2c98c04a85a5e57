"""Decider isolation: the two answers of every cross-check share no decision code.

Each side of a pair runs under ``sys.setprofile`` on data of its own, and
the ``conestab`` functions it reaches are collected by module and
qualified name.  The two sets may meet only in ``_SHARED``: the integer
dot and cross products and the accessor for a datum's six weights.

A profiler sees calls only.  Module-level data, such as
``stability._BY_RANK`` or ``verify._PATTERNS_WITHIN``, is built at
import time and is invisible here; so is a result kept on a datum, which
is why each side gets freshly built data and graded's table cache is
cleared first.
"""

import sys

import pytest

from conestab import graded
from conestab.cones import Cone2, strictly_separates
from conestab.graded import find_invariant_monomial
from conestab.stability import (
    ALL_PATTERNS,
    WeightDatum,
    classify_by_cone,
    classify_by_one_ps,
    fan_condition,
    fan_condition_membership,
)
from conestab.verify import (
    TrialConfig,
    _intcone_hypothesis,
    _primitive_direction_array,
    _sweep_columns,
    _sweep_bits,
    datum_stream,
)

_SHARED = {"cones.dot", "cones.cross", "stability.WeightDatum.weights"}

# 800 data: 100 at each of the bounds 1, 2, 3 and 20, in both regimes
_FIELDS = [
    (d.a, d.b, d.c, d.constrained)
    for bound in (1, 2, 3, 20)
    for constrained in (True, False)
    for d in datum_stream(TrialConfig(seed=bound, trials=100, coord_bound=bound,
                                      enforce_constraint=constrained))
]
_BOX = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
_TRIPLES = [(a, b, c) for a in _BOX for b in _BOX for c in _BOX]
_DIRECTIONS = _primitive_direction_array(50)


def _fresh_data():
    return [WeightDatum(a=a, b=b, c=c, constrained=k) for a, b, c, k in _FIELDS]


def _classify_all(classify):
    return lambda d: [classify(d, p) for p in ALL_PATTERNS]


def _cone2_membership(triple):
    a, b, c = triple
    cone = Cone2((a, b))
    return cone.contains(c), cone.interior_contains(c)


# (name, fresh inputs, one side, the other side); a side takes one input
PAIRS = [
    ("classifiers", _fresh_data,
     _classify_all(classify_by_one_ps), _classify_all(classify_by_cone)),
    ("fan forms", _fresh_data, fan_condition, fan_condition_membership),
    ("gordan", _fresh_data, find_invariant_monomial, lambda d: strictly_separates(d.weights())),
    ("hm sweep", _fresh_data, lambda d: _sweep_bits(_sweep_columns(d, 50), _DIRECTIONS),
     _classify_all(classify_by_one_ps)),
    ("main theorem", _fresh_data, fan_condition, lambda d: d._one_ps_bits),
    ("intcone", lambda: _TRIPLES, lambda t: _intcone_hypothesis(*t), _cone2_membership),
]


def _reached(side, inputs) -> set[str]:
    """The conestab functions that side reaches on the inputs, as module.qualname."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("conestab."):
                seen.add(f"{module.removeprefix('conestab.')}.{frame.f_code.co_qualname}")

    graded._table.cache_clear()
    sys.setprofile(profile)
    try:
        for x in inputs:
            side(x)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("name, inputs, left, right", PAIRS, ids=[pair[0] for pair in PAIRS])
def test_cross_check_sides_share_no_decider(name, inputs, left, right):
    reached_left = _reached(left, inputs())
    reached_right = _reached(right, inputs())
    assert reached_left and reached_right
    assert reached_left & reached_right <= _SHARED
