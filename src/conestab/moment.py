"""The real moment map, the package's one floating-point answer.

Every decision in conestab is made in exact integer arithmetic; this
module evaluates the moment map in double precision, and its result
never feeds an exact predicate.  It also holds the one parser of a
moment point, shared by the library and the ``moment`` command.
"""

from __future__ import annotations

import math
import numbers
import re
from typing import NamedTuple

from conestab.stability import WeightDatum

# float() alone also takes underscores, spaces, other digits, inf and nan
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


class MomentValue(NamedTuple):
    phi: tuple[float, float]
    residual: float


def _real(x, name: str) -> float:
    if isinstance(x, bool):
        raise ValueError(f"{name}: expected a number, got a boolean")
    if isinstance(x, str) and not _JSON_NUMBER.fullmatch(x):
        raise ValueError(f"{name}: a string entry must be a JSON number")
    try:  # numbers.Number leaves out numpy booleans, which float() reads as 0 or 1
        value = float(x) if isinstance(x, (str, numbers.Number)) else math.nan
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name}: entries must be finite numbers")
    return value


def _point(value, key: str) -> tuple[complex, complex, complex]:
    """The three coordinates of a moment point: a list or tuple of complex
    numbers, real numbers and [re, im] pairs, every real a number or a
    string in the JSON number grammar.  ValueError names the bad entry."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"{key}: expected three coordinates, each a number or an [re, im] pair")
    out = []
    for i, q in enumerate(value):
        name = f"{key}[{i}]"
        if isinstance(q, complex):
            q = (q.real, q.imag)
        elif not isinstance(q, (list, tuple)):
            q = (q, 0)
        elif len(q) != 2:
            raise ValueError(f"{name}: expected a number or an [re, im] pair")
        out.append(complex(_real(q[0], name), _real(q[1], name)))
    return tuple(out)


def moment_map(datum: WeightDatum, z, w) -> MomentValue:
    """Weighted coordinate norms, plus the quadric residual of the point.

    phi = sum_j (a_j |z_j|^2 + b_j |w_j|^2); the residual |sum z_j w_j|
    lets callers check numerically whether the point lies on the quadric.
    z and w are parsed by ``_point``, z first.  ValueError also when a
    weight is beyond double range, or phi or the residual is not finite.
    """
    zs = _point(z, "z")
    ws = _point(w, "w")
    try:
        weights = [(float(ax), float(ay)) for ax, ay in datum.a + datum.b]
    except OverflowError:
        raise ValueError("weights are beyond double range; the moment map cannot be evaluated") from None
    px = py = 0.0
    for (ax, ay), q in zip(weights, zs + ws):
        m = q.real * q.real + q.imag * q.imag
        px += ax * m
        py += ay * m
    try:
        residual = abs(sum(zq * wq for zq, wq in zip(zs, ws)))
    except OverflowError:  # finite parts, but a modulus past double range
        residual = math.inf
    if not all(math.isfinite(x) for x in (px, py, residual)):
        raise ValueError("the moment map overflows double precision at this point")
    return MomentValue(phi=(px, py), residual=residual)
