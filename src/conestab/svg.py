"""Deterministic SVG rendering of the weight fan.

Draws the six weight rays and the character direction from a common
origin.  Rays are normalized to a fixed display length; rays that share a
direction are fanned apart by small annotated angular offsets so they
stay individually visible.  Zero weights cannot be drawn as rays and are
reported in an embedded warning comment instead.  Output is a pure
function of the input, byte for byte.
"""

from __future__ import annotations

import math

from conestab.cones import ZERO, cross
from conestab.stability import WeightDatum

SVG_SIZE = 420
_CENTER = SVG_SIZE / 2
_RAY = 170.0
_LABEL = 1.12
_OFFSET_STEP = 0.05  # radians between coincident rays

_COLORS = {"a": "#2a6f97", "b": "#2d6a4f", "c": "#c1121f"}
_WIDTHS = {"a": 2.0, "b": 2.0, "c": 3.5}


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _primitive(v):
    g = math.gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def _angle(v) -> float:
    try:
        return math.atan2(v[1], v[0])
    except OverflowError:
        raise ValueError("a weight direction is beyond double range; the fan cannot be drawn") from None


def _ray_entries(datum: WeightDatum):
    entries = []
    for i, v in enumerate(datum.a, start=1):
        entries.append((f"A{i}", v, "a"))
    for j, v in enumerate(datum.b, start=1):
        entries.append((f"B{j}", v, "b"))
    entries.append(("C", datum.c, "c"))
    return entries


def _screen_point(angle: float, radius: float) -> tuple[str, str]:
    # SVG y-axis points down, so flip the sine
    return (
        _fmt(_CENTER + radius * math.cos(angle)),
        _fmt(_CENTER - radius * math.sin(angle)),
    )


def _wedge_paths(datum: WeightDatum) -> list[str]:
    parts = []
    for i, a in enumerate(datum.a, start=1):
        for j, b in enumerate(datum.b, start=1):
            if i == j:
                continue
            d = cross(a, b)
            if a == ZERO or b == ZERO or d == 0:
                parts.append(
                    f"  <!-- cone(A{i}, B{j}) is degenerate; no interior to shade -->"
                )
                continue
            xa, ya = _screen_point(_angle(a), _RAY)
            xb, yb = _screen_point(_angle(b), _RAY)
            # sweep from A toward B through the sector of the cone; on
            # screen the y-flip reverses the rotation sense
            sweep = "1" if d > 0 else "0"
            parts.append(
                f'  <path d="M {_fmt(_CENTER)} {_fmt(_CENTER)} L {xa} {ya} '
                f'A {_fmt(_RAY)} {_fmt(_RAY)} 0 0 {sweep} {xb} {yb} Z" '
                f'fill="#f4a261" fill-opacity="0.10" stroke="none">'
                f"<title>Int cone(A{i}, B{j})</title></path>"
            )
    return parts


def fan_svg(datum: WeightDatum, shade: bool = False) -> str:
    """Render the fan of weight rays as a standalone SVG document.

    With shade=True the sectors spanned by the mixed pairs (A_i, B_j),
    i != j, are filled translucently underneath the rays.  ValueError
    when a ray direction it must draw is beyond double range.
    """
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}">',
        "  <!-- weight fan: six weight rays and the character direction -->",
        f'  <rect x="0" y="0" width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]

    entries = _ray_entries(datum)
    zero_names = [name for name, v, _ in entries if v == ZERO]
    for name in zero_names:
        lines.append(
            f"  <!-- warning: {name} is the zero vector; its ray is omitted -->"
        )

    if shade:
        lines.extend(_wedge_paths(datum))

    groups: dict[tuple[int, int], list[tuple[str, tuple[int, int], str]]] = {}
    for name, v, kind in entries:
        if v == ZERO:
            continue
        groups.setdefault(_primitive(v), []).append((name, v, kind))

    for prim, members in groups.items():
        if len(members) > 1:
            names = ", ".join(name for name, _, _ in members)
            lines.append(
                f"  <!-- rays {names} share direction {prim}; "
                f"drawn with small angular offsets -->"
            )
        base = _angle(prim)
        for k, (name, v, kind) in enumerate(members):
            angle = base + (k - (len(members) - 1) / 2) * _OFFSET_STEP
            x2, y2 = _screen_point(angle, _RAY)
            lines.append(
                f'  <line x1="{_fmt(_CENTER)}" y1="{_fmt(_CENTER)}" '
                f'x2="{x2}" y2="{y2}" stroke="{_COLORS[kind]}" '
                f'stroke-width="{_WIDTHS[kind]}" stroke-linecap="round">'
                f"<title>{name} = {v}</title></line>"
            )
            lx, ly = _screen_point(angle, _RAY * _LABEL)
            lines.append(
                f'  <text x="{lx}" y="{ly}" font-size="13" '
                f'font-family="sans-serif" text-anchor="middle" '
                f'dominant-baseline="middle" fill="{_COLORS[kind]}">{name}</text>'
            )

    lines.append(
        f'  <circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="3" fill="#222"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
