"""Tests for the SVG fan renderer."""

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conestab.stability import WeightDatum, flag_datum
from conestab.svg import fan_svg

GOLDEN = Path(__file__).parent / "data" / "flag_fan.svg"


def generic_datum():
    return WeightDatum(
        a=((2, 1), (-1, 3), (1, -2)),
        b=((1, 2), (4, 0), (2, 5)),
        c=(3, 3),
        constrained=False,
    )


class TestFanSvg:
    def test_flag_matches_golden_file(self):
        assert fan_svg(flag_datum()) == GOLDEN.read_text()

    def test_deterministic(self):
        d = generic_datum()
        assert fan_svg(d) == fan_svg(d)
        assert fan_svg(d, shade=True) == fan_svg(d, shade=True)

    def test_well_formed_xml(self):
        for doc in (
            fan_svg(flag_datum()),
            fan_svg(generic_datum(), shade=True),
            fan_svg(
                WeightDatum(
                    a=((0, 0), (1, 0), (0, 1)),
                    b=((1, 1), (2, 0), (0, 2)),
                    c=(1, 1),
                    constrained=False,
                )
            ),
        ):
            ET.fromstring(doc)

    def test_seven_rays_for_generic_datum(self):
        doc = fan_svg(generic_datum())
        assert doc.count("<line ") == 7
        assert "share direction" not in doc

    def test_coincident_rays_annotated(self):
        doc = fan_svg(flag_datum())
        assert doc.count("<line ") == 7
        assert "rays A1, A2, A3 share direction" in doc
        assert "rays B1, B2, B3 share direction" in doc

    def test_zero_weight_omitted_with_warning(self):
        d = WeightDatum(
            a=((0, 0), (1, 0), (0, 1)),
            b=((1, 1), (2, 0), (0, 2)),
            c=(1, 1),
            constrained=False,
        )
        doc = fan_svg(d)
        assert "warning: A1 is the zero vector" in doc
        assert doc.count("<line ") == 6
        assert ">A1<" not in doc

    def test_character_highlighted(self):
        doc = fan_svg(generic_datum())
        assert doc.count('stroke="#c1121f"') == 1
        assert 'stroke-width="3.5"' in doc

    def test_shading_wedges(self):
        plain = fan_svg(generic_datum())
        shaded = fan_svg(generic_datum(), shade=True)
        assert "<path " not in plain
        assert shaded.count("<path ") == 6
        assert "Int cone(A1, B2)" in shaded

    @pytest.mark.parametrize("shade", [False, True])
    def test_weight_beyond_double_range_raises_value_error(self, shade):
        d = WeightDatum(
            a=((10**400, 1), (1, 0), (0, 1)),
            b=((-10**400, -1), (-1, 0), (0, -1)),
            c=(1, 1),
        )
        with pytest.raises(ValueError) as e:
            fan_svg(d, shade=shade)
        assert str(e.value) == "a weight direction is beyond double range; the fan cannot be drawn"

    def test_degenerate_wedge_annotated(self):
        # A1 and B2 are collinear, so that sector has no interior
        d = WeightDatum(
            a=((1, 0), (0, 1), (1, 1)),
            b=((2, 1), (2, 0), (1, 2)),
            c=(1, 1),
            constrained=False,
        )
        doc = fan_svg(d, shade=True)
        assert "cone(A1, B2) is degenerate" in doc
        assert doc.count("<path ") == 5
