import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

import rectpart as rp

SVG_NS = "{http://www.w3.org/2000/svg}"


def _rects(svg_bytes):
    root = ET.fromstring(svg_bytes)
    return [el for el in root.iter(f"{SVG_NS}rect")]


def test_single_pane_covers_viewbox():
    inst = rp.make_instance(rp.Rect(0, 0, 2, 1), [2.0])
    svg = rp.render_svg(rp.partition_dc(inst), inst)
    root = ET.fromstring(svg)
    assert root.get("viewBox") == "0.0 0.0 2.0 1.0"
    rects = _rects(svg)
    assert len(rects) == 1
    assert float(rects[0].get("width")) == 2.0
    assert float(rects[0].get("height")) == 1.0


def test_halves_render_index_zero_on_top():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    svg = rp.render_svg(rp.partition_dc(inst), inst)
    rects = _rects(svg)
    assert len(rects) == 2
    # smaller SVG y means closer to the top of the image
    assert float(rects[0].get("y")) < float(rects[1].get("y"))


def test_output_is_well_formed_for_random_layout():
    spec = rp.GenSpec(n=30, family="geometric", seed=8, container=rp.Rect(0, 0, 2, 1), q=0.8)
    inst = rp.generate(spec)
    svg = rp.render_svg(rp.partition_dc(inst), inst, labels="full")
    ET.fromstring(svg)  # raises on malformed XML


def test_rect_areas_match_layout():
    spec = rp.GenSpec(n=12, family="uniform", seed=4, container=rp.Rect(0, 0, 3, 2))
    inst = rp.generate(spec)
    layout = rp.partition_dc(inst)
    rects = _rects(rp.render_svg(layout, inst))
    for el, pane in zip(rects, layout.rects):
        area = float(el.get("width")) * float(el.get("height"))
        assert area == pytest.approx(pane.area, rel=1e-9)


@pytest.mark.parametrize("labels", ["none", "index", "full"])
def test_refuses_another_instances_layout(labels):
    one = rp.make_instance(rp.Rect(0, 0, 1, 1), [1.0])
    two = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    for layout, inst, text in (
        (rp.partition_dc(two), one, "layout carries 2 rects for 1 areas"),
        (rp.partition_dc(one), two, "layout carries 1 rects for 2 areas"),
    ):
        with pytest.raises(ValueError, match=f"^{text}$"):
            rp.render_svg(layout, inst, labels=labels)


def test_label_modes():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    layout = rp.partition_dc(inst)
    plain = rp.render_svg(layout, inst, labels="none")
    assert b"<text" not in plain
    indexed = rp.render_svg(layout, inst, labels="index")
    assert b">0</text>" in indexed
    full = rp.render_svg(layout, inst, labels="full")
    assert b"0: 0.5" in full
    with pytest.raises(ValueError):
        rp.render_svg(layout, inst, labels="fancy")


def test_deterministic_bytes():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.25, 0.25, 0.5])
    layout = rp.partition_dc(inst)
    assert rp.render_svg(layout, inst) == rp.render_svg(layout, inst)


def test_pixel_height_beyond_a_double():
    # 800 * 1e10 / 1e-300 overflows a double, so the height is taken exactly.
    inst = rp.make_instance(rp.Rect(0, 0, 1e-300, 1e10), [5e-291, 5e-291])
    svg = rp.render_svg(rp.partition_dc(inst), inst)
    root = ET.fromstring(svg)
    assert int(root.get("height")) == round(800 * Fraction(1e10) / Fraction(1e-300))
    assert len(_rects(svg)) == 2
    # Just inside the range of a double the height is the rounded float.
    inst = rp.make_instance(rp.Rect(0, 0, 1e-300, 1e5), [1e-295])
    root = ET.fromstring(rp.render_svg(rp.partition_dc(inst), inst))
    assert int(root.get("height")) == round(800 * 1e5 / 1e-300)
