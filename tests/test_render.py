"""SVG rendering: viewport fitting, palettes, document structure."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from coda_atlas import (
    RatioDefinition,
    RenderOptions,
    clr_matrix,
    fit_biplot,
    render_biplot,
    scale_to_viewport,
    sector_colors,
    synthetic_table,
)
from coda_atlas.render import COLOR_CYCLE, DEFAULT_SECTOR_COLORS, AffineTransform
from coda_atlas.errors import (
    DegenerateBox,
    DegenerateLink,
    InvalidOptions,
    MismatchedEntities,
    NonFiniteValue,
    UnknownRatio,
    UnknownSector,
    UnsupportedRank,
)

from conftest import make_table, random_table


def local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def elements_by_class(svg_text: str) -> dict[str, list[ET.Element]]:
    root = ET.fromstring(svg_text)
    out: dict[str, list[ET.Element]] = {}
    for el in root.iter():
        cls = el.get("class")
        if cls:
            out.setdefault(cls, []).append(el)
    return out


def fitted_synthetic(seed: int = 11):
    table = synthetic_table(seed=seed)
    model = fit_biplot(clr_matrix(table), alpha=1.0, k=2)
    return table, model


class TestRenderOptions:
    def test_minimum_viewport(self):
        RenderOptions(width=100, height=100)
        with pytest.raises(InvalidOptions):
            RenderOptions(width=99)
        with pytest.raises(InvalidOptions):
            RenderOptions(height=99)

    def test_margin_domain(self):
        RenderOptions(margin_fraction=0.0)
        RenderOptions(margin_fraction=0.49)
        with pytest.raises(InvalidOptions):
            RenderOptions(margin_fraction=0.5)
        with pytest.raises(InvalidOptions):
            RenderOptions(margin_fraction=-0.01)

    def test_palette_colors_must_be_hex(self):
        RenderOptions(sector_palette={"101X": "#A1b2C3"})
        for bad in ("red", "#1234", "#12345g", "rgb(1,2,3)"):
            with pytest.raises(InvalidOptions):
                RenderOptions(sector_palette={"101X": bad})

    def test_a_link_named_twice_is_rejected(self):
        RenderOptions(show_links=("solvency", "energy_intensity"))
        with pytest.raises(InvalidOptions, match="link 'solvency' is named twice"):
            RenderOptions(show_links=("solvency", "energy_intensity", "solvency"))


class TestViewportFit:
    def test_exact_span_with_zero_margin_is_identity(self):
        points = np.array([[0.0, 0.0], [800.0, 600.0], [400.0, 300.0]])
        t = scale_to_viewport(points, np.empty((0, 2)), RenderOptions(margin_fraction=0.0))
        assert t.scale == pytest.approx(1.0, abs=1e-12)
        assert t.tx == pytest.approx(0.0, abs=1e-9)
        assert t.ty == pytest.approx(0.0, abs=1e-9)

    def test_doubling_data_halves_scale(self):
        points = np.array([[0.0, 0.0], [8.0, 6.0]])
        opts = RenderOptions(margin_fraction=0.0)
        t1 = scale_to_viewport(points, np.empty((0, 2)), opts)
        t2 = scale_to_viewport(2.0 * points, np.empty((0, 2)), opts)
        assert t2.scale == pytest.approx(t1.scale / 2.0, rel=1e-12)

    def test_margin_shrinks_available_box(self):
        points = np.array([[0.0, 0.0], [8.0, 6.0]])
        t0 = scale_to_viewport(points, np.empty((0, 2)), RenderOptions(margin_fraction=0.0))
        t1 = scale_to_viewport(points, np.empty((0, 2)), RenderOptions(margin_fraction=0.25))
        assert t1.scale == pytest.approx(t0.scale / 2.0, rel=1e-12)

    def test_rays_pull_origin_into_the_box(self):
        points = np.array([[10.0, 10.0], [20.0, 20.0]])
        opts = RenderOptions(margin_fraction=0.0)
        without = scale_to_viewport(points, np.empty((0, 2)), opts)
        with_ray = scale_to_viewport(points, np.array([[1.0, 1.0]]), opts)
        # the box grows from span 10 to span 20, so the scale halves
        assert with_ray.scale == pytest.approx(without.scale / 2.0, rel=1e-12)

    def test_transform_scales_distances_uniformly(self, rng):
        points = rng.normal(size=(12, 2)) * np.array([50.0, 3.0])
        t = scale_to_viewport(points, np.empty((0, 2)), RenderOptions())
        mapped = t.apply(points)
        for a, b in ((0, 1), (2, 9), (4, 7)):
            raw = float(np.linalg.norm(points[a] - points[b]))
            new = float(np.linalg.norm(mapped[a] - mapped[b]))
            assert new == pytest.approx(t.scale * raw, rel=1e-12)

    def test_degenerate_and_nonfinite_inputs(self):
        opts = RenderOptions()
        with pytest.raises(DegenerateBox):
            scale_to_viewport(np.array([[3.0, 4.0], [3.0, 4.0]]), np.empty((0, 2)), opts)
        with pytest.raises(DegenerateBox):
            scale_to_viewport(np.empty((0, 2)), np.empty((0, 2)), opts)
        with pytest.raises(NonFiniteValue):
            scale_to_viewport(np.array([[0.0, np.inf], [1.0, 2.0]]), np.empty((0, 2)), opts)

    def test_single_axis_spread_is_allowed(self):
        points = np.array([[0.0, 5.0], [10.0, 5.0]])
        t = scale_to_viewport(points, np.empty((0, 2)), RenderOptions(margin_fraction=0.0))
        mapped = t.apply(points)
        assert mapped[:, 0].min() == pytest.approx(0.0, abs=1e-9)
        assert mapped[:, 0].max() == pytest.approx(800.0, abs=1e-9)


class TestSectorColors:
    def test_known_defaults(self):
        got = sector_colors(["101X", "102X", "101X"], None)
        assert got == DEFAULT_SECTOR_COLORS

    def test_unknown_sectors_take_the_cycle_in_sorted_order(self):
        got = sector_colors(["205Z", "103X"], None)
        assert got == {"103X": COLOR_CYCLE[0], "205Z": COLOR_CYCLE[1]}

    def test_defaults_do_not_consume_cycle_slots(self):
        got = sector_colors(["101X", "205Z"], None)
        assert got["101X"] == DEFAULT_SECTOR_COLORS["101X"]
        assert got["205Z"] == COLOR_CYCLE[0]

    def test_explicit_palette_must_cover_every_sector(self):
        palette = {"101X": "#000000"}
        assert sector_colors(["101X"], palette) == palette
        with pytest.raises(UnknownSector):
            sector_colors(["101X", "102X"], palette)


class TestRenderBiplot:
    def test_document_parses_with_expected_element_counts(self):
        table, model = fitted_synthetic()
        svg = render_biplot(model, table, RenderOptions(show_links=("solvency",)))
        by_class = elements_by_class(svg)
        assert len(by_class["point"]) == 17
        assert len(by_class["ray"]) == 8
        assert len(by_class["link"]) == 1
        assert len(by_class["tick"]) == 17
        assert len(by_class["link-group"]) == 1

    def test_rays_share_the_origin(self):
        table, model = fitted_synthetic()
        svg = render_biplot(model, table)
        rays = elements_by_class(svg)["ray"]
        starts = {(r.get("x1"), r.get("y1")) for r in rays}
        assert len(starts) == 1

    def test_axis_labels_show_explained_percentages(self):
        table, model = fitted_synthetic()
        svg = render_biplot(model, table)
        assert f"PC1 ({model.explained[0] * 100.0:.1f}%)" in svg
        assert f"PC2 ({model.explained[1] * 100.0:.1f}%)" in svg

    def test_point_fill_follows_sector_palette(self):
        table, model = fitted_synthetic()
        svg = render_biplot(model, table)
        points = elements_by_class(svg)["point"]
        fills = [p.get("fill") for p in points]
        expected = [
            DEFAULT_SECTOR_COLORS[e.sector_code] for e in table.entities
        ]
        assert fills == expected

    def test_ticks_are_perpendicular_feet_on_the_link_line(self):
        table, model = fitted_synthetic()
        svg = render_biplot(model, table, RenderOptions(show_links=("solvency",)))
        by_class = elements_by_class(svg)
        (link,) = by_class["link"]
        a = np.array([float(link.get("x1")), float(link.get("y1"))])
        b = np.array([float(link.get("x2")), float(link.get("y2"))])
        u = (b - a) / np.linalg.norm(b - a)
        for tick in by_class["tick"]:
            lo = np.array([float(tick.get("x1")), float(tick.get("y1"))])
            hi = np.array([float(tick.get("x2")), float(tick.get("y2"))])
            mid = (lo + hi) / 2.0
            # midpoint sits on the link line, tick runs perpendicular to it
            off = mid - a
            assert abs(off[0] * u[1] - off[1] * u[0]) < 1e-4
            tick_dir = hi - lo
            assert abs(float(np.dot(tick_dir, u))) < 1e-4

    def test_rendering_is_deterministic(self):
        table, model = fitted_synthetic()
        opts = RenderOptions(show_links=("solvency", "energy_intensity"))
        assert render_biplot(model, table, opts) == render_biplot(model, table, opts)

    def test_entity_labels_are_escaped(self):
        table = make_table(
            [[1.0, 2.0, 4.0], [5.0, 3.0, 1.0], [2.0, 2.0, 9.0]],
            ids=["a&b", "c<d", "e"],
        )
        model = fit_biplot(clr_matrix(table), k=2)
        svg = render_biplot(model, table)
        assert "a&amp;b" in svg
        assert "c&lt;d" in svg
        labels = [el.text for el in elements_by_class(svg)["point-label"]]
        assert labels == ["a&b", "c<d", "e"]

    def test_label_points_can_be_disabled(self):
        table, model = fitted_synthetic()
        svg = render_biplot(model, table, RenderOptions(label_points=False))
        assert "point-label" not in elements_by_class(svg)

    def test_rank_must_be_two(self):
        table = synthetic_table(seed=5)
        clr = clr_matrix(table)
        for k in (1, 3):
            with pytest.raises(UnsupportedRank):
                render_biplot(fit_biplot(clr, k=k), table)

    def test_model_and_table_must_match(self, rng):
        table, model = fitted_synthetic()
        other = random_table(rng, 17, 8)
        with pytest.raises(MismatchedEntities):
            render_biplot(model, other)

    def test_unknown_link_name_rejected(self):
        table, model = fitted_synthetic()
        with pytest.raises(UnknownRatio):
            render_biplot(model, table, RenderOptions(show_links=("wombat",)))

    def test_degenerate_link_cannot_be_drawn(self):
        rows = [
            [1.0, 1.0, 2.0, 9.0],
            [3.0, 3.0, 1.0, 2.0],
            [2.0, 2.0, 7.0, 1.0],
            [5.0, 5.0, 2.0, 3.0],
            [1.0, 1.0, 1.0, 8.0],
        ]
        table = make_table(rows)
        model = fit_biplot(clr_matrix(table), k=2)
        opts = RenderOptions(
            show_links=("dup",),
            ratio_catalog=(RatioDefinition("dup", "part_0", "part_1"),),
        )
        with pytest.raises(DegenerateLink):
            render_biplot(model, table, opts)

    def test_points_land_inside_the_margined_box(self):
        table, model = fitted_synthetic()
        opts = RenderOptions(width=400, height=300, margin_fraction=0.1)
        svg = render_biplot(model, table, opts)
        pts = elements_by_class(svg)["point"]
        xs = [float(p.get("cx")) for p in pts]
        ys = [float(p.get("cy")) for p in pts]
        assert min(xs) >= 40.0 - 1e-6 and max(xs) <= 360.0 + 1e-6
        assert min(ys) >= 30.0 - 1e-6 and max(ys) <= 270.0 + 1e-6


class TestAffineTransform:
    def test_apply_is_scale_then_translate(self):
        t = AffineTransform(scale=2.0, tx=10.0, ty=-5.0)
        out = t.apply(np.array([[1.0, 1.0], [0.0, 3.0]]))
        assert np.array_equal(out, np.array([[12.0, -3.0], [10.0, 1.0]]))
