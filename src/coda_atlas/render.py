"""Deterministic SVG rendering of a fitted rank-2 biplot.

Entities are drawn as sector-colored points, parts as rays from the origin,
and requested ratios as link lines through the two ray extremes with one
perpendicular-foot tick mark per entity. The viewport transform uses a
single uniform scale factor for both axes: orthogonal projection onto a
link is the core visual operation, and unequal axis scaling would bend
those right angles.

Output is a pure function of (model, table, options): coordinates are
written with 6 decimal places and element order is fixed, so identical
inputs produce byte-identical documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import escape as html_escape
from typing import Mapping, Sequence

import numpy as np

from ._fmt import fill_rows
from .biplot import BiplotModel, make_link
from .composition import IndicatorTable, RatioDefinition, default_ratio_catalog, find_ratio
from .errors import (
    DegenerateBox,
    DegenerateLink,
    InvalidOptions,
    MismatchedEntities,
    NonFiniteValue,
    UnknownSector,
    UnsupportedRank,
)

#: fixed 10-color cycle for sectors without an explicit palette entry
COLOR_CYCLE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

#: sector colors mirroring the red-meat / blue-fish convention
DEFAULT_SECTOR_COLORS = {"101X": "#d62728", "102X": "#1f77b4"}

_HEX_COLOR = re.compile(r"^#[0-9a-fA-F]{6}$")

_POINT_RADIUS = 3.0
_TICK_HALF_LENGTH = 3.0


@dataclass(frozen=True)
class RenderOptions:
    """Figure geometry, palette and link selection.

    sector_palette=None assigns the built-in defaults plus a fixed color
    cycle for other sectors; an explicit mapping must cover every sector in
    the table. show_links names ratios from ratio_catalog, each at most
    once. margin_fraction is the blank border on each side as a fraction of
    width/height.
    """

    width: int = 800
    height: int = 600
    sector_palette: Mapping[str, str] | None = None
    show_links: tuple[str, ...] = ()
    label_points: bool = True
    margin_fraction: float = 0.05
    ratio_catalog: tuple[RatioDefinition, ...] = field(
        default_factory=default_ratio_catalog
    )

    def __post_init__(self):
        if self.width < 100 or self.height < 100:
            raise InvalidOptions(
                f"viewport must be at least 100x100, got {self.width}x{self.height}"
            )
        if not 0.0 <= self.margin_fraction < 0.5:
            raise InvalidOptions(
                f"margin_fraction must be in [0, 0.5), got {self.margin_fraction}"
            )
        if self.sector_palette is not None:
            for sector, color in self.sector_palette.items():
                if not _HEX_COLOR.match(color):
                    raise InvalidOptions(
                        f"sector {sector!r}: {color!r} is not a #rrggbb color"
                    )
        for k, name in enumerate(self.show_links):
            if name in self.show_links[:k]:
                raise InvalidOptions(f"link {name!r} is named twice")


@dataclass(frozen=True)
class AffineTransform:
    """Uniform scale followed by translation; the same scale on both axes."""

    scale: float
    tx: float
    ty: float

    def apply(self, xy) -> np.ndarray:
        xy = np.asarray(xy, dtype=float)
        return xy * self.scale + np.array([self.tx, self.ty])


def scale_to_viewport(points, rays, options: RenderOptions) -> AffineTransform:
    """Fit the joint bounding box of points and rays into the margined viewport.

    Rays emanate from the origin, so the origin joins the box whenever rays
    are present. The scale factor is the same for x and y (angles are
    preserved); the box center lands on the viewport center.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    rays = np.asarray(rays, dtype=float).reshape(-1, 2)
    parts = [points, rays]
    if rays.shape[0]:
        parts.append(np.zeros((1, 2)))
    stacked = [p for p in parts if p.shape[0]]
    if not stacked:
        raise DegenerateBox("nothing to fit into the viewport")
    data = np.vstack(stacked)
    finite = np.isfinite(data)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise NonFiniteValue(row=int(r), col=int(c), value=float(data[r, c]))

    xmin, ymin = data.min(axis=0)
    xmax, ymax = data.max(axis=0)
    spread_x, spread_y = xmax - xmin, ymax - ymin
    if spread_x == 0.0 and spread_y == 0.0:
        raise DegenerateBox("all coordinates coincide")

    avail_w = options.width * (1.0 - 2.0 * options.margin_fraction)
    avail_h = options.height * (1.0 - 2.0 * options.margin_fraction)
    candidates = []
    if spread_x > 0.0:
        candidates.append(avail_w / spread_x)
    if spread_y > 0.0:
        candidates.append(avail_h / spread_y)
    scale = min(candidates)
    tx = options.width / 2.0 - scale * (xmin + xmax) / 2.0
    ty = options.height / 2.0 - scale * (ymin + ymax) / 2.0
    return AffineTransform(scale=scale, tx=tx, ty=ty)


def sector_colors(
    sectors: Sequence[str], palette: Mapping[str, str] | None
) -> dict[str, str]:
    """Resolve one color per distinct sector code.

    With palette=None, known defaults apply and remaining sectors take
    colors from the fixed cycle in sorted-code order. An explicit palette
    must cover every sector (UnknownSector otherwise).
    """
    distinct = sorted(set(sectors))
    if palette is not None:
        missing = [s for s in distinct if s not in palette]
        if missing:
            raise UnknownSector(f"no palette entry for sector {missing[0]!r}")
        return {s: palette[s] for s in distinct}
    out = {}
    cycle_position = 0
    for sector in distinct:
        if sector in DEFAULT_SECTOR_COLORS:
            out[sector] = DEFAULT_SECTOR_COLORS[sector]
        else:
            out[sector] = COLOR_CYCLE[cycle_position % len(COLOR_CYCLE)]
            cycle_position += 1
    return out


#: the document from its root element through the axis labels, filled once:
#: the axes cross at the origin (ox, oy), and each axis label sits 6 px in
#: from its axis end
_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="%(width)s" height="%(height)s" viewBox="0 0 %(width)s %(height)s">\n'
    "<title>CLR biplot</title>\n"
    '<rect class="background" x="0" y="0" width="%(width)s" height="%(height)s" '
    'fill="#ffffff"/>\n'
    '<g class="axes" stroke="#cccccc" stroke-width="1">\n'
    '<line class="axis" x1="0.000000" y1="%(oy).6f" x2="%(width).6f" y2="%(oy).6f"/>\n'
    '<line class="axis" x1="%(ox).6f" y1="0.000000" x2="%(ox).6f" y2="%(height).6f"/>\n'
    "</g>\n"
    '<text class="axis-label" x="%(pc1_x).6f" y="%(pc1_y).6f" text-anchor="end" '
    'font-size="12" fill="#555555">PC1 (%(pc1).1f%%)</text>\n'
    '<text class="axis-label" x="%(pc2_x).6f" y="12.000000" text-anchor="start" '
    'font-size="12" fill="#555555">PC2 (%(pc2).1f%%)</text>\n'
)
#: the elements below are filled whole-array, one row per part, link or entity
_RAY = '<line class="ray" x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f"/>\n'
_RAY_LABEL = '<text class="ray-label" x="%.6f" y="%.6f" font-size="11" fill="#444444">%s</text>\n'
_LINK = (
    '<g class="link-group" data-ratio="%s">\n'
    '<line class="link" x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" stroke="#999999" '
    'stroke-width="1" stroke-dasharray="4 3"/>\n'
)
_TICK = (
    '<line class="tick" x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" stroke="#999999" '
    'stroke-width="1"/>\n'
)
_POINT = '<circle class="point" cx="%%.6f" cy="%%.6f" r="%.6f" fill="%%s"/>\n' % _POINT_RADIUS
_LABEL = '<text class="point-label" x="%.6f" y="%.6f" font-size="10" fill="#222222">%s</text>\n'


def _escape_texts(texts: Sequence[str]) -> Sequence[str]:
    """Each text with ``&``, ``<`` and ``>`` escaped for SVG character data.

    One scan of the joined texts decides; when none needs escaping,
    ``texts`` itself is returned, so the common case costs no call per text.
    """
    joined = "".join(texts)
    if "&" not in joined and "<" not in joined and ">" not in joined:
        return texts
    return [html_escape(text, quote=False) for text in texts]


def _project(points: np.ndarray, origin: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(point - origin) . u for every point, each rounded as np.dot rounds it.

    A batch of 1x2 by 2x1 products runs numpy's dot kernel once per point;
    a plain elementwise sum can differ from it in the last bit.
    """
    return np.matmul((points - origin)[:, None, :], u[:, None])[:, 0, 0]


def render_biplot(
    model: BiplotModel,
    table: IndicatorTable,
    options: RenderOptions | None = None,
) -> str:
    """Render a rank-2 biplot as an SVG 1.1 document string.

    Model coordinates are mapped with the y axis flipped (SVG y grows
    downward) through a single uniform-scale transform. Points carry
    class "point", rays "ray", link lines "link" and projection feet
    "tick".
    """
    if options is None:
        options = RenderOptions()
    if model.k != 2:
        raise UnsupportedRank(f"rendering needs a rank-2 model, got k={model.k}")
    if model.entity_ids != table.entity_ids:
        raise MismatchedEntities("model and table disagree on entities")
    if model.part_names != table.part_names:
        raise MismatchedEntities("model and table disagree on parts")

    colors = sector_colors([e.sector_code for e in table.entities], options.sector_palette)

    flip = np.array([1.0, -1.0])
    data_points = model.points * flip
    data_rays = model.rays * flip
    transform = scale_to_viewport(data_points, data_rays, options)
    screen_points = transform.apply(data_points)
    screen_rays = transform.apply(data_rays)
    origin = transform.apply(np.zeros(2))

    links = []
    for name in options.show_links:
        i, j = find_ratio(options.ratio_catalog, name).resolve(table)
        link = make_link(model, i, j, label=name)
        if link.degenerate:
            raise DegenerateLink(f"ratio {name!r}: ray extremes coincide")
        links.append((name, i, j))

    head = _HEAD % dict(
        width=options.width, height=options.height, ox=origin[0], oy=origin[1],
        pc1_x=options.width - 6.0, pc1_y=origin[1] - 6.0, pc1=model.explained[0] * 100.0,
        pc2_x=origin[0] + 6.0, pc2=model.explained[1] * 100.0,
    )
    part_names = _escape_texts(model.part_names)
    blocks = [
        head,
        '<g class="rays" stroke="#444444" stroke-width="1.5">\n',
        fill_rows(_RAY, np.broadcast_to(origin, screen_rays.shape), screen_rays),
        "</g>\n",
        fill_rows(_RAY_LABEL, screen_rays + np.array([4.0, -4.0]), part_names),
    ]
    for name, i, j in links:
        a, b = screen_rays[i], screen_rays[j]
        gap = b - a
        length = float(np.hypot(gap[0], gap[1]))
        u = gap / length
        normal = np.array([-u[1], u[0]])
        feet_t = _project(screen_points, a, u)
        t_all = feet_t.tolist()
        t_lo = min(0.0, min(t_all))
        t_hi = max(length, max(t_all))
        start, end = a + t_lo * u, a + t_hi * u
        feet = a + feet_t[:, None] * u
        offset = _TICK_HALF_LENGTH * normal
        blocks += [
            _LINK % (html_escape(name), *start, *end),
            fill_rows(_TICK, np.hstack((feet - offset, feet + offset))),
            "</g>\n",
        ]

    fills = [colors[entity.sector_code] for entity in table.entities]
    blocks += ['<g class="points">\n', fill_rows(_POINT, screen_points, fills), "</g>\n"]
    if options.label_points:
        ids = _escape_texts(table.entity_ids)
        blocks.append(fill_rows(_LABEL, screen_points + np.array([5.0, 3.0]), ids))
    blocks.append("</svg>\n")
    return "".join(blocks)
