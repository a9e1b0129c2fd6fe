"""Independent oracles used to cross-check production code paths.

These deliberately avoid the library calls they are checking:

* ``jacobi_eigenvalues`` is a hand-rolled cyclic Jacobi eigensolver for
  symmetric matrices, used to verify the LAPACK-backed SVD (singular values
  of Z are the square roots of the eigenvalues of Z^T Z).
* ``lapack_biplot`` is the biplot fit as one LAPACK SVD of the whole
  centred matrix Z. The production fit takes the SVD of Z's TSQR factor R
  for every table and never calls LAPACK's SVD of Z.
* ``brute_force_ranking`` sorts entities by the raw pairwise log-ratio
  directly from table values, used to verify biplot projection rankings.
* ``linear_quantile`` re-implements the interpolated quantile definition
  with plain Python.
* ``lance_williams_merges`` is the cubic pure-Python agglomeration that
  rescans every active pair at each merge; the production merge must
  reproduce its history exactly, floats and tie-breaks included.
* ``full_tensor_distances`` forms the whole n x n x D difference tensor
  that the row-blocked ``distance_matrix`` avoids.
* ``per_cluster_profile`` is ``cluster_profile`` as it was before it
  grouped clusters by size: one Python pass, and one mean, per cluster.
  The production function must give the same profiles, floats bit for bit.
* ``per_cluster_profiles_json`` is ``profiles_json`` as it was before its
  "clusters" list became one preformatted block: the plain dict document,
  whose ``per_cell_dumps_json`` bytes the production document must give.
* ``pairwise_kendall_tau_b`` counts concordant, discordant and tied pairs
  one pair at a time, the O(n^2) definition behind the merge-count tau-b.
* ``per_cell_parse_table`` is the table parser as it was before the
  column-at-a-time parse: one ``float()`` call per cell after a per-cell
  grammar check. The production parser must give the same table, values
  bit for bit, or the same error record.
* ``per_row_replace_zeros`` is multiplicative zero replacement as it was
  before it visited only the rows that hold a zero: one pass over every
  row. The production function must give the same values bit for bit, or
  the same error record.
* ``per_cell_fill_rows`` is ``fill_rows`` as ``%`` does it, one row and
  one Python object per cell at a time: the kernel that writes digits with
  numpy must give its text exactly.
* ``per_cell_serialize_table``, ``per_cell_clr_csv``,
  ``per_cell_ranking_csv``, ``per_cell_describe_csv``,
  ``per_cell_assignment_csv``, ``per_cell_dumps_json``,
  ``per_cell_model_json`` and ``per_element_svg`` are the report writers
  as they were before the whole-array formatter: one Python call per
  number. The CSV ones write every line through ``csv.writer``. The
  production writers must reproduce their bytes exactly, errors included.
"""

from __future__ import annotations

import csv
import html
import io
import json
import math
from itertools import combinations

import numpy as np

from coda_atlas._fmt import fmt_float
from coda_atlas.biplot import make_link
from coda_atlas.cluster import ClusterProfile
from coda_atlas.composition import (
    Entity,
    Part,
    clr_matrix,
    default_ratio_catalog,
    replace_zeros,
    resolvable_ratios,
    validate_table,
)
from coda_atlas.errors import (
    DegenerateLink,
    DegenerateRow,
    EmptyInput,
    MismatchedEntities,
    ParseError,
    UnknownPart,
    UnknownRatio,
    UnsupportedRank,
)
from coda_atlas._cells import EU_NUMBER
from coda_atlas.ingest import _ROLE_FOR_UNIT, DEFAULT_PART_SCHEMA, IngestConfig
from coda_atlas.render import (
    _POINT_RADIUS,
    _TICK_HALF_LENGTH,
    RenderOptions,
    scale_to_viewport,
    sector_colors,
)


def jacobi_eigenvalues(matrix, max_sweeps: int = 100):
    """Eigenvalues of a symmetric matrix via cyclic Jacobi rotations.

    Returns the eigenvalues sorted in descending order, in the dtype of the
    input. Pure rotations on a copied matrix; no numpy.linalg involved.
    """
    a = np.array(matrix, copy=True)
    n = a.shape[0]
    assert a.shape == (n, n)
    assert np.allclose(
        a.astype(float), a.T.astype(float),
        atol=1e-12 * max(1.0, float(np.abs(a).max())),
    )
    one = a.dtype.type(1.0)
    half = a.dtype.type(0.5)
    eps = np.finfo(a.dtype).eps

    norm = np.sqrt((a * a).sum())
    for _ in range(max_sweeps):
        off = np.sqrt(np.abs((a * a).sum() - (np.diag(a) ** 2).sum()))
        if off <= 64.0 * eps * max(norm, one):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= np.finfo(a.dtype).tiny:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = half / theta
                else:
                    sign = one if theta >= 0.0 else -one
                    t = sign / (abs(theta) + np.sqrt(theta * theta + one))
                c = one / np.sqrt(t * t + one)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                for k in range(n):
                    if k == p or k == q:
                        continue
                    akp, akq = a[k, p], a[k, q]
                    a[k, p] = a[p, k] = c * akp - s * akq
                    a[k, q] = a[q, k] = s * akp + c * akq
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
    return np.sort(np.diag(a))[::-1].copy()


def oracle_singular_values(z) -> np.ndarray:
    """Singular values of a matrix from the Jacobi eigenvalues of Z^T Z.

    The Gram matrix squares the condition number, putting the plain-double
    noise floor for zero singular values near sqrt(eps)*s1; forming the Gram
    product and running the rotations in extended precision keeps the oracle
    meaningfully below the 1e-8*s1 comparison tolerance.
    """
    z = np.asarray(z, dtype=float).astype(np.longdouble)
    gram = z.T @ z if z.shape[1] <= z.shape[0] else z @ z.T
    eigenvalues = jacobi_eigenvalues(gram)
    return np.sqrt(np.clip(eigenvalues, 0.0, None)).astype(float)


def lapack_biplot(centered, alpha: float, k: int):
    """(singular values, rank-k points) of LAPACK's SVD, with fit_biplot's sign rule."""
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    for comp in range(len(s)):
        lead = int(np.argmax(np.abs(vt[comp])))
        if vt[comp, lead] < 0.0:
            u[:, comp] = -u[:, comp]
    return s, u[:, :k] * s[:k] ** alpha


def brute_force_ranking(values, i: int, j: int, entity_ids) -> tuple[str, ...]:
    """Entity ids sorted by descending ln(x_i / x_j), ties by ascending id.

    Works on raw table values; no CLR, no SVD, no projection.
    """
    values = np.asarray(values, dtype=float)
    ratios = [math.log(values[r, i]) - math.log(values[r, j]) for r in range(values.shape[0])]
    order = sorted(range(len(entity_ids)), key=lambda r: (-ratios[r], entity_ids[r]))
    return tuple(entity_ids[r] for r in order)


def linear_quantile(values, p: float) -> float:
    """Quantile at index (n-1)*p with linear interpolation, from first principles."""
    ordered = sorted(float(v) for v in values)
    pos = (len(ordered) - 1) * p
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def lance_williams_merges(dist, linkage: str):
    """All n-1 merges [(id_a, id_b, distance)] by exhaustive pair scans.

    Cluster distances are kept in a dict keyed by sorted id pairs and
    updated with the Lance-Williams formulas; each step takes the smallest
    (distance, min id, max id) over all active pairs.
    """
    ids = sorted(dist.ids)
    index = {eid: k for k, eid in enumerate(dist.ids)}
    sizes = {eid: 1 for eid in ids}
    d: dict[tuple[str, str], float] = {}
    for a, b in combinations(ids, 2):
        d[(a, b)] = float(dist.values[index[a], index[b]])

    active = list(ids)
    history: list[tuple[str, str, float]] = []
    while len(active) > 1:
        best = None
        for a, b in combinations(active, 2):
            cand = (d[(a, b)], a, b)
            if best is None or cand < best:
                best = cand
        dd, a, b = best
        history.append((a, b, dd))
        for c in active:
            if c in (a, b):
                continue
            dac = d[tuple(sorted((a, c)))]
            dbc = d[tuple(sorted((b, c)))]
            if linkage == "single":
                dn = min(dac, dbc)
            elif linkage == "complete":
                dn = max(dac, dbc)
            else:
                dn = (sizes[a] * dac + sizes[b] * dbc) / (sizes[a] + sizes[b])
            d[tuple(sorted((a, c)))] = dn
        sizes[a] += sizes[b]
        active.remove(b)
    return history


def full_tensor_distances(c) -> np.ndarray:
    """Euclidean distances between the rows of c via one n x n x D tensor."""
    diff = c[:, None, :] - c[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def per_cluster_profile(table, assignment, ratios=None) -> list:
    """cluster_profile with one Python pass per cluster."""
    if set(assignment.labels) != set(table.entity_ids):
        raise MismatchedEntities("assignment does not cover exactly the table entities")
    c = clr_matrix(table).values
    z = c - c.mean(axis=0)
    if ratios is None:
        ratios = resolvable_ratios(table, default_ratio_catalog())

    resolved = [(definition.name, *definition.resolve(table)) for definition in ratios]
    row_of = {eid: r for r, eid in enumerate(table.entity_ids)}
    profiles = []
    for label, member_ids in assignment.members().items():
        rows = [row_of[eid] for eid in member_ids]
        mean = z[rows].mean(axis=0)
        ratio_means = {
            name: float(np.mean(z[rows, i] - z[rows, j])) for name, i, j in resolved
        }
        profiles.append(
            ClusterProfile(
                label=label,
                member_ids=member_ids,
                mean_clr=mean,
                origin_distance=float(np.linalg.norm(mean)),
                ratio_means=ratio_means,
            )
        )
    return profiles


def per_cluster_profiles_json(profiles, part_names) -> dict:
    """The cluster profiles document as a plain dict, one entry per cluster."""
    return {
        "clusters": [
            {
                "label": p.label,
                "members": list(p.member_ids),
                "mean_clr": {
                    name: float(v) for name, v in zip(part_names, p.mean_clr)
                },
                "origin_distance": p.origin_distance,
                "ratio_means": p.ratio_means,
            }
            for p in profiles
        ]
    }


def pairwise_kendall_tau_b(x, y) -> float:
    """Kendall's tau-b by visiting every pair: (C - D) / sqrt((P - Tx)(P - Ty)).

    P counts all pairs, Tx and Ty the pairs tied in x and in y (joint ties
    in both); NaN when every pair is tied in x or in y.
    """
    concordant = discordant = tied_x = tied_y = 0
    pairs = 0
    for a, b in combinations(range(len(x)), 2):
        pairs += 1
        sx = int(x[a] > x[b]) - int(x[a] < x[b])
        sy = int(y[a] > y[b]) - int(y[a] < y[b])
        tied_x += sx == 0
        tied_y += sy == 0
        concordant += sx * sy == 1
        discordant += sx * sy == -1
    if tied_x == pairs or tied_y == pairs:
        return math.nan
    return (concordant - discordant) / math.sqrt((pairs - tied_x) * (pairs - tied_y))


def _parse_number(text: str, locale: str, line: int, column: int) -> float:
    if not text:
        raise ParseError(line=line, column=column, token=text, reason="empty cell")
    if locale == "point_decimal":
        if "," in text:
            raise ParseError(
                line=line, column=column, token=text,
                reason="comma in point-decimal locale",
            )
        strict = text.isascii() and "_" not in text and "n" not in text and "N" not in text
        number = text
    else:
        strict = EU_NUMBER.fullmatch(text) is not None
        number = text.replace(".", "").replace(",", ".")
    if strict:
        try:
            return float(number)
        except ValueError:
            pass
    raise ParseError(
        line=line, column=column, token=text,
        reason=f"not a number in the {locale} locale",
    )


def per_cell_parse_table(data, config=None):
    """parse_table with one grammar check and one float() call per cell."""
    if config is None:
        config = IngestConfig()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                line=1, column=1, token="", reason=f"not UTF-8: {exc.reason}"
            ) from exc
    reader = csv.reader(io.StringIO(data))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(line=reader.line_num, column=1, token="", reason=str(exc)) from exc
    if not rows:
        raise EmptyInput("no CSV content")
    header = [cell.strip() for cell in rows[0]]
    for position, expected in enumerate(("id", "label", "sector_code")):
        got = header[position] if position < len(header) else ""
        if got != expected:
            raise ParseError(
                line=1, column=position + 1, token=got,
                reason=f"expected header column {expected!r}",
            )
    part_names = header[3:]
    missing = sorted(set(config.unit_map) - set(part_names))
    if missing:
        raise UnknownPart(f"unit_map column {missing[0]!r} is not in the table")
    parts, factors = [], []
    for index, name in enumerate(part_names):
        schema_unit, schema_role = DEFAULT_PART_SCHEMA.get(name, ("unitless", None))
        canonical, factor = config.resolve_unit(config.unit_map.get(name, schema_unit))
        role = schema_role or _ROLE_FOR_UNIT.get(canonical, "financial")
        parts.append(Part(index=index, name=name, unit=canonical, role=role))
        factors.append(factor)
    entities, values = [], []
    for row_number, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if len(cells) != len(header):
            raise ParseError(
                line=row_number, column=min(len(cells) + 1, len(header)),
                token="", reason=f"expected {len(header)} cells, got {len(cells)}",
            )
        if not cells[0]:
            raise ParseError(line=row_number, column=1, token="", reason="empty entity id")
        entities.append(Entity(id=cells[0], label=cells[1], sector_code=cells[2]))
        values.append(
            [
                _parse_number(cells[3 + k], config.locale, row_number, 4 + k)
                for k in range(len(part_names))
            ]
        )
    if not entities:
        raise EmptyInput("no data rows")
    raw = np.asarray(values, dtype=float) * np.asarray(factors, dtype=float)
    mode, delta = config._zero_mode()
    return validate_table(replace_zeros(raw, strategy=mode, delta=delta), parts, entities)


def per_row_replace_zeros(raw_values, delta: float) -> np.ndarray:
    """Multiplicative zero replacement visiting every row, zeros or not."""
    values = np.array(raw_values, dtype=float, copy=True)
    for r in range(values.shape[0]):
        row = values[r]
        zeros = row == 0.0
        z = int(zeros.sum())
        if z == 0:
            continue
        positive = row[~zeros]
        if positive.size == 0:
            raise DegenerateRow(r)
        repl = delta * float(positive.min())
        row_sum = float(row.sum())
        factor = 1.0 - z * repl / row_sum
        if factor <= 0.0:
            raise DegenerateRow(r, reason=f"too many zeros for delta={delta}")
        rescaled = positive * factor
        if repl == 0.0 or not rescaled.all():
            raise DegenerateRow(r, reason="replacement underflows to zero")
        values[r, ~zeros] = rescaled
        values[r, zeros] = repl
    return values


class _Line:
    """A file whose write returns its text, so csv writerow returns the line."""

    @staticmethod
    def write(text: str) -> str:
        return text


#: csv's QUOTE_MINIMAL; a "\r\n" terminator makes it quote a bare "\r" on
#: every Python version, which the reports do too
_csv_writerow = csv.writer(_Line(), lineterminator="\r\n").writerow


def csv_line(fields) -> str:
    """One line through csv.writer, ending in "\n"."""
    return _csv_writerow(fields)[:-2] + "\n"


def per_cell_fill_rows(template: str, *columns) -> str:
    """``template % row`` one row at a time, each cell a Python object.

    A column is a 1-D sequence (one field) or a 2-D array (a field per
    column), as fill_rows takes them.
    """
    fields = []
    for column in columns:
        column = np.asarray(column, dtype=object)
        fields += [column] if column.ndim == 1 else list(column.T)
    return "".join(template % tuple(row) for row in zip(*(f.tolist() for f in fields)))


def per_cell_serialize_table(table) -> str:
    """Table CSV with every row, numbers included, through csv.writer."""
    lines = [csv_line(["id", "label", "sector_code"] + list(table.part_names))]
    for r, entity in enumerate(table.entities):
        lines.append(
            csv_line(
                [entity.id, entity.label, entity.sector_code]
                + [fmt_float(v) for v in table.values[r]]
            )
        )
    return "".join(lines)


def per_cell_clr_csv(clr) -> str:
    """CLR CSV, one fmt_float call per cell."""
    lines = [csv_line(["id"] + [p.name for p in clr.parts])]
    for r, eid in enumerate(clr.entity_ids):
        lines.append(csv_line([eid] + [fmt_float(v) for v in clr.values[r]]))
    return "".join(lines)


def per_cell_ranking_csv(result) -> str:
    """Ranking CSV, looked up and formatted one row at a time."""
    pos = {eid: r for r, eid in enumerate(result.entity_ids)}
    lines = ["entity_id,score,exact_log_ratio,rank\n"]
    for rank, eid in enumerate(result.ordering, start=1):
        r = pos[eid]
        lines.append(
            csv_line(
                [
                    eid,
                    fmt_float(float(result.scores[r])),
                    fmt_float(float(result.exact_log_ratios[r])),
                    str(rank),
                ]
            )
        )
    return "".join(lines)


def per_cell_describe_csv(summaries) -> str:
    """Summary CSV, one fmt_float call per statistic."""
    lines = ["name,n,mean,sd,min,q1,median,q3,max\n"]
    for s in summaries:
        fields = [s.mean, s.sd, s.minimum, s.q1, s.median, s.q3, s.maximum]
        lines.append(csv_line([s.name, str(s.n)] + [fmt_float(x) for x in fields]))
    return "".join(lines)


def per_cell_assignment_csv(assignment) -> str:
    """Cluster assignment CSV, one line per entity id in sorted order."""
    lines = ["entity_id,cluster_label\n"]
    for eid in sorted(assignment.labels):
        lines.append(csv_line([eid, f"{assignment.labels[eid]}"]))
    return "".join(lines)


def _emit(obj, indent, level, out):
    pad = " " * (indent * level)
    child_pad = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(child_pad)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(value, indent, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(child_pad)
            _emit(value, indent, level + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to report JSON")


def per_cell_dumps_json(obj, indent: int = 2) -> str:
    """Report JSON emitted one value at a time, strings through json.dumps."""
    out: list[str] = []
    _emit(obj, indent, 0, out)
    out.append("\n")
    return "".join(out)


def model_document(model) -> dict:
    """model.json as a plain dict, one Python float per number."""
    return {
        "alpha": model.alpha,
        "k": model.k,
        "singular_values": [float(s) for s in model.singular_values],
        "explained": [float(e) for e in model.explained],
        "column_means": [float(c) for c in model.column_means],
        "points": [{"id": eid, "coords": [float(x) for x in model.points[r]]}
                   for r, eid in enumerate(model.entity_ids)],
        "rays": [{"part": name, "coords": [float(x) for x in model.rays[d]]}
                 for d, name in enumerate(model.part_names)],
    }


def per_cell_model_json(model) -> str:
    """model.json emitted one value at a time."""
    return per_cell_dumps_json(model_document(model))


def _fmt6(x: float) -> str:
    return f"{x:.6f}"


def _text(text: str) -> str:
    return html.escape(text, quote=False)


def per_element_svg(model, table, options=None) -> str:
    """Biplot SVG built one element and one number at a time.

    The link group's data-ratio attribute is escaped with quotes, as the
    production renderer now escapes it.
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

    catalog = {r.name: r for r in options.ratio_catalog}
    links = []
    for name in options.show_links:
        if name not in catalog:
            raise UnknownRatio(name)
        definition = catalog[name]
        i, j = definition.resolve(table)
        link = make_link(model, i, j, label=name)
        if link.degenerate:
            raise DegenerateLink(f"ratio {name!r}: ray extremes coincide")
        links.append((name, i, j))

    lines: list[str] = []
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{options.width}" height="{options.height}" '
        f'viewBox="0 0 {options.width} {options.height}">'
    )
    lines.append("<title>CLR biplot</title>")
    lines.append(
        f'<rect class="background" x="0" y="0" width="{options.width}" '
        f'height="{options.height}" fill="#ffffff"/>'
    )

    pc1 = f"PC1 ({model.explained[0] * 100.0:.1f}%)"
    pc2 = f"PC2 ({model.explained[1] * 100.0:.1f}%)"
    lines.append('<g class="axes" stroke="#cccccc" stroke-width="1">')
    lines.append(
        f'<line class="axis" x1="{_fmt6(0.0)}" y1="{_fmt6(origin[1])}" '
        f'x2="{_fmt6(float(options.width))}" y2="{_fmt6(origin[1])}"/>'
    )
    lines.append(
        f'<line class="axis" x1="{_fmt6(origin[0])}" y1="{_fmt6(0.0)}" '
        f'x2="{_fmt6(origin[0])}" y2="{_fmt6(float(options.height))}"/>'
    )
    lines.append("</g>")
    lines.append(
        f'<text class="axis-label" x="{_fmt6(options.width - 6.0)}" '
        f'y="{_fmt6(origin[1] - 6.0)}" text-anchor="end" font-size="12" '
        f'fill="#555555">{_text(pc1)}</text>'
    )
    lines.append(
        f'<text class="axis-label" x="{_fmt6(origin[0] + 6.0)}" y="{_fmt6(12.0)}" '
        f'text-anchor="start" font-size="12" fill="#555555">{_text(pc2)}</text>'
    )

    lines.append('<g class="rays" stroke="#444444" stroke-width="1.5">')
    for d, name in enumerate(model.part_names):
        tip = screen_rays[d]
        lines.append(
            f'<line class="ray" x1="{_fmt6(origin[0])}" y1="{_fmt6(origin[1])}" '
            f'x2="{_fmt6(tip[0])}" y2="{_fmt6(tip[1])}"/>'
        )
    lines.append("</g>")
    for d, name in enumerate(model.part_names):
        tip = screen_rays[d]
        lines.append(
            f'<text class="ray-label" x="{_fmt6(tip[0] + 4.0)}" '
            f'y="{_fmt6(tip[1] - 4.0)}" font-size="11" '
            f'fill="#444444">{_text(name)}</text>'
        )

    for name, i, j in links:
        a, b = screen_rays[i], screen_rays[j]
        gap = b - a
        length = float(np.hypot(gap[0], gap[1]))
        u = gap / length
        normal = np.array([-u[1], u[0]])
        feet_t = [float(np.dot(screen_points[r] - a, u)) for r in range(model.n)]
        t_lo = min(0.0, min(feet_t))
        t_hi = max(length, max(feet_t))
        start, end = a + t_lo * u, a + t_hi * u
        lines.append(f'<g class="link-group" data-ratio="{html.escape(name)}">')
        lines.append(
            f'<line class="link" x1="{_fmt6(start[0])}" y1="{_fmt6(start[1])}" '
            f'x2="{_fmt6(end[0])}" y2="{_fmt6(end[1])}" stroke="#999999" '
            f'stroke-width="1" stroke-dasharray="4 3"/>'
        )
        for t in feet_t:
            foot = a + t * u
            p_lo, p_hi = foot - _TICK_HALF_LENGTH * normal, foot + _TICK_HALF_LENGTH * normal
            lines.append(
                f'<line class="tick" x1="{_fmt6(p_lo[0])}" y1="{_fmt6(p_lo[1])}" '
                f'x2="{_fmt6(p_hi[0])}" y2="{_fmt6(p_hi[1])}" stroke="#999999" '
                f'stroke-width="1"/>'
            )
        lines.append("</g>")

    lines.append('<g class="points">')
    for r, entity in enumerate(table.entities):
        p = screen_points[r]
        lines.append(
            f'<circle class="point" cx="{_fmt6(p[0])}" cy="{_fmt6(p[1])}" '
            f'r="{_fmt6(_POINT_RADIUS)}" fill="{colors[entity.sector_code]}"/>'
        )
    lines.append("</g>")
    if options.label_points:
        for r, entity in enumerate(table.entities):
            p = screen_points[r]
            lines.append(
                f'<text class="point-label" x="{_fmt6(p[0] + 5.0)}" '
                f'y="{_fmt6(p[1] + 3.0)}" font-size="10" '
                f'fill="#222222">{_text(entity.id)}</text>'
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
