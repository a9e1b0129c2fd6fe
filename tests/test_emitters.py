"""Whole-array report writers against the per-cell writers they replaced.

Every writer must give the oracle's bytes exactly, and the oracle's error
for a non-finite number.
"""

import dataclasses
import html
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coda_atlas import (
    Entity,
    Part,
    RatioDefinition,
    RenderOptions,
    clr_matrix,
    cluster_profile,
    distance_matrix,
    fit_biplot,
    hierarchical_cluster,
    make_link,
    rank_along_link,
    render_biplot,
    synthetic_table,
    validate_table,
)
from coda_atlas import _fill, _fmt
from coda_atlas._fmt import (
    check_finite, csv_fields, csv_line, dumps_json, fill_rows, fmt_rows, json_rows,
)
from coda_atlas.biplot import Link, RankingResult, model_to_json, ranking_csv
from coda_atlas.cluster import ClusterAssignment, assignment_csv, profiles_json
from coda_atlas.composition import ClrMatrix
from coda_atlas.errors import DimensionMismatch, DuplicatePartName, InvalidOptions
from coda_atlas.ingest import DEFAULT_PART_SCHEMA, clr_csv, default_ratio_catalog, serialize_table
from coda_atlas.render import _project
from coda_atlas.stats import DescriptiveSummary, describe_csv

from conftest import make_table
import oracles
from oracles import (
    per_cell_assignment_csv,
    per_cell_clr_csv,
    per_cell_describe_csv,
    per_cell_dumps_json,
    per_cell_fill_rows,
    per_cell_model_json,
    per_cell_ranking_csv,
    per_cell_serialize_table,
    per_cluster_profiles_json,
    per_element_svg,
)

#: finite doubles that format unusually: signed zero, subnormals, extremes
SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
           1.7976931348623157e308, 0.1, 1e16, 123456789.0, -1e-5)
finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(
    st.sampled_from((5e-324, 2.2250738585072014e-308, 1e300, 1.0, 0.1, 1e16)),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
)
#: ids and labels that csv must quote, escape or carry through
awkward_text = st.text(
    alphabet=st.sampled_from(list('ab,"\n\r é€日 ;\'%')), min_size=1, max_size=8
)
#: bounds on a block's buffer; with 1 byte every row is a block
block_bytes = st.sampled_from((1, 100, 300, 1 << 20))


def matrices(elements, max_rows=12, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda n: st.integers(1, max_cols).flatmap(
            lambda k: st.lists(
                st.lists(elements, min_size=k, max_size=k), min_size=n, max_size=n
            )
        )
    )


def test_percent_g_equals_format_on_random_bit_patterns():
    bits = np.random.default_rng(4).integers(0, 2**64, size=200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)].tolist() + list(SPECIAL)
    assert [x for x in values if "%.17g" % x != format(x, ".17g")] == []
    # the same values through the kernel, in rows of 7
    rows = _rows_of(values, 7)
    ids = [f"r{r}" for r in range(len(rows))]
    expected = "".join(
        ",".join([eid, *(format(x, ".17g") for x in row)]) + "\n"
        for eid, row in zip(ids, rows.tolist())
    )
    assert fmt_rows(ids, rows) == expected


def _rows_of(values, k):
    """The values as rows of k, the last row padded with 1.0."""
    values = np.asarray(values)
    return np.concatenate([values, np.ones(-len(values) % k, values.dtype)]).reshape(-1, k)


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])


#: edge cells for the digit kernels, signed both ways
KERNEL_EDGES = {
    "zeros, subnormals and non-finite": [0.0, 5e-324, 2.2250738585072014e-308, 1e-310,
                                         np.inf, np.nan, 1.7976931348623157e308],
    "ends of the fixed range": _neighbours([1e-4, 1e17]),
    "powers of ten": _neighbours(
        [10.0**k for k in range(-5, 18)] + [float(f"1e{k}") for k in range(-5, 18)]
    ),
    "17-digit ties": [1e15 + 0.25, 1e15 + 0.75, 1e15 + 0.5, 1e15 + 1.25, 9.0071992547409915e15,
                      1e16 - 2, 1e16 + 2, 1e17 - 16, 99999999999999992.0],
    "6-decimal ties": [0.0078125, 0.0000005, 0.0000015, 0.0000025, 2.5e-6, 1.0000005,
                       99999999.9999995, *_neighbours([1e8]), 3 * 2.0**-21, 5 * 2.0**-21],
}


class TestKernels:
    """fill_rows' numpy kernels against % one cell at a time."""

    def test_percent_g_in_the_fixed_range(self):
        rng = np.random.default_rng(7)
        mantissas = rng.uniform(1.0, 10.0, 140_000) * rng.choice([-1.0, 1.0], 140_000)
        values = mantissas * 10.0 ** rng.integers(-5, 18, 140_000)
        # few significant digits: trailing zeros, and the point cut early
        significands = rng.integers(-10**6, 10**6, 140_000).tolist()
        exponents = rng.integers(-10, 12, 140_000).tolist()
        rounded = np.array([float(f"{m}e{k}") for m, k in zip(significands, exponents)])
        template = "%.17g" + ",%.17g" * 6 + "\n"
        for rows in (_rows_of(values, 7), _rows_of(rounded, 7)):
            assert fill_rows(template, rows) == per_cell_fill_rows(template, rows)

    def test_percent_6f(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(-1.0, 1.0, 70_000) * 10.0 ** rng.integers(-9, 10, 70_000)
        ties = np.arange(-2**14, 2**14) * 2.0**-21  # exact 7th-decimal ties among them
        template = "<%.6f %.6f %.6f %.6f %.6f %.6f %.6f/>\n"
        for rows in (_rows_of(values, 7), _rows_of(ties, 7), _rows_of(ties * 1024 + 0.5e-6, 7)):
            assert fill_rows(template, rows) == per_cell_fill_rows(template, rows)

    def test_percent_d_and_s_of_integers(self):
        rng = np.random.default_rng(9)
        wide = rng.integers(-2**63, 2**63 - 1, 20_000, dtype=np.int64, endpoint=True)
        wide[:5] = (0, -1, -2**63, 2**63 - 1, 10**18)
        small = rng.integers(-20_000, 20_000, 20_000)
        unsigned = np.array([0, 2**64 - 1, 10**19, 9999, 10000], dtype=np.uint64)
        for template, columns in (
            ("%d,%d\n", (np.column_stack((wide, wide[::-1])),)),
            ("%d|%d|%d\n", (small, small[::-1], small.astype(np.int16))),
            ("%d %d\n", (unsigned, unsigned[::-1])),
        ):
            assert fill_rows(template, *columns) == per_cell_fill_rows(template, *columns)

    def test_percent_s_of_text(self):
        texts = ["", "e1", "é€", "日本", "a\ud800b", "\U0001f600", "%s%%d", '"q,1"', "x" * 300]
        column = [texts[r % len(texts)] + str(r) * (r % 3) for r in range(2000)]
        other = np.array(column[::-1], dtype=object)
        template = "[%s|%s] %d\n"
        got = fill_rows(template, column, other, np.arange(2000))
        assert got == per_cell_fill_rows(template, column, other, np.arange(2000))

    @pytest.mark.parametrize("case", sorted(KERNEL_EDGES))
    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_edges(self, case, block):
        values = np.asarray(KERNEL_EDGES[case], dtype=float)
        rows = _rows_of(np.concatenate([values, -values]), 2)
        columns = (rows[:, 0], rows[:, 1], rows[:, 0], rows[:, 1])
        template = "%.17g;%.6f,%.17g|%.6f\n"
        # a row takes 132 buffer bytes, so a block has at most ``block`` rows
        with patch.object(_fmt, "_BLOCK_BYTES", block * 132):
            assert fill_rows(template, *columns) == per_cell_fill_rows(template, *columns)

    def test_block_boundaries_of_a_skewed_text_column(self):
        # one wide text, then short ones: blocks are cut by bytes, not rows
        texts = ["x" * 100_000] + [f"e{r}" for r in range(3000)] + ["y" * 50_000]
        values = np.random.default_rng(11).standard_normal((len(texts), 3))
        template = "%s,%.17g,%.17g,%.17g,%d\n"
        with patch.object(_fmt, "_BLOCK_BYTES", 1 << 14):
            got = fill_rows(template, texts, values, np.arange(len(texts)))
        assert got == per_cell_fill_rows(template, texts, values, np.arange(len(texts)))

    @pytest.mark.parametrize(
        "template, columns, field",
        [
            ("%s,%.3f\n", (["a"], np.ones(1)), 2),
            ("%r\n", (["a"],), 1),
            ("%(a)s\n", (["a"],), 1),
            ("%s %*d\n", (["a"], np.ones(1, np.int64)), 2),
            ("%s,%d\n", (["a"], np.ones(1)), 2),
            ("%.17g\n", (["a"],), 1),
            ("%d,%s\n", (np.ones(1, np.int64), np.ones(1)), 2),
            ("%s,%.17g,%.6f\n", (["a"], np.ones((1, 2))), 2),
            ("%s,%d,%d\n", (["a"], np.ones(1, np.int64)), 3),
            ("%s\n", (["a"], np.ones(1)), 2),
            ("%s,%.17g\n", (["a", "b"], np.ones(3)), 2),
        ],
    )
    def test_misuse_names_the_field_before_any_block(self, template, columns, field):
        def no_block(*args):
            raise AssertionError("a block was formatted")

        with patch.object(_fill, "_buffer", no_block), \
                pytest.raises((TypeError, ValueError), match=rf"^fill_rows field {field}\b"):
            fill_rows(template, *columns)

    def test_no_kernel_module_or_lookup_table_before_the_first_fill(self):
        script = (
            "import sys, coda_atlas.cli, numpy as np\n"
            "from coda_atlas import _fmt\n"
            "print('coda_atlas._fill' in sys.modules)\n"
            "_fmt.fill_rows('%.17g\\n', np.ones(3))\n"
            "from coda_atlas import _fill\n"
            "print(_fill._tables.cache_info().currsize)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                check=True)
        assert result.stdout == "False\n1\n"

    def test_a_wide_clr_csv_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        clr = _wide_clr(20_000, 32)
        assert clr_csv(clr).count("\n") == 20_001
        assert not hasattr(_fmt, "os") and not hasattr(_fill, "os")

    def test_a_wide_clr_csv_holds_one_block_at_a_time(self):
        # the text is held twice when its blocks are joined; at the parent
        # commit, which formatted with % per cell, the peak was 2.01 times
        # the text (25.0 MiB). Every block's buffer held at once would add
        # ~40 MiB more.
        clr = _wide_clr(20_000, 32)
        clr_csv(clr)  # the lookup tables
        tracemalloc.start()
        try:
            text = clr_csv(clr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text) + (4 << 20), (peak, len(text))


def _wide_clr(n, D):
    values = np.random.default_rng(5).standard_normal((n, D))
    parts = tuple(Part(index=d, name=f"p{d}", unit="unitless", role="financial") for d in range(D))
    return ClrMatrix(values=values, parts=parts, entity_ids=tuple(f"e{r:05d}" for r in range(n)))


class TestArrayFormatter:
    @given(matrices(finite), block_bytes)
    @settings(max_examples=200, deadline=None)
    @example(rows=[[-0.0, 5e-324, 1e300]], block=1)
    def test_clr_csv_matches_per_cell(self, rows, block):
        values = np.array(rows, dtype=float)
        n, k = values.shape
        clr = ClrMatrix(
            values=values,
            parts=tuple(Part(index=d, name=f"p{d}", unit="unitless", role="financial")
                        for d in range(k)),
            entity_ids=tuple(f"e{r}" for r in range(n)),
        )
        with patch.object(_fmt, "_BLOCK_BYTES", block):
            assert clr_csv(clr) == per_cell_clr_csv(clr)

    @given(matrices(finite, max_rows=6, max_cols=4), st.data(), block_bytes)
    @settings(max_examples=200, deadline=None)
    def test_non_finite_cell_gives_the_per_cell_error(self, rows, data, block):
        values = np.array(rows, dtype=float)
        cells = data.draw(
            st.lists(st.tuples(st.integers(0, values.shape[0] - 1),
                               st.integers(0, values.shape[1] - 1)),
                     min_size=1, max_size=3)
        )
        for r, c in cells:
            values[r, c] = data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        clr = ClrMatrix(
            values=values,
            parts=tuple(Part(index=d, name=f"p{d}", unit="unitless", role="financial")
                        for d in range(values.shape[1])),
            entity_ids=tuple(f"e{r}" for r in range(values.shape[0])),
        )
        with pytest.raises(ValueError) as expected:
            per_cell_clr_csv(clr)
        with patch.object(_fmt, "_BLOCK_BYTES", block), pytest.raises(ValueError) as got:
            clr_csv(clr)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("non-finite value in report output: ")

    def test_check_finite_follows_row_major_order_in_views(self):
        values = np.zeros((3, 3))
        values[0, 2] = np.inf
        values[1, 0] = np.nan
        check_finite(values[:1, :2])
        with pytest.raises(ValueError, match="output: inf$"):
            check_finite(values)
        for view in (values[:, :2], values.T):  # the inf is outside, or later
            with pytest.raises(ValueError, match="output: nan$"):
                check_finite(view)

    def test_fill_rows_mixes_text_float_and_integer_columns(self):
        text = fill_rows("%s|%.6f|%.6f|%.17g|%d%%\n", ["a%s", "b"],
                         np.array([[1.0, 2.0], [-0.0, 5.5]]), np.array([0.1, 1e300]),
                         np.array([7, 8]))
        assert text == ("a%s|1.000000|2.000000|0.10000000000000001|7%\n"
                        "b|-0.000000|5.500000|1.0000000000000001e+300|8%\n")
        assert fill_rows("%s\n", []) == ""
        assert fmt_rows([], np.empty((0, 3))) == ""


class TestCsvQuoting:
    @given(st.lists(st.one_of(st.just(""), awkward_text), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    @example(texts=["\r", "a\rb", '"', "", "x"])
    def test_fields_are_quoted_as_csv_writer_quotes_them(self, texts):
        # each text beside a plain field, since csv quotes a lone empty field
        expected = [oracles.csv_line([text, "x"])[: -len(",x\n")] for text in texts]
        assert list(csv_fields(texts)) == expected
        assert csv_line(texts + ["x"]) == oracles.csv_line(texts + ["x"])

    def test_texts_that_need_no_quotes_come_back_unchanged(self):
        texts = ("e1", "a b", "é;'%", "")
        assert csv_fields(texts) is texts


class TestDescribeCsv:
    @given(
        st.lists(st.tuples(st.one_of(st.just(""), awkward_text), st.integers(0, 10**9),
                           st.lists(finite, min_size=7, max_size=7)), max_size=12),
        block_bytes,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cell(self, rows, block):
        summaries = [DescriptiveSummary(name, n, *stats) for name, n, stats in rows]
        with patch.object(_fmt, "_BLOCK_BYTES", block):
            assert describe_csv(summaries) == per_cell_describe_csv(summaries)

    @given(
        st.lists(st.lists(finite, min_size=7, max_size=7), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_finite_statistic_gives_the_per_cell_error(self, rows, data):
        rows = [list(row) for row in rows]
        for _ in range(data.draw(st.integers(1, 3))):
            row = data.draw(st.sampled_from(rows))
            bad = data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))
            row[data.draw(st.integers(0, 6))] = bad
        summaries = [DescriptiveSummary(f"s{k}", 3, *stats) for k, stats in enumerate(rows)]
        with pytest.raises(ValueError) as expected:
            per_cell_describe_csv(summaries)
        with pytest.raises(ValueError) as got:
            describe_csv(summaries)
        assert str(got.value) == str(expected.value)


class TestAssignmentCsv:
    @given(
        st.dictionaries(st.one_of(st.just(""), awkward_text), st.integers(1, 50), max_size=20),
        block_bytes,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cell(self, labels, block):
        assignment = ClusterAssignment(labels=labels, linkage="single", cut={}, merge_history=())
        with patch.object(_fmt, "_BLOCK_BYTES", block):
            assert assignment_csv(assignment) == per_cell_assignment_csv(assignment)


class TestSerializeTable:
    @given(st.data(), block_bytes)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cell_csv_writer(self, data, block):
        n = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(2, 4))
        values = np.array(data.draw(st.lists(st.lists(positive, min_size=k, max_size=k),
                                             min_size=n, max_size=n)))
        ids = data.draw(st.lists(awkward_text, min_size=n, max_size=n, unique=True))
        labels = data.draw(st.lists(st.one_of(st.just(""), awkward_text), min_size=n, max_size=n))
        sectors = data.draw(st.lists(awkward_text, min_size=n, max_size=n))
        parts = [Part(index=d, name=f"p,{d}", unit="unitless", role="financial")
                 for d in range(k)]
        entities = [Entity(id=i, label=lab, sector_code=s)
                    for i, lab, s in zip(ids, labels, sectors)]
        table = validate_table(values, parts, entities)
        with patch.object(_fmt, "_BLOCK_BYTES", block):
            assert serialize_table(table) == per_cell_serialize_table(table)

    def test_fixture_matches_per_cell_csv_writer(self):
        table = synthetic_table()
        assert serialize_table(table) == per_cell_serialize_table(table)


def _ranking(scores, exact):
    ids = tuple(f"g{r:02d}" for r in range(len(scores)))
    order = sorted(range(len(ids)), key=lambda r: (-scores[r], ids[r]))
    return RankingResult(
        link=None, rows=np.array(order, dtype=np.intp),
        scores=np.array(scores, dtype=float), exact_log_ratios=np.array(exact, dtype=float),
        entity_ids=ids,
    )


class TestRankingCsv:
    @given(st.lists(st.tuples(finite, finite), min_size=0, max_size=30), block_bytes)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_cell(self, pairs, block):
        result = _ranking([s for s, _ in pairs], [e for _, e in pairs])
        with patch.object(_fmt, "_BLOCK_BYTES", block):
            assert ranking_csv(result) == per_cell_ranking_csv(result)

    def test_fitted_links_match_per_cell(self, rng):
        table = make_table(np.exp(rng.normal(size=(500, 6))))
        model = fit_biplot(clr_matrix(table), k=2)
        for i, j in ((0, 1), (2, 5), (4, 3)):
            result = rank_along_link(model, make_link(model, i, j))
            assert ranking_csv(result) == per_cell_ranking_csv(result)

    def test_unsorted_ids_with_tied_scores_match_per_cell(self):
        # ids out of row order ("g10" < "g9" as strings), scores tied in
        # threes; ranking once first fills the model's id ranks, which the
        # replaced model must not share
        n = 12
        model = fit_biplot(clr_matrix(make_table(np.arange(1.0, 3 * n + 1).reshape(n, 3))))
        link = Link(part_i=0, part_j=1, direction=np.array([1.0, 0.0]), degenerate=False)
        rank_along_link(model, link)
        ids = tuple(f"g{r}" for r in (7, 3, 11, 0, 9, 4, 10, 1, 8, 5, 2, 6))
        scores = [-0.0, 0.5, 0.0, 0.5, 2.0, 0.0, 2.0, 2.0, -1.0, -1.0, 0.5, -1.0]
        points = np.column_stack([scores, np.zeros(n)])
        model = dataclasses.replace(model, points=points, entity_ids=ids)
        result = rank_along_link(model, link)
        expected = sorted(range(n), key=lambda r: (-scores[r], ids[r]))
        assert result.ordering == tuple(ids[r] for r in expected)
        assert result.ordering[:3] == ("g1", "g10", "g9")
        assert result.ordering[6:9] == ("g11", "g4", "g7")  # -0.0 ties 0.0
        assert ranking_csv(result) == per_cell_ranking_csv(result)

    @pytest.mark.parametrize("bad", [(3, "score", np.nan), (0, "exact", -np.inf), (7, "score", np.inf)])
    def test_non_finite_value_gives_the_per_cell_error(self, bad):
        scores, exact = list(np.linspace(1.0, 0.1, 10)), list(np.linspace(-1.0, 1.0, 10))
        row, column, value = bad
        (scores if column == "score" else exact)[row] = value
        exact[9] = np.nan  # a later bad cell must not be the one reported
        result = _ranking(scores, exact)
        with pytest.raises(ValueError) as expected:
            per_cell_ranking_csv(result)
        with pytest.raises(ValueError) as got:
            ranking_csv(result)
        assert str(got.value) == str(expected.value)


json_scalars = st.one_of(
    finite, st.integers(-10**20, 10**20), st.booleans(), st.none(),
    st.text(max_size=6), st.sampled_from((np.float64(0.1), np.int64(-3), np.bool_(True))),
)
json_docs = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(finite, min_size=1, max_size=6),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(st.text(max_size=5), finite, min_size=1, max_size=6),
    ),
    max_leaves=30,
)


class TestDumpsJson:
    @given(json_docs)
    @settings(max_examples=300, deadline=None)
    @example(doc=[1e308, 1e308])
    @example(doc={"a": 1e308, "b": 1e308, "-0": -0.0, 3: 5e-324})
    @example(doc={"k": {"x": 0.5, "y": True}, "z": {"x": 0.5, "y": np.float64(2.0)}})
    @example(doc={"coords": [-0.0, 5e-324, 1e300], "é\n": "日\"", "k": [1, 2.5, True]})
    def test_matches_per_cell(self, doc):
        assert dumps_json(doc) == per_cell_dumps_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [[1.0, np.nan], [np.inf, 2.0], {"a": [0.5, -np.inf, np.nan]}, [1e308, 1e308, np.inf],
         [np.float64(np.nan)], {"a": 0.5, "b": np.nan, "c": np.inf},
         {"x": 1e308, "y": 1e308, "z": -np.inf}, [{"a": 1.0}, {"b": np.inf}]],
    )
    def test_non_finite_float_gives_the_per_cell_error(self, doc):
        with pytest.raises(ValueError) as expected:
            per_cell_dumps_json(doc)
        with pytest.raises(ValueError) as got:
            dumps_json(doc)
        assert str(got.value) == str(expected.value)

    def test_singleton_cluster_profiles_match_per_cell(self, rng):
        table = make_table(np.exp(rng.normal(size=(60, 8))), part_names=list(DEFAULT_PART_SCHEMA))
        dist = distance_matrix(clr_matrix(table))
        assignment = hierarchical_cluster(dist, n_clusters=59)
        profiles = cluster_profile(table, assignment)
        doc = per_cluster_profiles_json(profiles, table.part_names)
        assert len(doc["clusters"][0]["ratio_means"]) == 5
        assert dumps_json(profiles_json(profiles, table.part_names)) == per_cell_dumps_json(doc)

    def test_model_document_matches_per_cell(self, rng):
        for n, k in ((300, 3), (1500, 1), (1025, 2)):
            ids = [f"e{r}" if r % 4 else f'e{r} "\u00e9\\\n' for r in range(n)]
            table = make_table(np.exp(rng.normal(size=(n, 7))), ids=ids)
            model = fit_biplot(clr_matrix(table), k=k)
            assert model_to_json(model) == per_cell_model_json(model)

    @pytest.mark.parametrize(
        "field, cell", [("points", (2, 1)), ("points", (0, 0)), ("column_means", (3,))]
    )
    def test_non_finite_model_gives_the_per_cell_error(self, rng, field, cell):
        model = fit_biplot(clr_matrix(make_table(np.exp(rng.normal(size=(9, 7))))), k=2)
        changes = {"points": model.points.copy()}
        changes["points"][-1, -1] = np.inf
        changes.setdefault(field, getattr(model, field).copy())[cell] = np.nan
        model = dataclasses.replace(model, **changes)
        with pytest.raises(ValueError) as expected:
            per_cell_model_json(model)
        with pytest.raises(ValueError) as got:
            model_to_json(model)
        assert str(got.value) == str(expected.value)


#: record keys: the characters JSON escapes, "%" and non-ASCII among them
record_keys = st.text(
    alphabet=st.one_of(st.sampled_from('%"\\\u00e9\u65e5\x00\x1f\n\t'), st.characters()),
    max_size=4,
)
#: a record's shape: leaves are "d" (int), "g" (float) or "s" (string)
record_shapes = st.dictionaries(
    record_keys,
    st.recursive(
        st.sampled_from("dgs"),
        lambda children: st.one_of(
            st.lists(children, max_size=3), st.dictionaries(record_keys, children, max_size=3)
        ),
        max_leaves=8,
    ),
    max_size=4,
)
CONVERSIONS = {"d": "%d", "g": "%.17g", "s": "%s"}


def leaves(shape):
    if isinstance(shape, dict):
        return [leaf for value in shape.values() for leaf in leaves(value)]
    if isinstance(shape, list):
        return [leaf for value in shape for leaf in leaves(value)]
    return [shape]


def fill_shape(shape, values):
    """``shape`` with its leaves, in document order, taken from the iterator ``values``."""
    if isinstance(shape, dict):
        return {key: fill_shape(value, values) for key, value in shape.items()}
    if isinstance(shape, list):
        return [fill_shape(value, values) for value in shape]
    return next(values)


class TestJsonRows:
    """json_rows embedded in a document against the per-cell emitter."""

    @given(
        shape=record_shapes,
        n=st.sampled_from([0, 1, 1025]),
        nesting=st.lists(st.booleans(), min_size=1, max_size=3),
        ints=st.lists(st.integers(-2**63, 2**63 - 1025), min_size=1, max_size=3),
        floats=st.lists(finite, min_size=1, max_size=3),
        texts=st.lists(st.text(max_size=4), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cell_at_any_level(self, shape, n, nesting, ints, floats, texts):
        kinds = leaves(shape)
        if not kinds:  # a record without conversions has no column to count its rows
            shape, kinds = {**shape, "%": "d"}, kinds + ["d"]

        def cell(kind, r):
            if kind == "d":
                return ints[r % len(ints)] + r
            if kind == "g":
                return floats[r % len(floats)]
            return texts[r % len(texts)] + str(r)

        rows = [[cell(kind, r) for kind in kinds] for r in range(n)]
        records = [fill_shape(shape, iter(row)) for row in rows]
        columns = [
            [json.dumps(row[c]) for row in rows] if kind == "s"
            else np.array([row[c] for row in rows], dtype=np.int64 if kind == "d" else float)
            for c, kind in enumerate(kinds)
        ]
        element = fill_shape(shape, (CONVERSIONS[kind] for kind in kinds))

        def embed(value):
            for in_list in nesting:
                value = [value] if in_list else {"rows%": value}
            return value

        got = dumps_json(embed(json_rows(element, len(nesting), *columns)))
        assert got == per_cell_dumps_json(embed(records))


class TestClusterProfilesDocument:
    """The one-template "clusters" block against the plain dict document."""

    @staticmethod
    def profiles(n_clusters, ratios=None, ids=None, part_names=None):
        rng = np.random.default_rng(11)
        part_names = part_names or list(DEFAULT_PART_SCHEMA)
        values = np.exp(rng.normal(size=(9, len(part_names))))
        table = make_table(values, ids=ids, part_names=part_names)
        dist = distance_matrix(clr_matrix(table))
        assignment = hierarchical_cluster(dist, n_clusters=n_clusters)
        return cluster_profile(table, assignment, ratios), table.part_names

    def test_template_characters_in_ids_and_names(self):
        ids = ["a%s", 'b"q', "c\\d", "d%%", "e%(x)s", "f\u00e9\u65e5", "g", "h%d", "i\n"]
        names = ["p%d", 'q"r', "s\\t", "\u00fc%", "v%%w", "x%(y)s"]
        ratios = [RatioDefinition("100%", names[0], names[1]),
                  RatioDefinition('a"b\\%s', names[2], names[3])]
        for n_clusters in (1, 4, 9):
            profiles, parts = self.profiles(n_clusters, ratios, ids, names)
            doc = per_cluster_profiles_json(profiles, parts)
            assert dumps_json(profiles_json(profiles, parts)) == per_cell_dumps_json(doc)

    def test_empty_ratio_list_writes_an_empty_object(self):
        profiles, parts = self.profiles(3, ratios=[])
        text = dumps_json(profiles_json(profiles, parts))
        assert text.count('"ratio_means": {}') == 3
        assert text == per_cell_dumps_json(per_cluster_profiles_json(profiles, parts))

    def test_part_names_must_match_the_means_one_to_one(self):
        table = synthetic_table()
        assignment = hierarchical_cluster(distance_matrix(clr_matrix(table)), n_clusters=3)
        profiles = cluster_profile(table, assignment)
        with pytest.raises(DimensionMismatch) as short:
            profiles_json(profiles, table.part_names[:5])
        assert short.value.record() == "DimensionMismatch:5 part names for 8 CLR means"
        with pytest.raises(DuplicatePartName) as repeated:
            profiles_json(profiles, [table.part_names[0]] * 8)
        assert repeated.value.record() == "DuplicatePartName:net_revenue"

    def test_profiles_must_share_their_ratio_names(self):
        profiles, parts = self.profiles(2)
        renamed = dataclasses.replace(profiles[1], ratio_means={"other": 0.5})
        with pytest.raises(InvalidOptions, match="share their ratio names"):
            profiles_json([profiles[0], renamed], parts)

    # an inf always sits in the last cell; the nan goes before it, or on it
    @pytest.mark.parametrize(
        "cluster, key",
        [(0, 0), (1, 7), (0, None), (2, None), (0, "solvency"), (2, "gender_employment_gap")],
        ids=["first-mean", "mid-mean", "first-origin", "last-origin", "first-ratio",
             "last-ratio"],
    )
    def test_non_finite_value_gives_the_per_cell_error(self, cluster, key):
        profiles, parts = self.profiles(3)

        def with_value(p, key, value):
            if key is None:
                return dataclasses.replace(p, origin_distance=value)
            if isinstance(key, int):
                mean = p.mean_clr.copy()
                mean[key] = value
                return dataclasses.replace(p, mean_clr=mean)
            return dataclasses.replace(p, ratio_means={**p.ratio_means, key: value})

        profiles[-1] = with_value(profiles[-1], "gender_employment_gap", np.inf)
        profiles[cluster] = with_value(profiles[cluster], key, np.nan)
        with pytest.raises(ValueError) as expected:
            per_cell_dumps_json(per_cluster_profiles_json(profiles, parts))
        with pytest.raises(ValueError) as got:
            dumps_json(profiles_json(profiles, parts))
        assert str(got.value) == str(expected.value)


def _render_case(seed: int, n: int):
    rng = np.random.default_rng(seed)
    names = list(DEFAULT_PART_SCHEMA)
    ids = [f"e{r}&<{r}>" if r % 3 == 0 else f"e{r}" for r in range(n)]
    sectors = [("101X", "102X", "A&B", "Z")[r % 4] for r in range(n)]
    values = np.exp(rng.normal(scale=2.0, size=(n, len(names))))
    table = make_table(values, ids=ids, sectors=sectors, part_names=names)
    return table, fit_biplot(clr_matrix(table), alpha=float(rng.uniform()), k=2)


class TestRenderBiplot:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 60),
        st.sampled_from((0, 1, 5)),
        st.booleans(),
        block_bytes,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_element(self, seed, n, links, label_points, block):
        table, model = _render_case(seed, n)
        names = tuple(r.name for r in default_ratio_catalog())
        options = RenderOptions(show_links=names[:links], label_points=label_points)
        with patch.object(_fmt, "_BLOCK_BYTES", block):
            assert render_biplot(model, table, options) == per_element_svg(model, table, options)

    @pytest.mark.parametrize("label_points", [True, False])
    def test_large_table_matches_per_element(self, label_points):
        table, model = _render_case(9, 3000)
        names = tuple(r.name for r in default_ratio_catalog())
        options = RenderOptions(show_links=names, label_points=label_points, width=640)
        assert render_biplot(model, table, options) == per_element_svg(model, table, options)

    @pytest.mark.parametrize("special", ["&", "<", ">"])
    def test_each_escaped_character_alone(self, rng, special):
        ids = [f"e{r}{special}" if r == 4 else f"e{r}" for r in range(9)]
        names = [f"p{d}{special}" if d == 1 else f"p{d}" for d in range(4)]
        table = make_table(np.exp(rng.normal(size=(9, 4))), ids=ids, part_names=names)
        model = fit_biplot(clr_matrix(table), k=2)
        svg = render_biplot(model, table)
        assert svg == per_element_svg(model, table)
        assert svg.count(html.escape(special)) == 2

    def test_tick_feet_round_like_one_dot_per_point(self, rng):
        points = rng.normal(scale=300.0, size=(20_000, 2))
        origin, u = rng.normal(scale=100.0, size=2), rng.normal(size=2)
        u /= np.hypot(u[0], u[1])
        expected = [float(np.dot(p - origin, u)) for p in points]
        assert _project(points, origin, u).tolist() == expected

    def test_ratio_name_with_quotes_is_escaped_in_the_attribute(self):
        table = synthetic_table()
        model = fit_biplot(clr_matrix(table), k=2)
        name = 'a"b\'<&'
        options = RenderOptions(
            show_links=(name,),
            ratio_catalog=(RatioDefinition(name, "total_assets", "total_liabilities"),),
        )
        root = ET.fromstring(render_biplot(model, table, options))
        groups = [el for el in root.iter() if el.get("class") == "link-group"]
        assert [el.get("data-ratio") for el in groups] == [name]
