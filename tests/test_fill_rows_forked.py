"""Whole reports of two blocks or more against the per-cell writers, and no fork.

``fill_rows`` once formatted large tables in forked children; these cases
were written for that path and keep its test names. The writer now fills a
block of rows at a time in this process, so every case runs with ``os.fork``
replaced by a function that fails the test.
"""

import os
import warnings
from unittest.mock import patch

import numpy as np
import pytest

from coda_atlas import (
    Part, RenderOptions, clr_matrix, cluster_profile, distance_matrix, fit_biplot,
    hierarchical_cluster,
)
from coda_atlas import _fmt
from coda_atlas._fmt import csv_fields, dumps_json, fill_rows, fmt_float, fmt_rows
from coda_atlas.biplot import RankingResult, model_to_json, ranking_csv
from coda_atlas.cluster import assignment_csv, profiles_json
from coda_atlas.composition import ClrMatrix
from coda_atlas.ingest import DEFAULT_PART_SCHEMA, clr_csv, default_ratio_catalog
from coda_atlas.render import render_biplot

from conftest import make_table
import oracles
from oracles import (
    per_cell_assignment_csv,
    per_cell_clr_csv,
    per_cell_dumps_json,
    per_cell_fill_rows,
    per_cell_model_json,
    per_cell_ranking_csv,
    per_cluster_profiles_json,
    per_element_svg,
)

B = 1024  # a unit of rows in these cases

#: a block's buffer in these cases: a few hundred rows, so every report
#: below is several blocks
BLOCK_BYTES = 1 << 16


@pytest.fixture
def forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)


@pytest.fixture
def blocks_of_b(forks):
    with patch.object(_fmt, "_BLOCK_BYTES", BLOCK_BYTES):
        yield


def awkward_ids(n):
    kinds = ("e%d", "é%d€", "日本%d", '"q,%d"', "%%s%d", "a\n%d")
    return [kinds[r % len(kinds)] % r for r in range(n)]


def awkward_values(n, k, seed=0):
    values = np.random.default_rng(seed).standard_normal((n, k)) * 10.0 ** np.arange(-3, k - 3)
    values[:4, 0] = (-0.0, 5e-324, 1.7976931348623157e308, 1e16)
    return values


def awkward_clr(values):
    n, k = values.shape
    return ClrMatrix(
        values=values,
        parts=tuple(Part(index=d, name=f"p{d}", unit="unitless", role="financial")
                    for d in range(k)),
        entity_ids=tuple(awkward_ids(n)),
    )


class TestSameText:
    @pytest.mark.parametrize("n", [2 * B, 2 * B + 37, 3 * B + 1000, 5 * B + 1])
    def test_fmt_rows_with_non_ascii_and_quoted_ids(self, blocks_of_b, n):
        clr = awkward_clr(awkward_values(n, 5))
        assert clr_csv(clr) == per_cell_clr_csv(clr)

    def test_several_children_join_in_row_order(self, forks):
        ids, values = awkward_ids(43), awkward_values(43, 3)
        with patch.object(_fmt, "_BLOCK_BYTES", 512):  # three rows a block
            text = fmt_rows(csv_fields(ids), values)
        lines = (oracles.csv_line([i, *map(fmt_float, row)]) for i, row in zip(ids, values))
        assert text == "".join(lines)

    def test_integer_template_of_ranking_csv(self, blocks_of_b):
        n = 2 * B + 5
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(n)
        result = RankingResult(
            link=None, rows=np.argsort(-scores, kind="stable"), scores=scores,
            exact_log_ratios=rng.standard_normal(n), entity_ids=tuple(awkward_ids(n)),
        )
        text = ranking_csv(result)
        assert text == per_cell_ranking_csv(result)
        assert text.splitlines()[-1].endswith(",%d" % n)

    @pytest.mark.parametrize("label_points", [True, False])
    def test_fixed_point_templates_of_render(self, blocks_of_b, label_points):
        n = 2 * B + 11
        names = list(DEFAULT_PART_SCHEMA)
        ids = [f"e{r}&<{r}>é" if r % 3 == 0 else f"e{r}" for r in range(n)]
        values = np.exp(np.random.default_rng(2).normal(scale=2.0, size=(n, len(names))))
        table = make_table(values, ids=ids, part_names=names)
        model = fit_biplot(clr_matrix(table), k=2)
        links = tuple(r.name for r in default_ratio_catalog())
        options = RenderOptions(show_links=links, label_points=label_points)
        assert render_biplot(model, table, options) == per_element_svg(model, table, options)

    def test_json_templates_and_cluster_labels(self, forks):
        ids = [f'e{r}"é\\{r}' for r in range(60)]
        values = np.exp(np.random.default_rng(3).normal(size=(60, 8)))
        table = make_table(values, ids=ids, part_names=list(DEFAULT_PART_SCHEMA))
        clr = clr_matrix(table)
        assignment = hierarchical_cluster(distance_matrix(clr), n_clusters=59)
        profiles = cluster_profile(table, assignment)
        model = fit_biplot(clr, k=2)
        with patch.object(_fmt, "_BLOCK_BYTES", 1024):
            assert model_to_json(model) == per_cell_model_json(model)
            assert assignment_csv(assignment) == per_cell_assignment_csv(assignment)
            assert dumps_json(profiles_json(profiles, table.part_names)) == per_cell_dumps_json(
                per_cluster_profiles_json(profiles, table.part_names))

    def test_non_finite_cell_raises_before_any_fork(self, blocks_of_b):
        values = awkward_values(3 * B, 4)
        values[-1, -1] = np.nan
        clr = awkward_clr(values)
        with pytest.raises(ValueError) as expected:
            per_cell_clr_csv(clr)
        with pytest.raises(ValueError) as got:
            clr_csv(clr)
        assert str(got.value) == str(expected.value) == "non-finite value in report output: nan"

    def test_fork_warns_nothing(self, blocks_of_b):
        # the kernels take log10 of zero and multiply huge values; under an
        # error filter a numpy RuntimeWarning would raise
        n = 3 * B
        floats = awkward_values(n, 1)[:, 0]
        floats[4:12] = (0.0, np.inf, -np.inf, np.nan, 1e300, -1e-300, 1e17, 1e-5)
        args = ("%s,%.17g,%.6f,%d\n", csv_fields(awkward_ids(n)), floats, floats, np.arange(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fill_rows(*args) == per_cell_fill_rows(*args)

