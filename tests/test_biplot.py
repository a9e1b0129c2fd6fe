"""Biplot engine: SVD against an independent eigensolver, projections, rankings."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coda_atlas import (
    clr_matrix,
    default_ratio_catalog,
    fit_biplot,
    make_link,
    model_to_json,
    parse_table,
    rank_along_link,
    ranking_csv,
    reconstruct,
    resolvable_ratios,
    singular_spectrum,
    synthetic_csv,
    synthetic_table,
)
from coda_atlas import biplot, cluster
from coda_atlas.biplot import Link, RankingResult, _kendall_tau_b, center_columns
from coda_atlas.errors import (
    DegenerateLink,
    DegenerateVariance,
    IndexOutOfRange,
    InvalidOptions,
    RankRequestTooLarge,
    SamePart,
    TooFewRows,
)

from conftest import make_table, perfbench_table_csv, random_table
from oracles import (
    brute_force_ranking,
    lapack_biplot,
    oracle_singular_values,
    pairwise_kendall_tau_b,
)

#: fixed 4x4 fixture: two mirrored geometric rows and two step rows
FIXTURE_ROWS = [
    [1.0, 2.0, 4.0, 8.0],
    [8.0, 4.0, 2.0, 1.0],
    [1.0, 1.0, 2.0, 2.0],
    [2.0, 2.0, 1.0, 1.0],
]


def fixture_clr():
    return clr_matrix(make_table(FIXTURE_ROWS))


def log_matrices(max_n: int, max_D: int):
    """n x D lists of natural-log cell values, n >= 3 and D >= 2."""
    return st.integers(3, max_n).flatmap(
        lambda n: st.integers(2, max_D).flatmap(
            lambda D: st.lists(
                st.lists(st.floats(-20.0, 20.0), min_size=D, max_size=D),
                min_size=n, max_size=n,
            )
        )
    )


def repeated_rows(max_n: int, max_D: int, max_kinds: int, cell):
    """n x D lists whose rows repeat up to max_kinds compositions drawn from cell.

    A few kinds make tied rows and a centred matrix of rank below
    min(n-1, D-1), so some retained singular values are zero.
    """
    return st.integers(2, max_D).flatmap(
        lambda D: st.tuples(
            st.lists(st.lists(cell, min_size=D, max_size=D), min_size=1, max_size=max_kinds),
            st.lists(st.integers(0, max_kinds - 1), min_size=3, max_size=max_n),
        )
    ).map(lambda pair: [pair[0][kind % len(pair[0])] for kind in pair[1]])


#: powers of 2, whose logs repeat exactly; a narrow range makes parts
#: that are equal in every composition, which is where exact zeros show up
powers_of_two = st.integers(0, 2).map(lambda e: 2.0**e)


def row_scaled_tables():
    """(rows, factors): 3 to 30 rows of 3 to 10 positive cells, and one
    factor in [1e-6, 1e6] per row."""
    return st.integers(3, 30).flatmap(
        lambda n: st.integers(3, 10).flatmap(
            lambda D: st.tuples(
                st.lists(
                    st.lists(st.floats(-5.0, 5.0).map(math.exp), min_size=D, max_size=D),
                    min_size=n, max_size=n,
                ),
                st.lists(st.floats(-6.0, 6.0).map(lambda e: 10.0**e), min_size=n, max_size=n),
            )
        )
    )


#: tolerance of the row-scaling property, fixed before it first ran. A
#: scaled cell's log is below 5 + 6 log(10) < 19 in size, where a rounding
#: is ~4e-15, so CLR values and Aitchison distances agree to ~1e-13; a rank-2
#: fit whose second and third singular values are 1% of the first apart
#: moves its scores by at most ~200 times that
ROW_SCALE_TOL = 1e-9


#: 17 rows alternating between two compositions: the third singular value
#: of the centred matrix is exactly 0
TWO_COMPOSITIONS = [[2.0, 2.0, 2.0, 2.0, 2.0], [2.0, 1.0, 4.0, 2.0, 2.0]] * 8 + [[2.0] * 5]


def assert_spectrum_is_the_model_spectrum(clr):
    model = fit_biplot(clr, k=1)
    m = min(clr.n - 1, clr.D - 1)
    assert singular_spectrum(clr)[:m].tobytes() == model.singular_values.tobytes()


class TestCenterColumns:
    def test_column_means_removed(self):
        centered, means = center_columns(fixture_clr())
        assert np.max(np.abs(centered.mean(axis=0))) < 1e-14
        assert means == pytest.approx(fixture_clr().values.mean(axis=0))

    def test_needs_two_rows(self):
        table = make_table([[1.0, 2.0]])
        with pytest.raises(TooFewRows):
            center_columns(clr_matrix(table))


class TestSingularSpectrum:
    def test_fixture_matches_jacobi_oracle(self):
        clr = fixture_clr()
        centered, _ = center_columns(clr)
        production = singular_spectrum(clr)
        oracle = oracle_singular_values(centered)
        assert production.shape == oracle.shape
        assert np.max(np.abs(production - oracle)) < 1e-8 * production[0]

    def test_structural_zero_from_clr_and_centering(self):
        production = singular_spectrum(fixture_clr())
        assert production[-1] <= 1e-9 * production[0]

    def test_random_matrices_match_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 13))
            D = int(rng.integers(2, 9))
            clr = clr_matrix(random_table(rng, n, D))
            centered, _ = center_columns(clr)
            production = singular_spectrum(clr)
            oracle = oracle_singular_values(centered)
            assert np.max(np.abs(production - oracle)) < 1e-8 * production[0]
            assert production[-1] <= 1e-9 * production[0]

    @given(log_matrices(30, 12))
    @settings(max_examples=100, deadline=None)
    def test_spectrum_is_the_model_spectrum(self, logs):
        clr = clr_matrix(make_table(np.exp(logs)))
        try:
            assert_spectrum_is_the_model_spectrum(clr)
        except DegenerateVariance:
            assume(False)

    @pytest.mark.parametrize(
        "text",
        [synthetic_csv, lambda: perfbench_table_csv(400, 32, 7),
         lambda: perfbench_table_csv(2000, 32, 1)],
        ids=["fixture", "400x32", "2000x32"],
    )
    def test_spectrum_is_the_model_spectrum_on_shipped_tables(self, text):
        assert_spectrum_is_the_model_spectrum(clr_matrix(parse_table(text())))


class TestFitBiplot:
    def test_shapes_and_spectrum(self):
        model = fit_biplot(fixture_clr(), alpha=1.0, k=2)
        assert model.points.shape == (4, 2)
        assert model.rays.shape == (4, 2)
        assert model.singular_values.shape == (3,)  # min(n-1, D-1)
        assert np.all(np.diff(model.singular_values) <= 0.0)
        assert model.explained.shape == (3,)
        assert model.explained.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(model.explained >= 0.0)

    def test_orientation_rule(self):
        model = fit_biplot(fixture_clr(), alpha=0.0, k=3)
        # rays at alpha=0 are the right-singular vectors themselves
        for comp in range(3):
            column = model.rays[:, comp]
            assert column[int(np.argmax(np.abs(column)))] > 0.0

    def test_refit_is_bit_identical(self, rng):
        clr = clr_matrix(random_table(rng, 9, 5))
        a = fit_biplot(clr, alpha=0.5, k=2)
        b = fit_biplot(clr, alpha=0.5, k=2)
        assert np.all(a.points == b.points)
        assert np.all(a.rays == b.rays)
        assert model_to_json(a) == model_to_json(b)

    def test_points_are_scaled_left_vectors(self):
        clr = fixture_clr()
        model1 = fit_biplot(clr, alpha=1.0, k=2)
        model0 = fit_biplot(clr, alpha=0.0, k=2)
        s = model1.singular_values[:2]
        assert model1.points == pytest.approx(model0.points * s, rel=1e-10)
        assert model0.rays == pytest.approx(model1.rays * s, rel=1e-10)

    def test_validation_errors(self, rng):
        clr = clr_matrix(random_table(rng, 5, 4))
        with pytest.raises(InvalidOptions):
            fit_biplot(clr, alpha=1.5)
        with pytest.raises(RankRequestTooLarge):
            fit_biplot(clr, k=0)
        with pytest.raises(RankRequestTooLarge):
            fit_biplot(clr, k=4)  # min(n-1, D-1) = 3
        with pytest.raises(TooFewRows):
            fit_biplot(clr_matrix(random_table(rng, 2, 4)))

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.bool_(True), "2"])
    def test_rank_must_be_an_integer(self, rng, k):
        clr = clr_matrix(random_table(rng, 5, 4))
        with pytest.raises(InvalidOptions, match="k must be an integer"):
            fit_biplot(clr, k=k)
        assert fit_biplot(clr, k=np.int64(2)).points.shape == (5, 2)

    @given(repeated_rows(40, 6, 3, powers_of_two), st.floats(0.0, 1.0), st.integers(1, 5))
    @example(rows=TWO_COMPOSITIONS, alpha=0.0, k=3)
    @settings(max_examples=200, deadline=None)
    def test_points_and_rays_are_finite_on_repeated_compositions(self, rows, alpha, k):
        clr = clr_matrix(make_table(rows))
        k = min(k, clr.n - 1, clr.D - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                model = fit_biplot(clr, alpha=alpha, k=k)
            except DegenerateVariance:
                return  # one composition: nothing to fit
        assert np.all(np.isfinite(model.points))
        assert np.all(np.isfinite(model.rays))

    @pytest.mark.parametrize("n", [17, 1025])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_rounding_level_singular_values_give_zero_points(self, n, alpha):
        # rows alternating between two compositions: one direction carries
        # all the variance, and the second singular value is rounding noise
        # (~1e-16 at 17 rows, ~1e-14 at 1025), not an exact zero
        rows = [TWO_COMPOSITIONS[r % 2] for r in range(n)]
        model = fit_biplot(clr_matrix(make_table(rows)), alpha=alpha, k=3)
        assert np.all(model.points[:, 0] != 0.0)
        assert np.all(model.points[:, 1:] == 0.0)

    def test_identical_compositions_degenerate(self):
        # rows proportional -> identical CLR rows -> zero centred matrix
        table = make_table([[1.0, 2.0, 4.0], [2.0, 4.0, 8.0], [4.0, 8.0, 16.0]])
        with pytest.raises(DegenerateVariance):
            fit_biplot(clr_matrix(table), k=1)


def assert_fit_matches_lapack_svd(clr):
    centered, _ = center_columns(clr)
    for alpha in (1.0, 0.5):
        model = fit_biplot(clr, alpha=alpha, k=2)
        s, points = lapack_biplot(centered, alpha, 2)
        assert np.max(np.abs(singular_spectrum(clr) - s)) <= 1e-12 * s[0]
        m = len(model.singular_values)  # min(n - 1, D - 1)
        assert np.max(np.abs(model.singular_values - s[:m])) <= 1e-12 * s[0]
        assert np.max(np.abs(model.points - points)) <= 1e-10 * np.max(np.abs(points))


class TestTsqrFit:
    """Every table is fitted through its TSQR factor R; LAPACK's SVD of Z is the oracle.

    Up to 1024 rows the factor is one QR, above that a blocked one.
    """

    @pytest.mark.parametrize(
        "n, seed", [(3, 1), (17, 1), (400, 7), (1024, 1), (1025, 11), (5000, 2), (20000, 5)]
    )
    def test_matches_lapack_svd(self, n, seed):
        assert_fit_matches_lapack_svd(clr_matrix(parse_table(perfbench_table_csv(n, 32, seed))))

    def test_wide_table_matches_lapack_svd(self, rng):
        # 600 parts make the blocks 2 D = 1200 rows: 2500 rows take two
        # blocked passes (2500 -> 1300 -> 700) before the last QR
        assert_fit_matches_lapack_svd(clr_matrix(random_table(rng, 2500, 600)))

    def test_full_rank_recovers_centred_matrix(self, rng):
        clr = clr_matrix(random_table(rng, 1500, 5))
        centered, _ = center_columns(clr)
        for alpha in (0.0, 0.5, 1.0):
            model = fit_biplot(clr, alpha=alpha, k=4)
            assert np.linalg.norm(reconstruct(model) - centered) <= 1e-8

    def test_rank2_ordering_is_exact_for_three_parts(self, rng):
        table = random_table(rng, 1100, 3)
        model = fit_biplot(clr_matrix(table), alpha=1.0, k=2)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            result = rank_along_link(model, make_link(model, i, j))
            assert result.ordering == brute_force_ranking(table.values, i, j, table.entity_ids)
            assert abs(result.fidelity - 1.0) <= 1e-9

    def test_model_json_independent_of_blas_threads(self, tmp_path):
        source = tmp_path / "table.csv"
        source.write_text(perfbench_table_csv(20000, 32, 5))
        src = str(Path(__file__).resolve().parents[1] / "src")
        documents = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "coda_atlas.cli", "biplot", str(source), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            documents.append((out / "model.json").read_bytes())
        assert documents[0] == documents[1]

    def test_cli_fits_a_wide_table_on_one_thread_unless_told(self, tmp_path):
        # at 300 parts model.json depends on the OpenBLAS thread count; an
        # earlier import of coda_atlas.cli in this process set the variable
        source = tmp_path / "table.csv"
        source.write_text(perfbench_table_csv(1000, 300, 1))
        src = str(Path(__file__).resolve().parents[1] / "src")
        documents = []
        for threads in (None, "1"):
            env = dict(os.environ, PYTHONPATH=src)
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "coda_atlas.cli", "biplot", str(source), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            documents.append((out / "model.json").read_bytes())
        assert documents[0] == documents[1]


class TestReconstruction:
    def test_full_rank_recovers_centred_matrix(self, rng):
        for alpha in (0.0, 0.5, 1.0):
            clr = clr_matrix(random_table(rng, 8, 5))
            centered, _ = center_columns(clr)
            m = min(clr.n - 1, clr.D - 1)
            model = fit_biplot(clr, alpha=alpha, k=m)
            err = np.linalg.norm(reconstruct(model) - centered)
            assert err < 1e-8

    def test_rank2_residual_equals_dropped_spectrum(self, rng):
        clr = clr_matrix(random_table(rng, 10, 7))
        centered, _ = center_columns(clr)
        model = fit_biplot(clr, alpha=1.0, k=2)
        residual = np.linalg.norm(centered - reconstruct(model))
        expected = math.sqrt(float((model.singular_values[2:] ** 2).sum()))
        assert residual == pytest.approx(expected, abs=1e-8)


class TestLinks:
    def test_direction_is_ray_difference(self):
        model = fit_biplot(fixture_clr(), k=2)
        link = make_link(model, 0, 3)
        assert np.all(link.direction == model.rays[0] - model.rays[3])
        assert not link.degenerate

    def test_same_part_rejected(self):
        model = fit_biplot(fixture_clr(), k=2)
        with pytest.raises(SamePart):
            make_link(model, 1, 1)

    def test_out_of_range_rejected(self):
        model = fit_biplot(fixture_clr(), k=2)
        with pytest.raises(IndexOutOfRange):
            make_link(model, 0, 4)

    def test_duplicate_columns_make_degenerate_link(self):
        # columns 0 and 1 identical: their rays coincide in every component
        # carrying variance, so the link between them collapses
        table = make_table(
            [
                [1.0, 1.0, 5.0, 2.0],
                [3.0, 3.0, 1.0, 9.0],
                [9.0, 9.0, 2.0, 4.0],
                [2.0, 2.0, 7.0, 3.0],
                [6.0, 6.0, 3.0, 8.0],
            ]
        )
        for alpha in (0.0, 0.5, 1.0):
            model = fit_biplot(clr_matrix(table), alpha=alpha, k=2)
            link = make_link(model, 0, 1)
            assert link.degenerate
            with pytest.raises(DegenerateLink):
                rank_along_link(model, link)


class TestRanking:
    def test_full_rank_matches_brute_force_everywhere(self, rng):
        table = random_table(rng, 9, 3)
        clr = clr_matrix(table)
        model = fit_biplot(clr, k=2)  # m = min(8, 2) = 2: full compositional rank
        for i in range(3):
            for j in range(i + 1, 3):
                result = rank_along_link(model, make_link(model, i, j))
                expected = brute_force_ranking(table.values, i, j, table.entity_ids)
                assert result.ordering == expected
                assert result.fidelity == pytest.approx(1.0, abs=1e-9)
                assert result.rank_agreement == pytest.approx(1.0, abs=1e-9)

    def test_scores_follow_projection_formula(self, rng):
        table = random_table(rng, 11, 6)
        clr = clr_matrix(table)
        model = fit_biplot(clr, alpha=1.0, k=2)
        link = make_link(model, 2, 4)
        result = rank_along_link(model, link)
        assert result.scores == pytest.approx(model.points @ link.direction)
        centered, _ = center_columns(clr)
        assert result.exact_log_ratios == pytest.approx(
            centered[:, 2] - centered[:, 4]
        )

    def test_alpha_invariance_of_orderings(self, rng):
        table = random_table(rng, 17, 8)
        clr = clr_matrix(table)
        orderings = []
        for alpha in (0.0, 0.5, 1.0):
            model = fit_biplot(clr, alpha=alpha, k=2)
            pairs = [(0, 1), (3, 0), (4, 0), (5, 0), (6, 7)]
            orderings.append(
                tuple(
                    rank_along_link(model, make_link(model, i, j)).ordering
                    for i, j in pairs
                )
            )
        assert orderings[0] == orderings[1] == orderings[2]

    @given(
        repeated_rows(20, 6, 20, st.one_of(powers_of_two, st.floats(-5.0, 5.0).map(math.exp))),
        st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_scores_are_alpha_invariant(self, rows, k):
        clr = clr_matrix(make_table(rows))
        k = min(k, clr.n - 1, clr.D - 1)
        try:
            models = [fit_biplot(clr, alpha=alpha, k=k) for alpha in (1.0, 0.5, 0.0)]
        except DegenerateVariance:
            return  # one composition: nothing to fit
        for i, j in combinations(range(clr.D), 2):
            links = [make_link(model, i, j) for model in models]
            if any(link.degenerate for link in links):
                continue
            base, *others = (rank_along_link(*pair).scores for pair in zip(models, links))
            tol = 1e-12 * max(1.0, float(np.max(np.abs(base))))
            apart = base[:, None] - base[None, :] > tol
            for scores in others:
                assert np.max(np.abs(scores - base)) <= tol
                assert np.all((scores[:, None] > scores[None, :])[apart])

    @given(row_scaled_tables(), st.sampled_from(["single", "complete"]))
    @settings(max_examples=100, deadline=None)
    def test_row_scaling_keeps_clr_rankings_and_merges(self, drawn, linkage):
        rows, factors = drawn
        values = np.array(rows)
        base, scaled = (
            clr_matrix(make_table(v)) for v in (values, values * np.array(factors)[:, None])
        )
        assert np.max(np.abs(scaled.values - base.values)) <= ROW_SCALE_TOL

        try:
            models = [fit_biplot(clr) for clr in (base, scaled)]
        except DegenerateVariance:
            models = None  # one composition: nothing to fit
        s = np.linalg.svd(base.values - base.values.mean(axis=0), compute_uv=False)
        if models and s[1] - s[2] > 1e-2 * s[0]:  # else the rank-2 plane is not defined
            for i, j in combinations(range(base.D), 2):
                links = [make_link(model, i, j) for model in models]
                if any(link.degenerate for link in links):
                    continue
                first, second = (rank_along_link(*pair) for pair in zip(models, links))
                apart = first.scores[:, None] - first.scores[None, :] > ROW_SCALE_TOL
                position = np.argsort(second.rows)  # of each table row in second.ordering
                assert np.all((position[:, None] < position[None, :])[apart])

        # every distance between clusters of single and complete linkage is
        # one distance between rows, so rows whose distances are all apart
        # decide every comparison of the merge
        d = cluster._block_distances(base.values)
        between_rows = np.sort(d[np.triu_indices(base.n, 1)])
        if np.all(np.diff(between_rows) > ROW_SCALE_TOL):
            first, second = (
                cluster._cluster_clr(clr, linkage, None, None).merge_history
                for clr in (base, scaled)
            )
            assert np.all(np.diff([h[2] for h in first]) > ROW_SCALE_TOL)
            assert [h[:2] for h in second] == [h[:2] for h in first]

    def test_ties_break_by_entity_id(self):
        # "zz" and "aa" are one composition, but the fit scores them a few ulps
        # apart; copying the point of "zz" onto "aa" makes the tie exact. The
        # fitted rows are in id order, so they are reversed: "aa" must lead
        # although its row comes after the row of "zz"
        table = make_table(
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [9.0, 1.0, 1.0], [1.0, 9.0, 4.0]],
            ids=["zz", "aa", "mm", "bb"],
        )
        model = fit_biplot(clr_matrix(table), k=2)
        points = model.points[::-1].copy()
        ids = model.entity_ids[::-1]
        row = {entity: r for r, entity in enumerate(ids)}
        assert row["zz"] < row["aa"]
        points[row["aa"]] = points[row["zz"]]
        model = dataclasses.replace(model, points=points, entity_ids=ids)
        result = rank_along_link(model, make_link(model, 0, 1))
        assert result.scores[row["aa"]] == result.scores[row["zz"]]
        pos_aa, pos_zz = result.ordering.index("aa"), result.ordering.index("zz")
        assert abs(pos_aa - pos_zz) == 1
        assert pos_aa < pos_zz

    @given(
        st.lists(st.floats(-2.0, 2.0).map(lambda v: round(v, 1)), min_size=3, max_size=40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_ordering_equals_python_sort_on_tied_scores(self, scores, random):
        # scores rounded to one decimal tie often (0.0 and -0.0 included);
        # ids "g1".."gN" shuffled, so "g10" < "g9" as strings
        n = len(scores)
        ids = [f"g{r + 1}" for r in range(n)]
        random.shuffle(ids)
        model = fit_biplot(clr_matrix(make_table(np.arange(1.0, 3 * n + 1).reshape(n, 3))))
        points = np.column_stack([scores, np.zeros(n)])
        model = dataclasses.replace(model, points=points, entity_ids=tuple(ids))
        link = Link(part_i=0, part_j=1, direction=np.array([1.0, 0.0]), degenerate=False)
        expected = sorted(range(n), key=lambda r: (-scores[r], ids[r]))
        assert rank_along_link(model, link).ordering == tuple(ids[r] for r in expected)

    @staticmethod
    def fixture_rankings():
        table = synthetic_table()
        model = fit_biplot(clr_matrix(table), k=2)
        ratios = resolvable_ratios(table, default_ratio_catalog())
        links = (make_link(model, *ratio.resolve(table)) for ratio in ratios)
        return [rank_along_link(model, link) for link in links if not link.degenerate]

    def test_ranking_csv_computes_no_quality_number(self, monkeypatch):
        def fail(*args):
            raise AssertionError("computed")

        monkeypatch.setattr(np, "corrcoef", fail)
        monkeypatch.setattr(biplot, "_kendall_tau_b", fail)
        rankings = self.fixture_rankings()
        assert len(rankings) == 5
        for result in rankings:
            assert ranking_csv(result).count("\n") == 18

    def test_quality_numbers_are_computed_when_read(self):
        for result in self.fixture_rankings():
            scores, exact = result.scores, result.exact_log_ratios
            assert result.fidelity == float(np.corrcoef(scores, exact)[0, 1])
            # scipy's statistic bit for bit; the pairwise oracle's sum differs
            # from it in the last bit on four of the five links
            assert result.rank_agreement == float(scipy.stats.kendalltau(scores, exact).statistic)
            oracle = pairwise_kendall_tau_b(scores.tolist(), exact.tolist())
            assert abs(result.rank_agreement - oracle) <= 1e-12
        # a flat series: 1 when both are flat, 0 when one is
        flat, slope = np.full(4, 0.5), np.arange(4.0)
        for scores, exact, expected in ((flat, flat, 1.0), (flat, slope, 0.0), (slope, flat, 0.0)):
            result = RankingResult(link=None, rows=np.arange(4), scores=scores,
                                   exact_log_ratios=exact, entity_ids=("a", "b", "c", "d"))
            assert (result.fidelity, result.rank_agreement) == (expected, expected)

    def test_fidelity_below_one_when_rank_truncates(self, rng):
        # with D=8 and n=17 rank 2 < m: projections are approximations
        table = random_table(rng, 17, 8)
        model = fit_biplot(clr_matrix(table), k=2)
        result = rank_along_link(model, make_link(model, 0, 1))
        assert -1.0 <= result.fidelity <= 1.0
        assert -1.0 <= result.rank_agreement <= 1.0


def _tau_columns(min_n, max_n, values):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(st.lists(values, min_size=n, max_size=n),
                            st.lists(values, min_size=n, max_size=n))
    )


#: integer grids (heavy ties), constant runs, and floats mixed with tied values
_TAU_VALUES = st.one_of(
    st.integers(0, 3).map(float),
    st.integers(-1, 1).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def _tau_samples(max_n):
    return st.one_of(
        _tau_columns(2, 2, _TAU_VALUES),
        _tau_columns(2, max_n, st.integers(0, 2).map(float)),
        _tau_columns(2, max_n, _TAU_VALUES),
        st.integers(2, max_n).flatmap(
            lambda n: st.tuples(st.just([1.5] * n), st.lists(_TAU_VALUES, min_size=n, max_size=n))
        ),
    )


def _same_statistic(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestKendallTauB:
    @given(_tau_samples(60))
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_scipy(self, sample):
        x, y = (np.array(column) for column in sample)
        for a, b in ((x, y), (y, x)):
            expected = float(scipy.stats.kendalltau(a, b).statistic)
            assert _same_statistic(_kendall_tau_b(a, b), expected)

    @given(_tau_samples(200))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_pairwise_oracle(self, sample):
        x, y = sample
        tau, oracle = _kendall_tau_b(np.array(x), np.array(y)), pairwise_kendall_tau_b(x, y)
        assert (math.isnan(tau) and math.isnan(oracle)) or abs(tau - oracle) <= 1e-12

    def test_large_sample_is_bit_identical_to_scipy(self):
        rng = np.random.default_rng(20000)
        x = rng.normal(size=20_000)
        y = np.round(x + rng.normal(size=20_000), 2)  # ties in y only
        assert _kendall_tau_b(x, y) == float(scipy.stats.kendalltau(x, y).statistic)


class TestModelJson:
    def test_document_structure(self):
        model = fit_biplot(fixture_clr(), k=2)
        doc = json.loads(model_to_json(model))
        assert doc["alpha"] == 1.0
        assert doc["k"] == 2
        assert len(doc["points"]) == 4
        assert len(doc["rays"]) == 4
        assert [p["id"] for p in doc["points"]] == ["e00", "e01", "e02", "e03"]
        assert len(doc["points"][0]["coords"]) == 2
        assert len(doc["singular_values"]) == 3

    def test_ranking_csv_format(self, rng):
        table = random_table(rng, 5, 3)
        model = fit_biplot(clr_matrix(table), k=2)
        result = rank_along_link(model, make_link(model, 0, 2, label="r"))
        lines = ranking_csv(result).strip().split("\n")
        assert lines[0] == "entity_id,score,exact_log_ratio,rank"
        assert len(lines) == 6
        ranks = [int(line.split(",")[3]) for line in lines[1:]]
        assert ranks == [1, 2, 3, 4, 5]
        ids = [line.split(",")[0] for line in lines[1:]]
        assert tuple(ids) == result.ordering
