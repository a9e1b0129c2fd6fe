"""Aitchison-distance clustering: merging, cuts, tie-breaks, profiles."""

import io
import itertools
import json
import math
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coda_atlas import (
    DistanceMatrix,
    RatioDefinition,
    clr_matrix,
    cluster_profile,
    distance_matrix,
    hierarchical_cluster,
    parse_table,
)
from coda_atlas._fmt import dumps_json
from coda_atlas.cli import main
from coda_atlas import cluster
from coda_atlas.cluster import (
    _DISTANCE_BLOCK_ROWS,
    LINKAGES,
    ClusterAssignment,
    _available_memory,
    _block_distances,
    assignment_csv,
    merge_history_json,
    profiles_json,
)
from coda_atlas.ingest import DEFAULT_PART_SCHEMA
from coda_atlas.errors import (
    DimensionMismatch,
    DuplicateEntityId,
    InfeasibleCut,
    InsufficientMemory,
    InvalidOptions,
    MismatchedEntities,
    TooFewRows,
)

from conftest import make_table, random_table
from oracles import (
    full_tensor_distances,
    lance_williams_merges,
    per_cell_dumps_json,
    per_cluster_profile,
    per_cluster_profiles_json,
)

#: two tight triples far apart in Aitchison geometry (inter/intra >= 10)
TWO_TRIPLE_ROWS = [
    [1.0, 1.0, 1.0],
    [1.1, 1.0, 1.0],
    [1.0, 1.1, 1.0],
    [100.0, 1.0, 1.0],
    [110.0, 1.0, 1.0],
    [100.0, 1.1, 1.0],
]
TRIPLE_IDS = ["a1", "a2", "a3", "b1", "b2", "b3"]


def two_triple_table():
    return make_table(TWO_TRIPLE_ROWS, ids=TRIPLE_IDS)


def euclidean_metric(rng, n, dim=3):
    """Random points -> guaranteed-metric distance matrix."""
    pts = rng.normal(size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    ids = tuple(f"p{k:02d}" for k in range(n))
    return DistanceMatrix(ids=ids, values=d)


def integer_grid_metric(rng, n, far=None):
    """Distances between integer grid points, ids shuffled against row order.

    Few distinct distances and duplicate points make exact ties everywhere;
    with far set, distances above it become inf.
    """
    pts = rng.integers(0, 4, size=(n, 2)).astype(float)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    if far is not None:
        d[d > far] = np.inf
    ids = tuple(f"q{k:02d}" for k in rng.permutation(n))
    return DistanceMatrix(ids=ids, values=d)


def table_text(values, ids) -> str:
    """CSV of a positive table; parts are the default layout's, then u1, u2, ..."""
    names = list(DEFAULT_PART_SCHEMA)[: values.shape[1]]
    names += [f"u{k}" for k in range(1, values.shape[1] - len(names) + 1)]
    lines = ["id,label,sector_code," + ",".join(names)]
    for eid, row in zip(ids, values.tolist()):
        lines.append(f"{eid},Entity {eid},101X," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def descending_ids(n):
    """Unique ids whose sorted order is the reverse of the row order."""
    return [f"k{n - r:04d}" for r in range(n)]


def cli_run(text: str, *argv: str) -> tuple[int, str, dict[str, str]]:
    """Exit code, stderr and files of ``coda-atlas <argv> table.csv`` on this table."""
    with tempfile.TemporaryDirectory() as work:
        table = Path(work, "table.csv")
        table.write_text(text)
        out = Path(work, "out")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([argv[0], str(table), *argv[1:], "-o", str(out)])
        files = {path.name: path.read_text() for path in out.glob("*")}
        return code, err.getvalue(), files


def cli_outputs(text: str, *argv: str) -> dict[str, str]:
    """The files ``coda-atlas <argv> table.csv`` writes for this table."""
    code, err, files = cli_run(text, *argv)
    assert code == 0, err
    return files


def brute_force_merges(dist: DistanceMatrix, linkage: str):
    """Reference agglomeration recomputing every cluster distance from scratch."""
    index = {eid: k for k, eid in enumerate(dist.ids)}
    clusters = {eid: frozenset([eid]) for eid in dist.ids}

    def linkage_distance(ca, cb):
        cross = [
            dist.values[index[x], index[y]] for x in clusters[ca] for y in clusters[cb]
        ]
        if linkage == "single":
            return min(cross)
        if linkage == "complete":
            return max(cross)
        return sum(cross) / len(cross)

    history = []
    while len(clusters) > 1:
        best = None
        for ca, cb in itertools.combinations(sorted(clusters), 2):
            cand = (linkage_distance(ca, cb), ca, cb)
            if best is None or cand < best:
                best = cand
        d, ca, cb = best
        history.append((ca, cb, d))
        clusters[ca] = clusters[ca] | clusters.pop(cb)
    return history


#: cluster sizes in each of numpy's summation regimes: one value, the
#: sequential sum (2..7), the unrolled pairwise sum (8..128) and the
#: recursive pairwise sum (above 128)
CLUSTER_SIZES = st.one_of(
    st.just(1), st.integers(2, 7), st.integers(8, 128), st.integers(129, 300)
)


class TestDistanceMatrix:
    def test_duplicate_rows_have_exact_zero_distance(self):
        table = make_table([[2.0, 3.0, 4.0], [2.0, 3.0, 4.0], [9.0, 1.0, 1.0]])
        d = distance_matrix(clr_matrix(table))
        assert d.values[0, 1] == 0.0

    def test_two_part_swap_distance(self):
        table = make_table([[1.0, 4.0], [4.0, 1.0]])
        d = distance_matrix(clr_matrix(table))
        expected = 2.0 * math.sqrt(2.0) * math.log(2.0)
        assert d.values[0, 1] == pytest.approx(expected, rel=1e-13)

    def test_row_scaling_leaves_matrix_unchanged(self, rng):
        table = random_table(rng, 6, 4)
        scaled = make_table(table.values * np.array([[10.0], [1.0], [0.5], [3.0], [1e4], [1.0]]))
        a = distance_matrix(clr_matrix(table)).values
        b = distance_matrix(clr_matrix(scaled)).values
        assert np.max(np.abs(a - b)) < 1e-12

    def test_shape_and_symmetry(self, rng):
        d = distance_matrix(clr_matrix(random_table(rng, 7, 3)))
        assert np.all(d.values == d.values.T)
        assert np.all(np.diag(d.values) == 0.0)
        assert np.all(d.values >= 0.0)

    def test_triangle_inequality_sampled(self, rng):
        d = distance_matrix(clr_matrix(random_table(rng, 9, 5))).values
        n = d.shape[0]
        for a, b, c in itertools.combinations(range(n), 3):
            assert d[a, c] <= d[a, b] + d[b, c] + 1e-9

    # below, at and past one block, and tables of many blocks whose last
    # block is short (63), full (64) or a single row (65, 129)
    @pytest.mark.parametrize(
        "n",
        [_DISTANCE_BLOCK_ROWS - 1, _DISTANCE_BLOCK_ROWS, _DISTANCE_BLOCK_ROWS + 1,
         2 * _DISTANCE_BLOCK_ROWS + 1, 63, 64, 65, 129],
    )
    def test_row_blocks_equal_full_tensor(self, rng, n):
        for D in (3, 8, 32):
            clr = clr_matrix(random_table(rng, n, D))
            got = distance_matrix(clr).values
            assert np.array_equal(got, full_tensor_distances(clr.values))

    # D in numpy's sequential (< 8), unrolled (8..128) and recursive (> 128)
    # summation regimes; n below, at and past one row block, and 8k + 3
    @pytest.mark.parametrize("n", [2, 7, 8, 9, 16 * _DISTANCE_BLOCK_ROWS + 3])
    def test_upper_triangle_equals_full_tensor(self, rng, n):
        upper = np.triu(np.ones((n, n), dtype=bool))
        for D in (2, 7, 8, 9, 32, 128, 129, 130):
            c = clr_matrix(random_table(rng, n, D)).values
            assert np.array_equal(_block_distances(c)[upper], full_tensor_distances(c)[upper])

    # one symmetry tile, exactly one, and several with a partial last one
    @pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
    def test_mirrored_matrix_equals_its_transpose(self, rng, n):
        d = distance_matrix(clr_matrix(random_table(rng, n, 5))).values
        assert np.array_equal(d, d.T)

    def test_needs_two_rows(self):
        with pytest.raises(TooFewRows):
            distance_matrix(clr_matrix(make_table([[1.0, 2.0]])))

    def test_invalid_matrices_rejected(self):
        good = np.array([[0.0, 1.0], [1.0, 0.0]])
        DistanceMatrix(ids=("a", "b"), values=good)
        with pytest.raises(DimensionMismatch):
            DistanceMatrix(ids=("a", "b"), values=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            DistanceMatrix(ids=("a", "b"), values=np.array([[0.5, 1.0], [1.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            DistanceMatrix(ids=("a",), values=good)

    @pytest.mark.parametrize(
        "cut", [{}, {"n_clusters": 2}, {"threshold": 1.0}], ids=["gap", "count", "threshold"]
    )
    def test_duplicate_ids_rejected(self, cut):
        values = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
        with pytest.raises(DuplicateEntityId, match="^a$"):
            hierarchical_cluster(DistanceMatrix(ids=("a", "a", "b"), values=values), **cut)

    @pytest.mark.parametrize(
        "row", [_DISTANCE_BLOCK_ROWS, 2 * _DISTANCE_BLOCK_ROWS + 3, 64, 131]
    )
    def test_defects_past_the_first_row_block_rejected(self, rng, row):
        # both (row, col) and (col, row) lie outside the first row block
        n, col = 133, _DISTANCE_BLOCK_ROWS + 1
        ids = tuple(f"e{k:03d}" for k in range(n))
        good = distance_matrix(clr_matrix(random_table(rng, n, 4))).values
        asymmetric = good.copy()
        asymmetric[row, col] += 1e-9
        with pytest.raises(DimensionMismatch, match="not symmetric"):
            DistanceMatrix(ids=ids, values=asymmetric)
        negative = good.copy()
        negative[row, col] = negative[col, row] = -1.0
        with pytest.raises(DimensionMismatch, match="negative"):
            DistanceMatrix(ids=ids, values=negative)
        within_tolerance = good.copy()
        within_tolerance[row, col] += 5e-13
        infinite = good.copy()
        infinite[row, col] = infinite[col, row] = np.inf
        DistanceMatrix(ids=ids, values=within_tolerance)
        DistanceMatrix(ids=ids, values=infinite)

    @pytest.mark.parametrize(
        "row, col", [(0, 1), (1, 0), (5, 200), (200, 5), (140, 299), (299, 298)]
    )
    def test_one_entry_off_by_twice_the_tolerance_rejected(self, rng, row, col):
        n = 300  # tiles of 128: diagonal, off-diagonal and partial tiles
        ids = tuple(f"e{k:03d}" for k in range(n))
        values = distance_matrix(clr_matrix(random_table(rng, n, 4))).values
        asymmetric = values.copy()
        asymmetric[row, col] += 2e-12
        with pytest.raises(DimensionMismatch, match="not symmetric"):
            DistanceMatrix(ids=ids, values=asymmetric)
        one_nan = values.copy()
        one_nan[row, col] = np.nan
        with pytest.raises(DimensionMismatch, match="not symmetric"):
            DistanceMatrix(ids=ids, values=one_nan)
        mirrored_nan = one_nan.copy()
        mirrored_nan[col, row] = np.nan
        with pytest.raises(DimensionMismatch, match="not symmetric"):
            DistanceMatrix(ids=ids, values=mirrored_nan)

    def test_validation_temporaries_are_row_blocks(self, rng):
        n = 600
        values = distance_matrix(clr_matrix(random_table(rng, n, 4))).values
        tracemalloc.start()
        try:
            DistanceMatrix(ids=tuple(f"e{k:03d}" for k in range(n)), values=values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a whole-matrix check builds several n x n temporaries (2.9 MB each)
        assert peak < 16 * _DISTANCE_BLOCK_ROWS * n * 8


class TestOwnedMatrixPath:
    """The CLI computes distances straight into the merge's working matrix."""

    @pytest.mark.parametrize("n", [5, 3 * _DISTANCE_BLOCK_ROWS + 3])
    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_cli_files_equal_the_public_path(self, rng, n, linkage):
        text = table_text(np.exp(rng.normal(size=(n, 9))), descending_ids(n))
        table = parse_table(text)
        dist = distance_matrix(clr_matrix(table))
        middle = hierarchical_cluster(dist, linkage=linkage).merge_history[n // 2][2]
        cuts = [
            ([], {}),
            (["--clusters", "3"], {"n_clusters": 3}),
            (["--threshold", repr(middle)], {"threshold": middle}),
        ]
        for flags, cut in cuts:
            assignment = hierarchical_cluster(dist, linkage=linkage, **cut)
            profiles = cluster_profile(table, assignment)
            expected = {
                "clusters.csv": str(assignment_csv(assignment)),
                "merges.json": str(dumps_json(merge_history_json(assignment))),
                "cluster_profiles.json": str(dumps_json(profiles_json(profiles, table.part_names))),
            }
            assert cli_outputs(text, "cluster", "--linkage", linkage, *flags) == expected

    @pytest.mark.parametrize("flags", [[], ["--clusters", "5"], ["--threshold", "-1"]])
    def test_one_row_is_too_few_rows_before_any_cut_error(self, tmp_path, capsys, flags):
        path = tmp_path / "one.csv"
        path.write_text(table_text(np.array([[1.0, 2.0, 3.0]]), ["k0"]))
        assert main(["cluster", str(path), *flags, "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "TooFewRows:distance matrix needs n >= 2, got 1\n"

    def test_cli_cluster_holds_one_n_by_n_matrix(self, rng, tmp_path, capsys):
        n = 2000
        path = tmp_path / "table.csv"
        path.write_text(table_text(np.exp(rng.normal(size=(n, 32))), descending_ids(n)))
        tracemalloc.start()
        try:
            assert main(["cluster", str(path), "-o", str(tmp_path / "out")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        # a DistanceMatrix next to the merge's sorted copy is already 2 n^2 * 8
        assert peak <= 1.3 * n * n * 8

    @given(
        st.integers(3, 40), st.integers(2, 10), st.integers(0, 2**32 - 1),
        st.booleans(), st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_reordering_rows_changes_no_file(self, n, D, seed, ties, data):
        rng = np.random.default_rng(seed)
        values = np.exp(rng.normal(size=(n, D)))
        if ties:
            values[1:3] = values[0]
        ids = descending_ids(n)
        perm = data.draw(st.permutations(range(n)))
        texts = [table_text(values, ids), table_text(values[perm], [ids[p] for p in perm])]
        pipeline = [cli_run(text, "pipeline") for text in texts]
        assert pipeline[0] == pipeline[1]
        # only a table the rank-2 fit rejects fails: D = 2, or every row tied
        assert (pipeline[0][0] == 0) == (D > 2 and not (ties and n == 3)), pipeline[0][1]
        for linkage in LINKAGES:
            cluster = [cli_outputs(text, "cluster", "--linkage", linkage) for text in texts]
            assert cluster[0] == cluster[1]


class TestHierarchicalCluster:
    def test_two_triples_recovered_under_all_linkages(self):
        table = two_triple_table()
        dist = distance_matrix(clr_matrix(table))
        # fixture sanity: separation ratio at least 10
        intra = max(
            dist.values[i, j]
            for block in ([0, 1, 2], [3, 4, 5])
            for i in block
            for j in block
        )
        inter = min(dist.values[i, j] for i in (0, 1, 2) for j in (3, 4, 5))
        assert inter / intra >= 10.0
        for linkage in ("single", "complete", "average"):
            got = hierarchical_cluster(dist, linkage=linkage, n_clusters=2)
            assert got.members() == {1: ("a1", "a2", "a3"), 2: ("b1", "b2", "b3")}

    def test_count_extremes(self):
        dist = distance_matrix(clr_matrix(two_triple_table()))
        singletons = hierarchical_cluster(dist, n_clusters=6)
        assert singletons.n_clusters == 6
        one = hierarchical_cluster(dist, n_clusters=1)
        assert set(one.labels.values()) == {1}

    def test_gap_cut_finds_the_two_groups(self):
        dist = distance_matrix(clr_matrix(two_triple_table()))
        got = hierarchical_cluster(dist, linkage="complete")
        assert got.cut["mode"] == "gap"
        assert got.n_clusters == 2
        assert got.members()[1] == ("a1", "a2", "a3")

    def test_threshold_cut_is_prefix_of_merges(self):
        dist = distance_matrix(clr_matrix(two_triple_table()))
        full = hierarchical_cluster(dist, n_clusters=1)
        mid = full.merge_history[2][2]
        got = hierarchical_cluster(dist, threshold=mid)
        below = sum(1 for h in full.merge_history if h[2] <= mid)
        assert got.n_clusters == 6 - below

    def test_merge_history_nondecreasing_all_linkages(self, rng):
        for _ in range(25):
            dist = euclidean_metric(rng, int(rng.integers(4, 12)))
            for linkage in ("single", "complete", "average"):
                history = hierarchical_cluster(dist, linkage=linkage).merge_history
                ds = [h[2] for h in history]
                assert all(x <= y + 1e-12 for x, y in zip(ds, ds[1:]))

    def test_matches_brute_force_reference(self, rng):
        for _ in range(10):
            dist = euclidean_metric(rng, int(rng.integers(4, 9)))
            for linkage in ("single", "complete", "average"):
                got = hierarchical_cluster(dist, linkage=linkage).merge_history
                expected = brute_force_merges(dist, linkage)
                assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expected]
                for (_, _, dg), (_, _, de) in zip(got, expected):
                    assert dg == pytest.approx(de, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_tie_free_metrics_match_oracle_exactly(self, rng, linkage):
        for n in (2, 3, 5, 17, 60):
            dist = euclidean_metric(rng, n)
            got = hierarchical_cluster(dist, linkage=linkage).merge_history
            assert got == tuple(lance_williams_merges(dist, linkage))

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_tie_heavy_grids_match_oracle_exactly(self, rng, linkage):
        for _ in range(150):
            dist = integer_grid_metric(rng, int(rng.integers(2, 30)))
            got = hierarchical_cluster(dist, linkage=linkage).merge_history
            assert got == tuple(lance_williams_merges(dist, linkage))

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_infinite_distances_match_oracle_exactly(self, rng, linkage):
        for _ in range(40):
            dist = integer_grid_metric(rng, int(rng.integers(2, 20)), far=1.5)
            got = hierarchical_cluster(dist, linkage=linkage).merge_history
            assert got == tuple(lance_williams_merges(dist, linkage))

    def test_equidistant_tie_break_is_lexicographic(self):
        values = np.ones((4, 4)) - np.eye(4)
        dist = DistanceMatrix(ids=("w", "x", "y", "z"), values=values)
        history = hierarchical_cluster(dist, linkage="complete").merge_history
        assert [(a, b) for a, b, _ in history] == [("w", "x"), ("w", "y"), ("w", "z")]

    def test_entity_order_invariance(self, rng):
        table = random_table(rng, 8, 4)
        perm = rng.permutation(8)
        shuffled = make_table(
            table.values[perm],
            ids=[table.entity_ids[p] for p in perm],
        )
        a = hierarchical_cluster(distance_matrix(clr_matrix(table)), n_clusters=3)
        b = hierarchical_cluster(distance_matrix(clr_matrix(shuffled)), n_clusters=3)
        assert a.labels == b.labels
        assert a.merge_history == b.merge_history

    def test_infeasible_cuts(self):
        dist = distance_matrix(clr_matrix(two_triple_table()))
        with pytest.raises(InfeasibleCut):
            hierarchical_cluster(dist, n_clusters=0)
        with pytest.raises(InfeasibleCut):
            hierarchical_cluster(dist, n_clusters=7)
        with pytest.raises(InfeasibleCut):
            hierarchical_cluster(dist, n_clusters=2, threshold=1.0)
        with pytest.raises(InfeasibleCut):
            hierarchical_cluster(dist, threshold=-0.5)
        with pytest.raises(InvalidOptions):
            hierarchical_cluster(dist, linkage="ward")

    @pytest.mark.parametrize("count", [2.5, 2.0, True, np.bool_(True), "2"])
    def test_cluster_count_must_be_an_integer(self, count):
        dist = distance_matrix(clr_matrix(two_triple_table()))
        with pytest.raises(InvalidOptions, match="cluster count must be an integer"):
            hierarchical_cluster(dist, n_clusters=count)
        assert hierarchical_cluster(dist, n_clusters=np.int64(2)).n_clusters == 2

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -0.5])
    def test_threshold_must_be_finite_and_non_negative(self, threshold):
        dist = distance_matrix(clr_matrix(two_triple_table()))
        with pytest.raises(InfeasibleCut, match="finite and non-negative"):
            hierarchical_cluster(dist, threshold=threshold)

    def test_labels_numbered_by_smallest_member_id(self):
        dist = distance_matrix(clr_matrix(two_triple_table()))
        got = hierarchical_cluster(dist, n_clusters=2)
        assert got.labels["a1"] == 1
        assert got.labels["b1"] == 2


class TestClusterProfile:
    def test_single_cluster_mean_is_zero(self, rng):
        table = random_table(rng, 6, 4)
        assignment = hierarchical_cluster(
            distance_matrix(clr_matrix(table)), n_clusters=1
        )
        (profile,) = cluster_profile(table, assignment, ratios=[])
        assert np.max(np.abs(profile.mean_clr)) < 1e-10
        assert profile.origin_distance < 1e-10

    def test_singleton_profiles_are_centred_rows(self, rng):
        table = random_table(rng, 5, 3)
        clr = clr_matrix(table)
        centered = clr.values - clr.values.mean(axis=0)
        assignment = hierarchical_cluster(distance_matrix(clr), n_clusters=5)
        profiles = cluster_profile(table, assignment, ratios=[])
        for profile in profiles:
            (eid,) = profile.member_ids
            row = table.entity_ids.index(eid)
            assert profile.mean_clr == pytest.approx(centered[row], rel=1e-12)

    def test_mirrored_clusters_have_opposite_profiles(self):
        table = make_table(
            [[1.0, 4.0], [1.0, 4.0], [4.0, 1.0], [4.0, 1.0]],
            ids=["a1", "a2", "b1", "b2"],
        )
        assignment = hierarchical_cluster(
            distance_matrix(clr_matrix(table)), n_clusters=2
        )
        p1, p2 = cluster_profile(table, assignment, ratios=[])
        assert p1.mean_clr == pytest.approx(-p2.mean_clr, rel=1e-12)
        assert p1.origin_distance == pytest.approx(p2.origin_distance, rel=1e-12)

    def test_size_weighted_mean_recovers_zero(self, rng):
        table = random_table(rng, 9, 5)
        assignment = hierarchical_cluster(
            distance_matrix(clr_matrix(table)), n_clusters=3
        )
        profiles = cluster_profile(table, assignment, ratios=[])
        total = sum(len(p.member_ids) * p.mean_clr for p in profiles)
        assert np.max(np.abs(total / table.n)) < 1e-10

    def test_ratio_means_are_centred_log_ratios(self, rng):
        table = random_table(rng, 6, 3)
        clr = clr_matrix(table)
        centered = clr.values - clr.values.mean(axis=0)
        assignment = hierarchical_cluster(distance_matrix(clr), n_clusters=2)
        ratio = RatioDefinition("r01", "part_0", "part_1")
        profiles = cluster_profile(table, assignment, ratios=[ratio])
        for profile in profiles:
            rows = [table.entity_ids.index(e) for e in profile.member_ids]
            expected = float(np.mean(centered[rows, 0] - centered[rows, 1]))
            assert profile.ratio_means["r01"] == pytest.approx(expected, rel=1e-12)

    def test_entity_mismatch_rejected(self, rng):
        table = random_table(rng, 5, 3)
        other = random_table(rng, 4, 3)
        assignment = hierarchical_cluster(
            distance_matrix(clr_matrix(other)), n_clusters=2
        )
        with pytest.raises(MismatchedEntities):
            cluster_profile(table, assignment)

    @given(
        st.lists(CLUSTER_SIZES, min_size=1, max_size=6), st.integers(2, 12),
        st.sampled_from(["empty", "catalog", "drawn"]), st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_cluster_loop(self, sizes, D, ratio_mode, ties, seed):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        values = np.exp(rng.normal(size=(n, D)))
        if ties:
            values[rng.random(n) < 0.5] = values[0]
        names = list(DEFAULT_PART_SCHEMA)[:D] + [f"u{k}" for k in range(1, D - 7)]
        ids = [f"k{r:04d}" for r in rng.permutation(n)]
        table = make_table(values, ids=ids, part_names=names)
        cuts = np.cumsum(sizes)[:-1]
        clusters = sorted(sorted(g) for g in np.split(rng.permutation(ids), cuts))
        labels = {eid: label for label, g in enumerate(clusters, start=1) for eid in g}
        assignment = ClusterAssignment(labels, "complete", {}, ())
        ratios = {
            "empty": [],
            "catalog": None,
            "drawn": [
                RatioDefinition(f"r{k}", *rng.choice(names, size=2, replace=False))
                for k in range(int(rng.integers(1, 5)))
            ],
        }[ratio_mode]
        got = cluster_profile(table, assignment, ratios)
        expected = per_cluster_profile(table, assignment, ratios)
        assert len(got) == len(expected) == len(sizes)
        for g, e in zip(got, expected):
            assert (g.label, g.member_ids) == (e.label, e.member_ids)
            assert np.array_equal(g.mean_clr, e.mean_clr)
            assert g.origin_distance == e.origin_distance
            assert g.ratio_means == e.ratio_means
        doc = per_cluster_profiles_json(expected, names)
        assert str(dumps_json(profiles_json(got, names))) == per_cell_dumps_json(doc)


class TestReportRenderers:
    def test_assignment_csv_sorted_by_id(self):
        dist = distance_matrix(clr_matrix(two_triple_table()))
        got = hierarchical_cluster(dist, n_clusters=2)
        lines = str(assignment_csv(got)).strip().split("\n")
        assert lines[0] == "entity_id,cluster_label"
        assert lines[1:] == ["a1,1", "a2,1", "a3,1", "b1,2", "b2,2", "b3,2"]

    def test_merge_history_json_shape(self):
        dist = distance_matrix(clr_matrix(two_triple_table()))
        got = hierarchical_cluster(dist, n_clusters=2)
        doc = merge_history_json(got)
        assert doc["linkage"] == "complete"
        assert doc["cut"] == {"mode": "count", "value": 2}
        assert len(doc["merges"]) == 5
        assert set(doc["merges"][0]) == {"cluster_a", "cluster_b", "distance"}

    def test_profiles_json_shape(self, rng):
        table = random_table(rng, 5, 3)
        assignment = hierarchical_cluster(
            distance_matrix(clr_matrix(table)), n_clusters=2
        )
        profiles = cluster_profile(
            table, assignment, ratios=[RatioDefinition("r", "part_0", "part_2")]
        )
        doc = json.loads(str(dumps_json(profiles_json(profiles, table.part_names))))
        assert [c["label"] for c in doc["clusters"]] == [1, 2]
        assert set(doc["clusters"][0]["mean_clr"]) == set(table.part_names)
        assert "r" in doc["clusters"][0]["ratio_means"]


class TestMemoryCheck:
    """The n x n matrix is compared with the memory available before it is made."""

    @staticmethod
    def serve(monkeypatch, files):
        """Make cluster's ``open`` read ``files`` (path -> text); other paths are missing."""

        def fake_open(path, mode="r"):
            if path not in files:
                raise FileNotFoundError(2, "No such file or directory", path)
            text = files[path]
            return io.BytesIO(text.encode()) if "b" in mode else io.StringIO(text)

        monkeypatch.setattr(cluster, "open", fake_open, raising=False)

    MEMINFO = "MemTotal:       8000000 kB\nMemAvailable:    7434604 kB\nCached: 1 kB\n"

    @pytest.mark.parametrize(
        "cgroup, limit, used, expected",
        [
            # cgroup v1 only: no "0::" line, MemAvailable decides
            ("4:memory:/a\n1:cpu:/\n", None, None, 7434604 * 1024),
            # cgroup v2 without a limit
            ("0::/user.slice/a\n", "max\n", "123\n", 7434604 * 1024),
            # cgroup v2 with a limit below MemAvailable: 2 GiB - 1 GiB + 4096
            # bytes of inactive page cache
            ("0::/user.slice/a\n", "2147483648\n", "1073741824\n", (1 << 30) + 4096),
            # a limit above MemAvailable
            ("0::/user.slice/a\n", str(64 << 30) + "\n", "0\n", 7434604 * 1024),
        ],
    )
    def test_probe_reads_meminfo_and_the_cgroup_limit(
        self, monkeypatch, cgroup, limit, used, expected
    ):
        files = {"/proc/meminfo": self.MEMINFO, "/proc/self/cgroup": cgroup}
        if limit is not None:
            files["/sys/fs/cgroup/user.slice/a/memory.max"] = limit
            files["/sys/fs/cgroup/user.slice/a/memory.current"] = used
            files["/sys/fs/cgroup/user.slice/a/memory.stat"] = (
                "anon 1000\nfile 9000\nactive_file 4904\ninactive_file 4096\n"
            )
        self.serve(monkeypatch, files)
        assert _available_memory() == expected

    def test_no_meminfo_skips_the_check(self, monkeypatch):
        self.serve(monkeypatch, {})
        assert _available_memory() is None
        assert _block_distances(np.zeros((3, 2))).shape == (3, 3)

    def test_a_matrix_that_does_not_fit_is_refused_before_anything_is_allocated(
        self, monkeypatch
    ):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(cluster, "_available_memory", lambda: int(7.1 * 2**30))
        monkeypatch.setattr(np, "empty", no_allocation)
        with pytest.raises(InsufficientMemory) as err:
            _block_distances(np.zeros((40_000, 2)))
        assert err.value.record() == (
            "InsufficientMemory:clustering 40000 rows needs 11.9 GiB, 7.1 GiB available"
        )

    def test_a_matrix_that_fits_exactly_is_computed(self, monkeypatch, rng):
        c = rng.normal(size=(20, 3))
        monkeypatch.setattr(cluster, "_available_memory", lambda: 8 * 20 * 20)
        d = _block_distances(c)
        assert d[0, 1] == np.sqrt(np.sum((c[0] - c[1]) ** 2))
