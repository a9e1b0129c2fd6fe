"""Agglomerative clustering in Aitchison geometry.

Groups of entities that sit close together in the biplot share a similar
indicator structure; this module makes that reading reproducible by
clustering on the pairwise Aitchison distance matrix (Euclidean distance
between CLR rows) with single, complete or average linkage.

Merging is fully deterministic: among pairs at equal distance, the pair with
the lexicographically smallest (min entity id, max entity id) merges first,
and a merged cluster keeps the smaller of the two ids. The cut is either a
target cluster count, a distance threshold, or (default) a threshold placed
at the largest relative gap between consecutive merge distances. The merge
runs in sorted-id order, so no file depends on the input row order: a
validated table's rows are already in that order, and hierarchical_cluster
sorts the ids of a DistanceMatrix, which may list them in any order.

Cost: distances are computed 8 rows at a time, upper triangle only,
through one reused 8 x n x D float64 buffer (8 n D * 8 bytes). The merge
is the generic nearest-neighbour algorithm of Muellner (arXiv:1109.2378)
on the Lance-Williams updates: it updates one n x n float64 working matrix
(8 n^2 bytes) in place and keeps each row's nearest neighbour, so a step
does O(n) vectorised work plus a rescan of the rows whose neighbour took
part in the merge: about O(n^2) time in practice, O(n^3) at worst.
Profiles take one array pass per distinct cluster size, and their JSON
one template fill (_fmt.json_rows). On a 2-vCPU x86 VM at 400x32 with
399 clusters, distances take ~9 ms, the merge ~24 ms, cluster_profile
~4 ms and the cluster_profiles.json text ~14 ms. The CLI computes the
distances straight into that working matrix, so it holds one n x n
matrix; hierarchical_cluster(dist) callers hold two, their
DistanceMatrix and the merge's sorted-id copy. At 5000x32 (a 191 MiB
matrix) a fresh `coda-atlas cluster` peaks at 248 MiB RSS in 3.2 s on
that VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._fmt import LazyText, check_finite, csv_fields, fill_rows, json_rows, json_text
from .composition import (
    ClrMatrix,
    IndicatorTable,
    RatioDefinition,
    check_count,
    clr_matrix,
    default_ratio_catalog,
    duplicated,
    resolvable_ratios,
)
from .errors import (
    DimensionMismatch,
    DuplicateEntityId,
    DuplicatePartName,
    InfeasibleCut,
    InsufficientMemory,
    InvalidOptions,
    MismatchedEntities,
    TooFewRows,
)

LINKAGES = ("single", "complete", "average")

#: rows of the distance matrix computed at once; the one difference buffer
#: holds _DISTANCE_BLOCK_ROWS * n * D floats instead of n * n * D
_DISTANCE_BLOCK_ROWS = 8

#: side of the square tiles in which DistanceMatrix checks symmetry
_SYMMETRY_TILE = 128


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric non-negative matrix with zero diagonal; row r is entity ids[r]."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        n = len(self.ids)
        if v.shape != (n, n):
            raise DimensionMismatch(f"matrix {v.shape} for {n} ids")
        dup = duplicated(self.ids)
        if dup:
            raise DuplicateEntityId(",".join(dup))
        # each tile on or above the diagonal against its mirror tile: reads
        # stay contiguous and temporaries stay at _SYMMETRY_TILE^2 entries.
        # The test is np.allclose(a, b, rtol=0, atol=1e-12): equal infinities
        # are close, and a NaN is close to nothing
        tiles = [slice(r, r + _SYMMETRY_TILE) for r in range(0, n, _SYMMETRY_TILE)]
        with np.errstate(invalid="ignore"):  # inf - inf
            for i, rows in enumerate(tiles):
                for cols in tiles[i:]:
                    a, b = v[rows, cols], v[cols, rows].T
                    if not np.all((np.abs(a - b) <= 1e-12) | (a == b)):
                        raise DimensionMismatch("distance matrix is not symmetric")
        if np.any(np.diag(v) != 0.0):
            raise DimensionMismatch("distance matrix diagonal is not zero")
        if any(np.any(v[rows] < 0.0) for rows in tiles):
            raise DimensionMismatch("distance matrix has negative entries")

    @property
    def n(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Result of one clustering run.

    labels maps entity id to a 1-based cluster label (clusters numbered by
    ascending smallest member id). merge_history always covers the full
    dendrogram (n-1 merges) regardless of where the cut fell; each entry is
    (cluster_a, cluster_b, merge_distance) with cluster ids being the
    smallest member id of each side.
    """

    labels: dict[str, int]
    linkage: str
    cut: dict
    merge_history: tuple[tuple[str, str, float], ...]

    @property
    def n_clusters(self) -> int:
        return len(set(self.labels.values()))

    def members(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {}
        for eid, label in self.labels.items():
            out.setdefault(label, []).append(eid)
        return {k: tuple(sorted(v)) for k, v in sorted(out.items())}


@dataclass(frozen=True, eq=False)
class ClusterProfile:
    """Per-cluster position relative to the sample-average composition.

    mean_clr is the mean centred CLR vector of the members; origin_distance
    its Euclidean norm, i.e. how far the cluster sits from the biplot origin
    (the sample average). ratio_means holds the cluster mean centred
    log-ratio per named ratio.
    """

    label: int
    member_ids: tuple[str, ...]
    mean_clr: np.ndarray
    origin_distance: float
    ratio_means: dict[str, float]


def _available_memory() -> int | None:
    """Bytes this process may still allocate, on Linux; None elsewhere.

    MemAvailable from /proc/meminfo, and where the process's cgroup (v2)
    has a memory.max that is a number, no more than memory.max minus
    memory.current. memory.current counts page cache, so the cache the
    kernel can drop first (memory.stat's inactive_file) is added back.
    """
    try:
        with open("/proc/meminfo", "rb") as handle:
            fields = dict(line.split(b":", 1) for line in handle)
        available = int(fields[b"MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return None
    try:
        with open("/proc/self/cgroup") as handle:
            path = next(line[3:].strip() for line in handle if line.startswith("0::"))
        group = f"/sys/fs/cgroup{path}"
        with open(f"{group}/memory.max") as limit, open(f"{group}/memory.current") as used:
            free = int(limit.read()) - int(used.read())
        with open(f"{group}/memory.stat") as stat:
            free += next(int(line.split()[1]) for line in stat if line.startswith("inactive_file "))
        available = min(available, free)
    except (OSError, StopIteration, ValueError):  # no cgroup v2, or memory.max is "max"
        pass
    return available


def _block_distances(c: np.ndarray) -> np.ndarray:
    """Euclidean distances d[i, j], j >= i, between the rows of c; zero diagonal.

    Only the upper triangle is set. Rows are done _DISTANCE_BLOCK_ROWS at a
    time against the columns from the block's first row on, through one
    preallocated buffer; each pair is one np.sum over its D squared
    differences, so every value equals the full n x n x D tensor's exactly.
    An n x n matrix that does not fit in the memory available is
    InsufficientMemory, before anything is allocated.
    """
    n, D = c.shape
    need, available = 8 * n * n, _available_memory()
    if available is not None and need > available:
        raise InsufficientMemory(
            f"clustering {n} rows needs {need / 2**30:.1f} GiB, "
            f"{available / 2**30:.1f} GiB available"
        )
    d = np.empty((n, n), dtype=c.dtype)
    buffer = np.empty((min(_DISTANCE_BLOCK_ROWS, n), n, D), dtype=c.dtype)
    for start in range(0, n, _DISTANCE_BLOCK_ROWS):
        stop = min(start + _DISTANCE_BLOCK_ROWS, n)
        diff = buffer[:stop - start, :n - start]
        np.subtract(c[start:stop, None, :], c[None, start:, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.sqrt(np.sum(diff, axis=-1), out=d[start:stop, start:])
    np.fill_diagonal(d, 0.0)
    return d


def distance_matrix(clr: ClrMatrix) -> DistanceMatrix:
    """Pairwise Aitchison distances between all entities."""
    if clr.n < 2:
        raise TooFewRows(f"distance matrix needs n >= 2, got {clr.n}")
    d = _block_distances(clr.values)
    # mirror the upper triangle one _SYMMETRY_TILE square at a time
    tiles = [slice(r, r + _SYMMETRY_TILE) for r in range(0, clr.n, _SYMMETRY_TILE)]
    for i, rows in enumerate(tiles):
        tile = d[rows, rows]
        below = np.tri(len(tile), k=-1, dtype=bool)
        tile[below] = tile.T[below]
        for cols in tiles[i + 1:]:
            d[cols, rows] = d[rows, cols].T
    return DistanceMatrix(ids=clr.entity_ids, values=d)


def _nearest_above(d: np.ndarray, active: np.ndarray, i: int) -> tuple[int, float]:
    """Nearest active column j > i of row i, first index on ties; (-1, inf) if none.

    Retired columns hold inf, so a row whose live distances are all inf
    falls back to its first live column.
    """
    row = d[i, i + 1:]
    k = int(np.argmin(row))
    if row[k] == np.inf:
        live = np.flatnonzero(active[i + 1:])
        if live.size == 0:
            return -1, np.inf
        k = int(live[0])
    return i + 1 + k, float(row[k])


def _merge_sequence(ids: Sequence[str], d: np.ndarray, linkage: str):
    """Run all n-1 merges; returns [(id_a, id_b, distance)] in merge order.

    ids are sorted and d is the float64 working matrix in that order, which
    the merge overwrites; only its upper triangle is read. Keeping it in
    sorted-id order makes the outcome independent of the input row order.
    Cluster-pair distances are maintained with the Lance-Williams updates
    for the three supported linkages. Each live row i keeps its nearest
    live column j > i (first index on ties); the merge takes the row with
    the smallest such distance (first index on ties), which is the
    (distance, min id, max id) rule.
    Row 0 is never retired, so when every live distance is inf the argmin
    still lands on a live row. After merging b into a, only row a (whose
    neighbour was b), the rows whose neighbour was a or b, and the entries
    d[i, a] of the other rows i < a, read from the merged row, can move a
    neighbour: a retired row reads inf there against its (-1, inf), and a
    row whose neighbour was a or b is rescanned whatever the update gave it.
    """
    n = len(ids)
    active = np.ones(n, dtype=bool)
    nn = np.full(n, -1, dtype=np.intp)
    nd = np.full(n, np.inf)
    for i in range(n - 1):
        d[i + 1:, i] = d[i, i + 1:]
        nn[i], nd[i] = _nearest_above(d, active, i)
    sizes = [1] * n

    history: list[tuple[str, str, float]] = []
    for _ in range(n - 1):
        a = int(np.argmin(nd))
        b = int(nn[a])
        history.append((ids[a], ids[b], float(nd[a])))
        da, db = d[a], d[b]
        if linkage == "single":
            merged = np.where(db < da, db, da)
        elif linkage == "complete":
            merged = np.where(db > da, db, da)
        else:
            merged = (sizes[a] * da + sizes[b] * db) / (sizes[a] + sizes[b])
        sizes[a] += sizes[b]
        d[a] = merged
        d[:, a] = merged
        d[:, b] = np.inf
        active[b] = False

        stale = (nn == a) | (nn == b)
        nn[b], nd[b] = -1, np.inf
        col = merged[:a]
        closer = (col < nd[:a]) | ((col == nd[:a]) & (a < nn[:a]))
        nn[:a][closer] = a
        nd[:a][closer] = col[closer]
        for i in np.flatnonzero(stale):
            nn[i], nd[i] = _nearest_above(d, active, int(i))
    return history


def _gap_threshold(history: Sequence[tuple[str, str, float]]) -> float:
    """Threshold at the largest relative gap between consecutive merge distances.

    Falls back to the last merge distance (a single cluster) when fewer than
    two merges exist or no positive-distance gap is available.
    """
    ds = [h[2] for h in history]
    best_ratio, best_i = 0.0, None
    for i in range(len(ds) - 1):
        if ds[i] > 0.0:
            ratio = ds[i + 1] / ds[i]
            if ratio > best_ratio:
                best_ratio, best_i = ratio, i
    if best_i is None:
        return ds[-1] if ds else 0.0
    return 0.5 * (ds[best_i] + ds[best_i + 1])


def _check_cut(n: int, linkage: str, n_clusters: int | None, threshold: float | None) -> None:
    if linkage not in LINKAGES:
        raise InvalidOptions(f"linkage {linkage!r} not in {LINKAGES}")
    if n_clusters is not None and threshold is not None:
        raise InfeasibleCut("give either a cluster count or a threshold, not both")
    if n_clusters is not None:
        check_count("cluster count", n_clusters)
        if not 1 <= n_clusters <= n:
            raise InfeasibleCut(f"cluster count {n_clusters} not in [1, {n}]")
    if threshold is not None and not 0.0 <= threshold < np.inf:
        raise InfeasibleCut(f"threshold must be finite and non-negative, got {threshold}")


def _cluster(
    ids: Sequence[str],
    d: np.ndarray,
    linkage: str,
    n_clusters: int | None,
    threshold: float | None,
) -> ClusterAssignment:
    """Merge, cut and label sorted ids over their working matrix d (consumed)."""
    history = _merge_sequence(ids, d, linkage)
    if n_clusters is not None:
        cut: dict = {"mode": "count", "value": int(n_clusters)}
        n_merges = len(ids) - n_clusters
    elif threshold is not None:
        cut = {"mode": "threshold", "value": float(threshold)}
        n_merges = sum(1 for h in history if h[2] <= threshold)
    else:
        t = _gap_threshold(history)
        cut = {"mode": "gap", "value": float(t)}
        n_merges = sum(1 for h in history if h[2] <= t)

    members: dict[str, list[str]] = {eid: [eid] for eid in ids}
    for a, b, _ in history[:n_merges]:
        members[a].extend(members.pop(b))

    labels: dict[str, int] = {}
    for label, cid in enumerate(sorted(members), start=1):
        for eid in members[cid]:
            labels[eid] = label
    return ClusterAssignment(
        labels=labels, linkage=linkage, cut=cut, merge_history=tuple(history)
    )


def hierarchical_cluster(
    dist: DistanceMatrix,
    linkage: str = "complete",
    n_clusters: int | None = None,
    threshold: float | None = None,
) -> ClusterAssignment:
    """Agglomerative clustering with an explicit or automatic cut.

    Exactly one of n_clusters / threshold may be given; with neither, the
    cut is the threshold at the largest relative gap in the merge distances.
    Merge distances are non-decreasing for all three linkages, so a
    threshold cut is always a prefix of the merge sequence. dist is left
    as it is: the merge works on a copy in sorted-id order.
    """
    _check_cut(dist.n, linkage, n_clusters, threshold)
    order = sorted(range(dist.n), key=dist.ids.__getitem__)
    ids = [dist.ids[k] for k in order]
    d = np.asarray(dist.values, dtype=np.float64)[np.ix_(order, order)]
    return _cluster(ids, d, linkage, n_clusters, threshold)


def _cluster_clr(
    clr: ClrMatrix, linkage: str, n_clusters: int | None, threshold: float | None
) -> ClusterAssignment:
    """hierarchical_cluster(distance_matrix(clr), ...) with one n x n matrix.

    The upper triangle, all that the merge reads, is computed straight
    into its working matrix; the result and the errors are the public
    path's for the CLR of a validated table, whose ids are unique and
    already in sorted order.
    """
    if clr.n < 2:
        raise TooFewRows(f"distance matrix needs n >= 2, got {clr.n}")
    _check_cut(clr.n, linkage, n_clusters, threshold)
    d = _block_distances(clr.values)
    return _cluster(clr.entity_ids, d, linkage, n_clusters, threshold)


def cluster_profile(
    table: IndicatorTable,
    assignment: ClusterAssignment,
    ratios: Sequence[RatioDefinition] | None = None,
) -> list[ClusterProfile]:
    """Profile each cluster against the sample-average composition.

    Uses the column-centred CLR matrix, so a cluster of all entities
    averages to the zero vector and a singleton cluster reproduces that
    entity's centred CLR row. With ratios=None the default ratio catalog is
    used, silently keeping only the definitions that resolve in the table.
    """
    if set(assignment.labels) != set(table.entity_ids):
        raise MismatchedEntities("assignment does not cover exactly the table entities")
    c = clr_matrix(table).values
    z = c - c.mean(axis=0)
    if ratios is None:
        ratios = resolvable_ratios(table, default_ratio_catalog())

    members = assignment.members()
    row_of = {eid: r for r, eid in enumerate(table.entity_ids)}
    sizes = np.array([len(ids) for ids in members.values()])
    rows = np.array([row_of[eid] for ids in members.values() for eid in ids])
    starts = np.cumsum(sizes) - sizes
    names = [ratio.name for ratio in ratios]
    pairs = np.array([ratio.resolve(table) for ratio in ratios], dtype=np.intp).reshape(-1, 2)
    log_ratios = np.ascontiguousarray((z[:, pairs[:, 0]] - z[:, pairs[:, 1]]).T)
    means = np.empty((len(sizes), z.shape[1]))
    ratio_means = np.empty((len(sizes), len(names)))
    # one gather per cluster size m, bit-identical to per-cluster means: a
    # k x m x D gather summed over axis 1 adds the member rows in order, as
    # z[rows].mean(axis=0) does; a contiguous L x k x m gather summed over its
    # last axis is numpy's pairwise sum of each m values, as np.mean's is
    for m in set(sizes.tolist()):
        which = np.flatnonzero(sizes == m)
        group = rows[starts[which, None] + np.arange(m)]
        means[which] = z[group].sum(axis=1) / m
        ratio_means[which] = (np.take(log_ratios, group, axis=1).sum(axis=-1) / m).T
    return [
        ClusterProfile(label, ids, mean, float(np.linalg.norm(mean)), dict(zip(names, values)))
        for (label, ids), mean, values in zip(members.items(), means, ratio_means.tolist())
    ]


def assignment_csv(assignment: ClusterAssignment) -> LazyText:
    """CSV rendering: entity_id,cluster_label (entity ids in sorted order)."""
    ids = sorted(assignment.labels)
    labels = np.array([assignment.labels[eid] for eid in ids], dtype=np.int64)
    return "entity_id,cluster_label\n" + fill_rows("%s,%d\n", csv_fields(ids), labels)


def merge_history_json(assignment: ClusterAssignment) -> dict:
    """JSON-ready document for the dendrogram and cut."""
    return {
        "linkage": assignment.linkage,
        "cut": assignment.cut,
        "n_clusters": assignment.n_clusters,
        "merges": [
            {"cluster_a": a, "cluster_b": b, "distance": float(dd)}
            for a, b, dd in assignment.merge_history
        ],
    }


def profiles_json(profiles: Sequence[ClusterProfile], part_names: Sequence[str]) -> dict:
    """JSON-ready document for cluster profiles.

    Its "clusters" value is one json_rows list of per-cluster records
    (label, members, mean_clr by part, origin_distance, ratio_means), laid
    out for dumps_json and filled when read. A non-finite value raises
    dumps_json's error for the first one in document order. Profiles must
    share their ratio names, and ``part_names`` must name each CLR mean once.
    """
    if not profiles:
        return {"clusters": []}
    ratio_names = list(profiles[0].ratio_means)
    if any(list(p.ratio_means) != ratio_names for p in profiles):
        raise InvalidOptions("cluster profiles must share their ratio names")
    means = np.array([p.mean_clr for p in profiles], dtype=float)
    if len(part_names) != means.shape[1]:
        raise DimensionMismatch(f"{len(part_names)} part names for {means.shape[1]} CLR means")
    repeated = duplicated(part_names)
    if repeated:
        raise DuplicatePartName(",".join(repeated))
    ratios = np.array([list(p.ratio_means.values()) for p in profiles], dtype=float)
    origins = [p.origin_distance for p in profiles]
    values = np.column_stack((means, origins, ratios))
    check_finite(values)
    element = {
        "label": "%d",
        "members": "%s",
        "mean_clr": dict.fromkeys(part_names, "%.17g"),
        "origin_distance": "%.17g",
        "ratio_means": dict.fromkeys(ratio_names, "%.17g"),
    }
    members = [json_text(p.member_ids, 3) for p in profiles]
    labels = np.array([p.label for p in profiles], dtype=np.int64)
    return {"clusters": json_rows(element, 1, labels, members, values)}
