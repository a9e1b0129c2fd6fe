"""Principal-component biplot of the centred CLR matrix.

The model is the thin SVD of the column-centred CLR matrix Z = U S V^T.
Entity points are U_k S_k^alpha and indicator rays V_k S_k^(1-alpha):
alpha=1 is the form biplot (distances between points approximate Aitchison
distances), alpha=0 the covariance biplot (ray geometry approximates the CLR
covariance structure). The segment joining two ray extremes is a link; the
orthogonal projection of the points onto a link ranks the entities by the
pairwise log-ratio of the two parts, and the score formula
sum_m U_rm s_m (V_im - V_jm) is independent of alpha, so rankings agree
across scalings.

Because CLR rows sum to zero and columns are centred, Z has rank at most
min(n-1, D-1); the model keeps exactly that many components.

Output is deterministic: no randomized algorithms, and each right-singular
vector is oriented so that its largest-magnitude coordinate is positive.
Every table is decomposed one way: blocked TSQR (Demmel, Grigori, Hoemmen
& Langou, arXiv:0808.2664) gives the triangular factor R of Z, whose SVD
(Chan's R-SVD, 1982) has Z's singular values and right-singular vectors,
and the points are Z V_k S_k^(alpha-1). Up to 1024 rows TSQR is one QR.
LAPACK's SVD of a tall Z changes in its last bits with the OpenBLAS thread
count, while the QR of 1024 x 32 blocks and of the small R do not (a test
pins this at 20000 x 32); with 200 parts or more the QR does as well.
The ``coda-atlas`` command runs one OpenBLAS thread unless
``OPENBLAS_NUM_THREADS`` is set, so its fit is the same on every machine;
this module leaves the thread count to its caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .composition import ClrMatrix, check_count
from .errors import (
    DegenerateLink,
    DegenerateVariance,
    IndexOutOfRange,
    InvalidOptions,
    RankRequestTooLarge,
    SamePart,
    SvdFailure,
    TooFewRows,
)
from ._fmt import check_finite, csv_fields, dumps_json, fill_rows, json_rows

#: Relative spread below which a score/log-ratio series counts as constant.
_CONSTANT_RTOL = 1e-12

#: rows per TSQR block, or 2 D when that is more; a centred matrix of at
#: most that many rows is factored by a single QR
_TSQR_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class BiplotModel:
    """Fitted biplot: entity points, indicator rays and the retained spectrum.

    ``singular_values`` and ``explained`` cover all min(n-1, D-1) components
    regardless of the retained rank k. ``centered`` keeps the full centred
    CLR matrix so exact log-ratios stay available for ranking fidelity; it is
    not part of the serialized document.
    """

    alpha: float
    k: int
    points: np.ndarray
    rays: np.ndarray
    singular_values: np.ndarray
    explained: np.ndarray
    column_means: np.ndarray
    entity_ids: tuple[str, ...]
    part_names: tuple[str, ...]
    centered: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def D(self) -> int:
        return self.rays.shape[0]

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each row's position in ascending entity-id order, sorted once per model."""
        rank = np.empty(self.n, dtype=np.intp)
        rank[sorted(range(self.n), key=self.entity_ids.__getitem__)] = np.arange(self.n)
        return rank


@dataclass(frozen=True)
class Link:
    """Segment joining two ray extremes; its direction encodes ln(x_i/x_j)."""

    part_i: int
    part_j: int
    direction: np.ndarray
    degenerate: bool
    label: str = ""


@dataclass(frozen=True, eq=False)
class RankingResult:
    """Entities ordered by projection score along a link.

    ``scores`` and ``exact_log_ratios`` are in table order; ``rows`` holds
    the table rows sorted by descending score with ties broken by ascending
    entity id, and ``ordering`` their entity ids. Equal compositions need
    not get equal scores: the SVD can give two equal rows points that
    differ in the last bits, and then the score decides. ``fidelity`` and
    ``rank_agreement``, computed when first read, measure how faithfully the
    rank-k projection reproduces the exact log-ratios (exactly 1 at full
    compositional rank).
    """

    link: Link
    rows: np.ndarray
    scores: np.ndarray
    exact_log_ratios: np.ndarray
    entity_ids: tuple[str, ...]

    @property
    def ordering(self) -> tuple[str, ...]:
        return tuple(map(self.entity_ids.__getitem__, self.rows.tolist()))

    @cached_property
    def fidelity(self) -> float:
        """Pearson correlation between the scores and the exact centred log-ratios."""
        if self._flat is not None:
            return self._flat
        return float(np.corrcoef(self.scores, self.exact_log_ratios)[0, 1])

    @cached_property
    def rank_agreement(self) -> float:
        """Kendall's tau-b of the scores and the exact centred log-ratios, which
        corrects for ties in either; ``scipy.stats.kendalltau``'s bit for bit."""
        if self._flat is not None:
            return self._flat
        return _kendall_tau_b(self.scores, self.exact_log_ratios)

    @cached_property
    def _flat(self) -> float | None:
        """Both measures where a series is flat, else None: 1 where both are
        (the projection is trivially faithful), 0 where one is (no association)."""
        flat = _is_constant(self.scores), _is_constant(self.exact_log_ratios)
        return float(all(flat)) if any(flat) else None


def center_columns(clr: ClrMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Column-centre a CLR matrix; returns (centered, column_means)."""
    if clr.n < 2:
        raise TooFewRows(f"centering needs n >= 2, got {clr.n}")
    means = clr.values.mean(axis=0)
    return clr.values - means, means


def _tsqr_r(a: np.ndarray) -> np.ndarray:
    """The R factor of a matrix: QR of each block, then of the stacked Rs.

    Each pass replaces every block of max(_TSQR_BLOCK_ROWS, 2 D) rows by
    its min(rows, D) x D R factor, until one block is left; a block of at
    least 2 D rows shrinks to D, so a pass about halves the rows.
    """
    rows = max(_TSQR_BLOCK_ROWS, 2 * a.shape[1])
    while a.shape[0] > rows:
        blocks = range(0, a.shape[0], rows)
        a = np.vstack([np.linalg.qr(a[lo:lo + rows], mode="r") for lo in blocks])
    return np.linalg.qr(a, mode="r")


def _centered_svd(clr: ClrMatrix):
    """(centered, column_means, s, vt): s and vt of the TSQR factor R.

    They are the singular values and right-singular vectors of the centred
    matrix; its U is centered @ vt.T / s. LAPACK failure is SvdFailure.
    """
    centered, means = center_columns(clr)
    try:
        return (centered, means, *np.linalg.svd(_tsqr_r(centered), full_matrices=False)[1:])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SvdFailure(str(exc)) from exc


def singular_spectrum(clr: ClrMatrix) -> np.ndarray:
    """All thin-SVD singular values of the centred CLR matrix (length min(n, D)).

    The production decomposition behind :func:`fit_biplot`, exposed for
    diagnostics: its first min(n-1, D-1) values equal the model's
    ``singular_values`` bit for bit, and the trailing ones are structural
    zeros.
    """
    return _centered_svd(clr)[2]


def fit_biplot(clr: ClrMatrix, alpha: float = 1.0, k: int = 2) -> BiplotModel:
    """Fit the rank-k biplot model of a CLR matrix.

    Parameters
    ----------
    clr : ClrMatrix
        Row-wise CLR of a validated table (n >= 3).
    alpha : float in [0, 1]
        Singular-value split between points and rays; 1 = form biplot
        (default), 0 = covariance biplot. Rankings are alpha-invariant.
    k : int
        Retained rank, at most min(n-1, D-1); 2 for the standard display.

    Raises
    ------
    TooFewRows, InvalidOptions, RankRequestTooLarge, DegenerateVariance,
    SvdFailure
    """
    n, D = clr.n, clr.D
    if n < 3:
        raise TooFewRows(f"biplot needs n >= 3, got {n}")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidOptions(f"alpha must be in [0, 1], got {alpha}")
    check_count("k", k)
    m = min(n - 1, D - 1)
    if not 1 <= k <= m:
        raise RankRequestTooLarge(f"k={k} not in [1, min(n-1, D-1)={m}]")

    centered, column_means, s, vt = _centered_svd(clr)
    if s[0] <= 1e-12 * max(1.0, float(np.linalg.norm(clr.values))):
        raise DegenerateVariance("all rows carry the same composition")

    # Deterministic orientation: largest-magnitude loading of each component
    # is made positive (the first such coordinate decides on exact ties).
    for comp in range(m):
        lead = int(np.argmax(np.abs(vt[comp])))
        if vt[comp, lead] < 0.0:
            vt[comp] = -vt[comp]

    s_m = s[:m]
    s2 = s_m**2
    explained = s2 / s2.sum()
    # A zero singular value leaves its U column undefined: its points are 0.
    # One at rounding level (s[0] max(n, D) eps) is zero too: Z v / s would
    # be the quotient of two rounding errors.
    zero = s[0] * max(n, D) * np.finfo(float).eps
    with np.errstate(divide="ignore"):
        scale = np.where(s_m[:k] > zero, s_m[:k] ** (alpha - 1.0), 0.0)
    points = (centered @ vt[:k].T) * scale
    rays = vt[:k].T * s_m[:k] ** (1.0 - alpha)

    def frozen(a: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        return a

    return BiplotModel(
        alpha=float(alpha),
        k=int(k),
        points=frozen(points),
        rays=frozen(rays),
        singular_values=frozen(s_m),
        explained=frozen(explained),
        column_means=frozen(column_means),
        entity_ids=clr.entity_ids,
        part_names=clr.part_names,
        centered=frozen(centered),
    )


def make_link(model: BiplotModel, part_i: int, part_j: int, label: str = "") -> Link:
    """Link between the extremes of two rays: direction = rays[i] - rays[j].

    A near-zero direction (coincident rays) is flagged degenerate, not
    rejected; ranking along a degenerate link is refused downstream.
    """
    if part_i == part_j:
        raise SamePart(f"part_i == part_j == {part_i}")
    D = model.D
    if not (0 <= part_i < D and 0 <= part_j < D):
        raise IndexOutOfRange(f"part indices ({part_i}, {part_j}) out of range for D={D}")
    direction = model.rays[part_i] - model.rays[part_j]
    max_norm = float(np.max(np.linalg.norm(model.rays, axis=1)))
    degenerate = float(np.linalg.norm(direction)) < 1e-12 * max(max_norm, 1e-300)
    return Link(
        part_i=part_i,
        part_j=part_j,
        direction=direction,
        degenerate=degenerate,
        label=label,
    )


def _is_constant(v: np.ndarray) -> bool:
    spread = float(v.max() - v.min())
    return spread <= _CONSTANT_RTOL * max(1.0, float(np.max(np.abs(v))))


def _pairs_within(counts: np.ndarray) -> int:
    """Number of unordered pairs inside groups of the given sizes."""
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _kendall_tau_b(x, y) -> float:
    """Kendall's tau-b of two equal-length finite samples; NaN if either is constant.

    Knight's (1966) O(n log n) count, in the order scipy.stats.kendalltau
    uses so the result is bit-identical: after sorting by y and then stably
    by x, the discordant pairs are the inversions left in y's dense ranks.
    """
    x, y = np.asarray(x), np.asarray(y)
    perm = np.argsort(y)
    x, y = x[perm], y[perm]
    y = np.r_[True, y[1:] != y[:-1]].cumsum(dtype=np.intp)
    perm = np.argsort(x, kind="stable")
    x, y = x[perm], y[perm]
    x = np.r_[True, x[1:] != x[:-1]].cumsum(dtype=np.intp)

    # Bottom-up merge of sorted runs: a stable merge moves each entry of a
    # right run left past exactly the entries of its left run that exceed it.
    n = y.size
    index = np.arange(n)
    runs, dis, width = y, 0, 1
    while width < n:
        order = np.argsort(runs + index // (2 * width) * (n + 1), kind="stable")
        right = (order & width) != 0
        dis += int(order[right].sum() - index[right].sum())
        runs = runs[order]
        width *= 2

    joint = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]
    ntie = _pairs_within(np.diff(np.flatnonzero(joint)))
    xtie, ytie = _pairs_within(np.bincount(x)), _pairs_within(np.bincount(y))
    tot = n * (n - 1) // 2
    if xtie == tot or ytie == tot:
        return float("nan")
    tau = (tot - xtie - ytie + ntie - 2 * dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def rank_along_link(model: BiplotModel, link: Link) -> RankingResult:
    """Order entities by orthogonal projection onto a link.

    The score of entity r is points[r] . direction, the projection parameter
    along the link up to a positive affine map; distance to the link does not
    enter. Exact centred pairwise log-ratios come from the full CLR matrix.
    """
    if link.degenerate:
        raise DegenerateLink(f"parts ({link.part_i}, {link.part_j}) have coincident rays")
    scores = model.points @ link.direction
    exact = model.centered[:, link.part_i] - model.centered[:, link.part_j]

    # descending score, ties by ascending entity id
    rows = np.lexsort((model.id_rank, -scores))
    return RankingResult(
        link=link, rows=rows, scores=scores, exact_log_ratios=exact, entity_ids=model.entity_ids
    )


def reconstruct(model: BiplotModel) -> np.ndarray:
    """points @ rays^T: the rank-k approximation of the centred CLR matrix.

    At k = min(n-1, D-1) this recovers the centred matrix; below that the
    Frobenius residual is sqrt(sum of the squared dropped singular values).
    """
    return model.points @ model.rays.T


def model_to_json(model: BiplotModel) -> str:
    """Serialize the fitted model to its JSON document (17 significant digits)."""
    arrays = (model.singular_values, model.explained, model.column_means, model.points, model.rays)
    for values in arrays:  # in document order: the first error is the first written
        check_finite(values)
    coords = ["%.17g"] * model.k
    ids = list(map(encode_basestring_ascii, model.entity_ids))
    parts = list(map(encode_basestring_ascii, model.part_names))
    doc = {
        "alpha": model.alpha,
        "k": model.k,
        "singular_values": model.singular_values.tolist(),
        "explained": model.explained.tolist(),
        "column_means": model.column_means.tolist(),
        "points": json_rows({"id": "%s", "coords": coords}, 1, ids, model.points),
        "rays": json_rows({"part": "%s", "coords": coords}, 1, parts, model.rays),
    }
    return dumps_json(doc)


def ranking_csv(result: RankingResult) -> str:
    """CSV rendering of a ranking: entity_id,score,exact_log_ratio,rank.

    Rows follow the ranking order, so rank runs 1..n top-down.
    """
    rows = result.rows
    values = np.column_stack((result.scores[rows], result.exact_log_ratios[rows]))
    check_finite(values)
    ids = np.array(csv_fields(result.entity_ids), dtype=object)[rows]
    ranks = np.arange(1, len(rows) + 1)
    body = fill_rows("%s,%.17g,%.17g,%d\n", ids, values, ranks)
    return "entity_id,score,exact_log_ratio,rank\n" + body
