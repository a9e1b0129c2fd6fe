"""Independent oracles used to cross-check production code paths.

These deliberately avoid the library calls they are checking:

* ``jacobi_eigenvalues`` is a hand-rolled cyclic Jacobi eigensolver for
  symmetric matrices, used to verify the LAPACK-backed SVD (singular values
  of Z are the square roots of the eigenvalues of Z^T Z).
* ``brute_force_ranking`` sorts entities by the raw pairwise log-ratio
  directly from table values, used to verify biplot projection rankings.
* ``linear_quantile`` re-implements the interpolated quantile definition
  with plain Python.
* ``lance_williams_merges`` is the cubic pure-Python agglomeration that
  rescans every active pair at each merge; the production merge must
  reproduce its history exactly, floats and tie-breaks included.
* ``full_tensor_distances`` forms the whole n x n x D difference tensor
  that the row-blocked ``distance_matrix`` avoids.
* ``pairwise_kendall_tau_b`` counts concordant, discordant and tied pairs
  one pair at a time, the O(n^2) definition behind the merge-count tau-b.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


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
