"""K-means career-type clustering over autoencoder embeddings.

Centroids are fit with k-means++ seeding and several restarts, keeping
the lowest-inertia run. The number of clusters is chosen by mean
silhouette over a candidate range, smaller K winning ties.

Memory rule: ``select_k`` builds one (n, n) distance matrix, in row chunks
of exact differences, and scores every candidate K from it. No temporary
grows as n^2 * d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import ParameterError, ShapeError

DEFAULT_K_RANGE = range(2, 9)
DEFAULT_RESTARTS = 10
MAX_ITERS = 300
# floats per row-chunk temporary in pairwise_distances (1 MB)
_CHUNK_ELEMENTS = 1 << 17


def _check_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ShapeError(f"expected (n, d) points, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ParameterError("points contain non-finite values")
    return points


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n_points, n_centroids)."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for each point (ties to the lowest index).

    The answer is the argmin of ``_sq_dists``, the exact-difference
    distances, but most rows are settled by a cheaper screen. One matrix
    product gives the Gram-form distances ||p||^2 + ||c||^2 - 2 p.c. Each
    form is within (d + 2) * eps * (||p||^2 + max ||c||^2) of the true
    distance (the dot-product rounding bound, Higham 2002, section 3.1), so
    a row whose best Gram distance beats its runner-up by more than four
    times that has the same argmin in both forms; ``slack`` is eight times
    it. Every other row, exact ties and non-finite gaps included, is rerun
    through ``_sq_dists``, so ties still go to the lowest index. With a
    single centroid no row has a runner-up, and every row is rerun.
    """
    points = _check_points(points)
    centroids = np.asarray(centroids, dtype=float)
    if centroids.ndim != 2 or centroids.shape[1] != points.shape[1]:
        raise ShapeError(
            f"centroid shape {centroids.shape} does not match points "
            f"{points.shape}"
        )
    d = points.shape[1]
    rows = np.arange(points.shape[0])
    # overflow is caught below: its rows get a non-finite gap or slack
    with np.errstate(over="ignore", invalid="ignore"):
        p_sq = np.einsum("ij,ij->i", points, points)
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        gram = points @ centroids.T
        gram *= -2.0
        gram += c_sq
        gram += p_sq[:, None]
        best = np.argmin(gram, axis=1)
        gap = -gram[rows, best]
        gram[rows, best] = np.inf
        gap += gram.min(axis=1)
        # the floor covers the absolute error of products that underflow
        info = np.finfo(float)
        slack = 8.0 * (d + 2) * (info.eps * (p_sq + c_sq.max()) + info.tiny)
    unsure = np.flatnonzero(~(np.isfinite(gap) & (gap > slack)))
    if unsure.size:
        best[unsure] = np.argmin(_sq_dists(points[unsure], centroids), axis=1)
    return best


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=float)
    centroids[0] = points[int(rng.integers(n))]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining points coincide with a chosen centroid
            idx = int(rng.integers(n))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _repair_empty(points, centroids, assignments, k):
    """Re-seat empty clusters on the points farthest from their centroids."""
    for _ in range(k):
        counts = np.bincount(assignments, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            break
        d2 = ((points - centroids[assignments]) ** 2).sum(axis=1)
        centroids = centroids.copy()
        assignments = assignments.copy()
        for j in empties:
            counts = np.bincount(assignments, minlength=k)
            # never steal the last member of another cluster
            eligible = counts[assignments] > 1
            candidate = np.where(eligible, d2, -1.0)
            p = int(np.argmax(candidate))
            centroids[j] = points[p]
            assignments[p] = j
            d2[p] = 0.0
    return centroids, assignments


def _lloyd(points, centroids, k):
    prev = None
    for _ in range(MAX_ITERS):
        assignments = assign(points, centroids)
        centroids, assignments = _repair_empty(points, centroids, assignments, k)
        if prev is not None and np.array_equal(assignments, prev):
            break
        prev = assignments
        centroids = np.stack(
            [points[assignments == j].mean(axis=0) for j in range(k)]
        )
    # re-derive assignments so stored centroids reproduce them exactly
    assignments = assign(points, centroids)
    centroids, assignments = _repair_empty(points, centroids, assignments, k)
    inertia = float(((points - centroids[assignments]) ** 2).sum())
    return centroids, assignments, inertia


@dataclass
class KMeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float


def kmeans_fit(
    points: np.ndarray,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> KMeansResult:
    """Best of ``restarts`` k-means++ runs by inertia (earlier run wins ties)."""
    points = _check_points(points)
    n = points.shape[0]
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    if n < k:
        raise ParameterError(f"need at least k={k} points, got {n}")
    if restarts < 1:
        raise ParameterError(f"restarts must be at least 1, got {restarts}")
    best = None
    for r in range(restarts):
        rng = rngmod.substream(seed, f"kmeans.restart.{r}")
        init = _plus_plus_init(points, k, rng)
        centroids, assignments, inertia = _lloyd(points, init, k)
        if best is None or inertia < best.inertia:
            best = KMeansResult(centroids, assignments, inertia)
    return best


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, (n, n), built in row chunks.

    Each chunk takes exact differences, so a temporary holds at most
    ``_CHUNK_ELEMENTS`` floats and the only O(n^2) array is the result.
    """
    points = _check_points(points)
    n, d = points.shape
    rows = max(1, _CHUNK_ELEMENTS // max(1, n * d))
    dists = np.empty((n, n), dtype=float)
    for lo in range(0, n, rows):
        dists[lo:lo + rows] = _sq_dists(points[lo:lo + rows], points)
    return np.sqrt(dists, out=dists)


def silhouette_score(
    points: np.ndarray, assignments: np.ndarray, dists: np.ndarray | None = None
) -> float:
    """Mean silhouette over all points, Euclidean distance.

    Singleton-cluster points score 0, as does any point whose within and
    between distances are both 0. Empty cluster labels are skipped. Fewer
    than two occupied clusters gives 0 overall.

    ``dists`` is the points' ``pairwise_distances`` matrix; ``select_k``
    builds it once and shares it across every candidate K. Without it the
    matrix is built here, so the call holds one (n, n) array plus
    (n, k) cluster sums.
    """
    points = _check_points(points)
    assignments = np.asarray(assignments)
    n = points.shape[0]
    if assignments.shape != (n,):
        raise ShapeError(
            f"assignments shape {assignments.shape} does not match {n} points"
        )
    if n and not np.issubdtype(assignments.dtype, np.integer):
        raise ParameterError(
            f"assignments must be integer labels, got dtype {assignments.dtype}"
        )
    if n and assignments.min() < 0:
        raise ParameterError(f"negative assignment {assignments.min()} found")
    if dists is not None and dists.shape != (n, n):
        raise ShapeError(f"dists shape {dists.shape} does not match {n} points")
    if np.unique(assignments).size < 2:
        return 0.0
    if dists is None:
        dists = pairwise_distances(points)
    k = int(assignments.max()) + 1
    counts = np.bincount(assignments, minlength=k)
    onehot = np.zeros((n, k), dtype=float)
    onehot[np.arange(n), assignments] = 1.0
    cluster_sums = dists @ onehot
    own = counts[assignments]
    a = np.divide(
        cluster_sums[np.arange(n), assignments],
        own - 1,
        out=np.zeros(n),
        where=own > 1,
    )
    # mean distance to every other occupied cluster; own and empty ones are inf
    means = np.divide(
        cluster_sums, counts, out=np.full((n, k), np.inf), where=counts > 0
    )
    means[np.arange(n), assignments] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.divide(
        b - a, denom, out=np.zeros(n), where=(own > 1) & (denom > 0.0)
    )
    return float(scores.mean())


@dataclass
class ClusterModel:
    """Selected clustering: chosen K, centroids, and the selection trace."""

    k: int
    centroids: np.ndarray
    train_assignments: np.ndarray
    silhouette_by_k: dict = field(default_factory=dict)

    def assign(self, points: np.ndarray) -> np.ndarray:
        return assign(points, self.centroids)

    def to_doc(self) -> dict:
        return {
            "k": int(self.k),
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "train_assignments": [int(a) for a in self.train_assignments],
            "silhouette_by_k": {
                str(kk): float(s) for kk, s in sorted(self.silhouette_by_k.items())
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ClusterModel":
        return cls(
            k=int(doc["k"]),
            centroids=np.array(doc["centroids"], dtype=float),
            train_assignments=np.array(doc["train_assignments"], dtype=int),
            silhouette_by_k={int(kk): float(s) for kk, s in doc["silhouette_by_k"].items()},
        )


def select_k(
    embeddings: np.ndarray,
    k_range=DEFAULT_K_RANGE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> ClusterModel:
    """Fit k-means for each candidate K and keep the best mean silhouette.

    The pairwise distance matrix is built once and shared by every K's
    ``silhouette_score`` call.

    Candidates needing more centroids than there are points are skipped.
    Exact silhouette ties go to the smaller K.
    """
    embeddings = _check_points(embeddings)
    ks = [int(k) for k in k_range]
    if not ks:
        raise ParameterError("k_range is empty")
    dists = pairwise_distances(embeddings)
    best_k = None
    best_fit = None
    table = {}
    for k in sorted(ks):
        if k > embeddings.shape[0]:
            continue
        fit = kmeans_fit(embeddings, k, restarts=restarts, seed=seed)
        score = silhouette_score(embeddings, fit.assignments, dists=dists)
        table[k] = score
        if best_k is None or score > table[best_k]:
            best_k = k
            best_fit = fit
    if best_k is None:
        raise ParameterError(
            f"no candidate K in {ks} is feasible for {embeddings.shape[0]} points"
        )
    return ClusterModel(
        k=best_k,
        centroids=best_fit.centroids,
        train_assignments=best_fit.assignments,
        silhouette_by_k=table,
    )


def one_hot(assignments: np.ndarray, k: int) -> np.ndarray:
    assignments = np.asarray(assignments, dtype=int)
    if assignments.ndim != 1:
        raise ShapeError(f"expected 1-d assignments, got shape {assignments.shape}")
    if assignments.size and (assignments.min() < 0 or assignments.max() >= k):
        raise ParameterError(
            f"assignment outside [0, {k}) found: "
            f"min {assignments.min()}, max {assignments.max()}"
        )
    out = np.zeros((assignments.size, k), dtype=float)
    out[np.arange(assignments.size), assignments] = 1.0
    return out
