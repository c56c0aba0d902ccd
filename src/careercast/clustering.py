"""K-means career-type clustering over autoencoder embeddings.

Centroids are fit with k-means++ seeding and several restarts, keeping
the lowest-inertia run. The number of clusters is chosen by mean
silhouette over a candidate range, smaller K winning ties.

Memory rule: ``select_k`` fits every candidate K, then makes one pass over
row blocks of exact distances that gives each candidate its per-cluster
distance sums. No array grows as n^2, and no temporary as n^2 * d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import ArtifactError, ParameterError, ShapeError

DEFAULT_K_RANGE = range(2, 9)
DEFAULT_RESTARTS = 10
MAX_ITERS = 300
# floats in a distance block's (rows, n, d) difference temporary (1 MB), but a
# block has one row at least: past n * d = 2^17 it is n * d (2 MB at 3983 x 64)
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
    """Re-seat empty clusters on the points farthest from their centroids.

    No steal takes a cluster's last member, so one pass leaves none empty.
    """
    empties = np.flatnonzero(np.bincount(assignments, minlength=k) == 0)
    if empties.size == 0:
        return centroids, assignments
    d2 = ((points - centroids[assignments]) ** 2).sum(axis=1)
    centroids = centroids.copy()
    assignments = assignments.copy()
    for j in empties:
        counts = np.bincount(assignments, minlength=k)
        candidate = np.where(counts[assignments] > 1, d2, -1.0)
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
    # the stored labels are what ``assign`` gives the stored centroids; where
    # points coincide, that can leave a cluster empty
    assignments = assign(points, centroids)
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


def _cluster_sums(points: np.ndarray, labelings) -> list:
    """Each point's summed distance to each cluster, an (n, k) array per
    labeling, from one pass over row blocks of ``sqrt(_sq_dists)``.

    Each block's columns are gathered in each labeling's stable label order
    and ``np.add.reduceat`` sums every occupied cluster's run, so no sum
    depends on the block size or the BLAS thread count. Empty clusters stay 0.
    """
    if not labelings:
        return []
    n = points.shape[0]
    rows = max(1, _CHUNK_ELEMENTS // max(1, points.size))
    plans = []
    for labels in labelings:
        order = np.argsort(labels, kind="stable")
        occupied, starts = np.unique(labels[order], return_index=True)
        plans.append((order, occupied, starts, np.zeros((n, int(occupied[-1]) + 1))))
    for lo in range(0, n, rows):
        block = np.sqrt(_sq_dists(points[lo:lo + rows], points))
        for order, occupied, starts, sums in plans:
            sums[lo:lo + rows, occupied] = np.add.reduceat(block[:, order], starts, axis=1)
    return [sums for *_, sums in plans]


def silhouette_score(
    points: np.ndarray, assignments: np.ndarray, cluster_sums: np.ndarray | None = None
) -> float:
    """Mean silhouette over all points, Euclidean distance.

    Singleton-cluster points score 0, as does any point whose within and
    between distances are both 0. Empty cluster labels are skipped. Fewer
    than two occupied clusters gives 0 overall.

    ``cluster_sums`` is these assignments' (n, max label + 1) array from
    ``_cluster_sums``, which ``select_k`` fills for every candidate K in one
    pass. Without it this call makes that pass itself: no array grows as n^2.
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
    k = int(assignments.max()) + 1 if n else 0
    if cluster_sums is not None and cluster_sums.shape != (n, k):
        raise ShapeError(f"cluster_sums shape {cluster_sums.shape} is not ({n}, {k})")
    if np.unique(assignments).size < 2:
        return 0.0
    if cluster_sums is None:
        (cluster_sums,) = _cluster_sums(points, [assignments])
    counts = np.bincount(assignments, minlength=k)
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
        """Rebuild a model from ``to_doc`` output.

        Raises ``ArtifactError`` unless ``k`` is an integer of at least 1,
        the centroids form a finite (k, d) matrix, every train assignment
        is an integral value in [0, k), and the silhouette trace holds k.
        """
        k = doc["k"]
        if type(k) is not int or k < 1:
            raise ArtifactError(f"k is {k!r}, not an integer of at least 1")
        centroids = np.array(doc["centroids"], dtype=float)
        if centroids.ndim != 2 or centroids.shape[0] != k or not centroids.shape[1]:
            raise ArtifactError(f"centroids have shape {centroids.shape}, expected ({k}, d)")
        if not np.all(np.isfinite(centroids)):
            raise ArtifactError("centroids contain non-finite values")
        labels = np.array(doc["train_assignments"], dtype=float)
        in_range = (labels >= 0) & (labels < k) & (labels == np.floor(labels))
        if labels.ndim != 1 or not in_range.all():
            raise ArtifactError(f"train_assignments are not integral labels in [0, {k})")
        table = {int(kk): float(s) for kk, s in doc["silhouette_by_k"].items()}
        if k not in table:
            raise ArtifactError(f"silhouette_by_k has no score for k = {k}")
        return cls(k, centroids, labels.astype(int), table)


def select_k(
    embeddings: np.ndarray,
    k_range=DEFAULT_K_RANGE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> ClusterModel:
    """Fit k-means for each candidate K and keep the best mean silhouette.

    Every candidate is fit first. One ``_cluster_sums`` pass then gives each
    fit with two or more occupied clusters its sums, and ``silhouette_score``
    scores each K from its own.

    Candidates needing more centroids than there are points are skipped.
    Exact silhouette ties go to the smaller K.
    """
    embeddings = _check_points(embeddings)
    ks = [int(k) for k in k_range]
    if not ks:
        raise ParameterError("k_range is empty")
    n = embeddings.shape[0]
    fits = {k: kmeans_fit(embeddings, k, restarts, seed) for k in sorted(ks) if k <= n}
    if not fits:
        raise ParameterError(f"no candidate K in {ks} is feasible for {n} points")
    scored = [k for k, fit in fits.items() if np.unique(fit.assignments).size > 1]
    sums = dict(zip(scored, _cluster_sums(embeddings, [fits[k].assignments for k in scored])))
    table = {k: silhouette_score(embeddings, f.assignments, sums.get(k)) for k, f in fits.items()}
    best_k = max(table, key=table.get)  # the first, so the smallest, of equal scores
    return ClusterModel(
        k=best_k,
        centroids=fits[best_k].centroids,
        train_assignments=fits[best_k].assignments,
        silhouette_by_k=table,
    )

