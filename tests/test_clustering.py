"""K-means, silhouette selection, and cluster utilities against brute force."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from careercast import clustering
from careercast.clustering import (
    ClusterModel,
    assign,
    kmeans_fit,
    select_k,
    silhouette_score,
)
from careercast.errors import ParameterError, ShapeError

from helpers import purity


def exhaustive_two_cluster_sse(points):
    """Minimum SSE over every bipartition (last point pinned to one side)."""
    n = len(points)
    best = np.inf
    for mask in range(1, 2 ** (n - 1)):
        sel = np.array([(mask >> i) & 1 for i in range(n - 1)] + [0], dtype=bool)
        sse = sum(
            float(((side - side.mean(axis=0)) ** 2).sum())
            for side in (points[sel], points[~sel])
        )
        best = min(best, sse)
    return best


def silhouette_reference(points, assignments):
    """Direct per-point loops over the full distance matrix."""
    n = len(points)
    labels = np.unique(assignments)
    if labels.size < 2:
        return 0.0
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    scores = []
    for i in range(n):
        same = [j for j in range(n) if assignments[j] == assignments[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = float(np.mean([d[i, j] for j in same]))
        b = min(
            float(np.mean([d[i, j] for j in range(n) if assignments[j] == c]))
            for c in labels
            if c != assignments[i]
        )
        denom = max(a, b)
        scores.append((b - a) / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def test_kmeans_matches_exhaustive_bipartition():
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        n, dim = 4 + i % 5, 1 + i % 4
        points = rng.normal(size=(n, dim))
        result = kmeans_fit(points, 2, restarts=50, seed=i)
        assert result.inertia == pytest.approx(
            exhaustive_two_cluster_sse(points), rel=1e-9, abs=1e-12
        )


def test_silhouette_matches_direct_loops():
    rng = np.random.default_rng(0)
    points = np.vstack(
        [rng.normal(size=(12, 3)) + off for off in ([0, 0, 0], [4, 0, 0], [0, 5, 0])]
    )
    for k in (2, 3, 4):
        labels = kmeans_fit(points, k, restarts=5, seed=k).assignments
        assert silhouette_score(points, labels) == pytest.approx(
            silhouette_reference(points, labels), abs=1e-10
        )


def test_silhouette_edge_cases():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 0.0]])
    assert silhouette_score(points, np.array([0, 0, 0, 0])) == 0.0
    # all singletons score zero
    assert silhouette_score(points[:2], np.array([0, 1])) == 0.0
    # tight duplicate pairs far apart: perfect separation
    assert silhouette_score(points, np.array([0, 0, 1, 1])) == 1.0
    # an empty label between occupied ones is skipped
    assert silhouette_score(points, np.array([0, 0, 2, 2])) == 1.0
    with pytest.raises(ShapeError):
        silhouette_score(points, np.array([0, 0, 1]))
    with pytest.raises(ShapeError):
        silhouette_score(points, np.array([[0, 0], [1, 1]]))
    with pytest.raises(ShapeError):
        silhouette_score(points, np.array([0, 0, 1, 1]), cluster_sums=np.zeros((4, 3)))
    with pytest.raises(ParameterError):
        silhouette_score(points, np.array([0, 0, -1, -1]))
    with pytest.raises(ParameterError):
        silhouette_score(points, np.array([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ParameterError):
        silhouette_score(points, np.array([False, False, True, True]))


def test_silhouette_memory_stays_below_a_quarter_distance_matrix():
    n = 1600
    points = np.random.default_rng(4).normal(size=(n, 64))
    labels = np.arange(n) % 5
    tracemalloc.start()
    try:
        silhouette_score(points, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_distance_matrix_temporaries_stay_small():
    """select_k holds one row block's difference, distance and gathered
    temporaries plus every candidate's (n, k) cluster sums, never (n, n)."""
    n, d, ks = 800, 64, range(2, 9)
    points = np.random.default_rng(6).normal(size=(n, d))
    select_k(points[:50], k_range=range(2, 4))  # first-call caches are not blocks
    tracemalloc.start()
    try:
        select_k(points, k_range=ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = max(1, clustering._CHUNK_ELEMENTS // (n * d))
    temporaries = 8 * rows * n * (d + 2)
    sums = 8 * n * sum(ks)
    # the fits, the sort orders and numpy's bookkeeping
    assert peak <= temporaries + sums + 2**18


def test_select_k_scores_match_standalone_silhouette(monkeypatch):
    rng = np.random.default_rng(5)
    points = np.vstack(
        [rng.normal(size=(20, 4)) + c for c in (-3.0, 0.0, 3.0)] + [rng.normal(size=(1, 4))]
    )
    model = select_k(points, k_range=range(2, 7), restarts=3, seed=5)
    for k, score in model.silhouette_by_k.items():
        labels = kmeans_fit(points, k, restarts=3, seed=5).assignments
        assert score == silhouette_score(points, labels)
        # one-row blocks, many blocks with a ragged last one, and one block
        # of every row give the same bits
        for chunk in (1, 3 * points.size, len(points) * points.size):
            with monkeypatch.context() as m:
                m.setattr(clustering, "_CHUNK_ELEMENTS", chunk)
                assert score == silhouette_score(points, labels)


def test_select_k_does_not_depend_on_the_blas_thread_count():
    """No BLAS call sums a distance, so clusters.json is the same at 1 and 2
    OpenBLAS threads given the same embeddings."""
    src = os.path.dirname(os.path.dirname(clustering.__file__))
    code = (
        "import json, numpy as np; from careercast.clustering import select_k; "
        "x = np.random.default_rng(12).normal(size=(1200, 64)); "
        "print(json.dumps(select_k(x, seed=0).to_doc()))"
    )
    docs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        docs.append(proc.stdout)
    assert docs[0] == docs[1]


def test_select_k_finds_three_blobs_and_breaks_ties_low():
    rng = np.random.default_rng(1)
    points = np.vstack(
        [rng.normal(size=(15, 4)) * 0.2 + c for c in (-6.0, 0.0, 6.0)]
    )
    model = select_k(points, k_range=range(2, 6), seed=0)
    assert model.k == 3
    assert sorted(model.silhouette_by_k) == [2, 3, 4, 5]
    best = max(model.silhouette_by_k.values())
    assert model.k == min(k for k, s in model.silhouette_by_k.items() if s == best)
    assert purity(model.train_assignments, np.repeat([0, 1, 2], 15)) == 1.0


def test_select_k_skips_infeasible_candidates():
    points = np.array([[0.0], [1.0], [10.0]])
    model = select_k(points, k_range=range(2, 9), seed=0)
    assert sorted(model.silhouette_by_k) == [2, 3]
    with pytest.raises(ParameterError):
        select_k(points[:1], k_range=range(2, 4))
    with pytest.raises(ParameterError):
        select_k(points, k_range=[])


def test_assign_breaks_ties_to_lowest_index():
    centroids = np.array([[-1.0, 0.0], [1.0, 0.0]])
    labels = assign(np.array([[0.0, 0.0], [0.9, 0.0]]), centroids)
    assert labels.tolist() == [0, 1]


def exact_sq_dists(points, centroids):
    """Squared distances from exact differences: the pre-screen assign's formula."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def assign_cases():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(30, 5))
    yield "duplicate centroids", base, base[[3, 7, 3, 7, 12]]
    # far from the origin the Gram form cancels badly, while exact
    # differences of these integers stay exact and tie
    grid = np.stack(np.meshgrid(*[np.arange(-3.0, 4.0)] * 3), axis=-1).reshape(-1, 3)
    offset = float(2**26)
    yield "integer lattice", grid + offset, grid[rng.choice(len(grid), 9)] + offset
    yield "single centroid", base, base[:1]
    huge = 1e155 * (1.0 + 1e-4 * rng.normal(size=(40, 6)))
    yield "near 1e155", huge, huge[[0, 5, 9]] * (1.0 + 1e-5)
    # squares here are subnormal: rounding is absolute, not relative
    tiny = 2e-162 * rng.normal(size=(4, 3))
    pairs = rng.integers(0, 4, size=(60, 2))
    near_ties = 0.5 * (tiny[pairs[:, 0]] + tiny[pairs[:, 1]])
    yield "near 1e-162", near_ties + 2e-165 * rng.normal(size=(60, 3)), tiny
    for trial in range(200):
        scale = 10.0 ** rng.uniform(-3, 6)
        n, d, k = rng.integers(1, 60), rng.integers(1, 9), rng.integers(2, 9)
        centroids = scale * (1.0 + rng.normal(size=(k, d)))
        points = scale * (1.0 + rng.normal(size=(n, d)))
        # midpoints of centroid pairs sit within rounding of a tie
        pairs = rng.integers(0, k, size=(n // 2, 2))
        points[: n // 2] = 0.5 * (centroids[pairs[:, 0]] + centroids[pairs[:, 1]])
        yield f"random set {trial}", points, centroids


def test_assign_matches_exact_distance_oracle():
    for name, points, centroids in assign_cases():
        want = np.argmin(exact_sq_dists(points, centroids), axis=1)
        assert np.array_equal(assign(points, centroids), want), name


def repair_empty_until_full(points, centroids, assignments, k):
    """The former repair: re-run the stealing pass until no cluster is empty."""
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
            eligible = counts[assignments] > 1
            candidate = np.where(eligible, d2, -1.0)
            p = int(np.argmax(candidate))
            centroids[j] = points[p]
            assignments[p] = j
            d2[p] = 0.0
    return centroids, assignments


def test_one_repair_pass_matches_repeating_it():
    rng = np.random.default_rng(11)
    with_empties = 0
    for case in range(400):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 25))
        d = int(rng.integers(1, 4))
        if case % 2:  # a few distinct points repeated: ties and zero distances
            m = int(rng.integers(1, 4))
            points = rng.normal(size=(m, d))[rng.integers(0, m, size=n)]
        else:
            points = rng.normal(size=(n, d))
        # centroids far off own no point, so at least one cluster starts empty
        near = int(rng.integers(1, k))
        centroids = np.concatenate(
            [points[rng.integers(0, n, size=near)], rng.normal(50.0, 1.0, size=(k - near, d))]
        )[rng.permutation(k)]
        assignments = assign(points, centroids)
        with_empties += np.bincount(assignments, minlength=k).min() == 0
        want = repair_empty_until_full(points, centroids, assignments, k)
        got = clustering._repair_empty(points, centroids, assignments, k)
        assert got[0].tobytes() == want[0].tobytes(), case
        assert got[1].tobytes() == want[1].tobytes(), case
        assert np.bincount(got[1], minlength=k).min() >= 1, case
    assert with_empties == 400


def test_purity_hand_cases():
    assert purity(np.array([0, 0, 1, 1]), np.array(["a", "b", "b", "b"])) == 0.75
    assert purity(np.array([1, 1, 0]), np.array(["x", "x", "y"])) == 1.0
    with pytest.raises(ShapeError):
        purity(np.array([0, 1]), np.array(["a"]))
    with pytest.raises(ParameterError):
        purity(np.array([], dtype=int), np.array([]))


def test_kmeans_is_deterministic_and_restarts_help():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(30, 3))
    a = kmeans_fit(points, 4, restarts=5, seed=7)
    b = kmeans_fit(points, 4, restarts=5, seed=7)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    # restart r draws from the same substream regardless of the total count,
    # so more restarts can only improve the kept inertia
    single = kmeans_fit(points, 4, restarts=1, seed=7)
    assert a.inertia <= single.inertia


def test_duplicate_points_keep_all_clusters_occupied():
    base = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    points = np.repeat(base, 4, axis=0)
    result = kmeans_fit(points, 3, restarts=10, seed=0)
    counts = np.bincount(result.assignments, minlength=3)
    assert counts.tolist() == [4, 4, 4]
    assert result.inertia == 0.0


def test_stored_train_labels_are_what_the_stored_centroids_assign():
    """``stage2`` trains on ``train_assignments`` and ``evaluate`` scores with
    ``assign``: the two agree on coincident points, even where K exceeds the
    distinct points and a cluster is left empty."""
    points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    model = select_k(points, k_range=[4], restarts=2, seed=0)
    assert np.array_equal(model.assign(points), model.train_assignments)


def test_kmeans_parameter_errors():
    points = np.zeros((3, 2))
    with pytest.raises(ParameterError):
        kmeans_fit(points, 0)
    with pytest.raises(ParameterError):
        kmeans_fit(points, 4)
    with pytest.raises(ParameterError):
        kmeans_fit(points, 2, restarts=0)
    with pytest.raises(ShapeError):
        kmeans_fit(np.zeros(3), 2)
    bad = points.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ParameterError):
        kmeans_fit(bad, 2)


def test_cluster_model_doc_round_trip():
    rng = np.random.default_rng(3)
    points = np.vstack([rng.normal(size=(10, 2)) - 3, rng.normal(size=(10, 2)) + 3])
    model = select_k(points, k_range=range(2, 5), seed=1)
    loaded = ClusterModel.from_doc(model.to_doc())
    assert loaded.k == model.k
    assert np.array_equal(loaded.centroids, model.centroids)
    assert np.array_equal(loaded.train_assignments, model.train_assignments)
    assert loaded.silhouette_by_k == model.silhouette_by_k
    probe = rng.normal(size=(6, 2))
    assert np.array_equal(loaded.assign(probe), model.assign(probe))
