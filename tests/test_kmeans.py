"""K-means: the GEMM-only Lloyd loop against the per-cluster oracle.

``repro.analysis.kmeans.kmeans`` seeds with a running minimum and runs
each Lloyd step as one distance GEMM, one ``argmin`` and one one-hot
sparse product.  ``tests/oracles.py::kmeans`` is the obvious form: full
distance recomputation per seeding draw and ``members.mean(axis=0)``
per cluster.  Labels and centroid *bytes* must match, and so must every
file of an ANN index directory built on either.
"""

import sys

import numpy as np
import pytest

from repro.analysis.kmeans import kmeans, sq_dists
from repro.ann import build_ann_index
from tests import oracles


def _blobs(n, dim, centers, seed):
    """``n`` rows around ``centers`` gaussian centres: a table with
    cluster structure, like a trained item table."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=3.0, size=(centers, dim))
    return means[rng.integers(centers, size=n)] + rng.normal(size=(n, dim))


def _assert_same(x, k, seed, n_iter=25):
    want_c, want_l = oracles.kmeans(x, k, n_iter=n_iter, rng=seed)
    got_c, got_l = kmeans(x, k, n_iter=n_iter, rng=seed)
    np.testing.assert_array_equal(got_l, want_l)
    assert got_c.tobytes() == want_c.tobytes()


class TestOracleParity:
    @pytest.fixture(scope="class")
    def table(self):
        return _blobs(9000, 64, 40, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_ivf_shaped_table(self, table, seed):
        _assert_same(table, 32, seed)

    def test_non_contiguous_column_slice(self, table):
        """The PQ path: one subspace of the residual table, a strided
        view."""
        sub = table[:, 8:16]
        assert not sub.flags.c_contiguous
        _assert_same(sub, 32, seed=3)

    def test_small_table(self):
        _assert_same(np.random.default_rng(1).normal(size=(2000, 16)), 20,
                     seed=1)

    def test_two_columns_more_clusters_than_structure(self):
        _assert_same(np.random.default_rng(2).normal(size=(50, 2)), 6,
                     seed=2)

    def test_duplicate_rows(self):
        """10 distinct rows, 12 clusters: seeding reaches its all-zero
        branch and Lloyd reseeds two empty clusters in one step, to two
        different rows."""
        x = np.tile(np.random.default_rng(3).normal(size=(10, 4)), (5, 1))
        _assert_same(x, 12, seed=3)

    def test_one_cluster_per_row(self):
        _assert_same(np.random.default_rng(4).normal(size=(12, 3)), 12,
                     seed=4)

    def test_single_column_is_close(self):
        """A one-column table is the one documented exception: numpy's
        ``mean`` sums a lone column pairwise, the sparse product
        sequentially, so centroids may move in the last ulp."""
        x = _blobs(3000, 1, 5, seed=5)
        want_c, want_l = oracles.kmeans(x, 5, n_iter=25, rng=5)
        got_c, got_l = kmeans(x, 5, n_iter=25, rng=5)
        np.testing.assert_array_equal(got_l, want_l)
        np.testing.assert_allclose(got_c, want_c, rtol=1e-12, atol=0)


class TestEmptyClusterReseed:
    """Two seeds far from every row leave two clusters empty after the
    first step; each must take its own farthest point."""

    X = np.array([[0.0, 0.0], [0.1, 0.0], [0.9, 0.0], [1.0, 0.0],
                  [5.0, 0.0], [6.0, 0.0]])
    SEEDS = np.array([[0.0, 0.0], [1.0, 0.0], [1e3, 0.0], [-1e3, 0.0]])

    @pytest.fixture(autouse=True)
    def inject_seeds(self, monkeypatch):
        # ``repro.analysis.kmeans`` the attribute is the function.
        monkeypatch.setattr(sys.modules["repro.analysis.kmeans"],
                            "_plus_plus_init",
                            lambda *args: self.SEEDS.copy())

    def test_e_th_empty_cluster_takes_e_th_farthest_point(self):
        centroids, _ = kmeans(self.X, 4, n_iter=1)
        np.testing.assert_array_equal(centroids[2], self.X[5])
        np.testing.assert_array_equal(centroids[3], self.X[4])
        assert len(np.unique(centroids, axis=0)) == 4

    def test_no_cluster_stays_empty(self):
        _, labels = kmeans(self.X, 4, n_iter=25)
        assert sorted(np.unique(labels)) == [0, 1, 2, 3]


class TestSqDists:
    @pytest.mark.parametrize("x_dtype, c_dtype", [
        (np.float64, np.float64), (np.float32, np.float64),
        (np.float32, np.float32)])
    def test_bits_equal_the_expanded_formula(self, x_dtype, c_dtype):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 16)).astype(x_dtype)
        c = rng.normal(size=(7, 16)).astype(c_dtype)
        for xs, cs in ((x, c), (x[:, ::2], c[:, ::2])):  # and strided views
            want = oracles.sq_dists(xs, cs)
            got = sq_dists(xs, cs)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestIndexDirectories:
    """Satellite acceptance: an index built on the fast k-means is the
    one the oracle builds, file for file."""

    @pytest.mark.parametrize("kind, nlist, spill", [
        ("ivf", 32, 1), ("ivf", 64, 2), ("ivfpq", 16, 1)])
    def test_bytes_equal_oracle_build(self, yelp_retrieval, tmp_path,
                                      monkeypatch, kind, nlist, spill):
        _, _, snapshot = yelp_retrieval
        params = dict(kind=kind, nlist=nlist, spill=spill, seed=0)
        build_ann_index(snapshot, tmp_path / "fast", **params)
        calls = []

        def oracle(*args, **kwargs):
            calls.append(1)
            return oracles.kmeans(*args, **kwargs)

        monkeypatch.setattr("repro.ann.ivf.kmeans", oracle)
        monkeypatch.setattr("repro.ann.pq.kmeans", oracle)
        build_ann_index(snapshot, tmp_path / "oracle", **params)
        assert len(calls) == (1 + 8 if kind == "ivfpq" else 1)
        fast, slow = tmp_path / "fast", tmp_path / "oracle"
        names = sorted(p.name for p in fast.iterdir())
        assert names == sorted(p.name for p in slow.iterdir())
        for name in names:
            assert (fast / name).read_bytes() == (slow / name).read_bytes(), \
                name
