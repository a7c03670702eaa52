"""Graph substrate: adjacency normalization, spmm gradients, perturbations."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import (adjacency_from_pairs, normalize_adjacency,
                         bipartite_adjacency, spmm, edge_dropout_adjacency,
                         svd_view)
from repro.tensor import Tensor

from tests.helpers import TOL32


@pytest.fixture()
def pairs():
    return np.array([[0, 0], [0, 1], [1, 1], [2, 0]])


class TestAdjacency:
    def test_bipartite_structure(self, pairs):
        adj = adjacency_from_pairs(pairs, num_users=3, num_items=2)
        assert adj.shape == (5, 5)
        dense = adj.toarray()
        # user-user and item-item blocks are zero
        assert not dense[:3, :3].any()
        assert not dense[3:, 3:].any()
        # symmetry
        np.testing.assert_array_equal(dense, dense.T)
        assert dense[0, 3] == 1.0  # user 0 - item 0

    def test_duplicates_collapsed(self):
        pairs = np.array([[0, 0], [0, 0]])
        adj = adjacency_from_pairs(pairs, 1, 1)
        assert adj.toarray()[0, 1] == 1.0

    def test_normalization_matches_dense_formula(self, pairs):
        adj = adjacency_from_pairs(pairs, 3, 2)
        dense = adj.toarray()
        deg = dense.sum(axis=1)
        d_inv = np.diag(1.0 / np.sqrt(deg))
        expected = d_inv @ dense @ d_inv
        np.testing.assert_allclose(normalize_adjacency(adj).toarray(),
                                   expected, atol=1e-12)

    def test_zero_degree_nodes_safe(self):
        # user 2 and item 1 have no edges
        pairs = np.array([[0, 0], [1, 0]])
        norm = normalize_adjacency(adjacency_from_pairs(pairs, 3, 2))
        assert np.all(np.isfinite(norm.toarray()))

    def test_spectral_radius_at_most_one(self, tiny_dataset):
        adj = bipartite_adjacency(tiny_dataset)
        # Largest singular value of the symmetric normalization is <= 1
        # (the float32 graph and ARPACK's float32 iteration round).  A
        # seeded start: ARPACK's own random one made the rounding vary
        # from run to run.
        top = sp.linalg.svds(adj, k=1, return_singular_vectors=False,
                             random_state=0)
        assert top[0] <= 1.0 + TOL32


class TestSpmm:
    def test_forward_matches_dense(self, rng):
        mat = sp.random(6, 5, density=0.5, random_state=0, format="csr")
        x = Tensor(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(spmm(mat, x).data, mat.toarray() @ x.data,
                                   atol=1e-12)

    def test_gradient_is_transpose(self, rng):
        mat = sp.random(6, 5, density=0.5, random_state=1, format="csr")
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        spmm(mat, x).sum().backward()
        expected = mat.toarray().T @ np.ones((6, 3))
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        mat = sp.eye(4).tocsr()
        with pytest.raises(ValueError):
            spmm(mat, Tensor(np.zeros((5, 2))))

    def test_composes_in_graph(self, rng):
        mat = sp.eye(4).tocsr() * 2.0
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = (spmm(mat, x) * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, np.full((4, 2), 6.0))


class TestEdgeDropout:
    def test_reduces_edge_count(self, tiny_dataset):
        full = bipartite_adjacency(tiny_dataset)
        dropped = edge_dropout_adjacency(tiny_dataset, 0.5, rng=0)
        assert dropped.nnz < full.nnz

    def test_zero_ratio_keeps_all(self, tiny_dataset):
        full = bipartite_adjacency(tiny_dataset)
        kept = edge_dropout_adjacency(tiny_dataset, 0.0, rng=0)
        assert kept.nnz == full.nnz

    def test_views_differ_across_draws(self, tiny_dataset):
        import numpy as np
        rng = np.random.default_rng(0)
        a = edge_dropout_adjacency(tiny_dataset, 0.3, rng=rng)
        b = edge_dropout_adjacency(tiny_dataset, 0.3, rng=rng)
        assert (a != b).nnz > 0

    def test_rejects_bad_ratio(self, tiny_dataset):
        with pytest.raises(ValueError):
            edge_dropout_adjacency(tiny_dataset, 1.0)


class TestSvdView:
    def test_shapes(self, tiny_dataset):
        u, v = svd_view(tiny_dataset, rank=4)
        assert u.shape == (tiny_dataset.num_users, 4)
        assert v.shape == (tiny_dataset.num_items, 4)

    def test_reconstruction_improves_with_rank(self, tiny_dataset):
        mat = tiny_dataset.train_matrix().toarray()
        # compare normalized matrix reconstruction errors
        def err(rank):
            u, v = svd_view(tiny_dataset, rank=rank)
            recon = u @ v.T
            du = mat.sum(axis=1, keepdims=True)
            di = mat.sum(axis=0, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                norm = np.where((du > 0) & (di > 0),
                                mat / np.sqrt(du) / np.sqrt(di), 0.0)
            return np.linalg.norm(norm - recon)
        assert err(8) < err(2)

    def test_rejects_bad_rank(self, tiny_dataset):
        with pytest.raises(ValueError):
            svd_view(tiny_dataset, rank=0)

    def test_two_calls_byte_equal(self, tiny_dataset):
        """LightGCL's global view is reproducible: ARPACK's start is
        seeded, so the factors (not just their product) repeat."""
        u1, v1 = svd_view(tiny_dataset, rank=8)
        u2, v2 = svd_view(tiny_dataset, rank=8)
        assert u1.tobytes() == u2.tobytes()
        assert v1.tobytes() == v2.tobytes()
