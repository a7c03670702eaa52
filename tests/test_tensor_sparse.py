"""Row-sparse gradients: coalescing, accumulation, densify escape hatch."""

import numpy as np
import pytest

from repro.nn import Embedding, Parameter
from repro.tensor import RowSparseGrad, Tensor, no_grad, ops
from repro.tensor import functional as F
from tests.oracles import catalogue_batch_scores


class TestRowSparseGrad:
    def test_from_rows_coalesces_duplicates(self):
        g = RowSparseGrad.from_rows(
            np.array([3, 1, 3, 1, 3]),
            np.arange(10.0).reshape(5, 2), shape=(6, 2))
        np.testing.assert_array_equal(g.indices, [1, 3])
        # rows 1+3 of the input sum into index 1; rows 0+2+4 into index 3
        np.testing.assert_allclose(g.values, [[8.0, 10.0], [12.0, 15.0]])
        assert g.nnz == 2

    def test_densify_round_trip(self):
        dense = np.zeros((5, 3))
        dense[[0, 4]] = [[1, 2, 3], [4, 5, 6]]
        g = RowSparseGrad.from_rows(np.array([4, 0]),
                                    dense[[4, 0]], shape=(5, 3))
        np.testing.assert_array_equal(g.densify(), dense)

    def test_sparse_plus_sparse_stays_sparse(self):
        a = RowSparseGrad.from_rows(np.array([0, 2]), np.ones((2, 2)), (5, 2))
        b = RowSparseGrad.from_rows(np.array([2, 4]), np.ones((2, 2)), (5, 2))
        merged = a + b
        assert isinstance(merged, RowSparseGrad)
        np.testing.assert_array_equal(merged.indices, [0, 2, 4])
        np.testing.assert_allclose(merged.densify(), a.densify() + b.densify())

    def test_sparse_plus_dense_densifies_both_orders(self):
        sparse = RowSparseGrad.from_rows(np.array([1]), np.ones((1, 2)), (3, 2))
        dense = np.full((3, 2), 0.5)
        for result in (sparse + dense, dense + sparse):
            assert isinstance(result, np.ndarray)
            np.testing.assert_allclose(result, sparse.densify() + dense)
        # the dense operand must not be mutated in place
        np.testing.assert_allclose(dense, 0.5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RowSparseGrad(np.array([0]), np.ones((2, 2)), (5, 2))
        with pytest.raises(ValueError):
            RowSparseGrad(np.array([0]), np.ones((1, 3)), (5, 2))
        a = RowSparseGrad.from_rows(np.array([0]), np.ones((1, 2)), (5, 2))
        b = RowSparseGrad.from_rows(np.array([0]), np.ones((1, 2)), (6, 2))
        with pytest.raises(ValueError):
            a + b

    @pytest.mark.parametrize("indices", [
        [1, 1],      # duplicate: densify would drop one row
        [2, 1],      # descending
        [-1, 2],     # negative: would wrap to the last row
        [0, 4],      # past the table
    ], ids=["duplicate", "descending", "negative", "too-large"])
    def test_constructor_rejects_non_canonical_indices(self, indices):
        with pytest.raises(ValueError, match="strictly ascending"):
            RowSparseGrad(np.array(indices), np.ones((2, 3)), (4, 3))

    def test_from_rows_coalesces_duplicates_but_not_out_of_range_ids(self):
        g = RowSparseGrad.from_rows(np.array([1, 1]), np.ones((2, 3)), (4, 3))
        np.testing.assert_array_equal(g.densify()[1], [2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="strictly ascending"):
            RowSparseGrad.from_rows(np.array([-1, 7]), np.ones((2, 3)), (4, 3))

    def test_1d_table_supported(self):
        g = RowSparseGrad.from_rows(np.array([2, 2]), np.array([1.0, 3.0]),
                                    shape=(4,))
        np.testing.assert_allclose(g.densify(), [0, 0, 4.0, 0])


class TestTakeRowsSparse:
    def test_leaf_gets_sparse_grad_matching_dense(self):
        rng = np.random.default_rng(0)
        p_sparse = Parameter(rng.normal(size=(10, 4)))
        p_dense = Parameter(p_sparse.data.copy())
        idx = np.array([1, 7, 1, 3])
        (ops.take_rows(p_sparse, idx, sparse_grad=True) ** 2).sum().backward()
        (ops.take_rows(p_dense, idx) ** 2).sum().backward()
        assert isinstance(p_sparse.grad, RowSparseGrad)
        np.testing.assert_array_equal(p_sparse.grad.indices, [1, 3, 7])
        np.testing.assert_allclose(p_sparse.grad.densify(), p_dense.grad)

    def test_two_gathers_accumulate_sparse(self):
        p = Parameter(np.ones((8, 2)))
        a = ops.take_rows(p, np.array([0, 2]), sparse_grad=True)
        b = ops.take_rows(p, np.array([2, 5]), sparse_grad=True)
        (a.sum() + (b * 2.0).sum()).backward()
        assert isinstance(p.grad, RowSparseGrad)
        np.testing.assert_array_equal(p.grad.indices, [0, 2, 5])
        np.testing.assert_allclose(p.grad.densify()[:, 0], [1, 0, 3, 0, 0, 2, 0, 0])

    def test_mixed_sparse_and_dense_use_densifies(self):
        p = Parameter(np.ones((6, 2)))
        gathered = ops.take_rows(p, np.array([1, 4]), sparse_grad=True)
        (gathered.sum() + (p * p).sum()).backward()
        assert isinstance(p.grad, np.ndarray)
        expected = np.full((6, 2), 2.0)
        expected[[1, 4]] += 1.0
        np.testing.assert_allclose(p.grad, expected)

    def test_interior_node_densifies_escape_hatch(self):
        """Gathering from a non-leaf (e.g. a normalized table) must
        densify at the interior node and produce the reference grad."""
        rng = np.random.default_rng(1)
        p_sparse = Parameter(rng.normal(size=(7, 3)))
        p_dense = Parameter(p_sparse.data.copy())
        idx = np.array([0, 5, 5])
        out = ops.take_rows(F.l2_normalize(p_sparse, axis=1), idx,
                            sparse_grad=True)
        (out * np.arange(9.0).reshape(3, 3)).sum().backward()
        ref = ops.take_rows(F.l2_normalize(p_dense, axis=1), idx)
        (ref * np.arange(9.0).reshape(3, 3)).sum().backward()
        assert isinstance(p_sparse.grad, np.ndarray)
        np.testing.assert_allclose(p_sparse.grad, p_dense.grad, rtol=1e-12)

    def test_2d_index_gather(self):
        p = Parameter(np.ones((9, 2)))
        out = ops.take_rows(p, np.array([[1, 2], [2, 3]]), sparse_grad=True)
        out.sum().backward()
        np.testing.assert_array_equal(p.grad.indices, [1, 2, 3])
        np.testing.assert_allclose(p.grad.values[:, 0], [1, 2, 1])

    def test_no_grad_mode_builds_no_graph(self):
        p = Parameter(np.ones((4, 2)))
        with no_grad():
            out = ops.take_rows(p, np.array([1]), sparse_grad=True)
        assert out._parents == ()

    def test_embedding_sparse_flag(self):
        emb = Embedding(6, 3, rng=0, sparse_grad=True)
        emb(np.array([2, 2, 4])).sum().backward()
        assert isinstance(emb.weight.grad, RowSparseGrad)
        np.testing.assert_allclose(emb.weight.grad.densify()[2], np.full(3, 2.0))
        dense = Embedding(6, 3, rng=0)
        dense(np.array([2, 2, 4])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad.densify(), dense.weight.grad)


class TestFusedSampledScores:
    """Kernel-level: finite-difference gradients and input validation
    (value parity with the dense oracle is the model-level class below)."""

    @pytest.fixture()
    def tables(self):
        rng = np.random.default_rng(3)
        users = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        items = Tensor(rng.normal(size=(9, 5)), requires_grad=True)
        u = np.array([0, 2, 5, 2])
        p = np.array([1, 1, 8, 0])
        n = np.array([[0, 3, 7], [4, 1, 1], [2, 2, 6], [5, 0, 3]])
        return users, items, u, p, n

    @pytest.mark.parametrize("scoring", ["cosine", "inner", "euclidean"])
    def test_matches_finite_differences(self, tables, scoring):
        users, items, u, p, n = tables
        rng = np.random.default_rng(7)
        w = rng.normal(size=(len(u), 1 + n.shape[1]))

        def value(user_data, item_data):
            out = F.fused_sampled_scores(Tensor(user_data), Tensor(item_data),
                                         u, p, n, scoring=scoring)
            return float((out.data * w).sum())

        users.grad = items.grad = None
        scores = F.fused_sampled_scores(users, items, u, p, n, scoring=scoring)
        (scores * w).sum().backward()
        for t, which in ((users, 0), (items, 1)):
            grad = t.grad.densify() if isinstance(t.grad, RowSparseGrad) \
                else t.grad
            numeric = np.zeros_like(t.data)
            h = 1e-6
            for index in np.ndindex(t.data.shape):
                plus, minus = t.data.copy(), t.data.copy()
                plus[index] += h
                minus[index] -= h
                if which == 0:
                    numeric[index] = (value(plus, items.data)
                                      - value(minus, items.data)) / (2 * h)
                else:
                    numeric[index] = (value(users.data, plus)
                                      - value(users.data, minus)) / (2 * h)
            np.testing.assert_allclose(grad, numeric, atol=2e-6)

    @pytest.mark.parametrize("scoring", ["cosine", "inner", "euclidean"])
    def test_chunk_size_does_not_change_a_bit(self, tables, scoring,
                                              monkeypatch):
        """The kernel walks batch rows and item rows in byte-sized
        chunks; one chunk or many must give the same scores and grads."""
        users, items, u, p, n = tables

        def run():
            users.grad = items.grad = None
            scores = F.fused_sampled_scores(users, items, u, p, n,
                                            scoring=scoring)
            (scores * scores).sum().backward()
            return scores.data, users.grad.densify(), items.grad.densify()

        whole = run()
        monkeypatch.setattr(F, "_CHUNK_BYTES", 100)  # 1 batch row, 2 items
        for a, b in zip(whole, run()):
            np.testing.assert_array_equal(a, b)

    def test_rejects_bad_inputs(self, tables):
        users, items, u, p, n = tables
        with pytest.raises(ValueError):
            F.fused_sampled_scores(users, items, u, p, n, scoring="manhattan")
        with pytest.raises(ValueError):
            F.fused_sampled_scores(users, items, u, p[:2], n)


class TestDistinctRows:
    """``_distinct_rows`` switches from ``np.unique`` to a presence table
    once a block has ``n_rows`` slots; both sides must give the same
    arrays, so the kernel's scores and gradients cannot tell them apart."""

    BATCH, NEG = 6, 5  # 6 x (1 + 5) = 36 slots; in-batch has B - 1 = 5

    @classmethod
    def _block(cls, kind, n_rows, rng):
        if kind == "in-batch":  # every other row's positive is a negative
            pos = rng.integers(0, n_rows, cls.BATCH)
            neg = np.stack([np.delete(pos, b) for b in range(cls.BATCH)])
        elif kind == "uniform":
            pos = rng.integers(0, n_rows, cls.BATCH)
            neg = rng.integers(0, n_rows, (cls.BATCH, cls.NEG))
        else:  # one id in every slot
            pos = np.full(cls.BATCH, n_rows - 1)
            neg = np.full((cls.BATCH, cls.NEG), n_rows - 1)
        return pos, neg

    CASES = [(kind, offset) for kind in ("in-batch", "uniform", "duplicate")
             for offset in (-1, 0, 1)]

    @pytest.mark.parametrize("kind,offset", CASES)
    def test_matches_np_unique(self, kind, offset):
        slots = self.BATCH * (1 + self.NEG)
        n_rows = slots + offset
        pos, neg = self._block(kind, n_rows, np.random.default_rng(offset + 2))
        flat = np.concatenate([pos[:, None], neg], axis=1).reshape(-1)
        assert flat.size == slots
        uniq, inverse = F._distinct_rows(flat, n_rows)
        ref_uniq, ref_inverse = np.unique(flat, return_inverse=True)
        np.testing.assert_array_equal(uniq, ref_uniq)
        np.testing.assert_array_equal(inverse, ref_inverse)
        assert inverse.dtype == ref_inverse.dtype

    @pytest.mark.parametrize("kind,offset", CASES)
    def test_kernel_bits_equal_across_branches(self, kind, offset,
                                               monkeypatch):
        n_rows = self.BATCH * (1 + self.NEG) + offset
        rng = np.random.default_rng(offset + 5)
        pos, neg = self._block(kind, n_rows, rng)
        users = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        items = Tensor(rng.normal(size=(n_rows, 3)), requires_grad=True)
        u = rng.integers(0, 4, self.BATCH)
        w = rng.normal(size=(self.BATCH, 1 + neg.shape[1]))

        def run(scoring):
            users.grad = items.grad = None
            scores = F.fused_sampled_scores(users, items, u, pos, neg,
                                            scoring=scoring)
            (scores * w).sum().backward()
            return (scores.data, users.grad.indices, users.grad.values,
                    items.grad.indices, items.grad.values)

        scorings = ("cosine", "inner", "euclidean")
        switched = [run(s) for s in scorings]
        monkeypatch.setattr(F, "_distinct_rows", lambda idx, n: np.unique(
            idx, return_inverse=True))
        for got, ref in zip(switched, [run(s) for s in scorings]):
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)


class TestSampledBatchScoresParity:
    """Model-level: sampled scoring == the full-catalogue oracle."""

    @pytest.mark.parametrize("model_name", ["mf", "cml"])
    def test_scores_match_dense_path(self, tiny_dataset, model_name):
        from repro.data.sampling import UniformNegativeSampler
        from repro.models.registry import get_model
        model = get_model(model_name, tiny_dataset, dim=8, rng=0)
        sampler = UniformNegativeSampler(tiny_dataset, n_negatives=8,
                                         batch_size=64, rng=0)
        batch = next(iter(sampler.epoch()))
        pos_ref, neg_ref = catalogue_batch_scores(model, batch)
        pos, neg = model.sampled_batch_scores(batch)
        np.testing.assert_allclose(pos.data, pos_ref.data,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(neg.data, neg_ref.data,
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("model_name", ["mf", "cml"])
    def test_gradients_match_dense_path(self, tiny_dataset, model_name):
        from repro.data.sampling import UniformNegativeSampler
        from repro.models.registry import get_model
        sampler = UniformNegativeSampler(tiny_dataset, n_negatives=8,
                                         batch_size=64, rng=0)
        batch = next(iter(sampler.epoch()))
        grads = {}
        for path in ("dense", "sampled"):
            model = get_model(model_name, tiny_dataset, dim=8, rng=0)
            pos, neg = (catalogue_batch_scores(model, batch)
                        if path == "dense"
                        else model.sampled_batch_scores(batch))
            (pos.sum() + (neg * 0.25).sum()).backward()
            grads[path] = {
                name: (param.grad.densify()
                       if isinstance(param.grad, RowSparseGrad)
                       else param.grad)
                for name, param in model.named_parameters()}
        for name in grads["dense"]:
            np.testing.assert_allclose(grads["sampled"][name],
                                       grads["dense"][name],
                                       rtol=1e-9, atol=1e-12)

    def test_sparse_grads_reach_leaf_tables(self, tiny_dataset):
        from repro.data.sampling import UniformNegativeSampler
        from repro.models.registry import get_model
        model = get_model("mf", tiny_dataset, dim=8, rng=0)
        batch = next(iter(UniformNegativeSampler(
            tiny_dataset, n_negatives=8, batch_size=64, rng=0).epoch()))
        pos, neg = model.sampled_batch_scores(batch)
        (pos.sum() + neg.sum()).backward()
        assert isinstance(model.user_embedding.weight.grad, RowSparseGrad)
        assert isinstance(model.item_embedding.weight.grad, RowSparseGrad)
        # nnz is bounded by the batch, not the table
        assert model.user_embedding.weight.grad.nnz <= len(batch)
