"""Sparse optimizers: exact dense-parity, lazy semantics, edge cases.

The acceptance pin for the row-sparse training engine: ``exact`` mode
must be numerically equivalent (allclose at 1e-10) to the dense
optimizer fed explicit zero gradients for untouched rows, over 50+
steps of realistic sparse gradient streams drawn from the tiny
dataset's sampler.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.sampling import UniformNegativeSampler
from repro.nn import Adam, Parameter, SGD, SparseAdam, SparseSGD, optim
from repro.tensor import RowSparseGrad
from repro.tensor.tensor import data_version
from tests.oracles import adam_rows, adam_table, sgd_rows


def _tiny_gradient_stream(tiny_dataset, steps, dim, seed=0):
    """Realistic (rows, values) per step: batch rows from the sampler."""
    sampler = UniformNegativeSampler(tiny_dataset, n_negatives=4,
                                     batch_size=32, rng=seed)
    rng = np.random.default_rng(seed + 1)
    batches = []
    while len(batches) < steps:
        for batch in sampler.epoch():
            rows = np.unique(np.concatenate(
                [batch.positives, batch.negatives.reshape(-1)]))
            batches.append((rows, rng.normal(size=(len(rows), dim))))
            if len(batches) >= steps:
                break
    return batches


def _run_parity(tiny_dataset, make_dense, make_sparse, *, steps=60, dim=6):
    shape = (tiny_dataset.num_items, dim)
    rng = np.random.default_rng(9)
    start = rng.normal(size=shape)
    p_dense, p_sparse = Parameter(start.copy()), Parameter(start.copy())
    opt_dense, opt_sparse = make_dense([p_dense]), make_sparse([p_sparse])
    for rows, values in _tiny_gradient_stream(tiny_dataset, steps, dim):
        dense_grad = np.zeros(shape)
        dense_grad[rows] = values
        p_dense.grad = dense_grad
        p_sparse.grad = RowSparseGrad(rows, values.copy(), shape)
        opt_dense.step()
        opt_sparse.step()
    opt_sparse.flush()
    return p_dense.data, p_sparse.data


class TestExactParity:
    """`exact` sparse == dense optimizer over >= 50 realistic steps."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_sparse_adam_exact_matches_dense_adam(self, tiny_dataset,
                                                  weight_decay):
        dense, sparse = _run_parity(
            tiny_dataset,
            lambda p: Adam(p, lr=0.05, weight_decay=weight_decay),
            lambda p: SparseAdam(p, lr=0.05, weight_decay=weight_decay,
                                 mode="exact"))
        np.testing.assert_allclose(sparse, dense, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("momentum,weight_decay",
                             [(0.0, 0.0), (0.9, 0.0), (0.9, 1e-3)])
    def test_sparse_sgd_exact_matches_dense_sgd(self, tiny_dataset,
                                                momentum, weight_decay):
        dense, sparse = _run_parity(
            tiny_dataset,
            lambda p: SGD(p, lr=0.05, momentum=momentum,
                          weight_decay=weight_decay),
            lambda p: SparseSGD(p, lr=0.05, momentum=momentum,
                                weight_decay=weight_decay, mode="exact"))
        np.testing.assert_allclose(sparse, dense, atol=1e-10, rtol=0)

    def test_flush_is_required_for_parity(self, tiny_dataset):
        """Without flush, rows untouched since their last step lag the
        dense trajectory — the reason the trainer flushes before eval."""
        shape = (tiny_dataset.num_items, 4)
        p_dense = Parameter(np.ones(shape))
        p_sparse = Parameter(np.ones(shape))
        opt_dense = Adam([p_dense], lr=0.1)
        opt_sparse = SparseAdam([p_sparse], lr=0.1, mode="exact")
        rows = np.array([0, 1])
        values = np.ones((2, 4))
        for _ in range(3):
            dense_grad = np.zeros(shape)
            dense_grad[rows] = values
            p_dense.grad = dense_grad
            p_sparse.grad = RowSparseGrad(rows, values.copy(), shape)
            opt_dense.step()
            opt_sparse.step()
            rows = rows + 2  # touch a sliding window of rows
        assert not np.allclose(p_sparse.data, p_dense.data, atol=1e-10)
        opt_sparse.flush()
        np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-10)

    def test_exact_mixed_sparse_then_dense_stream_matches_dense(self):
        """A dense gradient arriving after sparse steps (auxiliary
        losses, graph models) must replay the pending zero-grad updates
        of idle rows before applying, or exact parity silently breaks."""
        shape = (8, 3)
        rng = np.random.default_rng(4)
        start = rng.normal(size=shape)
        p_dense, p_sparse = Parameter(start.copy()), Parameter(start.copy())
        opt_dense = Adam([p_dense], lr=0.1, weight_decay=1e-2)
        opt_sparse = SparseAdam([p_sparse], lr=0.1, weight_decay=1e-2,
                                mode="exact")
        for t in range(12):
            if t % 3 == 2:  # every third step densifies
                g = rng.normal(size=shape)
                p_dense.grad = g
                p_sparse.grad = g.copy()
            else:
                rows = np.unique(rng.integers(0, shape[0], size=3))
                values = rng.normal(size=(len(rows), shape[1]))
                dense_g = np.zeros(shape)
                dense_g[rows] = values
                p_dense.grad = dense_g
                p_sparse.grad = RowSparseGrad(rows, values.copy(), shape)
            opt_dense.step()
            opt_sparse.step()
        opt_sparse.flush()
        np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-10,
                                   rtol=0)

    def test_dense_optimizer_flush_is_noop(self):
        p = Parameter(np.ones((3, 2)))
        opt = Adam([p], lr=0.1)
        opt.flush()  # base-class no-op: callers need not duck-type
        np.testing.assert_array_equal(p.data, np.ones((3, 2)))

    def test_exact_with_dense_grads_equals_dense_adam(self):
        p_dense, p_sparse = Parameter(np.ones((5, 3))), Parameter(np.ones((5, 3)))
        opt_dense = Adam([p_dense], lr=0.1, weight_decay=1e-2)
        opt_sparse = SparseAdam([p_sparse], lr=0.1, weight_decay=1e-2,
                                mode="exact")
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.normal(size=(5, 3))
            p_dense.grad = g
            p_sparse.grad = g.copy()
            opt_dense.step()
            opt_sparse.step()
        np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-12)


class OracleAdam(SparseAdam):
    """``SparseAdam`` with its row kernel swapped for ``oracles.adam_rows``."""

    def _apply(self, i, rows, g, step_nums):
        p = self.params[i].data
        g = g if isinstance(g, np.ndarray) else np.zeros_like(p[rows])
        adam_rows(p, self._m[i], self._v[i], rows, g, step_nums, lr=self.lr,
                  betas=(self.beta1, self.beta2), eps=self.eps,
                  weight_decay=self.weight_decay)


class OracleSGD(SparseSGD):
    """``SparseSGD`` with its row kernel swapped for ``oracles.sgd_rows``."""

    def _apply(self, i, rows, g, step_nums):
        p = self.params[i].data
        g = g if isinstance(g, np.ndarray) else np.zeros_like(p[rows])
        sgd_rows(p, self._velocity[i], rows, g, lr=self.lr,
                 momentum=self.momentum, weight_decay=self.weight_decay)


DIM = 8
CHUNK = optim._CHUNK_BYTES // (8 * DIM)   # rows per kernel chunk at DIM


def _run_stream(make, nnz, steps):
    """Feed one seeded stream to ``make(params)``; return params + state.

    The table gets ``nnz`` fresh random rows per step (so exact mode
    replays gaps at per-row step numbers), the small parameter a dense
    gradient on most steps, and a mid-stream ``flush()`` catches up rows
    last touched at different steps.
    """
    rng = np.random.default_rng(3)
    table = Parameter(rng.normal(size=(3 * CHUNK + 40, DIM)))
    small = Parameter(rng.normal(size=(5, 3)))
    opt = make([table, small])
    for t in range(steps):
        rows = np.sort(rng.choice(len(table.data), size=nnz, replace=False))
        table.grad = RowSparseGrad(rows, rng.normal(size=(nnz, DIM)),
                                   table.shape)
        small.grad = rng.normal(size=small.shape) if t % 3 else None
        opt.step()
        if t == steps // 2:
            opt.flush()
    opt.flush()
    state = [table.data, small.data]
    for name in ("_m", "_v", "_velocity"):
        state += getattr(opt, name, [])
    return state


class TestKernelsMatchOracleBits:
    """The chunked in-place kernels reproduce the plain arithmetic's bits."""

    @pytest.mark.parametrize("nnz", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                     3 * CHUNK + 7])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-6])
    @pytest.mark.parametrize("mode", ["lazy", "exact"])
    def test_sparse_adam(self, mode, weight_decay, nnz):
        kw = dict(lr=0.05, weight_decay=weight_decay, mode=mode)
        got = _run_stream(lambda p: SparseAdam(p, **kw), nnz, steps=12)
        want = _run_stream(lambda p: OracleAdam(p, **kw), nnz, steps=12)
        assert len(got) == len(want) == 6       # p, m, v of both parameters
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("mode", ["lazy", "exact"])
    def test_sparse_sgd(self, mode, momentum, weight_decay):
        kw = dict(lr=0.05, momentum=momentum, weight_decay=weight_decay,
                  mode=mode)
        got = _run_stream(lambda p: SparseSGD(p, **kw), CHUNK + 3, steps=20)
        want = _run_stream(lambda p: OracleSGD(p, **kw), CHUNK + 3, steps=20)
        assert len(got) == len(want) == 4
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_dense_adam_over_every_row(self, weight_decay):
        """Dense ``Adam`` runs the chunked kernel over every row, with the
        bits of the whole-table step (12 steps: ``0.999 ** 7`` is one
        where numpy's power would round differently)."""
        rng = np.random.default_rng(5)
        start = rng.normal(size=(3 * CHUNK + 40, DIM))
        p = Parameter(start.copy())
        opt = Adam([p], lr=0.05, weight_decay=weight_decay)
        want, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
        for t in range(1, 13):
            g = rng.normal(size=start.shape)
            p.grad = g.copy()
            opt.step()
            adam_table(want, m, v, g, t, lr=0.05, weight_decay=weight_decay)
        for got, ref in zip((p.data, opt._m[0], opt._v[0]), (want, m, v)):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_dense_sgd_over_every_row(self, momentum, weight_decay):
        rng = np.random.default_rng(6)
        start = rng.normal(size=(2 * CHUNK + 5, DIM))
        p = Parameter(start.copy())
        opt = SGD([p], lr=0.05, momentum=momentum, weight_decay=weight_decay)
        want, vel = start.copy(), np.zeros_like(start)
        for _ in range(6):
            g = rng.normal(size=start.shape)
            p.grad = g.copy()
            opt.step()
            sgd_rows(want, vel, slice(None), g, lr=0.05, momentum=momentum,
                     weight_decay=weight_decay)
        np.testing.assert_array_equal(p.data, want)
        np.testing.assert_array_equal(opt._velocity[0], vel)

    def test_step_workspace_is_chunk_sized_not_nnz_sized(self):
        """Peak traced allocation of a step must not follow nnz."""
        def step_peak(nnz):
            p = Parameter(np.ones((nnz, 64)))
            opt = SparseAdam([p], lr=0.01, weight_decay=1e-6)
            p.grad = RowSparseGrad(np.arange(nnz), np.ones((nnz, 64)),
                                   p.shape)
            opt.step()
            tracemalloc.start()
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak
        assert step_peak(20_000) <= 2 * step_peak(2_000)


class TestLazySemantics:
    def test_untouched_rows_frozen(self):
        p = Parameter(np.arange(20.0).reshape(10, 2))
        before = p.data.copy()
        opt = SparseAdam([p], lr=0.5, mode="lazy")
        for _ in range(4):
            p.grad = RowSparseGrad(np.array([2, 7]), np.ones((2, 2)), p.shape)
            opt.step()
        untouched = [0, 1, 3, 4, 5, 6, 8, 9]
        np.testing.assert_array_equal(p.data[untouched], before[untouched])
        assert not np.allclose(p.data[[2, 7]], before[[2, 7]])

    def test_lazy_sgd_without_momentum_equals_dense(self, tiny_dataset):
        dense, sparse = _run_parity(
            tiny_dataset,
            lambda p: SGD(p, lr=0.05),
            lambda p: SparseSGD(p, lr=0.05, mode="lazy"),
            steps=50)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_lazy_weight_decay_applies_only_on_touch(self):
        """Lazy regularization: decay pulls a row only when touched."""
        p = Parameter(np.full((4, 2), 10.0))
        opt = SparseSGD([p], lr=0.1, weight_decay=1.0, mode="lazy")
        p.grad = RowSparseGrad(np.array([1]), np.zeros((1, 2)), p.shape)
        opt.step()
        np.testing.assert_allclose(p.data[1], 9.0)   # 10 - lr * wd * 10
        np.testing.assert_allclose(p.data[0], 10.0)  # untouched: no decay

    def test_lazy_adam_weight_decay_documented_semantics(self):
        """Touched rows see grad + wd * p, untouched rows see nothing."""
        p = Parameter(np.full((3, 2), 4.0))
        opt = SparseAdam([p], lr=0.1, weight_decay=0.5, mode="lazy")
        p.grad = RowSparseGrad(np.array([0]), np.zeros((1, 2)), p.shape)
        opt.step()
        # effective grad = 0 + 0.5 * 4 = 2 -> first Adam step ~= lr
        np.testing.assert_allclose(p.data[0], 4.0 - 0.1, atol=1e-6)
        np.testing.assert_allclose(p.data[1:], 4.0)

    def test_flush_is_noop_in_lazy_mode(self):
        p = Parameter(np.ones((4, 2)))
        opt = SparseAdam([p], lr=0.5, mode="lazy")
        p.grad = RowSparseGrad(np.array([0]), np.ones((1, 2)), p.shape)
        opt.step()
        after_step = p.data.copy()
        opt.flush()
        np.testing.assert_array_equal(p.data, after_step)


class TestEdgeCases:
    def test_dense_optimizers_densify_sparse_grads(self):
        """``Adam``/``SGD`` fed a ``RowSparseGrad`` leave ``p`` and the
        moments equal to the same optimizer fed ``grad.densify()``."""
        rng = np.random.default_rng(4)
        start = rng.normal(size=(6, 3))
        grads = [RowSparseGrad.from_rows(rng.integers(0, 6, size=4),
                                         rng.normal(size=(4, 3)), start.shape)
                 for _ in range(4)]
        for make, state in (
                (lambda p: Adam(p, lr=0.1, weight_decay=0.01),
                 lambda opt: opt._m + opt._v),
                (lambda p: SGD(p, lr=0.1, momentum=0.9, weight_decay=0.01),
                 lambda opt: opt._velocity)):
            runs = []
            for densify in (False, True):
                p = Parameter(start.copy())
                opt = make([p])
                for g in grads:
                    p.grad = g.densify() if densify else g
                    opt.step()
                runs.append([p.data] + state(opt))
            for sparse_fed, dense_fed in zip(*runs):
                np.testing.assert_array_equal(sparse_fed, dense_fed)
            assert not np.array_equal(runs[0][0], start)

    def test_duplicate_indices_accumulate_not_overwrite(self):
        """A batch repeating one row must apply the summed gradient."""
        p_dup, p_sum = Parameter(np.ones((4, 2))), Parameter(np.ones((4, 2)))
        dup = RowSparseGrad.from_rows(np.array([2, 2, 2]),
                                      np.ones((3, 2)), p_dup.shape)
        summed = RowSparseGrad(np.array([2]), np.full((1, 2), 3.0),
                               p_sum.shape)
        np.testing.assert_allclose(dup.densify(), summed.densify())
        opt_dup = SparseAdam([p_dup], lr=0.1, mode="lazy")
        opt_sum = SparseAdam([p_sum], lr=0.1, mode="lazy")
        p_dup.grad, p_sum.grad = dup, summed
        opt_dup.step()
        opt_sum.step()
        np.testing.assert_array_equal(p_dup.data, p_sum.data)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SparseAdam([Parameter(np.ones(2))], lr=0.1, mode="eager")

    def test_all_none_grads_change_nothing(self):
        p = Parameter(np.ones((3, 2)))
        opt = SparseAdam([p], lr=0.1, mode="exact")
        opt.step()
        opt.flush()
        np.testing.assert_array_equal(p.data, np.ones((3, 2)))

    @pytest.mark.parametrize("mode", ["lazy", "exact"])
    def test_empty_sparse_grad_is_not_a_change(self, mode):
        """nnz 0 touches nothing: the data version must not move."""
        p = Parameter(np.ones((3, 2)))
        opt = SparseAdam([p], lr=0.1, mode=mode)
        p.grad = RowSparseGrad(np.array([], dtype=np.int64),
                               np.zeros((0, 2)), p.shape)
        before = data_version()
        opt.step()
        assert data_version() == before
        np.testing.assert_array_equal(p.data, np.ones((3, 2)))

    def test_mixed_sparse_and_dense_params_in_one_optimizer(self):
        table = Parameter(np.ones((6, 2)))
        bias = Parameter(np.ones(3))
        opt = SparseAdam([table, bias], lr=0.1, mode="lazy")
        table.grad = RowSparseGrad(np.array([1]), np.ones((1, 2)), table.shape)
        bias.grad = np.ones(3)
        opt.step()
        assert not np.allclose(table.data[1], 1.0)
        assert not np.allclose(bias.data, 1.0)
        np.testing.assert_array_equal(table.data[[0, 2, 3, 4, 5]],
                                      np.ones((5, 2)))


class TestTrainerIntegration:
    def test_sparse_trainer_mf_runs_and_learns(self, tiny_dataset):
        from repro.losses import get_loss
        from repro.models.registry import get_model
        from repro.train.trainer import train_model
        for sparse_mode in ("lazy", "exact"):
            model = get_model("mf", tiny_dataset, dim=8, rng=0)
            result = train_model(model, get_loss("bsl"), tiny_dataset,
                                 epochs=3, batch_size=64, n_negatives=8,
                                 grad_mode="sparse", sparse_mode=sparse_mode,
                                 seed=5)
            assert result.loss_history[-1] < result.loss_history[0]

    def test_sparse_mode_on_graph_backbone_densifies_and_trains(
            self, tiny_dataset):
        """LightGCN's propagation densifies the gradients; the sparse
        trainer must still work (SparseAdam dense fallback)."""
        from repro.losses import get_loss
        from repro.models.registry import get_model
        from repro.train.trainer import train_model
        model = get_model("lightgcn", tiny_dataset, dim=8, rng=0)
        result = train_model(model, get_loss("bsl"), tiny_dataset,
                             epochs=2, batch_size=64, n_negatives=8,
                             grad_mode="sparse", seed=5)
        assert np.isfinite(result.loss_history).all()

    def test_train_config_validates_modes(self):
        from repro.train.config import TrainConfig
        with pytest.raises(ValueError):
            TrainConfig(grad_mode="blocked")
        with pytest.raises(ValueError):
            TrainConfig(sparse_mode="sometimes")
