"""The row-block fan-out: same bits at any core count, threads scoped.

``repro.tensor.parallel`` splits the optimizer rows, the fused scoring
node's products, propagation and evaluation chunks over one worker per
core.  Every split kernel keeps each output row's summation order, so a
run at ``N`` workers must equal the one-worker run bit for bit; the
one-worker run is the serial code the oracle pins
(``test_optim_sparse.py``, ``test_graph_layer_mean.py``) hold to.  The
per-kernel minimum block sizes are patched to one row so the toy shapes
really split.
"""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import repro.nn.optim
import repro.tensor.functional
from repro.eval.evaluator import Evaluator
from repro.losses import get_loss
from repro.models.registry import get_model
from repro.nn import Adam, Parameter, SparseAdam
from repro.tensor import RowSparseGrad, is_grad_enabled, no_grad, ops
from repro.tensor import parallel
from repro.tensor.parallel import csr_matmul, fan_out
from repro.train import TrainConfig
from repro.train.trainer import Trainer

CORES = [1, 2, 3, 8]


@pytest.fixture
def cores(monkeypatch):
    """``set(n)``: pretend the box has ``n`` cores, every block worth
    splitting."""
    monkeypatch.setattr(repro.nn.optim, "_MIN_ROWS", 1)
    monkeypatch.setattr(repro.tensor.functional, "_MIN_SLOT_ROWS", 1)
    monkeypatch.setattr(repro.tensor.functional, "_MIN_ITEM_ROWS", 1)
    monkeypatch.setattr(parallel, "_MIN_BLOCK_MACS", 1)

    def set_cores(n):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
    return set_cores


def _blocks(n, **kwargs):
    """The ``(lo, hi, thread)`` blocks of one fan-out over ``[0, n)``."""
    seen, lock = [], threading.Lock()

    def record(lo, hi):
        with lock:
            seen.append((lo, hi, threading.current_thread()))
    fan_out(n, record, **kwargs)
    return seen


class TestFanOut:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 1000])
    @pytest.mark.parametrize("n_cores", CORES)
    def test_blocks_partition_the_rows(self, cores, n, n_cores):
        cores(n_cores)
        with parallel.scope():
            seen = _blocks(n)
        spans = sorted((lo, hi) for lo, hi, _ in seen)
        assert len(spans) == max(1, min(n_cores, n))
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(hi > lo for lo, hi in spans) or n == 0
        first = [t for lo, _, t in seen if lo == 0]
        assert first == [threading.current_thread()]

    def test_min_rows_caps_the_block_count(self, cores):
        cores(8)
        with parallel.scope():
            assert len(_blocks(100, min_rows=30)) == 3
            assert len(_blocks(100, min_rows=200)) == 1

    def test_outside_a_scope_runs_inline(self, cores):
        cores(4)
        assert _blocks(100) == [(0, 100, threading.current_thread())]

    def test_one_core_starts_no_thread(self, cores, monkeypatch,
                                       tiny_dataset):
        cores(1)
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self))
        with parallel.scope():
            assert len(_blocks(1000)) == 1
        trainer = _mf_trainer(tiny_dataset, "lazy")
        trainer.train_step(next(iter(trainer.sampler.epoch())))
        Evaluator(tiny_dataset, ks=(20,), batch_users=8).evaluate(
            trainer.model)
        assert started == []

    @pytest.mark.parametrize("n_cores", [2, 3, 8])
    def test_nested_fan_out_runs_inline_and_completes(self, cores, n_cores):
        cores(n_cores)
        inner = []

        def outer(lo, hi):
            inner.append(_blocks(hi - lo))
        with parallel.scope():
            fan_out(10, outer)
        assert len(inner) == min(n_cores, 10)
        for seen in inner:
            assert len(seen) == 1  # one inline block on the block's thread

    def test_error_raised_after_every_block_finished(self, cores):
        cores(4)
        done = []

        def block(lo, hi):
            if lo == 0:
                raise RuntimeError("first block failed")
            threading.Event().wait(0.02)
            done.append(lo)
        with parallel.scope("fanout-test"):
            with pytest.raises(RuntimeError, match="first block failed"):
                fan_out(4, block)
            assert sorted(done) == [1, 2, 3]
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("fanout-test")]

    def test_scope_joins_its_threads(self, cores):
        cores(3)
        with parallel.scope("scoped"):
            _blocks(30)
            assert [t for t in threading.enumerate()
                    if t.name.startswith("scoped")]
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("scoped")]


def _csr(n_rows, n_cols, rng, empty_rows=()):
    """A random CSR as the constructor leaves it: unsorted column ids,
    repeated ids kept as separate terms, the ``empty_rows`` empty."""
    counts = rng.integers(0, 8, size=n_rows)
    counts[list(empty_rows)] = 0
    indptr = np.r_[0, np.cumsum(counts)]
    return sp.csr_matrix((rng.normal(size=indptr[-1]),
                          rng.integers(0, n_cols, size=indptr[-1]), indptr),
                         shape=(n_rows, n_cols))


class TestCsrMatmul:
    @pytest.mark.parametrize("n_cores", CORES)
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 7, 64])
    def test_matches_scipy_bit_for_bit(self, cores, n_cores, n_rows):
        """Empty rows, runs of empty rows a whole block can fall into,
        duplicate entries and fewer rows than workers."""
        cores(n_cores)
        rng = np.random.default_rng(n_rows)
        empty = range(0, n_rows, 3) if n_rows < 7 else range(2, n_rows // 2)
        a = _csr(n_rows, 10, rng, empty_rows=empty)
        if n_rows == 64:
            assert not a.has_canonical_format  # duplicate entries present
        x = rng.normal(size=(10, 16))
        with parallel.scope():
            np.testing.assert_array_equal(csr_matmul(a, x), a @ x)

    @pytest.mark.parametrize("a_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    def test_dtypes_follow_scipy(self, cores, a_dtype, x_dtype):
        cores(2)
        rng = np.random.default_rng(0)
        a = _csr(50, 30, rng).astype(a_dtype)
        x = rng.normal(size=(30, 8)).astype(x_dtype)
        with parallel.scope():
            out = csr_matmul(a, x)
        assert out.dtype == (a @ x).dtype
        np.testing.assert_array_equal(out, a @ x)

    def test_non_contiguous_and_fallback_operands(self, cores):
        cores(2)
        rng = np.random.default_rng(1)
        a = _csr(20, 30, rng)
        wide = rng.normal(size=(30, 12))
        with parallel.scope():
            for x in (wide[:, ::2], wide[:, :1], wide[:, 0]):
                np.testing.assert_array_equal(csr_matmul(a, x), a @ x)
            with pytest.raises(ValueError, match="shape mismatch"):
                csr_matmul(a, wide[:20])

    def test_transpose_as_csr_keeps_the_batch_order(self, cores):
        """``coeff.T.tocsr()`` split by rows equals scipy's ``coeff.T @ x``
        over the CSC view: the fused node's item-gradient product."""
        cores(3)
        rng = np.random.default_rng(2)
        batch, slots, n_uniq = 40, 9, 25
        inverse = rng.integers(0, n_uniq, size=(batch, slots))
        coeff = sp.csr_matrix(
            (rng.normal(size=batch * slots), inverse.reshape(-1),
             np.arange(batch + 1) * slots), shape=(batch, n_uniq))
        x = rng.normal(size=(batch, 16))
        with parallel.scope():
            np.testing.assert_array_equal(
                csr_matmul(coeff.T.tocsr(), x), coeff.T @ x)


def _mf_trainer(dataset, sparse_mode):
    model = get_model("mf", dataset, dim=8, rng=3)
    return Trainer(model, get_loss("bsl"), dataset, TrainConfig(
        epochs=1, batch_size=16, n_negatives=6, grad_mode="sparse",
        sparse_mode=sparse_mode, seed=4))


def _lightgcn_trainer(dataset):
    model = get_model("lightgcn", dataset, dim=8, rng=3)
    return Trainer(model, get_loss("bsl"), dataset, TrainConfig(
        epochs=1, batch_size=16, n_negatives=6, grad_mode="dense", seed=4))


def _train(trainer, steps=20):
    """Losses, then parameters and Adam moments, after ``steps`` steps."""
    losses = []
    while len(losses) < steps:
        for batch in trainer.sampler.epoch():
            losses.append(trainer.train_step(batch))
            if len(losses) == steps:
                break
    trainer.optimizer.flush()
    opt = trainer.optimizer
    return ([np.array(losses)] + [p.data.copy() for p in opt.params]
            + [m.copy() for m in opt._m] + [v.copy() for v in opt._v])


class TestBitIdentity:
    """Twenty steps at N workers equal the one-worker run exactly."""

    @pytest.mark.parametrize("make", [
        lambda d: _mf_trainer(d, "lazy"),
        lambda d: _mf_trainer(d, "exact"),
        _lightgcn_trainer,
    ], ids=["sparse-adam-lazy", "sparse-adam-exact", "lightgcn-adam"])
    def test_training(self, cores, tiny_dataset, make):
        runs = {}
        for n_cores in CORES:
            cores(n_cores)
            runs[n_cores] = _train(make(tiny_dataset))
        for n_cores in CORES[1:]:
            for got, want in zip(runs[n_cores], runs[1]):
                np.testing.assert_array_equal(got, want,
                                              err_msg=f"{n_cores} cores")

    def test_more_workers_than_cores_under_fast_switching(self, cores,
                                                          tiny_dataset):
        """Sixteen blocks share each parameter's workspace free list and
        switch every microsecond: a workspace two blocks held at once, or
        a lost row write, breaks the match with one worker."""
        cores(1)
        want = _train(_mf_trainer(tiny_dataset, "exact"), steps=5)
        cores(16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _train(_mf_trainer(tiny_dataset, "exact"), steps=5)
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_dense_adam_with_weight_decay(self, cores):
        rng = np.random.default_rng(5)
        start = rng.normal(size=(300, 6))
        grads = [rng.normal(size=start.shape) for _ in range(20)]
        runs = {}
        for n_cores in CORES:
            cores(n_cores)
            p = Parameter(start.copy())
            opt = Adam([p], lr=0.05, weight_decay=1e-3)
            for g in grads:
                p.grad = g.copy()
                with parallel.scope():
                    opt.step()
            runs[n_cores] = (p.data, opt._m[0], opt._v[0])
        for n_cores in CORES[1:]:
            for got, want in zip(runs[n_cores], runs[1]):
                np.testing.assert_array_equal(got, want)

    def test_workspaces_are_per_worker_not_per_step(self, cores):
        """Each running block takes its own workspace from a free list the
        parameter keeps, so after the first step none is allocated."""
        cores(2)
        nnz = 20_000
        p = Parameter(np.ones((nnz, 64)))
        opt = SparseAdam([p], lr=0.01, weight_decay=1e-6)
        p.grad = RowSparseGrad(np.arange(nnz), np.ones((nnz, 64)), p.shape)
        with parallel.scope():
            opt.step()
            tracemalloc.start()
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert len(opt._work[0]) == 2
        assert peak < 64 * 1024  # one chunk workspace is 640 KiB


class TestGradMode:
    """The grad-mode flag is process-global: workers must build no node
    and no call may leave the flag changed."""

    @pytest.mark.parametrize("n_cores", [2, 4])
    def test_nodes_built_on_the_calling_thread(self, cores, monkeypatch,
                                               tiny_dataset, n_cores):
        cores(n_cores)
        threads = set()
        real = ops._node

        def recording(data, parents, backward):
            threads.add(threading.current_thread())
            return real(data, parents, backward)
        monkeypatch.setattr(ops, "_node", recording)
        for trainer in (_mf_trainer(tiny_dataset, "lazy"),
                        _lightgcn_trainer(tiny_dataset)):
            trainer.train_step(next(iter(trainer.sampler.epoch())))
            assert is_grad_enabled()
            Evaluator(tiny_dataset, ks=(20,), batch_users=8).evaluate(
                trainer.model)
            assert is_grad_enabled()
            with no_grad():
                Evaluator(tiny_dataset, ks=(20,), batch_users=8).evaluate(
                    trainer.model)
                assert not is_grad_enabled()
            assert is_grad_enabled()
        assert threads == {threading.current_thread()}
