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
from tests.oracles import adam_rows, adam_table

CORES = [1, 2, 3, 8]
#: steps of the sixteen-block stress run
STRESS_STEPS = 20


@pytest.fixture
def cores(monkeypatch):
    """``set(n)``: pretend the box has ``n`` cores, every block worth
    splitting."""
    monkeypatch.setattr(repro.nn.optim, "_MIN_ROWS", 1)
    monkeypatch.setattr(repro.tensor.functional, "_MIN_SLOT_ROWS", 1)
    monkeypatch.setattr(repro.tensor.functional, "_MIN_ITEM_ROWS", 1)
    monkeypatch.setattr(parallel, "_MIN_BLOCK_MACS", 1)

    def set_cores(n):
        monkeypatch.setattr(parallel, "workers", lambda: n)
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
        trainer = _mf_trainer(tiny_dataset)
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


def _mf_trainer(dataset):
    model = get_model("mf", dataset, dim=8, rng=3)
    return Trainer(model, get_loss("bsl"), dataset, TrainConfig(
        epochs=1, batch_size=16, n_negatives=6, grad_mode="sparse", seed=4))


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
    opt = trainer.optimizer
    return ([np.array(losses)] + [p.data.copy() for p in opt.params]
            + [m.copy() for m in opt._m] + [v.copy() for v in opt._v])


class TestBitIdentity:
    """Twenty steps at N workers equal the one-worker run exactly."""

    @pytest.mark.parametrize("make", [_mf_trainer, _lightgcn_trainer],
                             ids=["sparse-adam-lazy", "lightgcn-adam"])
    def test_training(self, cores, tiny_dataset, make):
        runs = {}
        for n_cores in CORES:
            cores(n_cores)
            runs[n_cores] = _train(make(tiny_dataset))
        for n_cores in CORES[1:]:
            for got, want in zip(runs[n_cores], runs[1]):
                np.testing.assert_array_equal(got, want,
                                              err_msg=f"{n_cores} cores")

    def test_more_workers_than_cores_under_fast_switching(
            self, cores, tiny_dataset, monkeypatch):
        """Sixteen blocks share the optimizer's workspace free list and
        switch every microsecond: a workspace two blocks held at once, or
        a lost row write, breaks the match with one worker.  Every step
        of the run splits both tables' touched rows, into one block per
        row up to sixteen."""
        cores(1)
        want = _train(_mf_trainer(tiny_dataset), steps=STRESS_STEPS)
        cores(16)
        real, sizes = parallel.fan_out, []

        def recording(n, fn, min_rows=1):
            if fn.__qualname__.startswith("Adam."):
                sizes.append(n)
            return real(n, fn, min_rows)
        monkeypatch.setattr(parallel, "fan_out", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _train(_mf_trainer(tiny_dataset), steps=STRESS_STEPS)
        finally:
            sys.setswitchinterval(interval)
        assert len(sizes) == 2 * STRESS_STEPS and min(sizes) > 1
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
        """Each running block takes its own workspace from one free list
        the optimizer keeps for all its parameters, so after the first
        step no workspace is allocated: not for the second parameter,
        not for a dense gradient, not for the next step."""
        cores(2)
        nnz = 20_000
        p, q = Parameter(np.ones((nnz, 64))), Parameter(np.ones((nnz, 64)))
        opt = SparseAdam([p, q], lr=0.01, weight_decay=1e-6)
        p.grad = RowSparseGrad(np.arange(nnz), np.ones((nnz, 64)), p.shape)
        q.grad = np.ones((nnz, 64))
        with parallel.scope():
            opt.step()
            tracemalloc.start()
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert len(opt._work) == 2
        assert peak < 64 * 1024  # one shared-chunk workspace is 2.5 MiB

    @pytest.mark.parametrize("dense", [False, True], ids=["lazy", "dense"])
    def test_adam_at_both_chunk_sizes_matches_the_oracle(self, cores,
                                                         monkeypatch, dense):
        assert _adam_mismatches(cores, monkeypatch, dense, Adam,
                                SparseAdam) == []

    @pytest.mark.parametrize("dense", [False, True], ids=["lazy", "dense"])
    def test_control_regrouped_bias_correction_fails(self, cores,
                                                     monkeypatch, dense):
        """``M * (lr / bias1)`` for ``M / bias1 * lr`` moves the last ulp
        of some rows: the comparison above must see it at every size."""
        assert len(_adam_mismatches(cores, monkeypatch, dense, _RegroupedAdam,
                                    _RegroupedSparseAdam)) == 4

    @pytest.mark.parametrize("scoring", ["cosine", "inner", "euclidean"])
    def test_fused_scores_at_both_chunk_sizes(self, cores, monkeypatch,
                                              scoring):
        """Forward scores and both backward gradients: the same bits on
        1 and 2 workers at the rule's alone and shared chunk sizes."""
        rng = np.random.default_rng(6)
        users = rng.normal(size=(200, 64))
        items = rng.normal(size=(6000, 64))
        u = rng.integers(0, 200, size=300)
        pos = rng.integers(0, 6000, size=300)
        neg = rng.integers(0, 6000, size=(300, 64))

        def run():
            users_t, items_t = Parameter(users), Parameter(items)
            with parallel.scope():
                scores = repro.tensor.functional.fused_sampled_scores(
                    users_t, items_t, u, pos, neg, scoring=scoring)
                (scores * scores).sum().backward()
            return (scores.data, users_t.grad.indices, users_t.grad.values,
                    items_t.grad.indices, items_t.grad.values)
        runs = _at_both_chunk_sizes(cores, monkeypatch, run)
        for config, got in runs.items():
            for a, b in zip(got, runs[1, "alone"]):
                np.testing.assert_array_equal(a, b, err_msg=str(config))


#: The chunk rule's two sizes, forced on every block of a run.
_CHUNK_SIZES = {"alone": lambda alone: alone,
                "shared": lambda alone: parallel._SHARED_CHUNK_BYTES}


def _at_both_chunk_sizes(cores, monkeypatch, run):
    """``run()`` per ``(workers, chunk size)``, on 1 and 2 workers at both
    sizes of :func:`~repro.tensor.parallel.chunk_bytes`."""
    runs = {}
    for n_cores in (1, 2):
        cores(n_cores)
        for name, rule in _CHUNK_SIZES.items():
            monkeypatch.setattr(parallel, "chunk_bytes", rule)
            runs[n_cores, name] = run()
    return runs


def _adam_mismatches(cores, monkeypatch, dense, dense_cls, sparse_cls):
    """The ``(workers, chunk size)`` runs whose parameter or moments
    differ in any bit from the plain arithmetic of ``tests/oracles.py``:
    four steps of ``dense_cls`` over a 6000 x 64 table, or of lazy
    ``sparse_cls`` over 3000 of its rows (both sizes cut each block into
    several chunks)."""
    rng = np.random.default_rng(11)
    start = rng.normal(size=(6000, 64))
    steps = []
    for _ in range(4):
        rows = np.sort(rng.choice(len(start), size=3000, replace=False))
        steps.append((rows, rng.normal(size=(3000, 64))))
    kw = dict(lr=0.05, weight_decay=1e-4)

    want, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    for t, (rows, g) in enumerate(steps, start=1):
        if dense:
            full = np.zeros_like(start)
            full[rows] = g
            adam_table(want, m, v, full, t, **kw)
        else:
            step = np.float64(t)  # numpy's power, as SparseAdam's
            adam_rows(want, m, v, rows, g, 1.0 - 0.9 ** step,
                      1.0 - 0.999 ** step, **kw)

    def run():
        p = Parameter(start.copy())
        opt = dense_cls([p], **kw) if dense else sparse_cls([p], **kw)
        for rows, g in steps:
            p.grad = RowSparseGrad(rows, g.copy(), p.shape)
            if dense:
                p.grad = p.grad.densify()
            with parallel.scope():
                opt.step()
        return p.data, opt._m[0], opt._v[0]
    runs = _at_both_chunk_sizes(cores, monkeypatch, run)
    return [config for config, got in runs.items()
            if not all(map(np.array_equal, got, (want, m, v)))]


def _regrouped_rows(self, i, rows, g, bias1, bias2):
    """``Adam._rows`` with the step regrouped as ``M * (lr / bias1)``."""
    p = self.params[i]
    b1, b2 = self.beta1, self.beta2

    def update(at, gc, bufs, G, T):
        P, M, V = bufs
        if self.weight_decay:
            np.multiply(P, self.weight_decay, out=T)
            gc = np.add(gc, T, out=G)
        M *= b1
        M += np.multiply(gc, 1.0 - b1, out=T)
        V *= b2
        np.multiply(gc, 1.0 - b2, out=T)
        T *= gc
        V += T
        np.multiply(M, self.lr / bias1, out=T)
        np.divide(V, bias2, out=G)
        np.sqrt(G, out=G)
        G += self.eps
        T /= G
        P -= T

    self._chunks(i, rows, g, [p.data, self._m[i], self._v[i]], update)


class _RegroupedAdam(Adam):
    _rows = _regrouped_rows


class _RegroupedSparseAdam(SparseAdam):
    _rows = _regrouped_rows


class TestChunkRule:
    """A block that runs alone keeps its kernel's cache-sized chunk; a
    block of a split fan-out takes the longer shared one."""

    def test_blocks_of_a_split_take_the_shared_chunk(self, cores):
        cores(2)
        seen, lock = [], threading.Lock()

        def block(lo, hi):
            with lock:
                seen.append(parallel.chunk_bytes(1000))
        with parallel.scope():
            fan_out(10, block)
            assert seen == [parallel._SHARED_CHUNK_BYTES] * 2
            seen.clear()
            fan_out(10, block, min_rows=10)  # one block: alone
            assert seen == [1000]
        assert parallel.chunk_bytes(1000) == 1000

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_nested_fan_out_inherits_its_block(self, cores, n_cores):
        cores(n_cores)
        seen = []
        with parallel.scope():
            fan_out(4, lambda lo, hi: fan_out(
                2, lambda a, b: seen.append(parallel.chunk_bytes(1000))))
        shared = parallel._SHARED_CHUNK_BYTES
        assert set(seen) == {shared if n_cores > 1 else 1000}

    def test_workers_is_the_affinity_mask(self, monkeypatch):
        """The core budget is the CPUs the process may run on, not the
        machine's count."""
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        assert parallel.workers() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert parallel.workers() == 1


@pytest.fixture
def blas():
    """``(set, get)`` of numpy's OpenBLAS thread count, put back after."""
    found = parallel._openblas()
    if found is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS of its wheel")
    set_threads, get_threads = found
    before = get_threads()
    yield found
    set_threads(before)


class TestBlasHold:
    """While the repo's own workers run, BLAS runs on one thread."""

    def test_one_thread_inside_fan_out_workers_and_back_after(self, cores,
                                                               blas):
        set_threads, get_threads = blas
        set_threads(2)
        cores(2)
        seen, lock = [], threading.Lock()

        def block(lo, hi):
            with lock:
                seen.append((get_threads(), threading.current_thread()))
        with parallel.scope():
            fan_out(2, block)
            between = get_threads()  # serial code keeps its threads
            fan_out(2, block)
        assert [n for n, _ in seen] == [1] * 4
        assert {t for _, t in seen} - {threading.current_thread()}
        assert between == 2 and get_threads() == 2

    def test_holds_are_counted_and_the_last_restores(self, blas):
        set_threads, get_threads = blas
        set_threads(2)
        with parallel.one_blas_thread():
            with parallel.one_blas_thread():
                assert get_threads() == 1
            assert get_threads() == 1
        assert get_threads() == 2

    def test_held_across_threads(self, blas):
        """Two threads' holds overlap: BLAS comes back only after the
        later one ends, whichever started first."""
        set_threads, get_threads = blas
        set_threads(2)
        entered, release = threading.Event(), threading.Event()

        def hold():
            with parallel.one_blas_thread():
                entered.set()
                release.wait(5)
        other = threading.Thread(target=hold)
        other.start()
        entered.wait(5)
        with parallel.one_blas_thread():
            pass
        assert get_threads() == 1
        release.set()
        other.join()
        assert get_threads() == 2

    def test_unrecognised_blas_is_left_alone_and_counted(self, cores,
                                                         monkeypatch):
        from repro.obs.metrics import get_registry
        monkeypatch.setattr(parallel, "_openblas", lambda: None)
        counter = get_registry().counter("tensor.parallel.blas_unmanaged")
        before = counter.value
        cores(2)
        with parallel.scope():
            assert len(_blocks(4)) == 2
            _blocks(4, min_rows=4)  # one block: no hold asked for
        assert counter.value == before + 1


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
        for trainer in (_mf_trainer(tiny_dataset),
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
