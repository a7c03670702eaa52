"""Memory that follows the batch: the fused scoring node keeps no copy of
the batch's item rows, and optimizer state costs nothing until a row is
first updated.

Both are pinned against what the copies would cost: a node that kept a
private copy of its distinct item rows peaks at about twice its item
gradient, and state written with ``np.zeros_like`` is resident in full
the moment the optimizer is built.
"""

import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.nn import Adam, Parameter, SparseAdam
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.tensor import bump_data_version

STATM = pathlib.Path("/proc/self/statm")


def _sampled_block(rng, n_users=64, n_items=10_000, dim=256, batch=64,
                   negatives=255):
    """Tables and a batch whose ~8k distinct item rows take ~16 MB."""
    users = Tensor(rng.normal(size=(n_users, dim)), requires_grad=True)
    items = Tensor(rng.normal(size=(n_items, dim)), requires_grad=True)
    return (users, items, rng.integers(0, n_users, batch),
            rng.integers(0, n_items, batch),
            rng.integers(0, n_items, (batch, negatives)))


class TestFusedSampledScoresMemory:
    @pytest.mark.parametrize("scoring", ["cosine", "inner", "euclidean"])
    def test_peak_is_the_item_gradient_not_a_row_copy(self, scoring):
        users, items, u, p, n = _sampled_block(np.random.default_rng(0))
        weights = Tensor(np.random.default_rng(1).normal(
            size=(len(u), 1 + n.shape[1])))
        tracemalloc.start()
        try:
            scores = F.fused_sampled_scores(users, items, u, p, n,
                                            scoring=scoring)
            (scores * weights).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grad_bytes = items.grad.values.nbytes
        assert grad_bytes >= 8 << 20
        # A copy of the distinct rows held until the backward ends, plus
        # the gradient itself, is ~2x.
        assert peak < 1.25 * grad_bytes, (peak, grad_bytes)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_a_non_contiguous_table_is_never_copied_whole(self, layout):
        """``np.take`` and ``csr_matmul`` would copy a table that is not
        C-contiguous whole; the node gathers the batch's rows of it
        instead, with the bits of its C-contiguous copy."""
        rng = np.random.default_rng(3)
        users, items, u, p, n = _sampled_block(rng, n_items=40_000, dim=64,
                                               batch=16, negatives=15)
        table = (np.asfortranarray(items.data) if layout == "fortran"
                 else rng.normal(size=(40_000, 128))[:, ::2])
        odd = Tensor(table, requires_grad=True)
        weights = Tensor(rng.normal(size=(len(u), 1 + n.shape[1])))

        def run(items_t):
            users.grad = None
            scores = F.fused_sampled_scores(users, items_t, u, p, n)
            (scores * weights).sum().backward()
            return (scores.data, users.grad.values, items_t.grad.indices,
                    items_t.grad.values)

        tracemalloc.start()
        try:
            got = run(odd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes / 16, (peak, table.nbytes)
        want = run(Tensor(np.ascontiguousarray(table), requires_grad=True))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1, 50])
    # 8 slots over 50 rows sort; 186 slots read a presence table
    @pytest.mark.parametrize("batch,negatives", [(2, 3), (6, 30)])
    def test_out_of_range_item_ids_raise(self, bad, batch, negatives):
        """The gathers from the table clip and the CSR products index it
        unchecked, so an id outside the table must fail up front."""
        users, items, u, p, n = _sampled_block(
            np.random.default_rng(4), n_items=50, dim=4, batch=batch,
            negatives=negatives)
        n[-1, 1] = bad
        with pytest.raises(IndexError, match=r"\[0, 50\)"):
            F.fused_sampled_scores(users, items, u, p, n)

    def test_backward_after_an_in_place_edit_raises(self):
        rng = np.random.default_rng(2)
        users, items, u, p, n = _sampled_block(rng, n_items=50, dim=4,
                                               batch=6, negatives=3)
        scores = F.fused_sampled_scores(users, items, u, p, n)
        items.data *= 2.0
        bump_data_version()
        with pytest.raises(RuntimeError, match="modified in place"):
            scores.sum().backward()


def _resident_bytes() -> int:
    return int(STATM.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not STATM.exists(), reason="needs /proc/self/statm")
class TestLazyOptimizerState:
    """State is allocated as untouched zero pages: building an optimizer
    over a 64 MB table must not make its state resident."""

    BUILDERS = {
        "adam": lambda p: Adam(p, lr=1e-3),
        "sparse-adam": lambda p: SparseAdam(p, lr=1e-3),
    }

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_building_an_optimizer_leaves_its_state_untouched(self, kind):
        param = Parameter(np.zeros((131_072, 64)))            # 64 MiB
        before = _resident_bytes()
        opt = self.BUILDERS[kind]([param])
        grown = _resident_bytes() - before
        state = opt._m + opt._v
        state_bytes = sum(s.nbytes for s in state)
        assert state_bytes >= 64 << 20
        assert grown < state_bytes / 4, (grown, state_bytes)
        for s in state:
            assert s.shape == param.shape and s.dtype == param.dtype
            assert s.flags.c_contiguous and not s.any()
