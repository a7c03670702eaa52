"""``layer_mean``: one self-adjoint node for LightGCN's layer mean.

Pins the node to the per-hop chain it replaces (values and gradients
bit for bit), its gradient against a doubled control, the adjacency
memoized as its own transpose, what a dense step keeps in memory, and
the reuse of an evaluation's value by the next training forward.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import load_dataset
from repro.data.synthetic import SyntheticConfig, generate_dataset
from repro.eval.evaluator import Evaluator
from repro.graph.adjacency import bipartite_adjacency, normalized_bipartite
from repro.graph.perturb import edge_dropout_adjacency
from repro.graph.propagation import _transposed_csr, layer_mean
from repro.losses import get_loss
from repro.models.lightgcn import LightGCN
from repro.tensor import Tensor
from repro.train import TrainConfig, Trainer
from tests.helpers import check_gradient_against_control
from tests.oracles import layer_mean_chain


def _adjacency(kind, dataset):
    if kind == "symmetric":
        return bipartite_adjacency(dataset)
    if kind == "sgl-view":
        return edge_dropout_adjacency(dataset, 0.2, rng=3)
    n = dataset.num_users + dataset.num_items     # non-symmetric CSR
    return sp.random(n, n, density=0.05, format="csr",
                     random_state=np.random.default_rng(4))


def _run(fn, ego, seed):
    """``(value bytes, ego gradient bytes)`` of ``fn(ego_tensor)``."""
    x = Tensor(ego.copy(), requires_grad=True)
    out = fn(x)
    out.backward(seed)
    return out.data.tobytes(), x.grad.tobytes()


class TestMatchesChain:
    """Values and gradients equal the per-hop chain's bytes."""

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["symmetric", "sgl-view", "non-symmetric"])
    def test_bytes_equal_chain(self, tiny_dataset, kind, num_layers):
        adj = _adjacency(kind, tiny_dataset)
        rng = np.random.default_rng(num_layers)
        ego = rng.normal(size=(adj.shape[0], 6))
        seed = rng.normal(size=ego.shape)
        got = _run(lambda x: layer_mean(adj, x, num_layers), ego, seed)
        want = _run(lambda x: layer_mean_chain(adj, x, num_layers), ego, seed)
        assert got == want

    def test_ego_shared_by_views_sums_in_chain_order(self, tiny_dataset):
        """SGL: one ego feeds the main graph and two dropout views, and a
        loss reads all three; the ego gradient's bytes match the chain's."""
        adjs = [bipartite_adjacency(tiny_dataset)] + [
            edge_dropout_adjacency(tiny_dataset, 0.1, rng=s) for s in (1, 2)]
        rng = np.random.default_rng(9)
        ego = rng.normal(size=(adjs[0].shape[0], 5))
        weights = [rng.normal(size=ego.shape) for _ in adjs]

        def loss(mean_fn):
            return lambda x: sum((mean_fn(a, x, 2) * w).sum()
                                 for a, w in zip(adjs, weights))
        assert (_run(loss(layer_mean), ego, None)
                == _run(loss(layer_mean_chain), ego, None))

    def test_rejects_bad_arguments(self, tiny_dataset):
        adj = bipartite_adjacency(tiny_dataset)
        with pytest.raises(ValueError, match="num_layers"):
            layer_mean(adj, np.zeros((adj.shape[0], 2)), 0)
        with pytest.raises(ValueError, match="shape mismatch"):
            layer_mean(adj, np.zeros((3, 2)), 2)


def test_gradient_beats_doubled_control(tiny_dataset, rng):
    adj = edge_dropout_adjacency(tiny_dataset, 0.3, rng=0)
    w = rng.normal(size=(adj.shape[0], 4))
    check_gradient_against_control(
        lambda x: ((layer_mean(adj, x, 3) ** 2) * w).sum(),
        [rng.normal(size=(adj.shape[0], 4))], rng)


class TestSelfTranspose:
    """The normalized bipartite adjacency is memoized as its own CSR
    transpose, so no backward builds a second O(nnz) copy."""

    @staticmethod
    def _graphs():
        tiny, yelp = load_dataset("tiny"), load_dataset("yelp2018-small")
        pairs = np.random.default_rng(0).integers(0, 9000, size=(180_000, 2))
        yield "tiny", bipartite_adjacency(tiny)
        yield "yelp2018-small", bipartite_adjacency(yelp)
        yield "synthetic-9000", normalized_bipartite(pairs, 9000, 9000)
        yield "edge-dropout", edge_dropout_adjacency(yelp, 0.1, rng=0)

    def test_memo_is_the_matrix_and_equals_its_transpose(self):
        for name, adj in self._graphs():
            transpose = adj.T.tocsr()
            assert _transposed_csr(adj) is adj, name
            for field in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(adj, field), getattr(transpose, field),
                    err_msg=f"{name}: {field}")

    def test_other_matrices_get_a_real_transpose(self):
        adj = _adjacency("non-symmetric", load_dataset("tiny"))
        transpose = _transposed_csr(adj)
        assert transpose is not adj
        assert (transpose != adj.T).nnz == 0
        assert _transposed_csr(adj) is transpose


def _trainer(dataset, cache=True):
    model = LightGCN(dataset, dim=16, rng=0, cache_propagation=cache)
    return Trainer(model, get_loss("bsl"), dataset, TrainConfig(
        epochs=1, batch_size=128, n_negatives=8, grad_mode="dense", seed=2))


@pytest.fixture(scope="module")
def graph_dataset():
    return generate_dataset(SyntheticConfig(
        num_users=600, num_items=600, num_clusters=6, mean_interactions=12.0,
        train_noise=0.0, seed=0, name="layer-mean"))


def test_dense_step_peak_heap_at_most_nine_tables(graph_dataset):
    """One LightGCN/BSL step allocates at most 9 ``(users + items, dim)``
    float64 tables at its peak (the per-hop chain needed ~14)."""
    trainer = _trainer(graph_dataset)
    batches = iter(trainer.sampler.epoch())
    trainer.train_step(next(batches))       # Adam moments, memos, views
    batch = next(batches)
    tracemalloc.start()
    try:
        trainer.train_step(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = (graph_dataset.num_users + graph_dataset.num_items) * 16 * 8
    assert peak <= 9 * table, f"step peak {peak / table:.1f} tables"


class _CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts its ``@`` products."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def _step_forward_products(trainer, batch, evaluate_first):
    """Sparse products in the scoring forward of one ``train_step``,
    and the parameter gradients it leaves behind."""
    model = trainer.model
    model._adjacency = _CountingCSR(model.adjacency)
    if evaluate_first:
        Evaluator(trainer.dataset, ks=(20,)).evaluate(model)
    counts = []
    real = model.batch_scores

    def counted(b):
        before = model.adjacency.products
        out = real(b)
        counts.append(model.adjacency.products - before)
        return out
    model.batch_scores = counted
    trainer.train_step(batch)
    return counts[0], [p.grad.tobytes() for p in trainer.optimizer.params]


def test_step_after_evaluate_reuses_the_layer_mean(graph_dataset):
    """An evaluation's no-grad value is the next training forward: that
    forward runs no sparse product and its gradients are the bytes of a
    fresh forward's.  With the cache off nothing is reused."""
    batch = next(iter(_trainer(graph_dataset).sampler.epoch()))
    reused, grads = _step_forward_products(
        _trainer(graph_dataset), batch, evaluate_first=True)
    fresh, fresh_grads = _step_forward_products(
        _trainer(graph_dataset), batch, evaluate_first=False)
    uncached, uncached_grads = _step_forward_products(
        _trainer(graph_dataset, cache=False), batch, evaluate_first=True)
    assert (reused, fresh, uncached) == (0, 2, 2)
    assert grads == fresh_grads == uncached_grads
