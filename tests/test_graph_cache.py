"""PropagationCache semantics: hits, invalidation, and training parity."""

import numpy as np
import pytest

from repro.data import load_dataset
from repro.graph.propagation import PropagationCache, spmm
from repro.losses import BSLLoss
from repro.models.registry import get_model
from repro.nn.optim import Adam, SparseAdam
from repro.tensor import Tensor, no_grad
from repro.tensor.tensor import bump_data_version

from tests.helpers import assert_close32


@pytest.fixture()
def adjacency(tiny_dataset):
    from repro.graph.adjacency import bipartite_adjacency
    return bipartite_adjacency(tiny_dataset)


class TestCacheMechanics:
    def test_hit_on_identical_inputs(self, adjacency):
        cache = PropagationCache()
        x = Tensor(np.random.default_rng(0).normal(
            size=(adjacency.shape[1], 4)), requires_grad=True)
        a = cache.spmm(adjacency, x)
        b = cache.spmm(adjacency, x)
        assert a is b
        assert cache.hits == 1 and cache.misses == 1
        np.testing.assert_allclose(a.data, spmm(adjacency, x).data)

    def test_miss_after_data_version_bump(self, adjacency):
        cache = PropagationCache()
        x = Tensor(np.zeros((adjacency.shape[1], 4)), requires_grad=True)
        a = cache.spmm(adjacency, x)
        bump_data_version()
        b = cache.spmm(adjacency, x)
        assert a is not b
        assert cache.hits == 0 and cache.misses == 2

    def test_miss_across_grad_mode(self, adjacency):
        cache = PropagationCache()
        x = Tensor(np.zeros((adjacency.shape[1], 4)), requires_grad=True)
        a = cache.spmm(adjacency, x)
        with no_grad():
            b = cache.spmm(adjacency, x)
        assert a is not b
        assert b._parents == ()

    def test_layer_mean_value_serves_both_grad_modes(self, adjacency):
        """The one exception to the grad-mode rule: a no-grad layer-mean
        value is the forward of the next recording call, until the data
        version moves."""
        cache = PropagationCache()
        x = Tensor(np.random.default_rng(2).normal(
            size=(adjacency.shape[1], 4)), requires_grad=True)
        with no_grad():
            a = cache.layer_mean(adjacency, x, 2)
        b = cache.layer_mean(adjacency, x, 2)
        assert a._parents == () and b._parents
        assert b.data is a.data
        assert (cache.hits, cache.misses) == (1, 1)
        bump_data_version()
        c = cache.layer_mean(adjacency, x, 2)
        assert c.data is not a.data
        assert (cache.misses, cache.invalidations) == (2, 1)

    def test_miss_on_different_matrix_object(self, adjacency):
        cache = PropagationCache()
        x = Tensor(np.zeros((adjacency.shape[1], 4)), requires_grad=True)
        a = cache.spmm(adjacency, x)
        other = adjacency.copy()
        b = cache.spmm(other, x)
        assert a is not b

    def test_optimizer_step_invalidates_model_cache(self, tiny_dataset):
        model = get_model("lightgcn", tiny_dataset, dim=8, rng=0)
        u1, _ = model.propagate()
        u2, _ = model.propagate()
        assert u1 is u2, "same step must reuse the memoized forward"
        opt = Adam(model.parameters(), lr=0.1)
        model.zero_grad()
        (u1.sum()).backward()
        opt.step()
        u3, _ = model.propagate()
        assert u3 is not u1, "optimizer step must invalidate the memo"
        assert not np.allclose(u3.data, u1.data)

    def test_failed_checkpoint_load_leaves_params_and_cache_intact(
            self, tiny_dataset):
        """A bad checkpoint must not half-load: no writes, cache valid."""
        model = get_model("lightgcn", tiny_dataset, dim=8, rng=0)
        u1, _ = model.propagate()
        before = model.state_dict()
        bad = dict(before)
        bad[sorted(bad)[-1]] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(bad)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
        u2, _ = model.propagate()
        assert u2 is u1, "aborted load must not invalidate the cache"

    def test_noop_optimizer_step_keeps_cache_valid(self, tiny_dataset):
        """A step where every p.grad is None changes nothing, so it must
        not bump the data version and invalidate the propagation memo."""
        model = get_model("lightgcn", tiny_dataset, dim=8, rng=0)
        u1, _ = model.propagate()
        for make in (lambda p: Adam(p, lr=0.1),
                     lambda p: SparseAdam(p, lr=0.1)):
            opt = make(model.parameters())
            model.zero_grad()
            opt.step()  # all grads None: no parameter changed
            u2, _ = model.propagate()
            assert u2 is u1, f"{type(opt).__name__} no-op step must not " \
                             "invalidate the memo"

    def test_explicit_invalidation(self, tiny_dataset):
        model = get_model("lightgcn", tiny_dataset, dim=8, rng=0)
        u1, _ = model.propagate()
        model.invalidate_propagation_cache()
        u2, _ = model.propagate()
        assert u1 is not u2
        np.testing.assert_allclose(u1.data, u2.data)

    def test_cache_disabled_never_reuses(self, tiny_dataset):
        model = get_model("lightgcn", tiny_dataset, dim=8, rng=0,
                          cache_propagation=False)
        u1, _ = model.propagate()
        u2, _ = model.propagate()
        assert u1 is not u2
        np.testing.assert_allclose(u1.data, u2.data)


class TestSharedSubgraphGradients:
    def test_double_use_accumulates_like_recompute(self, tiny_dataset):
        """loss(main) + loss(aux) over a shared cached forward must
        backprop exactly like two independent forwards."""
        grads = {}
        for cached in (True, False):
            model = get_model("lightgcn", tiny_dataset, dim=8, rng=0,
                              cache_propagation=cached)
            u_a, i_a = model.propagate()
            u_b, i_b = model.propagate()
            loss = (u_a * u_a).sum() + (u_b * 2.0).sum() + (i_a * i_b).sum()
            model.zero_grad()
            loss.backward()
            grads[cached] = [p.grad.copy() for p in model.parameters()]
        for g_cached, g_ref in zip(grads[True], grads[False]):
            # the two forwards sum the shared gradients in another order
            assert_close32(g_cached, g_ref)


class TestTrainingParity:
    @pytest.mark.parametrize("model_name",
                             ["lightgcn", "sgl", "simgcl", "ncl", "lightgcl"])
    def test_cached_training_identical(self, tiny_dataset, model_name):
        from repro.train.trainer import train_model
        histories = {}
        for cached in (True, False):
            model = get_model(model_name, tiny_dataset, dim=8, rng=3)
            model.cache_propagation = cached
            result = train_model(model, BSLLoss(), tiny_dataset, epochs=2,
                                 batch_size=64, n_negatives=8,
                                 eval_every=0, patience=0, seed=5)
            histories[cached] = result.loss_history
        assert_close32(histories[True], histories[False])


class TestRegistryCounters:
    """The cache's instance counters and the process-wide registry
    aggregates are fed by the same events — they must always agree."""

    def test_instance_and_global_counters_agree(self, adjacency):
        from repro.obs.metrics import MetricsRegistry, use_registry
        with use_registry(MetricsRegistry()) as registry:
            cache = PropagationCache()
            x = Tensor(np.random.default_rng(1).normal(
                size=(adjacency.shape[1], 4)), requires_grad=True)
            cache.spmm(adjacency, x)
            cache.spmm(adjacency, x)        # hit
            bump_data_version()
            cache.spmm(adjacency, x)        # stale -> drop + miss
            cache.clear()                   # drops the live entry
            hits = registry.counter("graph.propagation.hits")
            misses = registry.counter("graph.propagation.misses")
            dropped = registry.counter("graph.propagation.invalidations")
            assert hits.value == cache.hits == 1
            assert misses.value == cache.misses == 2
            assert dropped.value == cache.invalidations == 2

    def test_lightgcn_train_loop_hit_pattern(self, tiny_dataset):
        """Over a lightgcn training epoch the registry records the exact
        cache rhythm: every lookup that finds nothing is a miss, so each
        step (weights moved) misses its propagate memo and its layer-mean
        value, and the registry agrees with the instance counters."""
        from repro.obs.metrics import MetricsRegistry, use_registry
        from repro.train.trainer import train_model
        with use_registry(MetricsRegistry()) as registry:
            model = get_model("lightgcn", tiny_dataset, dim=8, rng=0,
                              cache_propagation=True)
            train_model(model, BSLLoss(), tiny_dataset, epochs=1,
                        batch_size=64, n_negatives=4, eval_every=0,
                        patience=0, seed=0)
            steps = registry.counter("train.steps").value
            hits = registry.counter("graph.propagation.hits").value
            misses = registry.counter("graph.propagation.misses").value
            assert hits == model.propagation_cache.hits
            assert misses == model.propagation_cache.misses
            # every optimizer step invalidates -> at least one miss per
            # step; lightgcn propagates once per step, so nothing hits
            assert steps >= 1 and misses >= steps
            assert (hits, misses) == (0, 2 * steps)
            assert registry.counter(
                "graph.propagation.invalidations").value \
                == model.propagation_cache.invalidations

    def test_get_counts_a_miss_when_it_finds_nothing(self, adjacency):
        cache = PropagationCache()
        assert cache.get("propagate", adjacency) is None
        cache.put("propagate", adjacency, "memo")
        assert cache.get("propagate", adjacency) == "memo"
        assert (cache.hits, cache.misses) == (1, 1)
