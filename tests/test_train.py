"""Trainer, config validation, grid search."""

import tracemalloc

import numpy as np
import pytest

from repro.losses import get_loss
from repro.models import MF, CML, ENMF, get_model
from repro.train import TrainConfig, Trainer, train_model, grid_search


@pytest.fixture()
def fast_cfg():
    return TrainConfig(epochs=5, batch_size=256, learning_rate=5e-2,
                       n_negatives=16, seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(sampler="importance")
        with pytest.raises(ValueError):
            TrainConfig(patience=2, eval_every=0)

    def test_rejects_negative_eval_every(self):
        with pytest.raises(ValueError, match="eval_every"):
            TrainConfig(eval_every=-1)

    def test_rejects_negative_patience(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(eval_every=1, patience=-1)

    def test_replace(self):
        cfg = TrainConfig(epochs=10)
        new = cfg.replace(epochs=3, rnoise=1.0)
        assert new.epochs == 3
        assert new.rnoise == 1.0
        assert cfg.epochs == 10  # original untouched


class TestTrainer:
    def test_loss_decreases(self, tiny_dataset, fast_cfg):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=16,
                   rng=0)
        result = train_model(model, get_loss("sl", tau=0.2), tiny_dataset,
                             fast_cfg)
        assert len(result.loss_history) == 5
        assert result.loss_history[-1] < result.loss_history[0]

    def test_training_beats_random(self, tiny_dataset, fast_cfg):
        from repro.eval import evaluate_model, evaluate_scores
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=16,
                   rng=0)
        train_model(model, get_loss("sl", tau=0.2), tiny_dataset,
                    fast_cfg.replace(epochs=20))
        trained = evaluate_model(model, tiny_dataset)["ndcg@20"]
        random_scores = np.random.default_rng(0).random(
            (tiny_dataset.num_users, tiny_dataset.num_items))
        random_ndcg = evaluate_scores(random_scores, tiny_dataset)["ndcg@20"]
        assert trained > 2 * random_ndcg

    def test_deterministic_given_seed(self, tiny_dataset, fast_cfg):
        def run():
            model = MF(tiny_dataset.num_users, tiny_dataset.num_items,
                       dim=8, rng=0)
            train_model(model, get_loss("sl", tau=0.2), tiny_dataset,
                        fast_cfg)
            return model.scoring_tables().scores()
        np.testing.assert_array_equal(run(), run())

    def test_periodic_eval_recorded(self, tiny_dataset, fast_cfg):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        cfg = fast_cfg.replace(epochs=6, eval_every=2)
        result = train_model(model, get_loss("sl", tau=0.2), tiny_dataset,
                             cfg)
        assert [e for e, _ in result.eval_history] == [2, 4, 6]
        assert result.final_metrics

    def test_early_stopping_restores_best(self, tiny_dataset):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        cfg = TrainConfig(epochs=50, batch_size=256, learning_rate=0.3,
                          n_negatives=16, eval_every=1, patience=2, seed=0)
        result = train_model(model, get_loss("sl", tau=0.2), tiny_dataset,
                             cfg)
        assert result.best_epoch > 0
        # stopped before exhausting the epoch budget OR ran to completion
        assert len(result.loss_history) <= 50

    @pytest.mark.parametrize("watch", ["ndcg@10", "NDCG@20", "auc"])
    def test_unknown_watch_metric_rejected(self, tiny_dataset, watch):
        """An unwatched key would read -inf at every evaluation: early
        stopping on noise and no best epoch, with no error."""
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        cfg = TrainConfig(epochs=6, eval_every=1, patience=2,
                          watch_metric=watch)
        with pytest.raises(ValueError, match="watch_metric"):
            Trainer(model, get_loss("sl"), tiny_dataset, cfg)

    def test_watch_metric_checked_against_given_evaluator(self,
                                                          tiny_dataset):
        from repro.eval import Evaluator
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        evaluator = Evaluator(tiny_dataset, ks=(10,))
        cfg = TrainConfig(epochs=1, eval_every=1, watch_metric="recall@10")
        Trainer(model, get_loss("sl"), tiny_dataset, cfg, evaluator)
        with pytest.raises(ValueError, match="recall@10"):
            Trainer(model, get_loss("sl"), tiny_dataset,
                    cfg.replace(watch_metric="ndcg@20"), evaluator)
        # without periodic evaluation the watched key is never read
        Trainer(model, get_loss("sl"), tiny_dataset,
                cfg.replace(eval_every=0, watch_metric="ndcg@20"), evaluator)

    def test_in_batch_sampler_path(self, tiny_dataset):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        cfg = TrainConfig(epochs=3, batch_size=64, learning_rate=5e-2,
                          sampler="in-batch", seed=0)
        result = train_model(model, get_loss("sl", tau=0.2), tiny_dataset,
                             cfg)
        assert result.final_loss < result.loss_history[0] + 1e9

    def test_in_batch_rejects_rnoise(self, tiny_dataset):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        cfg = TrainConfig(epochs=1, sampler="in-batch", rnoise=1.0)
        with pytest.raises(ValueError):
            Trainer(model, get_loss("sl"), tiny_dataset, cfg)

    def test_popularity_sampler_path(self, tiny_dataset, fast_cfg):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        cfg = fast_cfg.replace(sampler="popularity", epochs=2)
        result = train_model(model, get_loss("sl", tau=0.2), tiny_dataset,
                             cfg)
        assert len(result.loss_history) == 2

    def test_cml_projection_enforced_after_training(self, tiny_dataset,
                                                    fast_cfg):
        model = CML(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                    max_norm=1.0, rng=0)
        train_model(model, get_loss("hinge"), tiny_dataset,
                    fast_cfg.replace(epochs=3))
        norms = np.linalg.norm(model.user_embedding.weight.data, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_enmf_custom_loss_path(self, tiny_dataset, fast_cfg):
        model = ENMF(tiny_dataset, dim=8, rng=0)
        result = train_model(model, get_loss("mse"), tiny_dataset,
                             fast_cfg.replace(epochs=3))
        assert result.loss_history[-1] < result.loss_history[0]

    def test_ssl_model_trains(self, tiny_dataset, fast_cfg):
        model = get_model("simgcl", tiny_dataset, dim=8, rng=0,
                          ssl_weight=0.1)
        result = train_model(model, get_loss("sl", tau=0.2), tiny_dataset,
                             fast_cfg.replace(epochs=2))
        assert len(result.loss_history) == 2

    def test_model_left_in_eval_mode(self, tiny_dataset, fast_cfg):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        train_model(model, get_loss("sl", tau=0.2), tiny_dataset,
                    fast_cfg.replace(epochs=1))
        assert not model.training


class TestDenseStepMemory:
    def test_dense_step_builds_no_batch_by_catalogue_block(self):
        """One dense LightGCN step at B=256 over 20k items allocates well
        under a quarter of one ``(B, num_items)`` block of the model's
        dtype.  dim 2
        keeps the table-sized autograd buffers (about a dozen
        ``(users + items) x dim`` copies) at half the bound, so the bound
        sees any batch-by-catalogue temporary."""
        from repro.data import InteractionDataset
        from repro.models import LightGCN
        num_users, num_items, batch = 1000, 20_000, 256
        rng = np.random.default_rng(0)
        train = np.stack([np.repeat(np.arange(num_users), 5),
                          rng.permutation(num_items)[:5 * num_users]], axis=1)
        dataset = InteractionDataset(num_users, num_items, train,
                                     np.empty((0, 2), dtype=np.int64))
        model = LightGCN(dataset, dim=2, rng=0)
        trainer = Trainer(model, get_loss("bsl"), dataset,
                          TrainConfig(batch_size=batch, seed=0))
        batches = trainer.sampler.epoch()
        trainer.train_step(next(batches))  # first-step allocations
        step = next(batches)
        tracemalloc.start()
        try:
            trainer.train_step(step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        itemsize = model.user_embedding.weight.data.itemsize
        assert peak < 0.25 * batch * num_items * itemsize


class TestGridSearch:
    def test_sorted_by_metric(self):
        def run_fn(x):
            return {"ndcg@20": -(x - 3) ** 2}
        points = grid_search(run_fn, {"x": [1, 2, 3, 4]})
        assert points[0].params == {"x": 3}
        values = [p.metric("ndcg@20") for p in points]
        assert values == sorted(values, reverse=True)

    def test_cartesian_product(self):
        calls = []
        def run_fn(a, b):
            calls.append((a, b))
            return {"ndcg@20": 0.0}
        grid_search(run_fn, {"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(calls) == 6

    def test_rejects_non_dict_result(self):
        with pytest.raises(TypeError):
            grid_search(lambda x: x, {"x": [1]})
