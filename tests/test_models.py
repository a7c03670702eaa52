"""Backbones: shapes, propagation correctness, hooks, registry."""

import numpy as np
import pytest

from repro.data.sampling import TrainingBatch
from repro.graph import bipartite_adjacency
from repro.models import (MF, CML, ENMF, NGCF, LightGCN, SGL, SimGCL,
                          LightGCL, get_model, model_names)
from repro.tensor import Tensor

from tests.helpers import TOL32, assert_close32


def _batch(dataset, rng, n_neg=4, size=8):
    pairs = dataset.train_pairs[rng.choice(len(dataset.train_pairs), size)]
    negs = rng.integers(0, dataset.num_items, size=(size, n_neg))
    return TrainingBatch(pairs[:, 0], pairs[:, 1], negs)


class TestMF:
    def test_propagate_returns_tables(self, tiny_dataset):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        users, items = model.propagate()
        assert users.shape == (tiny_dataset.num_users, 8)
        assert items.shape == (tiny_dataset.num_items, 8)

    def test_batch_scores_shapes(self, tiny_dataset, rng):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        batch = _batch(tiny_dataset, rng)
        pos, neg = model.batch_scores(batch)
        assert pos.shape == (8,)
        assert neg.shape == (8, 4)

    def test_cosine_scores_bounded(self, tiny_dataset, rng):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        pos, neg = model.batch_scores(_batch(tiny_dataset, rng))
        assert np.all(np.abs(pos.data) <= 1 + 1e-9)
        assert np.all(np.abs(neg.data) <= 1 + 1e-9)

    def test_batch_scores_match_manual_cosine(self, tiny_dataset, rng):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        batch = _batch(tiny_dataset, rng)
        pos, _ = model.batch_scores(batch)
        u = model.user_embedding.weight.data[batch.users]
        i = model.item_embedding.weight.data[batch.positives]
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        i = i / np.linalg.norm(i, axis=1, keepdims=True)
        assert_close32(pos.data, (u * i).sum(axis=1))

    def test_gradients_reach_embeddings(self, tiny_dataset, rng):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        pos, neg = model.batch_scores(_batch(tiny_dataset, rng))
        (pos.sum() + neg.sum()).backward()
        assert model.user_embedding.weight.grad is not None
        assert model.item_embedding.weight.grad is not None

    def test_scoring_tables_shape_and_subset(self, tiny_dataset):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        full = model.scoring_tables().scores()
        assert full.shape == (tiny_dataset.num_users, tiny_dataset.num_items)
        subset = model.scoring_tables().scores([3, 5])
        np.testing.assert_allclose(subset, full[[3, 5]], atol=1e-12)

    def test_invalid_scoring_rejected(self, tiny_dataset):
        from repro.models.base import Recommender
        with pytest.raises(ValueError):
            Recommender(3, 3, train_scoring="manhattan")


class TestLightGCN:
    def test_zero_layers_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            LightGCN(tiny_dataset, num_layers=0)

    def test_propagation_matches_dense_computation(self, tiny_dataset):
        model = LightGCN(tiny_dataset, dim=6, num_layers=2, rng=0)
        users, items = model.propagate()
        # hand-rolled dense propagation
        adj = bipartite_adjacency(tiny_dataset).toarray()
        e0 = np.concatenate([model.user_embedding.weight.data,
                             model.item_embedding.weight.data], axis=0)
        e1 = adj @ e0
        e2 = adj @ e1
        final = (e0 + e1 + e2) / 3.0
        assert_close32(users.data, final[: tiny_dataset.num_users])
        assert_close32(items.data, final[tiny_dataset.num_users:])

    def test_gradients_flow_through_propagation(self, tiny_dataset, rng):
        model = LightGCN(tiny_dataset, dim=6, num_layers=2, rng=0)
        pos, neg = model.batch_scores(_batch(tiny_dataset, rng))
        (pos.sum() + neg.sum()).backward()
        assert np.abs(model.user_embedding.weight.grad).sum() > 0

    def test_deterministic_under_seed(self, tiny_dataset):
        a = LightGCN(tiny_dataset, dim=6, rng=3).scoring_tables().scores()
        b = LightGCN(tiny_dataset, dim=6, rng=3).scoring_tables().scores()
        np.testing.assert_array_equal(a, b)


class TestNGCF:
    def test_output_dim_is_concat_of_layers(self, tiny_dataset):
        model = NGCF(tiny_dataset, dim=8, num_layers=2, rng=0)
        users, items = model.propagate()
        assert users.shape == (tiny_dataset.num_users, 8 * 3)
        assert items.shape == (tiny_dataset.num_items, 8 * 3)

    def test_has_transform_parameters(self, tiny_dataset):
        model = NGCF(tiny_dataset, dim=8, num_layers=2, rng=0)
        names = {n for n, _ in model.named_parameters()}
        assert any("w1_layers" in n for n in names)
        assert any("w2_layers" in n for n in names)

    def test_dropout_off_in_eval(self, tiny_dataset):
        model = NGCF(tiny_dataset, dim=8, num_layers=1,
                     message_dropout=0.5, rng=0)
        model.eval()
        a, _ = model.propagate()
        b, _ = model.propagate()
        np.testing.assert_array_equal(a.data, b.data)

    def test_embeddings_are_the_eval_tables_in_training_mode(
            self, tiny_dataset):
        """``embeddings()`` on a training-mode model returns the
        dropout-free tables evaluation scores, and keeps the mode."""
        model = NGCF(tiny_dataset, dim=8, num_layers=2, rng=0)
        assert model.training
        users, items = model.embeddings()
        again, _ = model.embeddings()
        assert model.training
        tables = model.scoring_tables()  # inner test scoring: raw tables
        np.testing.assert_array_equal(users, again)
        np.testing.assert_array_equal(users, tables.users)
        np.testing.assert_array_equal(items, tables.items)

    def test_gradients_reach_transforms(self, tiny_dataset, rng):
        model = NGCF(tiny_dataset, dim=8, num_layers=1, rng=0)
        pos, neg = model.batch_scores(_batch(tiny_dataset, rng))
        (pos.sum() + neg.sum()).backward()
        assert model.w1_layers[0].weight.grad is not None


class TestSSLModels:
    def test_sgl_auxiliary_loss_positive(self, tiny_dataset, rng):
        model = SGL(tiny_dataset, dim=8, num_layers=1, ssl_weight=0.5, rng=0)
        aux = model.auxiliary_loss(_batch(tiny_dataset, rng))
        assert aux is not None
        assert aux.item() > 0

    def test_sgl_zero_weight_skips(self, tiny_dataset, rng):
        model = SGL(tiny_dataset, dim=8, ssl_weight=0.0, rng=0)
        assert model.auxiliary_loss(_batch(tiny_dataset, rng)) is None

    def test_sgl_epoch_resample_changes_views(self, tiny_dataset):
        model = SGL(tiny_dataset, dim=8, drop_ratio=0.3, rng=0)
        first = model._view_adjacency[0].copy()
        model.on_epoch_start(np.random.default_rng(1))
        assert (model._view_adjacency[0] != first).nnz > 0

    def test_simgcl_noisy_views_differ(self, tiny_dataset):
        model = SimGCL(tiny_dataset, dim=8, noise_eps=0.2, rng=0)
        u1, _ = model._noisy_propagate()
        u2, _ = model._noisy_propagate()
        assert not np.allclose(u1.data, u2.data)

    def test_simgcl_auxiliary_positive(self, tiny_dataset, rng):
        model = SimGCL(tiny_dataset, dim=8, ssl_weight=0.2, rng=0)
        assert model.auxiliary_loss(_batch(tiny_dataset, rng)).item() > 0

    def test_lightgcl_svd_views_shapes(self, tiny_dataset):
        model = LightGCL(tiny_dataset, dim=8, svd_rank=4, rng=0)
        users, items = model._svd_propagate()
        assert users.shape == (tiny_dataset.num_users, 8)
        assert items.shape == (tiny_dataset.num_items, 8)

    def test_lightgcl_auxiliary_positive(self, tiny_dataset, rng):
        model = LightGCL(tiny_dataset, dim=8, ssl_weight=0.2, rng=0)
        assert model.auxiliary_loss(_batch(tiny_dataset, rng)).item() > 0

    def test_ssl_aux_gradients_reach_embeddings(self, tiny_dataset, rng):
        model = SimGCL(tiny_dataset, dim=8, ssl_weight=0.2, rng=0)
        aux = model.auxiliary_loss(_batch(tiny_dataset, rng))
        aux.backward()
        assert np.abs(model.user_embedding.weight.grad).sum() > 0


class TestCML:
    def test_euclidean_scores_negative(self, tiny_dataset, rng):
        model = CML(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                    rng=0)
        pos, neg = model.batch_scores(_batch(tiny_dataset, rng))
        assert np.all(pos.data <= 0)
        assert np.all(neg.data <= 0)

    def test_post_step_projects_into_ball(self, tiny_dataset):
        model = CML(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                    max_norm=1.0, rng=0)
        model.user_embedding.weight.data *= 100.0
        model.post_step()
        norms = np.linalg.norm(model.user_embedding.weight.data, axis=1)
        assert np.all(norms <= 1.0 + TOL32)

    def test_projection_preserves_small_rows(self, tiny_dataset):
        model = CML(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                    max_norm=10.0, rng=0)
        before = model.user_embedding.weight.data.copy()
        model.post_step()
        np.testing.assert_allclose(model.user_embedding.weight.data, before)


class TestENMF:
    def test_custom_loss_replaces_generic(self, tiny_dataset, rng):
        model = ENMF(tiny_dataset, dim=8, rng=0)
        loss = model.custom_loss(_batch(tiny_dataset, rng))
        assert loss is not None
        assert loss.item() > 0

    def test_custom_loss_differentiable(self, tiny_dataset, rng):
        model = ENMF(tiny_dataset, dim=8, rng=0)
        model.custom_loss(_batch(tiny_dataset, rng)).backward()
        assert model.user_embedding.weight.grad is not None

    def test_rejects_bad_weight(self, tiny_dataset):
        with pytest.raises(ValueError):
            ENMF(tiny_dataset, negative_weight=0.0)


class TestRegistry:
    def test_all_models_instantiate(self, tiny_dataset):
        for name in model_names():
            model = get_model(name, tiny_dataset, dim=4, rng=0)
            users, items = model.propagate()
            assert users.shape[0] == tiny_dataset.num_users

    def test_unknown_model_rejected(self, tiny_dataset):
        with pytest.raises(KeyError):
            get_model("bert4rec", tiny_dataset)

    def test_kwargs_forwarded(self, tiny_dataset):
        model = get_model("lightgcn", tiny_dataset, num_layers=3, rng=0)
        assert model.num_layers == 3
