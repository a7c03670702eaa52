"""Extended Table II baselines: LR-GCCF, NIA-GCN, UltraGCN, SimpleX,
NCL, DGCF — plus the k-means utility they rely on."""

import numpy as np
import pytest

from repro.analysis import kmeans
from repro.data.sampling import TrainingBatch
from repro.models import (DGCF, LRGCCF, NCL, NIAGCN, SimpleX, UltraGCN,
                          get_model)

from tests.helpers import assert_close32


def _batch(dataset, rng, n_neg=4, size=8):
    pairs = dataset.train_pairs[rng.choice(len(dataset.train_pairs), size)]
    negs = rng.integers(0, dataset.num_items, size=(size, n_neg))
    return TrainingBatch(pairs[:, 0], pairs[:, 1], negs)


class TestKMeans:
    def test_recovers_separated_blobs(self, rng):
        blobs = np.concatenate([rng.normal(size=(30, 2)),
                                rng.normal(size=(30, 2)) + 10.0])
        _, labels = kmeans(blobs, 2, rng=0)
        first, second = labels[:30], labels[30:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_labels_in_range(self, rng):
        x = rng.normal(size=(40, 3))
        centroids, labels = kmeans(x, 5, rng=0)
        assert centroids.shape == (5, 3)
        assert set(labels.tolist()) <= set(range(5))

    def test_every_cluster_nonempty(self, rng):
        x = rng.normal(size=(50, 2))
        _, labels = kmeans(x, 6, rng=1)
        assert len(np.unique(labels)) == 6

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 5)
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=10), 2)


class TestLRGCCF:
    def test_concat_residual_dim(self, tiny_dataset):
        model = LRGCCF(tiny_dataset, dim=8, num_layers=2, rng=0)
        users, items = model.propagate()
        assert users.shape == (tiny_dataset.num_users, 8 * 3)
        assert items.shape == (tiny_dataset.num_items, 8 * 3)

    def test_gradients_flow(self, tiny_dataset, rng):
        model = LRGCCF(tiny_dataset, dim=8, rng=0)
        pos, neg = model.batch_scores(_batch(tiny_dataset, rng))
        (pos.sum() + neg.sum()).backward()
        assert np.abs(model.user_embedding.weight.grad).sum() > 0


class TestNIAGCN:
    def test_shapes(self, tiny_dataset):
        model = NIAGCN(tiny_dataset, dim=8, num_layers=2, rng=0)
        users, items = model.propagate()
        assert users.shape == (tiny_dataset.num_users, 8 * 3)

    def test_pni_identity(self, tiny_dataset):
        """((Σe)² - Σe²)/2 equals the explicit pair sum on a toy graph."""
        rng = np.random.default_rng(0)
        e = rng.normal(size=(4, 3))
        # node with neighbours {0, 1, 2}
        expected = (e[0] * e[1] + e[0] * e[2] + e[1] * e[2])
        s = e[:3].sum(axis=0)
        sq = (e[:3] ** 2).sum(axis=0)
        np.testing.assert_allclose((s * s - sq) / 2.0, expected, atol=1e-12)

    def test_gradients_reach_mix_layers(self, tiny_dataset, rng):
        model = NIAGCN(tiny_dataset, dim=8, num_layers=1, rng=0)
        pos, neg = model.batch_scores(_batch(tiny_dataset, rng))
        (pos.sum() + neg.sum()).backward()
        assert model.mix_layers[0].weight.grad is not None


class TestUltraGCN:
    def test_auxiliary_constraint_positive(self, tiny_dataset, rng):
        model = UltraGCN(tiny_dataset, dim=8, rng=0)
        aux = model.auxiliary_loss(_batch(tiny_dataset, rng))
        assert aux.item() > 0

    def test_item_graph_shapes(self, tiny_dataset):
        model = UltraGCN(tiny_dataset, dim=8, num_item_neighbors=5, rng=0)
        assert model._item_neighbors.shape == (tiny_dataset.num_items, 5)
        assert np.all(model._item_neighbor_w >= 0)

    def test_item_term_disabled(self, tiny_dataset, rng):
        model = UltraGCN(tiny_dataset, dim=8, item_weight=0.0, rng=0)
        aux = model.auxiliary_loss(_batch(tiny_dataset, rng))
        assert aux.item() > 0  # constraint term remains

    def test_beta_weights_down_popular_items(self, tiny_dataset):
        model = UltraGCN(tiny_dataset, dim=8, rng=0)
        _, item_factor = model._beta
        pop = tiny_dataset.item_popularity
        most, least = pop.argmax(), pop.argmin()
        assert item_factor[most] <= item_factor[least]


class TestSimpleX:
    def test_gate_blends_representations(self, tiny_dataset):
        pure_id = SimpleX(tiny_dataset, dim=8, gate=1.0, rng=0)
        pure_behaviour = SimpleX(tiny_dataset, dim=8, gate=0.0, rng=0)
        users_id, _ = pure_id.propagate()
        np.testing.assert_allclose(users_id.data,
                                   pure_id.user_embedding.weight.data)
        users_b, items_b = pure_behaviour.propagate()
        # behaviour-only user repr lives in the item-embedding span
        history = tiny_dataset.train_matrix().toarray()
        history /= np.maximum(history.sum(axis=1, keepdims=True), 1.0)
        assert_close32(users_b.data, history @ items_b.data)

    def test_learned_gate_is_parameter(self, tiny_dataset):
        model = SimpleX(tiny_dataset, dim=8, gate=0.5, learn_gate=True,
                        rng=0)
        names = {n for n, _ in model.named_parameters()}
        assert "_gate_param" in names
        assert 0.0 <= model.gate <= 1.0

    def test_gate_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            SimpleX(tiny_dataset, gate=1.5)


class TestNCL:
    def test_prototypes_refresh(self, tiny_dataset):
        model = NCL(tiny_dataset, dim=8, num_prototypes=4, rng=0)
        assert model._user_protos is None
        model.on_epoch_start(np.random.default_rng(0))
        assert model._user_protos.shape == (tiny_dataset.num_users, 8)

    def test_auxiliary_includes_both_branches(self, tiny_dataset, rng):
        model = NCL(tiny_dataset, dim=8, ssl_weight=0.1, proto_weight=0.1,
                    rng=0)
        model.on_epoch_start(rng)
        full = model.auxiliary_loss(_batch(tiny_dataset, rng)).item()
        model.proto_weight = 0.0
        struct_only = model.auxiliary_loss(_batch(tiny_dataset, rng)).item()
        assert full > struct_only > 0

    def test_disabled_branches_return_none(self, tiny_dataset, rng):
        model = NCL(tiny_dataset, dim=8, ssl_weight=0.0, proto_weight=0.0,
                    rng=0)
        assert model.auxiliary_loss(_batch(tiny_dataset, rng)) is None


class TestDGCF:
    def test_dim_divisibility_enforced(self, tiny_dataset):
        with pytest.raises(ValueError):
            DGCF(tiny_dataset, dim=10, num_intents=4)

    def test_propagate_shapes(self, tiny_dataset):
        model = DGCF(tiny_dataset, dim=8, num_intents=4, rng=0)
        users, items = model.propagate()
        assert users.shape == (tiny_dataset.num_users, 8)
        assert items.shape == (tiny_dataset.num_items, 8)

    def test_routing_entropy_bounded(self, tiny_dataset):
        model = DGCF(tiny_dataset, dim=8, num_intents=4, rng=0)
        entropy = model.intent_routing_entropy()
        assert 0.0 <= entropy <= np.log(4) + 1e-9

    def test_gradients_flow(self, tiny_dataset, rng):
        model = DGCF(tiny_dataset, dim=8, num_intents=2, rng=0)
        pos, neg = model.batch_scores(_batch(tiny_dataset, rng))
        (pos.sum() + neg.sum()).backward()
        assert np.abs(model.user_embedding.weight.grad).sum() > 0


class TestRegistryExtended:
    def test_all_new_models_train_one_epoch(self, tiny_dataset):
        from repro.losses import get_loss
        from repro.train import TrainConfig, train_model
        cfg = TrainConfig(epochs=1, batch_size=256, n_negatives=8,
                          learning_rate=1e-2, seed=0)
        for name in ("lr-gccf", "nia-gcn", "ultragcn", "simplex", "ncl",
                     "dgcf"):
            model = get_model(name, tiny_dataset, dim=8, rng=0)
            result = train_model(model, get_loss("sl", tau=0.3),
                                 tiny_dataset, cfg)
            assert np.isfinite(result.final_loss), name
