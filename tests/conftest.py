"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset


@pytest.fixture(scope="session")
def tiny_dataset():
    """The 'tiny' synthetic preset (60 users, 80 items)."""
    return load_dataset("tiny")


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def _tiny_mf_export(dataset, out_dir, seed: int):
    """Train the tiny MF cell at ``seed`` and export it to ``out_dir``."""
    from repro.losses import get_loss
    from repro.models import MF
    from repro.serve import export_snapshot
    from repro.train import TrainConfig, train_model

    model = MF(dataset.num_users, dataset.num_items, dim=8, rng=seed)
    config = TrainConfig(epochs=2, batch_size=64, n_negatives=8,
                         eval_every=0, patience=0, seed=seed)
    train_model(model, get_loss("bsl"), dataset, config)
    snapshot = export_snapshot(model, dataset, out_dir, model_name="mf")
    return model, snapshot


@pytest.fixture(scope="session")
def tiny_mf_snapshot(tmp_path_factory, tiny_dataset):
    """(model, snapshot) for a briefly-trained MF exported on 'tiny'.

    Session-scoped: the serve tests all compare against the same trained
    model and on-disk snapshot directory.
    """
    return _tiny_mf_export(tiny_dataset, tmp_path_factory.mktemp("snapshot"),
                           seed=0)


@pytest.fixture(scope="session")
def tiny_mf_snapshot_next(tmp_path_factory, tiny_dataset):
    """(model, snapshot): the next generation of :func:`tiny_mf_snapshot`.

    The same cell re-seeded and re-exported, as a retrain would produce
    it: every row moves and the content version changes.  The refresh
    tests swap between the two generations.
    """
    return _tiny_mf_export(tiny_dataset,
                           tmp_path_factory.mktemp("snapshot-next"), seed=1)


@pytest.fixture(scope="session")
def yelp_retrieval(tmp_path_factory):
    """(dataset, model, snapshot) for a retrieval-trained cell on yelp.

    Matches the ANN benchmark's default cell (``mf`` + ``bpr``): a
    pairwise loss keeps the item embeddings clusterable, which is what
    the recall-floor acceptance rides on (see ``docs/ann.md``).
    Session-scoped: the ANN and k-means tests build indexes from it.
    """
    from repro.losses import get_loss
    from repro.models import get_model
    from repro.serve import export_snapshot
    from repro.train import TrainConfig, train_model

    dataset = load_dataset("yelp2018-small")
    model = get_model("mf", dataset, dim=64, rng=0)
    config = TrainConfig(epochs=25, n_negatives=16, eval_every=0,
                         patience=0, seed=0)
    train_model(model, get_loss("bpr"), dataset, config)
    out = tmp_path_factory.mktemp("yelp-snap")
    snapshot = export_snapshot(model, dataset, out, model_name="mf")
    return dataset, model, snapshot
