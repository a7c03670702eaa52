"""Experiment harness: declarative specs -> trained model + metrics.

Each bench (one per paper table/figure) builds a list of
:class:`ExperimentSpec` values and calls :func:`run_experiment`.  The
spec captures everything that varies across the paper's sweeps: the
dataset, backbone, loss and its temperatures, the sampler and its noise
level, positive-noise injection, embedding size and the training
budget.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.noise import inject_positive_noise
from repro.data.synthetic import load_dataset
from repro.dro.variance import (MeanVarianceSoftmaxLoss,
                                VarianceAblatedSoftmaxLoss)
from repro.eval.evaluator import Evaluator
from repro.losses.registry import get_loss
from repro.models.base import Recommender
from repro.models.registry import get_model
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer

__all__ = ["ExperimentSpec", "ExperimentResult", "run_experiment",
           "build_components", "collect_negative_scores"]

# Analysis losses that live outside the public registry.
_EXTRA_LOSSES = {
    "sl-novar": VarianceAblatedSoftmaxLoss,
    "sl-meanvar": MeanVarianceSoftmaxLoss,
}


@dataclass
class ExperimentSpec:
    """One experiment cell (a point in a paper table/figure)."""

    dataset: str = "yelp2018-small"
    model: str = "mf"
    loss: str = "sl"
    loss_kwargs: dict = field(default_factory=dict)
    dim: int = 64
    epochs: int = 25
    batch_size: int = 1024
    learning_rate: float = 5e-2
    weight_decay: float = 1e-6
    n_negatives: int = 128
    sampler: str = "uniform"
    #: false-negative intensity at sampling time (Figs. 3/8)
    rnoise: float = 0.0
    #: fraction of fake positives injected into the train split (RQ3)
    positive_noise: float = 0.0
    eval_ks: tuple = (20,)
    seed: int = 0

    def key(self) -> str:
        """Stable string identity (used for caching and logs)."""
        payload = asdict(self)
        payload["eval_ks"] = list(self.eval_ks)
        return json.dumps(payload, sort_keys=True)


@dataclass
class ExperimentResult:
    """Trained model plus its evaluation."""

    spec: ExperimentSpec
    metrics: dict[str, float]
    model: Recommender
    dataset: InteractionDataset
    train_dataset: InteractionDataset
    loss_history: list[float]

    def metric(self, name: str) -> float:
        return self.metrics[name]


def build_components(spec: ExperimentSpec
                     ) -> tuple[InteractionDataset, InteractionDataset,
                                Recommender, object]:
    """Materialize (clean_dataset, train_dataset, model, loss) for a spec.

    ``train_dataset`` differs from ``clean_dataset`` only when
    ``positive_noise > 0``; evaluation always runs against the clean
    test split (the paper's protocol).
    """
    clean = load_dataset(spec.dataset)
    train_ds = clean
    if spec.positive_noise > 0:
        train_ds = inject_positive_noise(clean, spec.positive_noise,
                                         rng=spec.seed + 1)
    model = get_model(spec.model, train_ds, dim=spec.dim, rng=spec.seed)
    if spec.loss in _EXTRA_LOSSES:
        loss = _EXTRA_LOSSES[spec.loss](**spec.loss_kwargs)
    else:
        loss = get_loss(spec.loss, **spec.loss_kwargs)
    return clean, train_ds, model, loss


def run_experiment(spec: ExperimentSpec, verbose: bool = False
                   ) -> ExperimentResult:
    """Train the spec's model and evaluate it on the clean test split."""
    clean, train_ds, model, loss = build_components(spec)
    config = TrainConfig(
        epochs=spec.epochs, batch_size=spec.batch_size,
        learning_rate=spec.learning_rate, weight_decay=spec.weight_decay,
        n_negatives=spec.n_negatives, sampler=spec.sampler,
        rnoise=spec.rnoise, seed=spec.seed, verbose=verbose)
    trainer = Trainer(model, loss, train_ds, config)
    train_result = trainer.fit()
    evaluator = Evaluator(clean, ks=spec.eval_ks)
    metrics = evaluator.evaluate(model).metrics
    return ExperimentResult(spec=spec, metrics=metrics, model=model,
                            dataset=clean, train_dataset=train_ds,
                            loss_history=train_result.loss_history)


def collect_negative_scores(result: ExperimentResult, n_users: int = 64,
                            n_negatives: int = 256, seed: int = 0,
                            rnoise: float | None = None) -> np.ndarray:
    """Sample a (n_users, n_negatives) matrix of negative scores.

    Shared helper for the DRO analyses (Figs. 3b / 4b): scores are the
    model's values on items drawn from the *training-time negative
    sampling distribution* ``P-_u`` — i.e. including false negatives at
    the experiment's ``rnoise`` rate, exactly the distribution whose
    variance enters Corollary III.1.

    Parameters
    ----------
    rnoise:
        False-negative intensity of the sampling distribution; defaults
        to the spec's training value.
    """
    rng = np.random.default_rng(seed)
    dataset = result.dataset
    if rnoise is None:
        rnoise = result.spec.rnoise
    users = rng.choice(dataset.num_users, size=min(n_users, dataset.num_users),
                       replace=False)
    scores = result.model.scoring_tables().scores(users)
    all_items = np.arange(dataset.num_items)
    out = np.empty((len(users), n_negatives))
    for row, user in enumerate(users):
        positives = dataset.train_items_by_user[user]
        negatives = np.setdiff1d(all_items, positives)
        if rnoise > 0 and len(positives):
            n_pos, n_neg = len(positives), len(negatives)
            p_pos = rnoise * n_pos / (rnoise * n_pos + n_neg)
            from_pos = rng.random(n_negatives) < p_pos
            chosen = rng.choice(negatives, size=n_negatives,
                                replace=len(negatives) < n_negatives)
            k = int(from_pos.sum())
            if k:
                chosen[from_pos] = rng.choice(positives, size=k)
        else:
            chosen = rng.choice(negatives, size=n_negatives,
                                replace=len(negatives) < n_negatives)
        out[row] = scores[row, chosen]
    return out
