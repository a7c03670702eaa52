"""Mini-batch training loop.

Connects the pieces: a backbone from :mod:`repro.models`, a loss from
:mod:`repro.losses`, a sampler from :mod:`repro.data.sampling` and the
evaluator.  Supports the paper's protocol: Adam, optional periodic
evaluation with early stopping on NDCG@20, model-specific auxiliary
losses (SSL branches) and post-step hooks (CML projection).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.sampling import (InBatchSampler, PopularityNegativeSampler,
                                 UniformNegativeSampler)
from repro.eval.evaluator import Evaluator
from repro.losses.base import Loss
from repro.models.base import Recommender
from repro.nn.optim import Adam, SparseAdam
from repro.obs.metrics import get_registry
from repro.tensor import parallel
from repro.tensor.random import ensure_rng, spawn_rngs
from repro.tensor.sparse import RowSparseGrad
from repro.train.config import TrainConfig

__all__ = ["TrainResult", "Trainer", "train_model"]


@dataclass
class TrainResult:
    """Outcome of a training run."""

    model: Recommender
    #: loss value per epoch
    loss_history: list[float] = field(default_factory=list)
    #: (epoch, metrics dict) for each evaluation
    eval_history: list[tuple[int, dict[str, float]]] = field(default_factory=list)
    #: metrics of the best (or final) evaluation
    final_metrics: dict[str, float] = field(default_factory=dict)
    best_epoch: int = -1

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


class Trainer:
    """Drive one (model, loss, dataset) training run.

    Parameters
    ----------
    model, loss, dataset:
        The three pluggable components.  ``dataset`` may be an
        in-memory :class:`~repro.data.dataset.InteractionDataset` or
        any other :class:`~repro.data.source.InteractionSource` (e.g. an
        out-of-core ``ShardedInteractionSource``), which streams epochs
        without dense per-catalogue state.  Periodic evaluation / early
        stopping evaluate the source's own held-out pairs
        (``test_csr()``), and raise ``ValueError`` if it has none.
    config:
        Hyperparameters; see :class:`~repro.train.config.TrainConfig`.
    evaluator:
        Optional pre-built evaluator (to share cutoffs across runs).
    """

    def __init__(self, model: Recommender, loss: Loss,
                 dataset, config: TrainConfig,
                 evaluator: Evaluator | None = None):
        self.model = model
        self.loss = loss
        self.dataset = dataset
        self.config = config
        sampler_rng, self._epoch_rng = spawn_rngs(config.seed, 2)
        self.sampler = self._build_sampler(sampler_rng)
        if config.grad_mode == "sparse":
            self.optimizer = SparseAdam(
                model.parameters(), lr=config.learning_rate,
                weight_decay=config.weight_decay)
        else:
            self.optimizer = Adam(model.parameters(),
                                  lr=config.learning_rate,
                                  weight_decay=config.weight_decay)
        registry = get_registry()
        self._ctr_steps = registry.counter(
            "train.steps", "optimizer steps taken")
        self._ctr_epochs = registry.counter(
            "train.epochs", "training epochs completed")
        self._hist_step = registry.histogram(
            "train.step_ms", "wall time of one train_step() in ms")
        self._hist_epoch_loss = registry.histogram(
            "train.epoch_loss", "mean training loss per epoch")
        self._hist_touched = registry.histogram(
            "train.touched_rows",
            "embedding rows touched per step (grad_mode='sparse' only)")
        if evaluator is None and (config.eval_every or config.patience):
            evaluator = Evaluator(dataset, ks=(20,))
        if config.eval_every:
            # An unknown key would read -inf at every evaluation: no
            # best epoch, and early stopping on noise.
            watched = {f"{m}@{k}" for m in evaluator.metric_names
                       for k in evaluator.ks}
            if config.watch_metric not in watched:
                raise ValueError(
                    f"watch_metric {config.watch_metric!r} is not one of "
                    f"the evaluator's metrics {sorted(watched)}")
        self.evaluator = evaluator

    def _build_sampler(self, rng):
        cfg = self.config
        if cfg.sampler == "in-batch":
            if cfg.rnoise:
                raise ValueError("rnoise requires the uniform sampler")
            return InBatchSampler(self.dataset, batch_size=cfg.batch_size,
                                  rng=rng)
        if cfg.sampler == "popularity":
            return PopularityNegativeSampler(
                self.dataset, n_negatives=cfg.n_negatives,
                batch_size=cfg.batch_size, rng=rng)
        return UniformNegativeSampler(
            self.dataset, n_negatives=cfg.n_negatives,
            batch_size=cfg.batch_size, rnoise=cfg.rnoise, rng=rng)

    # ------------------------------------------------------------------
    def fit(self) -> TrainResult:
        cfg = self.config
        result = TrainResult(model=self.model)
        best_value = -np.inf
        best_state = None
        stale = 0
        self.model.train()
        for epoch in range(1, cfg.epochs + 1):
            self.model.on_epoch_start(self._epoch_rng)
            if hasattr(self.loss, "set_epoch"):
                self.loss.set_epoch(epoch, cfg.epochs)
            epoch_loss = self._run_epoch()
            result.loss_history.append(epoch_loss)
            self._ctr_epochs.inc()
            self._hist_epoch_loss.observe(epoch_loss)
            if cfg.verbose:
                print(f"[{self.dataset.name}] epoch {epoch:3d} "
                      f"loss={epoch_loss:.4f}")
            should_eval = cfg.eval_every and (epoch % cfg.eval_every == 0)
            if not should_eval:
                continue
            metrics = self.evaluator.evaluate(self.model).metrics
            result.eval_history.append((epoch, metrics))
            value = metrics.get(cfg.watch_metric, -np.inf)
            if value > best_value:
                best_value = value
                best_state = self.model.state_dict()
                result.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if cfg.patience and stale >= cfg.patience:
                    break
        if best_state is not None:
            self.model.load_state_dict(best_state)
            result.final_metrics = dict(
                result.eval_history[-1 - stale][1]) if result.eval_history else {}
        if self.evaluator is not None and not result.final_metrics:
            result.final_metrics = self.evaluator.evaluate(self.model).metrics
        self.model.eval()
        # Don't let a long-lived trained model pin its last training
        # step's autograd subgraph through the propagation memo.
        invalidate = getattr(self.model, "invalidate_propagation_cache", None)
        if invalidate is not None:
            invalidate()
        return result

    def _run_epoch(self) -> float:
        total, count = 0.0, 0
        for batch in self.sampler.epoch():
            total += self.train_step(batch) * len(batch)
            count += len(batch)
        return total / max(count, 1)

    def train_step(self, batch) -> float:
        """One optimizer step on a prepared batch; returns the batch loss.

        This is the canonical training step — the repo benchmark's
        training workloads (``bench/workloads.py``) time exactly this
        method, so benchmark numbers always measure what training
        actually runs.
        Both ``grad_mode``s score the batch through
        :meth:`~repro.models.base.Recommender.batch_scores` (row gathers
        only, never the catalogue); the mode picks the optimizer.
        """
        started = time.perf_counter()
        with parallel.scope("trainer"):
            self.optimizer.zero_grad()
            loss_t = self.model.custom_loss(batch)
            if loss_t is None:
                pos, neg = self.model.batch_scores(batch)
                loss_t = self.loss(pos, neg)
            aux = self.model.auxiliary_loss(batch)
            if aux is not None:
                loss_t = loss_t + aux
            loss_t.backward()
            self.optimizer.step()
            self.model.post_step()
        self._hist_step.observe((time.perf_counter() - started) * 1e3)
        self._ctr_steps.inc()
        # Gradients survive step() (cleared by the next zero_grad), so
        # row-sparse nnz can still be read here.  Only a sparse optimizer
        # leaves the other rows alone.
        if self.config.grad_mode == "sparse":
            touched = [p.grad.nnz for p in self.optimizer.params
                       if isinstance(p.grad, RowSparseGrad)]
            if touched:
                self._hist_touched.observe(sum(touched))
        return loss_t.item()


def train_model(model: Recommender, loss: Loss, dataset,
                config: TrainConfig | None = None, **overrides) -> TrainResult:
    """Convenience wrapper: build a :class:`Trainer` and fit.

    >>> result = train_model(model, get_loss("bsl"), dataset, epochs=20)
    """
    config = (config or TrainConfig()).replace(**overrides) if overrides else \
        (config or TrainConfig())
    return Trainer(model, loss, dataset, config).fit()
