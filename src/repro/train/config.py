"""Training configuration dataclass."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrainConfig"]


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    Mirrors the paper's search space (Sec. V-A): Adam learning rate in
    {1e-3, 5e-3, 1e-4}, L2 coefficient in {1e-9 .. 1e-1}, number of
    negatives in {200, 400, 800, 1500} (scaled down here), temperatures
    in [0.05, 1.0].
    """

    epochs: int = 30
    batch_size: int = 1024
    learning_rate: float = 5e-3
    weight_decay: float = 1e-6
    n_negatives: int = 64
    #: "uniform" | "in-batch" | "popularity"
    sampler: str = "uniform"
    #: false-negative intensity (Figs. 3/8); 0 disables
    rnoise: float = 0.0
    #: evaluate every N epochs (0 = only at the end)
    eval_every: int = 0
    #: stop early if the watched metric has not improved for N evals
    patience: int = 0
    #: metric watched for early stopping / best checkpoint
    watch_metric: str = "ndcg@20"
    #: optimizer choice; scoring is shared (both modes score only the
    #: sampled rows through ``batch_scores``).  "dense" trains with
    #: ``Adam`` over whole tables; "sparse" with ``SparseAdam`` over the
    #: touched rows, so per-step cost scales with the batch instead of
    #: the catalogue (see ``docs/training.md``).
    grad_mode: str = "dense"
    seed: int = 0
    verbose: bool = False

    def __post_init__(self):
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.sampler not in ("uniform", "in-batch", "popularity"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if not 0.0 <= self.rnoise < float("inf"):  # NaN included
            raise ValueError(f"rnoise must be finite and non-negative, "
                             f"got {self.rnoise}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.patience and not self.eval_every:
            raise ValueError("patience requires eval_every > 0")
        if self.grad_mode not in ("dense", "sparse"):
            raise ValueError(f"grad_mode must be dense/sparse, "
                             f"got {self.grad_mode!r}")

    def replace(self, **kwargs) -> "TrainConfig":
        """Return a copy with some fields overridden."""
        from dataclasses import replace as _replace
        return _replace(self, **kwargs)
