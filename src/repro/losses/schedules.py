"""Temperature schedules for SL/BSL (paper Sec. VI-D / future work).

The paper's related-work section points at dynamic temperatures
(Kukleva et al., ICLR 2023: a cosine τ schedule improves long-tail
performance).  Through the DRO lens (Remark 3), scheduling τ means
scheduling the robustness radius over training: start broad (small τ,
large η) to explore hard worst cases, end narrow for stability — or the
reverse.  These wrappers make any temperature-bearing loss schedulable;
the Trainer calls :meth:`ScheduledLoss.set_epoch` once per epoch.
"""

from __future__ import annotations

import math

from repro.losses.base import Loss
from repro.losses.bsl import BSLLoss
from repro.losses.softmax import SoftmaxLoss
from repro.tensor import Tensor

__all__ = ["TemperatureSchedule", "ConstantSchedule", "CosineSchedule",
           "LinearSchedule", "ScheduledLoss", "ScheduledSoftmaxLoss",
           "ScheduledBSLLoss"]


class TemperatureSchedule:
    """Maps training progress ``t in [0, 1]`` to a temperature."""

    def __call__(self, progress: float) -> float:
        raise NotImplementedError

    @staticmethod
    def _check(progress: float) -> float:
        if not 0.0 <= progress <= 1.0:
            raise ValueError(f"progress must lie in [0, 1], got {progress}")
        return progress


class ConstantSchedule(TemperatureSchedule):
    def __init__(self, tau: float):
        if not 0 < tau < math.inf:
            raise ValueError("tau must be positive and finite")
        self.tau = tau

    def __call__(self, progress: float) -> float:
        self._check(progress)
        return self.tau


class CosineSchedule(TemperatureSchedule):
    """Cosine interpolation from ``tau_start`` to ``tau_end``.

    The schedule of Kukleva et al.: τ oscillates/anneals smoothly,
    trading hardness-awareness early for uniformity late (or vice
    versa, depending on the endpoint ordering).
    """

    def __init__(self, tau_start: float, tau_end: float):
        if not (0 < tau_start < math.inf and 0 < tau_end < math.inf):
            raise ValueError("temperatures must be positive and finite")
        self.tau_start = tau_start
        self.tau_end = tau_end

    def __call__(self, progress: float) -> float:
        progress = self._check(progress)
        weight = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.tau_end + (self.tau_start - self.tau_end) * weight


class LinearSchedule(TemperatureSchedule):
    def __init__(self, tau_start: float, tau_end: float):
        if not (0 < tau_start < math.inf and 0 < tau_end < math.inf):
            raise ValueError("temperatures must be positive and finite")
        self.tau_start = tau_start
        self.tau_end = tau_end

    def __call__(self, progress: float) -> float:
        progress = self._check(progress)
        return self.tau_start + (self.tau_end - self.tau_start) * progress


class ScheduledLoss(Loss):
    """Base for losses whose temperature follows a schedule.

    The trainer calls :meth:`set_epoch` before each epoch; subclasses
    rebuild their inner loss at the scheduled temperature(s).
    """

    def __init__(self):
        self._progress = 0.0

    def set_epoch(self, epoch: int, total_epochs: int) -> None:
        """Record training progress (1-indexed epoch)."""
        if total_epochs <= 0:
            raise ValueError("total_epochs must be positive")
        self._progress = min(1.0, max(0.0, (epoch - 1) / max(1, total_epochs - 1)))
        self._rebuild()

    def _rebuild(self) -> None:
        raise NotImplementedError


class ScheduledSoftmaxLoss(ScheduledLoss):
    """SL with a scheduled temperature."""

    name = "sl-scheduled"

    def __init__(self, schedule: TemperatureSchedule, **sl_kwargs):
        super().__init__()
        self.schedule = schedule
        self._sl_kwargs = sl_kwargs
        self._inner = SoftmaxLoss(tau=schedule(0.0), **sl_kwargs)

    @property
    def current_tau(self) -> float:
        return self._inner.tau

    def _rebuild(self) -> None:
        self._inner = SoftmaxLoss(tau=self.schedule(self._progress),
                                  **self._sl_kwargs)

    def compute(self, pos: Tensor, neg: Tensor) -> Tensor:
        return self._inner.compute(pos, neg)


class ScheduledBSLLoss(ScheduledLoss):
    """BSL with independently scheduled positive/negative temperatures."""

    name = "bsl-scheduled"

    def __init__(self, schedule1: TemperatureSchedule,
                 schedule2: TemperatureSchedule, pooling: str = "mean"):
        super().__init__()
        self.schedule1 = schedule1
        self.schedule2 = schedule2
        self.pooling = pooling
        self._inner = BSLLoss(tau1=schedule1(0.0), tau2=schedule2(0.0),
                              pooling=pooling)

    @property
    def current_taus(self) -> tuple[float, float]:
        return self._inner.tau1, self._inner.tau2

    def _rebuild(self) -> None:
        self._inner = BSLLoss(tau1=self.schedule1(self._progress),
                              tau2=self.schedule2(self._progress),
                              pooling=self.pooling)

    def compute(self, pos: Tensor, neg: Tensor) -> Tensor:
        return self._inner.compute(pos, neg)
