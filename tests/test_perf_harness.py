"""The training-step timer runs and reports sane numbers."""

import pytest

from repro.experiments.perf import time_train_steps

pytestmark = pytest.mark.filterwarnings("ignore")

_FAST = dict(steps=2, warmup=1, dim=8, batch_size=64, n_negatives=8)


class TestTimers:
    def test_train_row_fields(self, tiny_dataset):
        row = time_train_steps("mf", "sl", tiny_dataset, **_FAST)
        assert row["kind"] == "train_step"
        assert row["model"] == "mf" and row["loss"] == "sl"
        assert row["grad_mode"] == "dense"
        assert row["steps"] == 2
        assert row["total_s"] > 0
        assert row["ms_per_step"] == pytest.approx(
            1e3 * row["total_s"] / row["steps"])
        assert row["steps_per_s"] > 0
