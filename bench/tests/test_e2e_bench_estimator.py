"""The estimator, the span arithmetic and the oracle, without the program."""

import numpy as np
import pytest

import harness
from calib import CAL_REF_MS, Calibrator
from oracle import Oracle
from spans import SpanRecorder, per_op_tables


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _estimate(op_slowdown: float, calib_slowdown: float) -> float:
    """op_p50_cal_ms of a fake 200 ms op against a fake 50 ms kernel."""
    clock = FakeClock()
    jitter = [1.0, 1.1, 0.95, 1.4, 1.0, 0.9, 1.05, 1.0, 2.0]

    def run_op(i):
        ms = 200.0 * op_slowdown * (5.0 if i < 0 else jitter[i % 9])
        clock.now += 1e-3 * ms
        return ms, True

    def sample_calib():
        clock.now += 1e-3 * 50.0 * calib_slowdown
        return 50.0 * calib_slowdown

    m = harness.measure(run_op, sample_calib, n_ops=9, warmup=3,
                        calib_every=2, clock=clock)
    assert len(m.op_ms) == 9 and len(m.calib_ms) == 5 and m.failed == 0
    assert m.wall_s == pytest.approx(1e-3 * (sum(m.op_ms) + sum(m.calib_ms)))
    return m.op_cal_ms()


def test_estimator_ignores_drift_that_hits_ops_and_calibration_alike():
    base = _estimate(1.0, 1.0)
    assert base == pytest.approx(CAL_REF_MS * 200.0 / 50.0)  # warm-up dropped
    assert _estimate(1.3, 1.3) == pytest.approx(base)
    assert _estimate(0.8, 0.8) == pytest.approx(base)


def test_estimator_moves_when_only_the_ops_slow():
    assert _estimate(1.3, 1.0) == pytest.approx(1.3 * _estimate(1.0, 1.0))


def test_failed_ops_are_counted_not_dropped():
    m = harness.measure(lambda i: (1.0, i != 2), lambda: 1.0, n_ops=4,
                        warmup=1, calib_every=4)
    assert (m.failed, len(m.op_ms)) == (1, 4)


def test_op_count_follows_seconds_and_calibration_stays_a_quarter():
    from workloads import WORKLOADS
    for workload in WORKLOADS.values():
        assert harness.op_count(workload, 1.0) == workload.min_ops
        assert harness.op_count(workload, 60.0) > harness.op_count(
            workload, 30.0) >= workload.min_ops
        # calibration stays within a quarter of the timed wall
        calib_ms = (harness.CALIB_SAMPLE_MS * workload.calib_samples
                    / workload.calib_every)
        assert calib_ms <= 0.25 * (calib_ms + workload.nominal_op_ms)
        assert workload.nominal_op_ms >= 100.0


def test_refuses_to_run_unpinned(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    with pytest.raises(SystemExit, match="refusing to run"):
        harness.require_pinned_env()


def test_a_pass_runs_under_its_own_pins_and_none_of_the_other(monkeypatch):
    from pinned_env import MEMORY_ENV, PINNED_ENV, is_pinned, pinned_environ
    for key, value in PINNED_ENV.items():  # as inside a timed pass
        monkeypatch.setenv(key, value)
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    assert is_pinned(PINNED_ENV) and not is_pinned(MEMORY_ENV)
    child = pinned_environ(MEMORY_ENV)  # what its memory pass is given
    assert {key: child[key] for key in MEMORY_ENV} == MEMORY_ENV
    # timed passes retain the heap; the memory pass must not
    retain = {"MALLOC_MMAP_MAX_", "MALLOC_TRIM_THRESHOLD_"}
    assert retain <= set(PINNED_ENV) and not retain & set(child)


def test_calibrator_imports_nothing_from_the_program():
    import ast

    import calib
    tree = ast.parse(open(calib.__file__).read())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "statistics", "time", "numpy"}
    assert Calibrator(scale=0.01).sample_ms() > 0.0


def test_self_times_of_one_op_add_up_to_its_wall_time():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.enabled, rec.op_id = True, 7
    # root 0..10; child a 1..4; two overlapping grandchildren of b (5..9)
    rec.spans = [["root", 0.0, 10.0, -1, 7], ["a", 1.0, 4.0, 0, 7],
                 ["b", 5.0, 9.0, 0, 7], ["shard", 5.0, 8.0, 2, 7],
                 ["shard", 6.0, 9.0, 2, 7]]
    inclusive, own = per_op_tables(rec.spans)
    assert inclusive["shard"] == [6000.0]          # summed, they overlap
    assert own["shard"] == [pytest.approx(4000.0)]  # scaled to covered wall
    assert sum(values[0] for values in own.values()) == pytest.approx(1e4)
    assert own["root"] == [pytest.approx(3000.0)]


def test_disabled_recorder_records_nothing_and_patches_restore():
    rec = SpanRecorder()

    class Thing:
        def work(self):
            return 42
    thing = Thing()
    rec.patch(thing, "work", "thing.work")
    rec.patch(Thing, "work", "Thing.work")
    assert thing.work() == 42 and rec.spans == []
    rec.enabled = True
    assert thing.work() == 42 and [s[0] for s in rec.spans] == ["thing.work"]
    rec.restore()
    assert "work" not in vars(thing) and Thing.work(thing) == 42
    assert not hasattr(Thing.work, "__wrapped__")


def test_oracle_masks_seen_and_breaks_ties_by_id():
    users = np.array([[1.0, 0.0]])
    items = np.array([[2.0, 0.0], [3.0, 5.0], [2.0, 1.0], [9.0, 0.0]])
    oracle = Oracle(users, items, "inner")
    ids, scores = oracle.topk(0, seen=[3], k=3)
    assert ids.tolist() == [1, 0, 2] and scores.tolist() == [3.0, 2.0, 2.0]
    assert oracle.matches([1, 0, 2], [3.0, 2.0, 2.0 + 1e-12], 0, [3], 3)
    assert not oracle.matches([1, 2, 0], [3.0, 2.0, 2.0], 0, [3], 3)
    assert not oracle.matches([1, 0, 2], [3.0, 2.0, 2.1], 0, [3], 3)
