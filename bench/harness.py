"""Timed loop, estimator, environment fingerprint and result files.

Timing rules (see ``README.md``): BLAS pinned to one thread before
numpy loads, one fresh process per workload, GC frozen around the timed
loop, fixed op counts, warm-up ops discarded, and every time reported
relative to the interleaved calibration kernel.  Memory is measured in
a pass of its own, in a second fresh process (see ``pinned_env.py``).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from calib import CAL_REF_MS, Calibrator, calibrated_ms
from pinned_env import (MEMORY_ENV, PINNED_ENV, aslr_disabled, is_pinned,
                        pinned_environ)
from spans import median_of, per_op_tables
from workloads import FULL, TINY, WORKLOADS

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WARMUP_OPS = 3
SETUP_REPEATS = 5
#: one calibration sample is an untimed pass plus a timed one
CALIB_SAMPLE_MS = 2 * 48.0

#: end-to-end metrics every workload reports with ``--trace 0``
END_TO_END = {"op_p50_cal_ms": "cal-ms", "setup_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics a traced pass reports; a layer the workload never
#: enters reads 0.0
PER_LAYER = {
    "data.sampling.batch_p50_ms": "ms", "data.sampling.batch_p90_ms": "ms",
    "data.source.open_ms": "ms",
    "models.forward_p50_ms": "ms", "graph.propagate_p50_ms": "ms",
    "losses.forward_p50_ms": "ms", "tensor.backward_p50_ms": "ms",
    "nn.optim.step_p50_ms": "ms", "nn.optim.touched_rows": "count",
    "train.step_p50_ms": "ms", "train.step_overhead_frac": "frac",
    "eval.evaluate_p50_ms": "ms", "eval.ndcg20": "frac",
    "eval.rank_items_p50_ms": "ms", "eval.mask_seen_p50_ms": "ms",
    "serve.snapshot.export_p50_ms": "ms", "serve.snapshot.load_ms": "ms",
    "serve.snapshot.bytes": "bytes",
    "ann.build_p50_ms": "ms", "ann.topk_p50_ms": "ms",
    "ann.recall20": "frac", "ann.scored_frac": "frac",
    "serve.index.topk_p50_ms": "ms", "serve.index.panel_scores_p50_ms": "ms",
    "serve.shard.gather_p50_ms": "ms", "serve.shard.partial_topk_p50_ms": "ms",
    "serve.shard.score_frac": "frac", "serve.shard.rank_frac": "frac",
    "serve.router.topk_p50_ms": "ms", "serve.router.merge_p50_ms": "ms",
    "serve.router.fanout_speedup": "x",
    "serve.service.overhead_p50_ms": "ms",
    "serve.service.cache_hit_frac": "frac",
    "serve.service.hit_path_us_per_user": "us",
    "serve.runtime.queue_p50_ms": "ms", "serve.runtime.service_p50_ms": "ms",
    "serve.runtime.mean_batch": "count",
    "serve.runtime.overhead_p50_ms": "ms", "serve.runtime.shed_frac": "frac",
    "bench.calib_p50_ms": "ms", "bench.calib_iqr_frac": "frac",
    "bench.op_p50_raw_ms": "ms", "bench.op_p90_cal_ms": "cal-ms",
    "bench.timed_wall_s": "s", "bench.ops": "count",
    "bench.layer_sum_frac": "frac", "bench.trace_overhead_frac": "frac",
    "bench.build_s": "s",
}


@dataclasses.dataclass
class Measurement:
    op_ms: list[float]
    calib_ms: list[float]
    failed: int
    #: wall time of the timed loop: ops, their checks and calibration
    wall_s: float

    def op_cal_ms(self, q: float = 0.5, ops=None) -> float:
        """A quantile of the op times in ``cal-ms`` (the median by default)."""
        return calibrated_ms(float(np.quantile(ops or self.op_ms, q)),
                             self.calib_ms)


def measure(run_op, sample_calib, n_ops: int, warmup: int,
            calib_every: int, calib_samples: int = 1,
            clock=time.perf_counter) -> Measurement:
    """``warmup`` discarded ops, then ``n_ops`` timed ones with calibration.

    ``run_op(i) -> (elapsed_ms, ok)`` gets a negative ``i`` for warm-up
    ops.  ``sample_calib() -> ms`` runs ``calib_samples`` times after
    every ``calib_every`` ops and after the last, always between ops.
    """
    for i in range(-warmup, 0):
        run_op(i)
    op_ms, calib_ms, failed = [], [], 0
    gc.collect()
    gc.freeze()
    gc.disable()
    start = clock()
    try:
        for i in range(n_ops):
            elapsed_ms, ok = run_op(i)
            op_ms.append(elapsed_ms)
            failed += not ok
            if (i + 1) % calib_every == 0 or i == n_ops - 1:
                calib_ms.extend(sample_calib() for _ in range(calib_samples))
    finally:
        gc.enable()
        gc.unfreeze()
    return Measurement(op_ms, calib_ms, failed, clock() - start)


def op_count(workload, seconds: float) -> int:
    """The fixed number of ops that fills ``seconds`` on the reference box."""
    per_op_ms = workload.nominal_op_ms + (
        CALIB_SAMPLE_MS * workload.calib_samples / workload.calib_every)
    return max(workload.min_ops, round(1e3 * seconds / per_op_ms))


def require_pinned_env(pins: dict = PINNED_ENV) -> dict:
    """The pinned env; refuses to run when it is not in place."""
    env = {key: os.environ.get(key) for key in pins}
    if not is_pinned(pins):
        raise SystemExit(f"refusing to run: want exactly {pins}, got {env}; "
                         f"start through bench/run.py")
    return env


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(seed: int) -> dict:
    """What a number in a result file was measured on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "pinned_env": require_pinned_env(),
            "aslr_disabled": aslr_disabled(),
            "git_sha": _git_sha(), "seed": seed, "cal_ref_ms": CAL_REF_MS}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def memory_pass(name: str, seed: int, tiny: bool,
                work_dir: pathlib.Path) -> dict:
    """Set-up and a fixed few ops in this process, under ``MEMORY_ENV``.

    Untimed.  The inputs are already built, so generating them never
    counts; what ``ru_maxrss`` then reads is the program's live set.
    """
    require_pinned_env(MEMORY_ENV)
    workload = WORKLOADS[name](TINY if tiny else FULL, seed, work_dir,
                               time.perf_counter)
    n_ops = 2 if tiny else workload.memory_ops
    workload.build()
    workload.setup()
    workload.open_checks()
    failed = sum(not workload.run_op(i)[1] for i in range(n_ops))
    workload.teardown()
    return {"ops": n_ops, "failed": failed, "peak_rss_mb": _peak_rss_mb(),
            "pinned_env": MEMORY_ENV, "aslr_disabled": aslr_disabled()}


def _memory_pass_in_child(name: str, seed: int, tiny: bool,
                          work_dir: pathlib.Path) -> dict:
    """:func:`memory_pass` in a fresh process; waits for it to end."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--memory-pass", "--work-dir", str(work_dir)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=pinned_environ(MEMORY_ENV))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"memory pass of {name} failed "
                         f"({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(m: Measurement, setup_s, memory: dict) -> dict:
    return {
        "op_p50_cal_ms": m.op_cal_ms(),
        "setup_s": 1e-3 * calibrated_ms(1e3 * statistics.median(setup_s),
                                        m.calib_ms),
        "peak_rss_mb": memory["peak_rss_mb"],
    }


def _per_layer(workload, m: Measurement, build_s: float) -> tuple[dict, dict]:
    """``(metrics, rows)`` of a traced pass: every PER_LAYER name, and the
    per-span self / inclusive medians they were read from."""
    traced_ms, control_ms = m.op_ms[1::2], m.op_ms[0::2]
    inclusive, own = per_op_tables(workload.rec.spans)
    rows = {span: {"self_p50_ms": median_of(own, span),
                   "inclusive_p50_ms": median_of(inclusive, span)}
            for span in sorted(own)}
    layer_sum = sum(row["self_p50_ms"] for span, row in rows.items()
                    if span != "bench.op")
    low, _, high = statistics.quantiles(m.calib_ms, n=4)
    measured = {
        **workload.setup_ms, **workload.layer_metrics(inclusive, own),
        **workload.probes(),
        "bench.calib_p50_ms": statistics.median(m.calib_ms),
        "bench.calib_iqr_frac": (high - low) / statistics.median(m.calib_ms),
        "bench.op_p50_raw_ms": statistics.median(traced_ms),
        "bench.op_p90_cal_ms": m.op_cal_ms(0.9),
        "bench.timed_wall_s": m.wall_s,
        "bench.ops": len(m.op_ms),
        "bench.layer_sum_frac": layer_sum / statistics.median(traced_ms),
        "bench.trace_overhead_frac":
            m.op_cal_ms(ops=traced_ms) / m.op_cal_ms(ops=control_ms) - 1.0,
        "bench.build_s": build_s,
    }
    unknown = set(measured) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"per-layer metrics missing from PER_LAYER: "
                         f"{sorted(unknown)}")
    return {key: float(measured.get(key, 0.0)) for key in PER_LAYER}, rows


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, work_dir: pathlib.Path,
                 results_dir: pathlib.Path) -> dict:
    """One pass of one workload in this process; returns the result line."""
    payload = {"workload": name, "shapes": "tiny" if tiny else "full",
               "fingerprint": fingerprint(seed)}
    clock = time.perf_counter
    workload = WORKLOADS[name](TINY if tiny else FULL, seed, work_dir, clock)
    calibrator = Calibrator(scale=0.02 if tiny else 1.0)
    n_ops = 4 if tiny else op_count(workload, seconds)

    start = clock()
    workload.build()
    build_s = clock() - start
    # After the build, so the child finds its inputs made, and before
    # set-up, while this process is still small.
    memory = None if trace else _memory_pass_in_child(name, seed, tiny,
                                                      work_dir)
    setup_s = []
    for repeat in range(2 if tiny else SETUP_REPEATS):
        if repeat:
            workload.teardown()
        start = clock()
        workload.setup()
        setup_s.append(clock() - start)
    workload.open_checks()

    rec = workload.rec
    if trace:
        workload.install_trace()

    def run_op(i: int):
        # A traced pass alternates: odd ops record spans, even ops are
        # the untraced control its overhead is measured against.
        rec.enabled = trace and i >= 0 and i % 2 == 1
        rec.op_id = i
        return workload.run_op(i)

    try:
        m = measure(run_op, lambda: calibrator.sample_ms(clock), n_ops,
                    1 if tiny else WARMUP_OPS, workload.calib_every,
                    workload.calib_samples, clock)
    finally:
        rec.enabled = False
        rec.restore()
    workload.finish()
    for what, ok in workload.end_checks:
        if not ok:
            print(f"[{name}] check failed: {what}", file=sys.stderr)
    failed = min(n_ops, m.failed + sum(not ok for _, ok in
                                       workload.end_checks))
    if memory:  # its ops are checked like any other
        n_ops += memory["ops"]
        failed += memory["failed"]
    payload.update(ops=n_ops, failed=failed, fail_frac=failed / n_ops,
                   checks=[{"what": what, "ok": ok}
                           for what, ok in workload.end_checks])

    if trace:
        metrics, rows = _per_layer(workload, m, build_s)
        units = PER_LAYER
        payload.update(rows=rows, span_fields=[
            "name", "start_ms", "end_ms", "parent", "op_id"])
        origin = min((span[1] for span in rec.spans), default=0.0)
        spans = [[s[0], round(1e3 * (s[1] - origin), 4),
                  round(1e3 * (s[2] - origin), 4), s[3], s[4]]
                 for s in rec.spans]
    else:
        metrics, units = _end_to_end(m, setup_s, memory), END_TO_END
        payload.update(op_ms=m.op_ms, calib_ms=m.calib_ms,
                       setup_raw_s=setup_s, build_s=build_s,
                       timed_wall_s=m.wall_s, memory_pass=memory,
                       timed_pass_rss_mb=_peak_rss_mb())
    workload.teardown()

    payload["metrics"] = {key: {"value": value, "unit": units[key]}
                          for key, value in metrics.items()}
    text = json.dumps(payload, indent=1)
    if trace:  # one span per line keeps the dump diffable and small
        text = text[:-2] + ',\n "spans": [\n  ' + ",\n  ".join(
            json.dumps(span) for span in spans) + "\n ]\n}"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{'trace' if trace else 'run'}-{name}.json").write_text(
        text + "\n")
    return {"correct": failed == 0, "attempted": n_ops, "failed": failed,
            "metrics": payload["metrics"]}
