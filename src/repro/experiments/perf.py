"""Serving-side bench suites that ``bench/`` does not measure.

Each suite trains one small cell, exports it and emits results in a
stable JSON schema:

* the **ANN suite** builds IVF indexes (:mod:`repro.ann`) across
  ``nlist`` values and sweeps ``nprobe``, recording the
  recall/throughput frontier against the exact index — recall@k via
  :func:`repro.eval.metrics.overlap_at_k`, throughput as
  **index-level** ``topk`` users/s over the same request stream for
  both sides (no service cache in either lane) → ``BENCH_ann.json``;
* the **latency suite** drives the async
  :class:`~repro.serve.runtime.ServingRuntime` with a paced open-loop
  load generator, sweeping offered QPS multiplicatively until
  saturation (throughput collapse or admission shedding) → the
  p50/p99-vs-offered-load frontier of ``BENCH_latency.json``.

Training step time, closed-loop serving throughput (sharded and
unsharded, cold and cached) and telemetry overhead are measured by the
repo benchmark instead (``bench/README.md``).

Programmatic entry points:

* :func:`time_index_topk` — index-level users/s for any top-K index.
* :func:`run_ann_suite` — the ANN frontier; returns the JSON payload.
* :func:`run_latency_level` — one offered-QPS level through a runtime.
* :func:`run_latency_suite` — the latency frontier; returns the payload.

CLI: ``python -m repro.cli bench <suite>`` (``make bench-<suite>``), one
flag per field of the suite's config dataclass; see
:mod:`repro.experiments.bench`.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.data.synthetic import load_dataset
from repro.eval.metrics import overlap_at_k
from repro.losses.registry import get_loss
from repro.models.registry import get_model
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer

__all__ = ["ANN_SCHEMA", "LATENCY_SCHEMA", "CLOCK_RESOLUTION_S",
           "clamp_elapsed", "AnnPerfConfig", "LatencyPerfConfig",
           "time_index_topk", "run_latency_level", "run_latency_suite",
           "run_ann_suite", "write_report", "summarize_ann",
           "summarize_latency"]

#: Schema of the ANN recall/throughput frontier (``BENCH_ann.json``).
ANN_SCHEMA = "bsl-ann-bench/v1"

#: Schema of the latency-vs-offered-load frontier (``BENCH_latency.json``).
LATENCY_SCHEMA = "bsl-latency-bench/v1"

#: One tick of the monotonic clock — the shortest wall-clock interval
#: ``time.perf_counter()`` can resolve (floored at 1 ns for platforms
#: that report 0).
CLOCK_RESOLUTION_S = max(time.get_clock_info("perf_counter").resolution,
                         1e-9)


def clamp_elapsed(elapsed: float) -> float:
    """Clamp a timed interval to the monotonic clock's resolution.

    Two back-to-back ``perf_counter()`` reads can legally return the
    same value, and every ``x / elapsed`` throughput column would then
    emit ``float("inf")`` — which ``scripts/check_bench.py`` itself
    rejects as non-finite, so a fast machine on a tiny dataset would
    fail its own validator.  Flooring at one clock tick keeps every
    derived rate finite (and *understates* speed, never overstates it).
    """
    return max(elapsed, CLOCK_RESOLUTION_S)


def _timed(fn) -> float:
    """Wall-clock seconds of one ``fn()`` call, clamped to clock ticks."""
    start = time.perf_counter()
    fn()
    return clamp_elapsed(time.perf_counter() - start)


def _flag(default, help: str):
    """A config field whose ``repro bench <suite>`` flag shows ``help``."""
    return field(default=default, metadata={"help": help})


def _payload(schema: str, config, results: list, *, dataset: str | None = None,
             snapshot_version: str | None = None) -> dict:
    """Assemble a suite's payload: the shared header plus ``results``.

    Every field of the ``config`` dataclass lands in the ``config`` block
    (tuples as lists) except ``dataset``, which is the top-level key.
    """
    block = {key: list(value) if isinstance(value, tuple) else value
             for key, value in asdict(config).items()}
    payload = {"schema": schema, "created_unix": time.time(),
               "dataset": block.pop("dataset", dataset)}
    if snapshot_version is not None:
        payload["snapshot_version"] = snapshot_version
    return {**payload, "config": block, "results": results}


def _train_cell(config, **train_overrides):
    """Train the suite's one (dataset, model, loss) cell.

    Returns ``(dataset, model)``; every suite that serves a trained
    snapshot starts here, so they all train the identical model for
    the same config.
    """
    dataset = load_dataset(config.dataset)
    model = get_model(config.model, dataset, dim=config.dim, rng=config.seed)
    train_config = TrainConfig(epochs=config.epochs, eval_every=0, patience=0,
                               seed=config.seed, **train_overrides)
    Trainer(model, get_loss(config.loss), dataset, train_config,
            evaluator=None).fit()
    return dataset, model


def _request_stream(num_users: int, length: int, seed: int) -> np.ndarray:
    """A duplicate-free request stream of ``length`` user ids.

    Cycled independent permutations, not draws with replacement:
    ``recommend()`` dedups repeated users inside a batch even with the
    cache off, so a duplicate-heavy stream would overstate cold per-user
    throughput.
    """
    rng = np.random.default_rng(seed)
    cycles = -(-length // num_users)
    return np.concatenate([rng.permutation(num_users)
                           for _ in range(cycles)])[:length].astype(np.int64)


def write_report(payload: dict, path) -> None:
    """Persist a payload produced by any ``run_*_suite`` function."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


# ----------------------------------------------------------------------
# ANN recall/throughput frontier (BENCH_ann.json)
# ----------------------------------------------------------------------
@dataclass
class AnnPerfConfig:
    """Knobs for one ANN frontier run.

    One (dataset, model, loss) cell is trained and exported, IVF
    indexes are built per ``nlist`` (through the real on-disk
    :func:`repro.ann.build.build_ann_index` path), and every
    (nlist, nprobe) point is measured for recall@k against the exact
    index and index-level ``topk`` throughput over a shared request
    stream.

    The default cell is ``mf`` + ``bpr``: candidate towers are trained
    with pairwise objectives in practice, and the paper's contrastive
    losses (SL/BSL) push item embeddings toward uniformity on the
    sphere, which deliberately *destroys* the cluster structure IVF
    exploits — the frontier of a BSL snapshot is measurably worse (see
    ``docs/ann.md``).  Override ``loss`` to quantify that.
    """

    dataset: str = "yelp2018-small"
    model: str = "mf"
    loss: str = _flag("bpr", "loss of the trained cell (pairwise losses "
                             "cluster best; see docs/ann.md)")
    epochs: int = 25
    dim: int = 64
    n_negatives: int = 16
    k: int = 10
    nlists: tuple = _flag((8, 16, 32), "comma-separated IVF list counts")
    nprobes: tuple = _flag((1, 2, 4), "comma-separated probe counts")
    train_iters: int = 25
    batch_size: int = _flag(1024, "request batch per topk call (both lanes "
                                  "time the same stream)")
    request_users: int = 4096
    repeats: int = 5
    seed: int = 0


def time_index_topk(index, users: np.ndarray, *, batch_size: int,
                    k: int = 10, repeats: int = 5) -> dict:
    """Index-level ``topk`` throughput over ``users``.

    One untimed warmup pass (which also builds lazy structures — an
    IVF index's per-list panels — exactly like a service warming up),
    then ``repeats`` timed passes; the reported throughput uses
    the **fastest pass** (the ``timeit`` convention — slower passes
    measure scheduler noise, not the index).  It bypasses the service
    layer, so two index kinds can be compared without the shared
    per-user python overhead of result assembly and caching.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")

    def one_pass() -> None:
        for lo in range(0, len(users), batch_size):
            index.topk(users[lo:lo + batch_size], k=k)

    one_pass()
    passes = [_timed(one_pass) for _ in range(repeats)]
    best = min(passes)
    return {
        "batch_size": batch_size,
        "k": k,
        "users": int(len(users)),
        "repeats": repeats,
        "total_s": sum(passes),
        "best_pass_s": best,
        "users_per_s": len(users) / best,
        "ms_per_batch": 1e3 * best / (-(-len(users) // batch_size)),
    }


def run_ann_suite(config: AnnPerfConfig | None = None) -> dict:
    """Train, build IVF indexes and sweep the recall/throughput frontier.

    Returns the ``BENCH_ann.json`` payload: one ``ann_baseline`` row
    (the exact index timed over the same stream) and one ``ann`` row
    per (nlist, nprobe), each carrying ``recall`` (overlap@k against the exact index over
    every user) and ``users_per_s``.
    """
    from repro.ann import IVFFlatIndex, build_ann_index
    from repro.serve import ExactTopKIndex, export_snapshot, load_snapshot
    config = config or AnnPerfConfig()
    dataset, model = _train_cell(config, n_negatives=config.n_negatives)
    users = _request_stream(dataset.num_users, config.request_users,
                            config.seed)
    all_users = np.arange(dataset.num_users, dtype=np.int64)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        export_snapshot(model, dataset, pathlib.Path(tmp) / "snapshot",
                        model_name=config.model,
                        extra={"loss": config.loss, "epochs": config.epochs})
        snapshot = load_snapshot(pathlib.Path(tmp) / "snapshot")
        exact = ExactTopKIndex(snapshot)
        exact_truth = exact.topk(all_users, k=config.k).items
        baseline = time_index_topk(exact, users, batch_size=config.batch_size,
                                   k=config.k, repeats=config.repeats)
        baseline.update({"kind": "ann_baseline", "index": "exact",
                         "table_bytes": int(exact.table_bytes)})
        results.append(baseline)
        for nlist in config.nlists:
            built = build_ann_index(
                snapshot, pathlib.Path(tmp) / f"ann-{nlist:03d}", nlist=nlist,
                default_nprobe=min(min(config.nprobes), nlist),
                seed=config.seed, train_iters=config.train_iters)
            for nprobe in config.nprobes:
                if nprobe > nlist:
                    continue
                index = IVFFlatIndex(snapshot, built.data, nprobe=nprobe)
                results.append(_ann_row(index, exact_truth, all_users, users,
                                        baseline, config,
                                        nlist=nlist, nprobe=nprobe))
        snapshot_version = snapshot.version
    return _payload(ANN_SCHEMA, config, results,
                    snapshot_version=snapshot_version)


def _ann_row(index, exact_truth: np.ndarray, all_users: np.ndarray,
             users: np.ndarray, baseline: dict, config: AnnPerfConfig,
             *, nlist: int, nprobe: int) -> dict:
    """Measure one ANN operating point: recall plus throughput."""
    from repro.serve.index import scoring_ready_users
    recall = overlap_at_k(exact_truth,
                          index.topk(all_users, k=config.k).items)
    # candidate sizes from the probe plan alone: the sizes of each
    # user's probed lists (the ``nlist`` padding has size 0)
    vectors = scoring_ready_users(
        np.asarray(index.snapshot.users), index.snapshot.scoring)
    seen_counts = np.diff(index.snapshot.seen_indptr)
    probes = index.data.plan(vectors, seen_counts, config.k, nprobe, True,
                             index.snapshot.scoring)
    candidates = np.append(index.data.sizes, 0)[probes].sum(axis=1)
    row = time_index_topk(index, users, batch_size=config.batch_size,
                          k=config.k, repeats=config.repeats)
    row.update({
        "kind": "ann",
        "index": index.kind,
        "nlist": int(nlist),
        "nprobe": int(nprobe),
        "recall": float(recall),
        "candidates_mean": float(candidates.mean()),
        "speedup_vs_exact": row["users_per_s"] / baseline["users_per_s"],
        "index_bytes": int(index.table_bytes),
    })
    return row


# ----------------------------------------------------------------------
# Latency-vs-offered-load frontier (BENCH_latency.json)
# ----------------------------------------------------------------------
@dataclass
class LatencyPerfConfig:
    """Knobs for one latency-frontier run.

    One (dataset, model, loss) cell is trained and exported; the load
    generator then drives a :class:`~repro.serve.runtime.ServingRuntime`
    with **paced open-loop arrivals** — requests submitted on a fixed
    schedule of ``offered_qps``, regardless of completions, which is
    what exposes queueing delay — while a **closed-loop sweep
    controller** raises the offered rate multiplicatively level by
    level and stops at saturation (achieved throughput falling behind
    the offered rate, or admission shedding).  Each level is one
    ``latency`` row: the p50/p99-vs-QPS frontier.
    """

    dataset: str = "yelp2018-small"
    model: str = "mf"
    loss: str = "bsl"
    epochs: int = 8
    dim: int = 64
    k: int = 10
    start_qps: float = _flag(200.0, "offered load of the first sweep level")
    qps_step: float = _flag(2.0, "multiplicative step between levels")
    max_levels: int = 8
    requests_per_level: int = 512
    saturation_ratio: float = _flag(
        0.9, "stop once achieved/offered drops below this (or any request "
             "is shed at admission)")
    # runtime knobs (see :class:`~repro.serve.runtime.RuntimeConfig`)
    slo_ms: float = _flag(50.0, "runtime p99 latency target")
    max_queue: int = _flag(256, "admission-queue bound (sheds past it)")
    initial_batch: int = 8
    max_batch: int = 256
    window: int = _flag(64, "completions between batch adaptations")
    cache_size: int = _flag(0, "result-cache entries (0 = cold path: every "
                               "unique request costs an index sweep)")
    seed: int = 0


def run_latency_level(service, users: np.ndarray, *, offered_qps: float,
                      k: int = 10, runtime_config=None,
                      timeout_s: float = 60.0) -> dict:
    """Drive one offered-load level through a fresh serving runtime.

    Submits ``len(users)`` requests at a fixed pace of ``offered_qps``
    (open loop: the schedule does not wait for completions — a backed-up
    runtime accumulates queueing delay exactly like a backed-up server),
    then drains and reports the level's ``latency`` row: achieved
    throughput, p50/p99 end-to-end latency, shed rate and the mean
    queue/service decomposition.
    """
    from repro.serve.runtime import (OverloadError, RuntimeConfig,
                                     ServingRuntime, latency_percentile)
    if offered_qps <= 0:
        raise ValueError(f"offered_qps must be positive, got {offered_qps}")
    runtime = ServingRuntime(service, runtime_config or RuntimeConfig())
    handles = []
    shed = 0
    with runtime:
        start = time.perf_counter()
        for i, user in enumerate(users.tolist()):
            # Paced arrivals: sleep until this request's scheduled slot.
            delay = start + i / offered_qps - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                handles.append(runtime.submit(int(user), k=k))
            except OverloadError:
                shed += 1
        for handle in handles:
            handle.result(timeout=timeout_s)
        elapsed = clamp_elapsed(time.perf_counter() - start)
    latencies = [h.latency_ms for h in handles]
    stats = runtime.stats
    completed = stats.completed
    return {
        "kind": "latency",
        "index": service.index.kind,
        "offered_qps": float(offered_qps),
        "achieved_qps": completed / elapsed,
        "requests": int(len(users)),
        "completed": int(completed),
        "shed": int(shed),
        "shed_rate": stats.shed_rate,
        "k": k,
        "p50_ms": latency_percentile(latencies, 50.0),
        "p99_ms": latency_percentile(latencies, 99.0),
        "mean_queue_ms": 1e3 * stats.queue_s / max(completed, 1),
        "mean_service_ms": 1e3 * stats.service_s / max(completed, 1),
        "sweep_ms": service.stats.sweep_ms_per_sweep,
        "mean_batch": stats.mean_batch,
        "final_batch_size": int(runtime.batch_size),
        "slo_ms": runtime.config.slo_ms,
    }


def run_latency_suite(config: LatencyPerfConfig | None = None) -> dict:
    """Train, export and sweep offered load to saturation; return payload.

    Each level runs through a **fresh** runtime (so the batch-size
    controller and latency window start identically) against a shared
    cold service.  The sweep stops early once a level saturates —
    achieved throughput below ``saturation_ratio`` of offered, or any
    admission shedding — and that level is marked ``saturated``.
    """
    from repro.serve import (RecommendationService, export_snapshot,
                             load_snapshot)
    from repro.serve.runtime import RuntimeConfig
    config = config or LatencyPerfConfig()
    dataset, model = _train_cell(config)
    users = _request_stream(dataset.num_users, config.requests_per_level,
                            config.seed)
    runtime_config = RuntimeConfig(
        slo_ms=config.slo_ms, max_queue=config.max_queue,
        initial_batch=config.initial_batch, max_batch=config.max_batch,
        window=config.window)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        export_snapshot(model, dataset, tmp, model_name=config.model,
                        extra={"loss": config.loss, "epochs": config.epochs})
        snapshot = load_snapshot(tmp)
        service = RecommendationService(snapshot,
                                        cache_size=config.cache_size)
        for level in range(config.max_levels):
            offered = config.start_qps * config.qps_step ** level
            row = run_latency_level(service, users, offered_qps=offered,
                                    k=config.k,
                                    runtime_config=runtime_config)
            row["level"] = level
            saturated = (row["shed"] > 0
                         or row["achieved_qps"]
                         < config.saturation_ratio * row["offered_qps"])
            row["saturated"] = bool(saturated)
            results.append(row)
            if saturated:
                break
        snapshot_version = snapshot.version
    return _payload(LATENCY_SCHEMA, config, results,
                    snapshot_version=snapshot_version)


def summarize_latency(payload: dict) -> str:
    """Human-readable latency frontier for one latency payload."""
    lines = [f"latency suite on {payload['dataset']} "
             f"(schema {payload['schema']}, "
             f"snapshot {payload['snapshot_version']})"]
    for row in payload["results"]:
        if row["kind"] != "latency":
            continue
        flag = "  << saturated" if row.get("saturated") else ""
        lines.append(
            f"  offered {row['offered_qps']:>9,.0f} qps: achieved "
            f"{row['achieved_qps']:>9,.0f}  p50={row['p50_ms']:.2f} ms  "
            f"p99={row['p99_ms']:.2f} ms  shed={100 * row['shed_rate']:.1f}%"
            f"  batch->{row['final_batch_size']}{flag}")
    return "\n".join(lines)


def summarize_ann(payload: dict) -> str:
    """Human-readable frontier table for one ANN payload."""
    lines = [f"ann suite on {payload['dataset']} "
             f"(schema {payload['schema']}, "
             f"snapshot {payload['snapshot_version']})"]
    baseline = next((r for r in payload["results"]
                     if r["kind"] == "ann_baseline"), None)
    if baseline:
        lines.append(f"  exact baseline: {baseline['users_per_s']:,.0f} "
                     f"users/s @ batch {baseline['batch_size']}")
    for row in payload["results"]:
        if row["kind"] == "ann":
            lines.append(
                f"  {row['index']:<5} nlist={row['nlist']:<3} "
                f"nprobe={row['nprobe']:<3} recall@{row['k']}="
                f"{row['recall']:.4f}  {row['users_per_s']:,.0f} users/s "
                f"({row['speedup_vs_exact']:.2f}x exact, "
                f"{row['candidates_mean']:.0f} cands/user)")
    return "\n".join(lines)
