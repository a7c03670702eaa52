"""Training and serving performance harnesses.

Times the hot loops of the reproduction and emits results in stable
JSON schemas so the perf trajectory of the codebase is tracked across
PRs:

* the **train suite** sweeps catalogue size × loss × grad mode and
  times the training step with dense ``Adam`` vs ``SparseAdam`` (both
  score only the sampled pairs), plus an
  end-to-end NDCG@20 quality comparison per grad mode →
  ``BENCH_train.json``;
* the **serve suite** trains one cell, exports a serving snapshot
  (:mod:`repro.serve`) and times batched top-K recommendation
  throughput — exact vs int8-quantized index, cold vs warm result
  cache, across request batch sizes — plus the quantized index's
  top-K overlap with the exact path, plus a **sharded section**
  sweeping shard counts × batch sizes through the scatter-gather
  router with merge-overhead and per-shard-memory columns →
  ``BENCH_serve.json``;
* the **ANN suite** trains a retrieval-oriented cell, builds IVF
  indexes (:mod:`repro.ann`) across ``nlist`` values and sweeps
  ``nprobe``, recording the recall/throughput frontier against the
  exact index — recall@k via :func:`repro.eval.metrics.overlap_at_k`,
  throughput as **index-level** ``topk`` users/s over the same request
  stream for both sides (no service cache in either lane) →
  ``BENCH_ann.json``;
* the **latency suite** trains one cell, exports it and drives the
  async :class:`~repro.serve.runtime.ServingRuntime` with a paced
  open-loop load generator, sweeping offered QPS multiplicatively
  until saturation (throughput collapse or admission shedding) →
  the p50/p99-vs-offered-load frontier of ``BENCH_latency.json``;
* the **refresh suite** trains one cell, exports it, then sweeps
  catalogue churn fractions: each level builds a delta
  (:mod:`repro.serve.delta`), times in-memory delta replay,
  incremental IVF maintenance vs a from-scratch rebuild, and the
  atomic snapshot swap under live runtime traffic →
  ``BENCH_refresh.json``.

Programmatic entry points:

* :func:`time_train_steps` — ms/step for one (model, loss) cell.
* :func:`run_train_suite` — the dense-vs-sparse training frontier.
* :func:`time_recommend` — users/s through a recommendation service.
* :func:`time_recommend_sharded` — same, through the sharded router,
  with scatter/score/merge decomposition.
* :func:`run_serve_suite` — the serving grid; returns the JSON payload.
* :func:`time_index_topk` — index-level users/s for any top-K index.
* :func:`run_ann_suite` — the ANN frontier; returns the JSON payload.
* :func:`run_latency_level` — one offered-QPS level through a runtime.
* :func:`run_latency_suite` — the latency frontier; returns the payload.
* :func:`run_refresh_suite` — the live-refresh churn sweep; returns the
  payload.

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
from repro.eval.evaluator import Evaluator
from repro.eval.metrics import overlap_at_k
from repro.losses.registry import get_loss
from repro.models.registry import get_model
from repro.tensor.sparse import RowSparseGrad
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer

__all__ = ["SERVE_SCHEMA", "ANN_SCHEMA", "TRAIN_SCHEMA",
           "LATENCY_SCHEMA", "REFRESH_SCHEMA", "OBS_SCHEMA",
           "CLOCK_RESOLUTION_S", "clamp_elapsed",
           "ServePerfConfig", "AnnPerfConfig", "TrainPerfConfig",
           "LatencyPerfConfig", "RefreshPerfConfig", "ObsPerfConfig",
           "inflate_catalogue", "time_train_steps", "run_train_suite",
           "time_recommend", "time_recommend_sharded",
           "topk_overlap", "run_serve_suite", "time_index_topk",
           "run_latency_level", "run_latency_suite", "run_refresh_suite",
           "run_ann_suite", "run_obs_suite", "write_report",
           "summarize_serve", "summarize_ann", "summarize_train",
           "summarize_latency", "summarize_refresh", "summarize_obs"]

#: Schema of the serving-throughput payload (``BENCH_serve.json``).
#: v2 added the sharded scatter-gather section (``serve_sharded`` rows).
SERVE_SCHEMA = "bsl-serve-bench/v2"

#: Schema of the ANN recall/throughput frontier (``BENCH_ann.json``).
ANN_SCHEMA = "bsl-ann-bench/v1"

#: Schema of the latency-vs-offered-load frontier (``BENCH_latency.json``).
LATENCY_SCHEMA = "bsl-latency-bench/v1"

#: Schema of the live-refresh churn sweep (``BENCH_refresh.json``).
REFRESH_SCHEMA = "bsl-refresh-bench/v1"

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
    """A config field whose ``repro bench <suite>`` flag shows ``help``.

    A ``True`` field's flag is its ``--no-...`` switch, so its help says
    what switching it off does.
    """
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


def _warmed_up(call, users: np.ndarray, *, batch_size: int, k: int,
               repeats: int):
    """Run one untimed pass of ``call`` over ``users``; return the pass.

    ``call`` is ``service.recommend`` or ``index.topk``, fed
    ``batch_size`` slices.  The warm-up builds lazy structures and fills
    a cache-enabled service's cache; callers time the returned
    ``one_pass`` ``repeats`` times.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")

    def one_pass() -> None:
        for lo in range(0, len(users), batch_size):
            call(users[lo:lo + batch_size], k=k)

    one_pass()
    return one_pass


def time_train_steps(model_name: str, loss_name: str, dataset,
                     *, steps: int = 15, warmup: int = 3, dim: int = 64,
                     batch_size: int = 1024, n_negatives: int = 128,
                     grad_mode: str = "dense", sparse_mode: str = "lazy",
                     seed: int = 0) -> dict:
    """Wall-clock one (model, loss) training cell for ``steps`` steps.

    Returns one ``train_step`` result row.  ``grad_mode="sparse"`` times
    ``SparseAdam`` instead of dense ``Adam`` (scoring is shared); its row
    adds ``touched_rows`` (median rows updated per step over all tables)
    and ``touched_frac``.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    model = get_model(model_name, dataset, dim=dim, rng=seed)
    config = TrainConfig(epochs=1, batch_size=batch_size,
                         n_negatives=n_negatives, eval_every=0, patience=0,
                         grad_mode=grad_mode, sparse_mode=sparse_mode,
                         seed=seed)
    trainer = Trainer(model, get_loss(loss_name), dataset, config,
                      evaluator=None)
    touched: list[int] = []  # per step: rows with a row-sparse gradient

    def run_steps(n: int) -> None:
        done = 0
        while done < n:
            model.on_epoch_start(trainer.epoch_rng)
            for batch in trainer.sampler.epoch():
                trainer.train_step(batch)
                touched.append(sum(p.grad.nnz for p in trainer.optimizer.params
                                   if isinstance(p.grad, RowSparseGrad)))
                done += 1
                if done >= n:
                    return

    run_steps(warmup)
    start = time.perf_counter()
    run_steps(steps)
    elapsed = clamp_elapsed(time.perf_counter() - start)
    row = {
        "kind": "train_step",
        "model": model_name,
        "loss": loss_name,
        "grad_mode": grad_mode,
        "steps": steps,
        "batch_size": batch_size,
        "n_negatives": n_negatives,
        "total_s": elapsed,
        "ms_per_step": 1e3 * elapsed / steps,
        "steps_per_s": steps / elapsed,
    }
    tables = [p for p in trainer.optimizer.params  # grads outlive the step
              if isinstance(p.grad, RowSparseGrad)]
    if grad_mode == "sparse" and tables:  # dense Adam updates every row
        row["touched_rows"] = float(np.median(touched[warmup:]))
        row["touched_frac"] = row["touched_rows"] / sum(map(len, tables))
    return row


def write_report(payload: dict, path) -> None:
    """Persist a payload produced by either ``run_*_suite`` function."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


# ----------------------------------------------------------------------
# Training throughput frontier (BENCH_train.json)
# ----------------------------------------------------------------------
@dataclass
class TrainPerfConfig:
    """Knobs for one training-throughput frontier run.

    For every catalogue scale the base dataset's item axis is inflated
    (:func:`inflate_catalogue`) and each (loss, grad_mode) cell is
    timed, so the payload shows how dense step time grows with the
    catalogue while the row-sparse path stays flat.  A quality section
    trains the base dataset end to end per grad mode and records final
    NDCG@20, pinning that the lazy fast path does not trade accuracy.
    """

    dataset: str = "yelp2018-small"
    model: str = "mf"
    losses: tuple = _flag(("bpr", "bsl"),
                          "comma-separated loss registry names")
    catalogue_scales: tuple = _flag(
        (1, 8, 64), "comma-separated catalogue inflation factors "
                    "(1 = the base preset)")
    dim: int = 64
    steps: int = _flag(15, "timed optimizer steps per cell")
    warmup: int = 3
    batch_size: int = 1024
    n_negatives: int = 128
    sparse_mode: str = _flag("lazy",
                             "sparse-optimizer mode for the sparse rows")
    # Long enough to converge: converged dense and lazy runs agree on
    # NDCG@20 to well under 1%, mid-training snapshots differ more.
    quality_epochs: int = _flag(
        16, "epochs of the end-to-end NDCG comparison (0 skips it)")
    quality_loss: str = "bsl"
    seed: int = 0


#: Schema of the training-throughput payload (``BENCH_train.json``).
TRAIN_SCHEMA = "bsl-train-bench/v1"


def inflate_catalogue(dataset, scale: int):
    """Return a copy of ``dataset`` with ``scale``× the item axis.

    The added items are cold (no interactions) — interaction structure,
    users and test split are untouched — so sweeping ``scale`` isolates
    exactly the catalogue-size term of the per-step training cost: the
    dense optimizer update (and a graph backbone's propagation) grows
    with ``num_items`` while the batch stays fixed.  Negatives are drawn
    from the inflated id range, as they would be on a genuinely larger
    catalogue.
    """
    from repro.data.dataset import InteractionDataset
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if scale == 1:
        return dataset
    return InteractionDataset(
        dataset.num_users, dataset.num_items * scale,
        dataset.train_pairs, dataset.test_pairs,
        name=f"{dataset.name}-x{scale}", item_clusters=None)


def run_train_suite(config: TrainPerfConfig | None = None) -> dict:
    """Sweep catalogue size × loss × grad mode; return the payload.

    Emits one ``train_throughput`` row per (catalogue scale, loss,
    grad_mode) cell plus — unless ``quality_epochs == 0`` — one
    ``train_quality`` row per grad mode with the final NDCG@20 of an
    end-to-end run on the base dataset.
    """
    config = config or TrainPerfConfig()
    base = load_dataset(config.dataset)
    results = []
    for scale in config.catalogue_scales:
        dataset = inflate_catalogue(base, scale)
        for loss_name in config.losses:
            # Sparse is timed first: the dense cell churns catalogue-sized
            # optimizer temporaries, and following it in the same process
            # measurably taxes the next cell's allocator.
            for grad_mode in ("sparse", "dense"):
                row = time_train_steps(
                    config.model, loss_name, dataset, grad_mode=grad_mode,
                    sparse_mode=config.sparse_mode, steps=config.steps,
                    warmup=config.warmup, dim=config.dim,
                    batch_size=config.batch_size,
                    n_negatives=config.n_negatives, seed=config.seed)
                row.update({
                    "kind": "train_throughput",
                    "catalogue_scale": int(scale),
                    "num_items": int(dataset.num_items),
                    "num_users": int(dataset.num_users),
                })
                results.append(row)
    if config.quality_epochs:
        results.extend(_train_quality_rows(config, base))
    return _payload(TRAIN_SCHEMA, config, results)


def _train_quality_rows(config: TrainPerfConfig, dataset) -> list[dict]:
    """End-to-end NDCG@20 per grad mode on the base dataset."""
    rows = []
    for grad_mode in ("dense", "sparse"):
        model = get_model(config.model, dataset, dim=config.dim,
                          rng=config.seed)
        loss = get_loss(config.quality_loss)
        train_config = TrainConfig(
            epochs=config.quality_epochs, batch_size=config.batch_size,
            n_negatives=config.n_negatives, eval_every=0, patience=0,
            grad_mode=grad_mode, sparse_mode=config.sparse_mode,
            seed=config.seed)
        trainer = Trainer(model, loss, dataset, train_config,
                          evaluator=Evaluator(dataset, ks=(20,)))
        result = trainer.fit()
        rows.append({
            "kind": "train_quality",
            "model": config.model,
            "loss": config.quality_loss,
            "grad_mode": grad_mode,
            "sparse_mode": config.sparse_mode,
            "epochs": config.quality_epochs,
            "final_loss": float(result.final_loss),
            "ndcg_at_20": float(result.final_metrics.get("ndcg@20",
                                                         float("nan"))),
            "recall_at_20": float(result.final_metrics.get("recall@20",
                                                           float("nan"))),
        })
    return rows


def summarize_train(payload: dict) -> str:
    """Human-readable dense-vs-sparse frontier for one train payload."""
    lines = [f"train suite on {payload['dataset']} "
             f"(schema {payload['schema']})"]
    rows = [r for r in payload["results"] if r["kind"] == "train_throughput"]
    for sparse in [r for r in rows if r["grad_mode"] == "sparse"]:
        dense = next((r for r in rows
                      if r["grad_mode"] == "dense"
                      and r["loss"] == sparse["loss"]
                      and r["num_items"] == sparse["num_items"]), None)
        gain = (f"  ({dense['ms_per_step'] / sparse['ms_per_step']:.2f}x "
                f"vs dense)") if dense else ""
        lines.append(f"  train {sparse['model']}+{sparse['loss']} "
                     f"items={sparse['num_items']:<6}: "
                     f"{sparse['ms_per_step']:.2f} ms/step{gain}")
    for row in payload["results"]:
        if row["kind"] == "train_quality":
            lines.append(f"  quality {row['model']}+{row['loss']} "
                         f"{row['grad_mode']:<6}: "
                         f"ndcg@20={row['ndcg_at_20']:.4f} "
                         f"({row['epochs']} epochs)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Serving throughput (BENCH_serve.json)
# ----------------------------------------------------------------------
@dataclass
class ServePerfConfig:
    """Knobs for one serving-throughput run.

    One (dataset, model, loss) cell is trained for ``epochs``, exported
    to a temporary snapshot, then swept: for each index kind and each
    request batch size, recommendation throughput is timed cold
    (cache disabled) and once warm (every request a cache hit).
    """

    dataset: str = "yelp2018-small"
    model: str = "mf"
    loss: str = "bsl"
    epochs: int = 8
    dim: int = 64
    k: int = 10
    batch_sizes: tuple = _flag((1, 16, 256),
                               "comma-separated request batch sizes")
    repeats: int = 3
    request_users: int = _flag(
        1024, "request stream length per timing pass (cycled over the "
              "user set)")
    max_batch: int = 256
    shards: tuple = _flag((2, 4), "comma-separated shard counts for the "
                                  "sharded sweep ('' to skip)")
    partition_by: str = _flag("both", "sharded-sweep partition axes")
    strategy: str = "contiguous"
    include_quantized: bool = _flag(True, "skip the int8 index rows")
    seed: int = 0


def time_recommend(service, users: np.ndarray, *, batch_size: int,
                   k: int = 10, repeats: int = 3,
                   label: str = "cold") -> dict:
    """Time ``service.recommend`` over ``users`` in ``batch_size`` slices.

    Runs one untimed warmup pass (which also populates the service's
    cache, so with a cache-enabled service the timed passes measure the
    warm path) and then ``repeats`` timed passes.  Returns a result row
    of the ``serve`` kind.
    """
    one_pass = _warmed_up(service.recommend, users, batch_size=batch_size,
                          k=k, repeats=repeats)
    # The row describes the timed window: every user's first request in
    # the warm-up is a miss, and counting those would understate the
    # warm lane's hit rate.
    stats = service.stats
    hits, misses = stats.cache_hits, stats.cache_misses
    elapsed = sum(_timed(one_pass) for _ in range(repeats))
    hits, misses = stats.cache_hits - hits, stats.cache_misses - misses
    return {
        "kind": "serve",
        "index": service.index.kind,
        "cache": label,
        "batch_size": batch_size,
        "k": k,
        "users": int(len(users)),
        "repeats": repeats,
        "total_s": elapsed,
        "users_per_s": len(users) * repeats / elapsed,
        "ms_per_batch": (1e3 * elapsed
                         / (repeats * -(-len(users) // batch_size))),
        "cache_hit_rate": hits / max(hits + misses, 1),
    }


def time_recommend_sharded(service, users: np.ndarray, *, batch_size: int,
                           k: int = 10, repeats: int = 3,
                           shards: int = 1,
                           partition_by: str = "both",
                           strategy: str = "contiguous") -> dict:
    """Time a :class:`~repro.serve.service.RecommendationService` whose
    index is the scatter-gather router.

    Same protocol as :func:`time_recommend` (one untimed warmup pass,
    then ``repeats`` timed passes) but the router's scatter/score/merge
    counters are reset after the warmup, so the returned
    ``merge_overhead_ms`` / ``merge_fraction`` columns describe exactly
    the timed window.  Returns a result row of the ``serve_sharded``
    kind, including the largest item shard's scoring-table bytes
    (``per_shard_bytes``).
    """
    one_pass = _warmed_up(service.recommend, users, batch_size=batch_size,
                          k=k, repeats=repeats)
    stats = service.router_stats
    stats.reset()
    elapsed = sum(_timed(one_pass) for _ in range(repeats))
    n_batches = repeats * -(-len(users) // batch_size)
    return {
        "kind": "serve_sharded",
        "index": service.index.kind,
        "shards": int(shards),
        "partition_by": partition_by,
        "strategy": strategy,
        "cache": "cold",
        "batch_size": batch_size,
        "k": k,
        "users": int(len(users)),
        "repeats": repeats,
        "total_s": elapsed,
        "users_per_s": len(users) * repeats / elapsed,
        "ms_per_batch": 1e3 * elapsed / n_batches,
        "merge_overhead_ms": 1e3 * stats.merge_s / max(stats.sweeps, 1),
        "merge_fraction": stats.merge_fraction,
        "per_shard_bytes": int(max(service.index.per_shard_table_bytes)),
    }


def topk_overlap(exact_index, other_index, users: np.ndarray,
                 k: int = 10) -> float:
    """Mean fraction of the exact top-``k`` recovered by another index.

    This is the serving analogue of recall@k with the exact index as
    ground truth — the acceptance metric for the quantized and ANN
    paths.  Thin wrapper over the shared
    :func:`repro.eval.metrics.overlap_at_k`.
    """
    return overlap_at_k(exact_index.topk(users, k=k).items,
                        other_index.topk(users, k=k).items)


def run_serve_suite(config: ServePerfConfig | None = None) -> dict:
    """Train, export and sweep the serving stack; return the payload.

    Covers the unsharded grid (index kind × batch size × cache state,
    plus quantized-vs-exact overlap) and, for every shard count in
    ``config.shards``, a scatter-gather sweep over the same batch sizes
    with merge-overhead and per-shard-memory columns.
    """
    from repro.serve import (ExactTopKIndex, QuantizedTopKIndex,
                             RecommendationService, ShardedTopKIndex,
                             export_sharded_snapshot, export_snapshot,
                             load_snapshot)
    config = config or ServePerfConfig()
    dataset, model = _train_cell(config)
    users = _request_stream(dataset.num_users, config.request_users,
                            config.seed)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        export_snapshot(model, dataset, tmp, model_name=config.model,
                        extra={"loss": config.loss, "epochs": config.epochs})
        snapshot = load_snapshot(tmp)
        indexes = [ExactTopKIndex(snapshot)]
        if config.include_quantized:
            quantized = QuantizedTopKIndex(snapshot)
            indexes.append(quantized)
            results.append({
                "kind": "overlap",
                "index": "quantized",
                "k": config.k,
                "users": int(dataset.num_users),
                "overlap_at_k": topk_overlap(
                    indexes[0], quantized,
                    np.arange(dataset.num_users, dtype=np.int64),
                    k=config.k),
                "table_bytes": int(quantized.table_bytes),
                "exact_table_bytes": int(
                    np.asarray(snapshot.items).nbytes),
            })
        for index in indexes:
            for batch_size in config.batch_sizes:
                # max_batch must not cap the swept batch size, or rows
                # for different large batch sizes would all silently
                # measure max_batch-sized index sweeps.
                cold = RecommendationService(
                    snapshot, index=index, cache_size=0,
                    max_batch=max(config.max_batch, batch_size))
                results.append(time_recommend(
                    cold, users, batch_size=batch_size, k=config.k,
                    repeats=config.repeats, label="cold"))
            warm = RecommendationService(
                snapshot, index=index,
                max_batch=max(config.max_batch, *config.batch_sizes),
                cache_size=2 * config.request_users)
            results.append(time_recommend(
                warm, users, batch_size=max(config.batch_sizes), k=config.k,
                repeats=config.repeats, label="warm"))
        kinds = ["exact"] + (["quantized"] if config.include_quantized
                             else [])
        for n_shards in config.shards:
            sharded = export_sharded_snapshot(
                model, dataset, pathlib.Path(tmp) / f"shards-{n_shards}",
                shards=n_shards, partition_by=config.partition_by,
                strategy=config.strategy, model_name=config.model)
            for kind in kinds:
                # One router per (shards, kind): the shard tables are
                # panelized/quantized once, and its default chunk_users
                # matches the unsharded indexes so the sharded rows are
                # apples-to-apples with the `serve` rows above.
                router = ShardedTopKIndex(sharded, kind=kind)
                for batch_size in config.batch_sizes:
                    service = RecommendationService(
                        sharded, index=router, cache_size=0,
                        max_batch=max(config.max_batch, batch_size))
                    results.append(time_recommend_sharded(
                        service, users, batch_size=batch_size, k=config.k,
                        repeats=config.repeats, shards=n_shards,
                        partition_by=config.partition_by,
                        strategy=config.strategy))
        snapshot_version = snapshot.version
    return _payload(SERVE_SCHEMA, config, results,
                    snapshot_version=snapshot_version)


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
    spill: int = 1
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
    measure scheduler noise, not the index).  Unlike
    :func:`time_recommend` this bypasses the service layer, so two
    index kinds can be compared without the shared per-user python
    overhead of result assembly and caching.
    """
    one_pass = _warmed_up(index.topk, users, batch_size=batch_size, k=k,
                          repeats=repeats)
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
                snapshot, pathlib.Path(tmp) / f"ann-{nlist:03d}",
                nlist=nlist, spill=config.spill,
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
    # candidate sizes from the probe plan alone: the postings of each
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
        "spill": int(config.spill),
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


@dataclass
class RefreshPerfConfig:
    """Knobs for one live-refresh churn sweep.

    One (dataset, model, loss) cell is trained and exported, an IVF
    index is built over it, and each ``churn_fractions`` level then
    mutates that fraction of the catalogue through the delta layer and
    measures the three live-index costs: in-memory delta replay,
    incremental IVF maintenance (vs a from-scratch re-cluster of the
    same catalogue), and the atomic snapshot swap applied between
    micro-batches while a paced request stream is in flight.
    """

    dataset: str = "yelp2018-small"
    model: str = "mf"
    loss: str = "bsl"
    epochs: int = 8
    dim: int = 64
    k: int = 10
    nlist: int = _flag(16, "inverted lists of the maintained index")
    nprobe: int = 2
    train_iters: int = 25
    churn_fractions: tuple = _flag(
        (0.01, 0.05, 0.2), "comma-separated fractions of the catalogue "
                           "upserted per level (an eighth of that count is "
                           "also deleted and re-added as new ids)")
    repeats: int = _flag(3, "best-of timing repeats per clock")
    requests: int = _flag(256, "paced lookups around each swap")
    qps: float = 2000.0
    seed: int = 0


def _churned_state(base_state, churn_fraction: float, dim: int, rng):
    """One churn level's worth of edits applied to a copy of ``base``.

    Upserts ``churn_fraction`` of the item catalogue in place and, at an
    eighth of that rate, deletes existing ids and inserts fresh ones —
    so every delta kind (row change, delete, insert) appears in every
    measured level.  Returns ``(state, rows_changed)``.
    """
    state = base_state.copy()
    item_ids = np.asarray(sorted(state.items))
    n_upserts = max(1, int(round(churn_fraction * len(item_ids))))
    n_swaps = max(1, n_upserts // 8)
    touched = rng.choice(item_ids, size=min(n_upserts + n_swaps,
                                            len(item_ids)), replace=False)
    for item in touched[:n_upserts].tolist():
        state.upsert_item(item, rng.normal(size=dim))
    next_id = int(item_ids[-1]) + 1
    for item in touched[n_upserts:].tolist():
        state.delete_item(item)
        state.upsert_item(next_id, rng.normal(size=dim))
        next_id += 1
    rows_changed = n_upserts + 2 * len(touched[n_upserts:])
    return state, rows_changed


def _swap_under_traffic(snapshot, index, new_snapshot, new_index, *,
                        requests: int, qps: float, k: int, seed: int) -> dict:
    """Pace a request stream through a runtime and refresh mid-stream.

    Returns the swap columns: worker-side pause, requests in flight at
    the moment the swap was requested, completions and errors across
    the whole stream.  Every response must carry exactly one snapshot
    version — a torn read here is a bug, not a data point.
    """
    from repro.serve import RecommendationService, ServingRuntime

    service = RecommendationService(snapshot, index=index, cache_size=0)
    rng = np.random.default_rng(seed)
    users = rng.integers(0, snapshot.manifest.num_users, size=requests)
    errors = 0
    handles = []
    in_flight = 0
    with ServingRuntime(service) as runtime:
        start = time.perf_counter()
        for i, user in enumerate(users.tolist()):
            delay = start + i / qps - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if i == requests // 2:
                in_flight = runtime.pending
                runtime.refresh(new_snapshot, index=new_index)
            handles.append(runtime.submit(int(user), k=k))
        results = []
        for handle in handles:
            try:
                results.append(handle.result(timeout=30.0))
            except Exception:
                errors += 1
        stats = runtime.stats
    versions = {r.snapshot_version for r in results}
    if not versions <= {snapshot.version, new_snapshot.version}:
        raise AssertionError(f"torn read: unknown versions {versions}")
    return {
        "swap_pause_ms": 1e3 * stats.refresh_s,
        "requests_during_swap": int(in_flight),
        "completed": int(stats.completed),
        "errors": int(errors),
    }


def run_refresh_suite(config: RefreshPerfConfig | None = None) -> dict:
    """Train, export, churn and measure the live-refresh costs.

    Per churn level the row records, best of ``repeats`` where a clock
    is involved:

    * ``delta_apply_ms`` — in-memory replay of the level's delta chain
      onto the base snapshot (:func:`repro.serve.delta.apply_deltas`);
    * ``ivf_update_ms`` — incremental posting-list maintenance
      (:meth:`repro.ann.ivf.IVFFlatIndex.refreshed`);
    * ``ivf_rebuild_ms`` — from-scratch coarse-quantizer training +
      assignment over the churned catalogue (what the update replaces);
    * ``swap_pause_ms`` / ``requests_during_swap`` / ``errors`` — the
      atomic swap applied between micro-batches under a paced request
      stream.
    """
    from repro.ann import build_ann_index
    from repro.ann.ivf import (IVFFlatIndex, IVFIndexData, assign_lists,
                               train_coarse_quantizer)
    from repro.serve import export_snapshot, load_snapshot
    from repro.serve.delta import LiveState, apply_deltas, export_delta
    from repro.serve.index import scoring_ready_items

    config = config or RefreshPerfConfig()
    dataset, model = _train_cell(config)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        export_snapshot(model, dataset, tmp / "base",
                        model_name=config.model,
                        extra={"loss": config.loss, "epochs": config.epochs})
        snapshot = load_snapshot(tmp / "base")
        base_index = build_ann_index(
            snapshot, tmp / "ann", nlist=config.nlist,
            default_nprobe=config.nprobe, seed=config.seed,
            train_iters=config.train_iters)
        base_state = LiveState.from_snapshot(snapshot)
        rng = np.random.default_rng(config.seed)
        for level, fraction in enumerate(config.churn_fractions):
            state, rows_changed = _churned_state(base_state, fraction,
                                                 config.dim, rng)
            delta = export_delta(base_state, state,
                                 tmp / f"delta-{level}")

            apply_s = min(
                _timed(lambda: apply_deltas(snapshot, [delta]))
                for _ in range(config.repeats))
            new_snapshot = apply_deltas(snapshot, [delta])

            update_s = min(
                _timed(lambda: base_index.refreshed(new_snapshot))
                for _ in range(config.repeats))
            new_index = base_index.refreshed(new_snapshot)

            items_ready = scoring_ready_items(
                np.asarray(new_snapshot.items), new_snapshot.scoring)

            def rebuild():
                centroids, _ = train_coarse_quantizer(
                    items_ready, config.nlist, seed=config.seed,
                    n_iter=config.train_iters)
                lists = assign_lists(items_ready, centroids)
                indptr = np.concatenate(
                    [np.zeros(1, dtype=np.int64),
                     np.cumsum([len(l) for l in lists])])
                return IVFIndexData(centroids, indptr,
                                    np.concatenate(lists),
                                    new_snapshot.manifest.num_items,
                                    config.nprobe)
            rebuild_s = min(_timed(rebuild) for _ in range(config.repeats))

            swap = _swap_under_traffic(
                snapshot, IVFFlatIndex(snapshot, base_index.data,
                                       nprobe=config.nprobe),
                new_snapshot, new_index,
                requests=config.requests, qps=config.qps, k=config.k,
                seed=config.seed + level)
            results.append({
                "kind": "refresh",
                "level": level,
                "churn_fraction": float(fraction),
                "rows_changed": int(rows_changed),
                "delta_apply_ms": 1e3 * apply_s,
                "ivf_update_ms": 1e3 * update_s,
                "ivf_rebuild_ms": 1e3 * rebuild_s,
                "update_speedup": rebuild_s / max(update_s,
                                                  CLOCK_RESOLUTION_S),
                "staleness": float(
                    new_index.data.staleness(items_ready)),
                "postings": int(len(new_index.data.list_items)),
                **swap,
            })
        snapshot_version = snapshot.version
    return _payload(REFRESH_SCHEMA, config, results,
                    snapshot_version=snapshot_version)


def summarize_refresh(payload: dict) -> str:
    """Human-readable churn table for one refresh payload."""
    lines = [f"refresh suite on {payload['dataset']} "
             f"(schema {payload['schema']}, "
             f"snapshot {payload['snapshot_version']})"]
    for row in payload["results"]:
        if row["kind"] != "refresh":
            continue
        lines.append(
            f"  churn {100 * row['churn_fraction']:>5.1f}% "
            f"({row['rows_changed']:>5} rows): "
            f"delta {row['delta_apply_ms']:.2f} ms  "
            f"ivf update {row['ivf_update_ms']:.2f} ms "
            f"vs rebuild {row['ivf_rebuild_ms']:.2f} ms "
            f"({row['update_speedup']:.1f}x)  "
            f"swap pause {row['swap_pause_ms']:.2f} ms  "
            f"in-flight {row['requests_during_swap']}  "
            f"errors {row['errors']}")
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


def summarize_serve(payload: dict) -> str:
    """Human-readable throughput/overlap table for one serve payload."""
    lines = [f"serve suite on {payload['dataset']} "
             f"(schema {payload['schema']}, "
             f"snapshot {payload['snapshot_version']})"]
    for row in payload["results"]:
        if row["kind"] == "overlap":
            ratio = row["exact_table_bytes"] / row["table_bytes"]
            lines.append(f"  overlap@{row['k']} quantized-vs-exact: "
                         f"{row['overlap_at_k']:.4f}  "
                         f"(catalogue {ratio:.1f}x smaller)")
        elif row["kind"] == "serve":
            lines.append(f"  serve {row['index']:<9} batch={row['batch_size']:<4}"
                         f" cache={row['cache']:<4}: "
                         f"{row['users_per_s']:,.0f} users/s")
        elif row["kind"] == "serve_sharded":
            lines.append(
                f"  shard {row['index']:<17} shards={row['shards']} "
                f"batch={row['batch_size']:<4}: "
                f"{row['users_per_s']:,.0f} users/s  "
                f"(merge {100 * row['merge_fraction']:.1f}%, "
                f"{row['per_shard_bytes'] / 1024:.0f} KiB/shard)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Telemetry overhead frontier (BENCH_obs.json)
# ----------------------------------------------------------------------
@dataclass
class ObsPerfConfig:
    """Knobs for one telemetry-overhead run.

    One (dataset, model, loss) cell is trained and exported; the same
    request stream is then served three times per cache state — with
    telemetry fully off (null registry, tracing forced off), with the
    metrics registry enabled, and with metrics **and** span tracing
    enabled — and each lane's throughput is compared against the off
    baseline.  The metrics-on overhead is the number the repo pins
    (``tests/test_obs_perf.py``: ≤ 5% on the cold lane).
    """

    dataset: str = "yelp2018-small"
    model: str = "mf"
    loss: str = "bsl"
    epochs: int = 8
    dim: int = 64
    k: int = 10
    batch_size: int = 256
    # Best pass, so scheduler noise inflates neither the baseline nor
    # the instrumented lanes.
    repeats: int = _flag(5, "timed passes per lane (best pass kept)")
    request_users: int = 1024
    max_batch: int = 256
    seed: int = 0


#: Telemetry-off / metrics-on / metrics+tracing serving lanes, one row
#: per (cache state, mode), with overhead relative to the off lane.
OBS_SCHEMA = "bsl-obs-bench/v1"

#: Sweep order per cache state; ``off`` must come first (it is the
#: baseline the other lanes' ``overhead_pct`` is computed against).
OBS_MODES = ("off", "metrics", "trace")


def run_obs_suite(config: ObsPerfConfig | None = None) -> dict:
    """Measure serving throughput under the three telemetry modes.

    Every lane serves the identical request stream against a service
    constructed *inside* its telemetry mode (so stats views bind their
    instruments to that lane's registry).  Off-lane telemetry is the
    real disabled path — the null registry's shared no-op instruments
    and a forced-off tracer — not an unpatched build, so the measured
    overhead is exactly what a deployment toggles.
    """
    from repro.obs.metrics import (MetricsRegistry, NULL_REGISTRY,
                                   use_registry)
    from repro.obs.trace import tracing
    from repro.serve import (RecommendationService, export_snapshot,
                             load_snapshot)
    config = config or ObsPerfConfig()
    dataset, model = _train_cell(config)
    users = _request_stream(dataset.num_users, config.request_users,
                            config.seed)
    max_batch = max(config.max_batch, config.batch_size)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        export_snapshot(model, dataset, tmp, model_name=config.model,
                        extra={"loss": config.loss, "epochs": config.epochs})
        snapshot = load_snapshot(tmp)
        for cache_label, cache_size in (("cold", 0),
                                        ("warm", 2 * config.request_users)):
            baseline = None
            for mode in OBS_MODES:
                registry = (NULL_REGISTRY if mode == "off"
                            else MetricsRegistry())
                with use_registry(registry), \
                        tracing(enabled=(mode == "trace")):
                    service = RecommendationService(
                        snapshot, cache_size=cache_size, max_batch=max_batch)
                    one_pass = _warmed_up(
                        service.recommend, users,
                        batch_size=config.batch_size, k=config.k,
                        repeats=config.repeats)
                    elapsed = min(_timed(one_pass)
                                  for _ in range(config.repeats))
                if mode == "off":
                    baseline = elapsed
                results.append({
                    "kind": "obs",
                    "mode": mode,
                    "cache": cache_label,
                    "batch_size": config.batch_size,
                    "k": config.k,
                    "users": int(len(users)),
                    "repeats": config.repeats,
                    "total_s": elapsed,
                    "users_per_s": len(users) / elapsed,
                    "ms_per_batch": (1e3 * elapsed
                                     / -(-len(users) // config.batch_size)),
                    "overhead_pct": 100.0 * (elapsed / baseline - 1.0),
                })
        snapshot_version = snapshot.version
    return _payload(OBS_SCHEMA, config, results,
                    snapshot_version=snapshot_version)


def summarize_obs(payload: dict) -> str:
    """Human-readable overhead table for one obs payload."""
    lines = [f"obs suite on {payload['dataset']} "
             f"(schema {payload['schema']}, "
             f"snapshot {payload['snapshot_version']})"]
    for row in payload["results"]:
        if row["kind"] != "obs":
            continue
        lines.append(
            f"  {row['cache']:<4} {row['mode']:<7}: "
            f"{row['users_per_s']:>9,.0f} users/s  "
            f"{row['ms_per_batch']:.3f} ms/batch  "
            f"overhead {row['overhead_pct']:+.2f}%")
    return "\n".join(lines)
