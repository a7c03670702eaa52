"""Command-line interface: ``python -m repro.cli``.

Subcommands:

* ``train`` — train one (dataset, model, loss) cell and print metrics.
  Scale presets (``scale-1m`` etc.) train **out-of-core**: interaction
  shards stream through the sparse-grad path into mmap-backed tables.
* ``datasets`` — list the built-in synthetic presets with statistics,
  plus the out-of-core scale presets (never materialized densely).
* ``sweep-tau`` — quick SL temperature sweep on one dataset.
* ``bench`` — run one registered benchmark suite
  (:mod:`repro.experiments.bench`; ``repro bench --help`` lists them),
  each writing its ``BENCH_<suite>.json`` file, with one flag per field
  of the suite's config dataclass.
* ``export`` — train (or load a checkpoint) and freeze the model into a
  serving snapshot directory (:mod:`repro.serve`), unsharded unless
  ``--shards N`` partitions it.  Scale presets
  export straight from the mmap'd tables and interaction shards — no
  dense intermediates.
* ``build-ann`` — train an approximate-retrieval IVF index
  (:mod:`repro.ann`) from an exported snapshot into an index
  directory with a content-hashed manifest.
* ``recommend`` — answer top-K requests from an exported snapshot of
  any shard count through the scatter-gather router; on the unsharded
  1×1 set ``--ann DIR`` serves through an IVF candidate index built
  by ``build-ann``.
* ``refresh`` — demo the live swap: serve a paced request stream from
  a base snapshot and atomically refresh to a re-exported snapshot
  directory mid-stream, either of any shard count (loaded verified; a
  damaged one is quarantined and rejected while the base keeps
  serving), printing the swap pause and version accounting.
* ``metrics`` — export the process metrics registry
  (:mod:`repro.obs`) as Prometheus text or JSON; ``--demo`` drives a
  tiny train + serve workload first so every family has samples.
  ``recommend --trace`` prints the request's span tree.
"""

from __future__ import annotations

import argparse

from repro.data import (SCALE_PRESETS, dataset_names, load_dataset,
                        scale_preset_names)
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.bench import (add_bench_subparsers, get_suite,
                                     suite_names)
from repro.experiments.report import print_series, print_table
from repro.losses import loss_names
from repro.models import model_names

#: Default request-side knobs shared by ``recommend`` and the docs.
DEFAULT_TOP_K = 10


def _cmd_datasets(_args) -> int:
    """List every built-in synthetic preset with its Table-I statistics."""
    rows = []
    for name in dataset_names():
        ds = load_dataset(name)
        rows.append([name, ds.num_users, ds.num_items, ds.num_train,
                     ds.num_test, f"{ds.density:.3%}"])
    print_table("Built-in synthetic presets (Table I shaped)",
                ["name", "users", "items", "train", "test", "density"],
                rows, precision=0)
    scale_rows = []
    for name in scale_preset_names():
        cfg = SCALE_PRESETS[name]
        scale_rows.append([name, cfg.num_users, cfg.num_items,
                           int(cfg.mean_interactions * cfg.num_users),
                           cfg.num_clusters])
    print_table("Out-of-core scale presets (sharded on first use; "
                "`train`/`export` stream them)",
                ["name", "users", "items", "~train", "clusters"],
                scale_rows, precision=0)
    return 0


def _loss_kwargs(args) -> dict:
    if args.loss == "sl":
        return {"tau": args.tau}
    if args.loss == "bsl":
        return {"tau1": args.tau1 or args.tau, "tau2": args.tau}
    return {}


def _train_spec(args) -> ExperimentSpec:
    """Translate parsed ``train``/``export`` flags into an ExperimentSpec."""
    return ExperimentSpec(
        dataset=args.dataset, model=args.model, loss=args.loss,
        loss_kwargs=_loss_kwargs(args), dim=args.dim, epochs=args.epochs,
        learning_rate=args.lr, n_negatives=args.negatives,
        positive_noise=getattr(args, "positive_noise", 0.0),
        rnoise=getattr(args, "rnoise", 0.0), seed=args.seed)


def _scale_table_dir(name: str, dim: int, seed: int):
    """Where a scale preset's trained mmap tables live."""
    from repro.data import scale_cache_root
    return scale_cache_root() / name / f"tables-dim{dim}-seed{seed}"


def _train_scale(args) -> int:
    """Out-of-core training for a scale preset (the ``train`` verb path).

    Streams the preset's interaction shards through the sparse-grad
    trainer into freshly initialized mmap-backed MF tables — peak RSS
    follows the touched rows, never the catalogue.  The tables stay in
    the scale cache for ``repro export`` to freeze.
    """
    from repro.data import load_scale_source
    from repro.losses.registry import get_loss
    from repro.train import (TrainConfig, Trainer, flush_model,
                             init_mmap_mf_tables, open_mmap_mf)
    if args.model != "mf":
        raise SystemExit(
            f"scale presets train out-of-core and support only "
            f"--model mf (got {args.model!r})")
    if getattr(args, "positive_noise", 0.0):
        raise SystemExit(
            "--positive-noise rewrites the dense dataset and is not "
            "supported with scale presets")
    source = load_scale_source(args.dataset)
    table_dir = _scale_table_dir(args.dataset, args.dim, args.seed)
    init_mmap_mf_tables(table_dir, source.num_users, source.num_items,
                        args.dim, rng=args.seed)
    model = open_mmap_mf(table_dir)
    loss = get_loss(args.loss, **_loss_kwargs(args))
    config = TrainConfig(
        epochs=args.epochs, learning_rate=args.lr,
        n_negatives=args.negatives, grad_mode="sparse", seed=args.seed,
        rnoise=getattr(args, "rnoise", 0.0),
        verbose=getattr(args, "verbose", False))
    result = Trainer(model, loss, source, config).fit()
    flush_model(model)
    print_table(
        f"{args.model}+{args.loss} on {args.dataset} (out-of-core)",
        ["field", "value"],
        [["users", source.num_users], ["items", source.num_items],
         ["train pairs", source.num_train], ["epochs", args.epochs],
         ["final loss", f"{result.final_loss:.4f}"],
         ["tables", str(table_dir)]], precision=0)
    return 0


def _cmd_train(args) -> int:
    """Train one experiment cell and print its evaluation metrics."""
    if args.dataset in SCALE_PRESETS:
        return _train_scale(args)
    spec = _train_spec(args)
    result = run_experiment(spec, verbose=args.verbose)
    print_table(f"{args.model}+{args.loss} on {args.dataset}",
                ["metric", "value"],
                [[k, v] for k, v in sorted(result.metrics.items())])
    return 0


def _cmd_sweep_tau(args) -> int:
    """Sweep the SL temperature on one dataset and report the best tau."""
    taus = [float(t) for t in args.taus.split(",")]
    values = []
    for tau in taus:
        spec = ExperimentSpec(dataset=args.dataset, model=args.model,
                              loss="sl", loss_kwargs={"tau": tau},
                              epochs=args.epochs, seed=args.seed)
        values.append(run_experiment(spec).metric("ndcg@20"))
    print_series(f"NDCG@20 vs tau on {args.dataset}", taus, values)
    best = taus[values.index(max(values))]
    print(f"best tau: {best}")
    return 0


def _cmd_bench(args) -> int:
    """Dispatch ``repro bench <suite>`` through the registry."""
    return get_suite(args.suite).main(args)


def _export_scale(args) -> int:
    """Out-of-core export for a scale preset (the ``export`` verb path).

    Trains the preset's tables in place (same as ``repro train``) and
    freezes them with
    :func:`repro.serve.export_sharded_source_snapshot`: table rows are
    copied shard by shard from the memmaps and the seen-item CSR comes
    straight from the interaction shards, so no dense per-catalogue
    intermediate is ever built.  Scale exports are always sharded
    (``--shards`` defaults to 4 here).
    """
    import numpy as np

    from repro.data import load_scale_source
    from repro.serve import export_sharded_source_snapshot
    from repro.train.outofcore import ITEM_TABLE, USER_TABLE
    if args.checkpoint:
        raise SystemExit(
            "--checkpoint is not supported with scale presets; tables "
            "are trained in place under the scale cache")
    _train_scale(args)
    source = load_scale_source(args.dataset)
    table_dir = _scale_table_dir(args.dataset, args.dim, args.seed)
    users = np.load(table_dir / USER_TABLE, mmap_mode="r")
    items = np.load(table_dir / ITEM_TABLE, mmap_mode="r")
    shards = args.shards or 4
    snapshot = export_sharded_source_snapshot(
        users, items, source, args.out, shards=shards,
        partition_by=args.partition_by, strategy=args.partition,
        model_name=args.model,
        extra={"loss": args.loss, "epochs": args.epochs,
               "scale_preset": args.dataset})
    _print_snapshot(args.out, snapshot.manifest)
    return 0


def _print_snapshot(out, manifest) -> None:
    """The ``export`` verb's summary table of a written snapshot."""
    sharded = (manifest.num_user_shards, manifest.num_item_shards) != (1, 1)
    print_table(
        f"{'sharded ' if sharded else ''}snapshot {out}", ["field", "value"],
        [["version", manifest.version], ["model", manifest.model],
         ["user shards", manifest.num_user_shards],
         ["item shards", manifest.num_item_shards],
         ["partition", f"{manifest.strategy} by {manifest.partition_by}"],
         ["dim", manifest.dim], ["users", manifest.num_users],
         ["items", manifest.num_items], ["scoring", manifest.scoring]],
        precision=0)


def _cmd_export(args) -> int:
    """Freeze a trained backbone into a serving snapshot directory.

    Either trains the requested cell from scratch (the default) or, with
    ``--checkpoint``, rebuilds the model and loads previously saved
    parameters before exporting.  The snapshot is the unsharded 1×1
    shard set unless ``--shards N`` partitions it (``--partition-by``
    picks the sharded axes, ``--partition`` the placement scheme).
    Scale presets take the out-of-core path: mmap tables + interaction
    shards, 4 shards per axis by default.
    """
    from repro.serve import export_sharded_snapshot

    if args.dataset in SCALE_PRESETS:
        return _export_scale(args)
    if args.checkpoint:
        from repro.models import get_model
        from repro.train.checkpoint import load_checkpoint
        dataset = load_dataset(args.dataset)
        model = get_model(args.model, dataset, dim=args.dim, rng=args.seed)
        load_checkpoint(model, args.checkpoint)
    else:
        result = run_experiment(_train_spec(args))
        model, dataset = result.model, result.dataset
        print_table(f"trained {args.model}+{args.loss} on {args.dataset}",
                    ["metric", "value"],
                    [[k, v] for k, v in sorted(result.metrics.items())])
    snapshot = export_sharded_snapshot(
        model, dataset, args.out, shards=args.shards or 1,
        partition_by=args.partition_by, strategy=args.partition,
        model_name=args.model,
        extra={"loss": args.loss, "epochs": args.epochs,
               "checkpoint": args.checkpoint or ""})
    _print_snapshot(args.out, snapshot.manifest)
    return 0


def _cmd_build_ann(args) -> int:
    """Train an IVF candidate index from an exported snapshot.

    Reads the snapshot, clusters the item table with the repo's
    k-means, writes the inverted lists plus a content-hashed
    ``manifest.json`` into ``--out``.  Builds are deterministic: the
    same snapshot, parameters and ``--seed`` produce a byte-identical
    directory.
    """
    from repro.ann import build_ann_index
    from repro.serve import load_snapshot

    snapshot = load_snapshot(args.snapshot, verify=args.verify)
    index = build_ann_index(
        snapshot, args.out, nlist=args.nlist, spill=args.spill,
        default_nprobe=args.nprobe, seed=args.seed,
        train_iters=args.train_iters)
    data = index.data
    rows = [["nlist", data.nlist],
            ["spill", data.max_spill], ["nprobe", data.default_nprobe],
            ["postings", len(data.list_items)],
            ["items", data.num_items],
            ["index KiB", f"{index.table_bytes / 1024:.0f}"],
            ["snapshot", snapshot.version]]
    print_table(f"ANN index {args.out}", ["field", "value"], rows,
                precision=0)
    return 0


def _cmd_recommend(args) -> int:
    """Serve top-K recommendations for a list of users from a snapshot.

    Any shard count (``repro export --shards``) loads and is served by
    the one :class:`~repro.serve.service.RecommendationService` through
    its scatter-gather router.  ``--ann DIR`` takes candidates from an
    IVF index built by ``repro build-ann`` — over-fetched per user and
    re-scored exactly, so scores remain comparable to the exact index.
    The IVF index reads whole tables, so it opens only over the 1×1 set.
    """
    from repro.serve import RecommendationService, load_snapshot

    snapshot = load_snapshot(args.snapshot, verify=args.verify)
    index = None
    if args.ann:
        from repro.ann import load_ann_index
        index = load_ann_index(args.ann, snapshot, verify=args.verify)
    service = RecommendationService(snapshot, index=index)
    index = service.index
    users = [int(u) for u in args.users.split(",")]
    if args.trace:
        from repro.obs import format_span_tree, get_tracer, tracing
        tracer = get_tracer()
        tracer.clear()
        with tracing():
            recs = list(service.recommend(
                users, k=args.k, filter_seen=not args.no_filter_seen))
    else:
        recs = list(service.recommend(users, k=args.k,
                                      filter_seen=not args.no_filter_seen))
    rows = [[rec.user_id,
             " ".join(str(i) for i in rec.items.tolist()),
             " ".join(f"{s:.4f}" for s in rec.scores.tolist())]
            for rec in recs]
    m = snapshot.manifest
    print_table(
        f"top-{args.k} from {args.snapshot} ({index.kind}, "
        f"{m.num_user_shards}x{m.num_item_shards} shards, "
        f"snapshot {snapshot.version})",
        ["user", "items", "scores"], rows, precision=0)
    if args.trace:
        # Sharded routing records its phase spans from fan-out worker
        # threads, which finish as separate roots — print every root
        # collected during the call, not just the last.
        print()
        for root in tracer.traces():
            print(format_span_tree(root))
    return 0


def _cmd_refresh(args) -> int:
    """Demo the atomic live swap under a paced request stream.

    Serves ``--requests`` paced lookups from ``--snapshot`` through the
    async runtime, swaps in the ``--new`` snapshot directory mid-stream
    via the verified
    :meth:`~repro.serve.runtime.ServingRuntime.refresh`, and prints the
    swap accounting: every response is attributable to exactly one
    snapshot version and none are dropped.  A ``--new`` that fails its
    verify is rejected (exit 1) while the base version keeps serving.
    """
    import time as _time

    import numpy as np

    from repro.serve import (RecommendationService, ServingRuntime,
                             SnapshotIntegrityError, load_snapshot)

    base = load_snapshot(args.snapshot, verify=args.verify)
    service = RecommendationService(base)
    rng = np.random.default_rng(args.seed)
    users = rng.integers(0, base.manifest.num_users, size=args.requests)
    handles = []
    rejected = None
    invalidated = 0
    with ServingRuntime(service) as runtime:
        start = _time.perf_counter()
        for i, user in enumerate(users.tolist()):
            delay = start + i / args.qps - _time.perf_counter()
            if delay > 0:
                _time.sleep(delay)
            if i == args.requests // 2:
                try:
                    invalidated = runtime.refresh(args.new)
                except SnapshotIntegrityError as exc:
                    rejected = exc
            handles.append(runtime.submit(int(user), k=args.k))
        results = [h.result(timeout=30.0) for h in handles]
    served = {}
    for rec in results:
        served[rec.snapshot_version] = served.get(rec.snapshot_version,
                                                  0) + 1
    rows = [["base version", base.version],
            ["new version", "rejected" if rejected is not None
             else service.snapshot.version],
            ["requests", len(results)],
            ["cache entries invalidated", invalidated],
            ["swap pause ms",
             f"{1e3 * runtime.stats.refresh_s:.3f}"]]
    rows += [[f"served by {version}", count]
             for version, count in sorted(served.items())]
    print_table(f"live refresh of {args.snapshot}", ["field", "value"],
                rows, precision=0)
    if rejected is not None:
        print(f"refresh rejected: {rejected}")
        return 1
    return 0


def _demo_metrics_workload() -> None:
    """Drive a tiny train + serve pass so every instrument family of
    the registry has samples (training, sampler, cache, serving)."""
    import tempfile

    from repro.serve import (RecommendationService, ServingRuntime,
                             export_snapshot, load_snapshot)

    spec = ExperimentSpec(dataset="yelp2018-small", model="mf", loss="bsl",
                          dim=16, epochs=2, seed=0)
    result = run_experiment(spec)
    with tempfile.TemporaryDirectory() as tmp:
        export_snapshot(result.model, result.dataset, tmp)
        service = RecommendationService(load_snapshot(tmp), cache_size=64)
        with ServingRuntime(service) as runtime:
            handles = [runtime.submit(u % result.dataset.num_users, k=5)
                       for u in range(32)]
            for handle in handles:
                handle.result(timeout=30.0)


def _cmd_metrics(args) -> int:
    """Export the process-global metrics registry.

    By default renders whatever this process has recorded so far (the
    library path: scripts call :func:`repro.obs.get_registry` and dump
    at exit).  ``--demo`` first drives a tiny train + serve workload so
    every family has samples — ``scripts/verify.sh`` uses this to
    smoke-test the exposition format — and ``--validate`` re-parses the
    Prometheus output, failing on malformed or duplicate families.
    """
    from repro.obs import get_registry
    from repro.obs.export import json as json_export
    from repro.obs.export import prom

    if args.validate and args.format != "prom":
        raise SystemExit("metrics: --validate applies to --format prom")
    if args.demo:
        _demo_metrics_workload()
    registry = get_registry()
    if args.format == "json":
        text = json_export.render(registry) + "\n"
    else:
        text = prom.render(registry)
    if args.validate:
        problems = prom.validate_exposition(text)
        if problems:
            for problem in problems:
                print(f"metrics: {problem}")
            return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.format} exposition to {args.out}")
    else:
        print(text, end="")
    return 0


def _add_train_cell_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every verb that trains one (model, loss) cell."""
    parser.add_argument("--dataset", default="yelp2018-small",
                        choices=dataset_names() + scale_preset_names(),
                        help="built-in preset, or a scale preset for the "
                             "out-of-core path")
    parser.add_argument("--model", default="mf", choices=model_names())
    parser.add_argument("--loss", default="bsl", choices=loss_names())
    parser.add_argument("--tau", type=float, default=0.4,
                        help="SL temperature / BSL tau2")
    parser.add_argument("--tau1", type=float, default=None,
                        help="BSL positive temperature (default: tau)")
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--lr", type=float, default=5e-2)
    parser.add_argument("--negatives", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """Construct the full ``repro`` argparse tree (used by the CLI and
    by ``tests/test_docs.py`` to validate README command examples)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="BSL reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list built-in dataset and scale presets")

    train = sub.add_parser("train", help="train one experiment cell "
                                         "(scale presets run out-of-core)")
    _add_train_cell_args(train)
    train.add_argument("--positive-noise", type=float, default=0.0)
    train.add_argument("--rnoise", type=float, default=0.0)
    train.add_argument("--verbose", action="store_true")

    sweep = sub.add_parser("sweep-tau", help="SL temperature sweep")
    sweep.add_argument("--dataset", default="yelp2018-small",
                       choices=dataset_names())
    sweep.add_argument("--model", default="mf", choices=model_names())
    sweep.add_argument("--taus", default="0.2,0.3,0.4,0.6")
    sweep.add_argument("--epochs", type=int, default=18)
    sweep.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help=f"run a registered benchmark suite "
             f"({'/'.join(suite_names())})")
    bench_sub = bench.add_subparsers(dest="suite", required=True)
    add_bench_subparsers(bench_sub)

    export = sub.add_parser(
        "export", help="train (or load) a model and export a serving "
                       "snapshot (scale presets export out-of-core)")
    _add_train_cell_args(export)
    export.add_argument("--checkpoint", default=None,
                        help="load parameters from a .npz checkpoint "
                             "instead of training")
    export.add_argument("--out", default="snapshot",
                        help="snapshot output directory")
    export.add_argument("--shards", type=int, default=0,
                        help="write a sharded snapshot with this many "
                             "partitions per sharded axis (0 = unsharded; "
                             "scale presets always shard, default 4)")
    export.add_argument("--partition-by", default="both",
                        choices=("user", "item", "both"),
                        help="which axes to shard (with --shards)")
    export.add_argument("--partition", default="contiguous",
                        choices=("contiguous", "hash"),
                        help="id placement scheme (with --shards)")

    build_ann = sub.add_parser(
        "build-ann",
        help="train an IVF candidate index from an exported snapshot")
    build_ann.add_argument("--snapshot", required=True,
                           help="snapshot directory written by `repro export`")
    build_ann.add_argument("--out", required=True,
                           help="ANN index output directory")
    build_ann.add_argument("--nlist", type=int, default=16,
                           help="number of inverted lists (k-means clusters)")
    build_ann.add_argument("--spill", type=int, default=1,
                           help="lists each item is stored in (1 = plain IVF)")
    build_ann.add_argument("--nprobe", type=int, default=2,
                           help="default lists probed per request")
    build_ann.add_argument("--train-iters", type=int, default=25,
                           help="k-means iterations for the list centroids")
    build_ann.add_argument("--seed", type=int, default=0,
                           help="training seed; same snapshot + params + "
                                "seed gives a byte-identical index")
    build_ann.add_argument("--verify", action="store_true",
                           help="check the snapshot content hash first")

    recommend = sub.add_parser(
        "recommend", help="top-K recommendations from an exported snapshot")
    recommend.add_argument("--snapshot", required=True,
                           help="snapshot directory written by `repro export`")
    recommend.add_argument("--users", default="0,1,2",
                           help="comma-separated user ids")
    recommend.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    recommend.add_argument("--ann", default=None,
                           help="serve an unsharded snapshot through an "
                                "IVF candidate index directory built by "
                                "`repro build-ann`")
    recommend.add_argument("--no-filter-seen", action="store_true",
                           help="keep already-interacted items in the lists")
    recommend.add_argument("--verify", action="store_true",
                           help="check the snapshot content hash before serving")
    recommend.add_argument("--trace", action="store_true",
                           help="print the request's span tree "
                                "(docs/observability.md)")

    refresh = sub.add_parser(
        "refresh",
        help="demo the atomic live swap under a paced request stream")
    refresh.add_argument("--snapshot", required=True,
                         help="base snapshot directory to serve from")
    refresh.add_argument("--new", required=True,
                         help="re-exported snapshot directory swapped in "
                              "mid-stream (loaded verified)")
    refresh.add_argument("--requests", type=int, default=64,
                         help="paced lookups driven through the runtime")
    refresh.add_argument("--qps", type=float, default=500.0,
                         help="request pacing rate")
    refresh.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    refresh.add_argument("--seed", type=int, default=0)
    refresh.add_argument("--verify", action="store_true",
                         help="check the snapshot content hash first")

    metrics = sub.add_parser(
        "metrics",
        help="export the process metrics registry (repro.obs)")
    metrics.add_argument("--format", default="prom",
                         choices=("prom", "json"),
                         help="Prometheus text exposition or JSON snapshot")
    metrics.add_argument("--demo", action="store_true",
                         help="drive a tiny train + serve workload first "
                              "so every instrument family has samples")
    metrics.add_argument("--validate", action="store_true",
                         help="re-parse the Prometheus output and fail on "
                              "malformed or duplicate families")
    metrics.add_argument("--out", default=None,
                         help="write the exposition to a file instead of "
                              "stdout")

    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default: ``sys.argv``) and dispatch a subcommand."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"datasets": _cmd_datasets, "train": _cmd_train,
                "sweep-tau": _cmd_sweep_tau, "bench": _cmd_bench,
                "export": _cmd_export,
                "build-ann": _cmd_build_ann, "recommend": _cmd_recommend,
                "refresh": _cmd_refresh, "metrics": _cmd_metrics}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
