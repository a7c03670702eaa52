"""Out-of-core scale bench: step time + peak RSS vs catalogue size.

Each level of the sweep runs the full million-scale pipeline from
``docs/scale.md`` end to end in a **fresh subprocess per phase**:

* ``gen`` — stream the power-law catalogue to interaction shards
  (:func:`repro.data.synthetic.generate_scale_shards`);
* ``prepare`` — draw the Xavier MF tables chunk-by-chunk into ``.npy``
  memmaps (:func:`repro.train.outofcore.init_mmap_mf_tables`);
* ``train`` — stream sparse-grad training steps from the shards through
  the mmap-backed model and time them;
* ``export`` — freeze the on-disk tables into a sharded serving
  snapshot without dense intermediates
  (:func:`repro.serve.export_sharded_source_snapshot`);
* ``serve`` — answer batched top-K requests from the mmap'd snapshot
  through the scatter-gather router.

``ru_maxrss`` is a *process-lifetime* high-water mark, so only phase
isolation gives an honest per-phase peak: the parent never touches a
table, and each child's RSS is exactly that phase's footprint.  The
headline ``peak_rss_mb`` column is the training phase's peak — the
number that must stay sub-linear in the catalogue for the out-of-core
claim to hold (``est_dense_bytes`` records what the in-memory dataset's
positive mask alone would cost).

CLI: ``python -m repro.cli bench scale`` (or ``make bench-scale``) writes
``BENCH_scale.json``; the committed file is validated by
``scripts/check_bench.py`` and pinned by ``tests/test_scale_bench.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, replace

from repro.experiments.perf import _flag, _payload, clamp_elapsed

__all__ = ["SCALE_SCHEMA", "ScalePerfConfig", "run_scale_suite",
           "run_scale_phase", "summarize_scale"]

#: Schema of the out-of-core scale payload (``BENCH_scale.json``).
SCALE_SCHEMA = "bsl-scale-bench/v1"

#: Phase order of one level; each runs in its own subprocess.
PHASES = ("gen", "prepare", "train", "export", "serve")

#: Config fields that say where the sweep works, not what it measures:
#: kept out of each level's run spec and the payload's ``config`` block.
_PATH_FIELDS = ("work_dir", "keep_work")


@dataclass
class ScalePerfConfig:
    """Knobs for one out-of-core scale sweep.

    ``levels`` entries are either scale preset names
    (:data:`repro.data.synthetic.SCALE_PRESETS`) or explicit
    :class:`~repro.data.synthetic.ScaleConfig` instances (how the tests
    run a tiny end-to-end sweep).
    """

    levels: tuple = _flag(("scale-100k", "scale-300k", "scale-1m"),
                          "comma-separated scale preset names (see `repro "
                          "datasets`)")
    dim: int = 16
    steps: int = _flag(12, "timed sparse-grad steps per level")
    warmup: int = 2
    batch_size: int = 1024
    n_negatives: int = 8
    serve_batches: int = 8
    serve_batch_size: int = 256
    k: int = 10
    shards: int = _flag(4, "partitions of the exported snapshot")
    seed: int = 0
    work_dir: str | None = _flag(
        None, "keep shards/tables/snapshots here instead of a removed "
              "temporary directory")
    keep_work: bool = _flag(False, "keep the temporary working directory")


def _peak_rss_mb() -> float:
    """Process-lifetime peak RSS in MiB (0.0 where unsupported)."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return 0.0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes, Linux KiB
        peak_kib /= 1024
    return peak_kib / 1024


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _level_paths(work_dir: pathlib.Path) -> dict:
    return {"config": work_dir / "config.json",
            "shards": work_dir / "shards",
            "tables": work_dir / "tables",
            "snapshot": work_dir / "snapshot"}


# ----------------------------------------------------------------------
# Child side: one phase per process
# ----------------------------------------------------------------------
def run_scale_phase(phase: str, work_dir: str | pathlib.Path) -> dict:
    """Run one pipeline phase against a prepared level directory.

    Reads the level's ``config.json`` (written by
    :func:`run_scale_suite`), does the phase's work and returns its
    measurements — including this process's ``peak_rss_mb``, which is
    only meaningful when the phase runs alone in a fresh process.
    """
    paths = _level_paths(pathlib.Path(work_dir))
    spec = json.loads(paths["config"].read_text())
    run = spec["run"]
    start = time.perf_counter()

    if phase == "gen":
        from repro.data.synthetic import ScaleConfig, generate_scale_shards
        source = generate_scale_shards(ScaleConfig(**spec["scale"]),
                                       paths["shards"])
        return {"phase": phase,
                "num_users": source.num_users,
                "num_items": source.num_items,
                "num_train": source.num_train,
                "elapsed_s": clamp_elapsed(time.perf_counter() - start),
                "shard_bytes": _dir_bytes(paths["shards"]),
                "peak_rss_mb": _peak_rss_mb()}

    if phase == "prepare":
        from repro.data.source import ShardedInteractionSource
        from repro.train.outofcore import init_mmap_mf_tables
        source = ShardedInteractionSource(paths["shards"])
        init_mmap_mf_tables(paths["tables"], source.num_users,
                            source.num_items, run["dim"], rng=run["seed"])
        return {"phase": phase,
                "elapsed_s": clamp_elapsed(time.perf_counter() - start),
                "table_bytes": _dir_bytes(paths["tables"]),
                "peak_rss_mb": _peak_rss_mb()}

    if phase == "train":
        from repro.data.source import ShardedInteractionSource
        from repro.losses.registry import get_loss
        from repro.train.config import TrainConfig
        from repro.train.outofcore import flush_model, open_mmap_mf
        from repro.train.trainer import Trainer
        source = ShardedInteractionSource(paths["shards"])
        model = open_mmap_mf(paths["tables"])
        trainer = Trainer(model, get_loss("bsl"), source, TrainConfig(
            epochs=1, batch_size=run["batch_size"],
            n_negatives=run["n_negatives"], grad_mode="sparse",
            seed=run["seed"]))

        def batches():
            while True:  # tiny levels may need more than one epoch
                yield from trainer.sampler.epoch()

        stream = batches()
        for _ in range(run["warmup"]):
            trainer.train_step(next(stream))
        t0 = time.perf_counter()
        for _ in range(run["steps"]):
            trainer.train_step(next(stream))
        timed = clamp_elapsed(time.perf_counter() - t0)
        trainer.optimizer.flush()
        flush_model(model)
        pairs = run["steps"] * run["batch_size"]
        return {"phase": phase,
                "ms_per_step": 1e3 * timed / run["steps"],
                "users_per_s": pairs / timed,
                "elapsed_s": clamp_elapsed(time.perf_counter() - start),
                "peak_rss_mb": _peak_rss_mb()}

    if phase == "export":
        import numpy as np

        from repro.data.source import ShardedInteractionSource
        from repro.serve import export_sharded_source_snapshot
        from repro.train.outofcore import ITEM_TABLE, USER_TABLE
        source = ShardedInteractionSource(paths["shards"])
        users = np.load(paths["tables"] / USER_TABLE, mmap_mode="r")
        items = np.load(paths["tables"] / ITEM_TABLE, mmap_mode="r")
        export_sharded_source_snapshot(
            users, items, source, paths["snapshot"], shards=run["shards"],
            extra={"level": spec["scale"]["name"]})
        return {"phase": phase,
                "elapsed_s": clamp_elapsed(time.perf_counter() - start),
                "snapshot_bytes": _dir_bytes(paths["snapshot"]),
                "peak_rss_mb": _peak_rss_mb()}

    if phase == "serve":
        import numpy as np

        from repro.serve import RecommendationService, load_sharded_snapshot
        snapshot = load_sharded_snapshot(paths["snapshot"])
        service = RecommendationService(snapshot)
        rng = np.random.default_rng(run["seed"])
        batch, k = run["serve_batch_size"], run["k"]
        users = rng.integers(0, snapshot.manifest.num_users,
                             size=run["serve_batches"] * batch)
        service.recommend(users[:batch].tolist(), k=k)  # warm the index
        t0 = time.perf_counter()
        for lo in range(0, users.size, batch):
            service.recommend(users[lo:lo + batch].tolist(), k=k)
        timed = clamp_elapsed(time.perf_counter() - t0)
        return {"phase": phase,
                "users_per_s": users.size / timed,
                "elapsed_s": clamp_elapsed(time.perf_counter() - start),
                "peak_rss_mb": _peak_rss_mb()}

    raise ValueError(f"unknown scale phase {phase!r} "
                     f"(expected one of {PHASES})")


# ----------------------------------------------------------------------
# Parent side: orchestrate levels x phases
# ----------------------------------------------------------------------
def _child_env() -> dict:
    """Environment for phase subprocesses: ensure ``repro`` is importable."""
    import repro
    src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src_root}:{existing}" if existing else src_root
    return env


def _run_phase_subprocess(phase: str, work_dir: pathlib.Path,
                          env: dict) -> dict:
    cmd = [sys.executable, "-m", "repro.experiments.scale_perf",
           "--phase", phase, "--work-dir", str(work_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale phase {phase!r} failed ({proc.returncode}):\n"
            f"{proc.stderr.strip()[-2000:]}")
    # The phase result is the last stdout line; anything above it is
    # incidental logging from the phase's imports.
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _resolve_level(level):
    from repro.data.synthetic import SCALE_PRESETS, ScaleConfig
    if isinstance(level, ScaleConfig):
        return level
    try:
        return SCALE_PRESETS[level]
    except KeyError:
        raise KeyError(f"unknown scale level {level!r} (presets: "
                       f"{sorted(SCALE_PRESETS)})") from None


def run_scale_suite(config: ScalePerfConfig | None = None) -> dict:
    """Sweep the out-of-core pipeline over catalogue sizes; return payload.

    Emits one ``scale`` row per level with the training-phase step time
    and throughput, per-phase peak RSS, shard/snapshot footprints and
    the dense-baseline estimate.
    """
    config = config or ScalePerfConfig()
    levels = [_resolve_level(level) for level in config.levels]
    root = pathlib.Path(config.work_dir) if config.work_dir else \
        pathlib.Path(tempfile.mkdtemp(prefix="repro-scale-bench-"))
    ephemeral = config.work_dir is None
    env = _child_env()
    run_spec = {key: value for key, value in vars(config).items()
                if key not in ("levels", *_PATH_FIELDS)}
    results = []
    try:
        for cfg in levels:
            level_dir = root / cfg.name
            level_dir.mkdir(parents=True, exist_ok=True)
            _level_paths(level_dir)["config"].write_text(json.dumps(
                {"scale": asdict(cfg), "run": run_spec}, indent=2) + "\n")
            by_phase = {}
            for phase in PHASES:
                by_phase[phase] = _run_phase_subprocess(phase, level_dir,
                                                        env)
            gen, train = by_phase["gen"], by_phase["train"]
            results.append({
                "kind": "scale",
                "level": cfg.name,
                "num_users": gen["num_users"],
                "num_items": gen["num_items"],
                "catalogue": gen["num_users"] + gen["num_items"],
                "num_train": gen["num_train"],
                "dim": config.dim,
                "batch_size": config.batch_size,
                "n_negatives": config.n_negatives,
                "steps": config.steps,
                "ms_per_step": train["ms_per_step"],
                "users_per_s": train["users_per_s"],
                "peak_rss_mb": train["peak_rss_mb"],
                "gen_s": gen["elapsed_s"],
                "gen_peak_rss_mb": gen["peak_rss_mb"],
                "prepare_peak_rss_mb": by_phase["prepare"]["peak_rss_mb"],
                "export_s": by_phase["export"]["elapsed_s"],
                "export_peak_rss_mb": by_phase["export"]["peak_rss_mb"],
                "serve_users_per_s": by_phase["serve"]["users_per_s"],
                "serve_peak_rss_mb": by_phase["serve"]["peak_rss_mb"],
                # What the in-memory dataset's boolean positive mask
                # alone would cost — the dense state the sharded source
                # replaces (1 byte per user x item cell).
                "est_dense_bytes": gen["num_users"] * gen["num_items"],
                "shard_bytes": gen["shard_bytes"],
                "snapshot_bytes": by_phase["export"]["snapshot_bytes"],
            })
            if ephemeral and not config.keep_work:
                shutil.rmtree(level_dir, ignore_errors=True)
    finally:
        if ephemeral and not config.keep_work:
            shutil.rmtree(root, ignore_errors=True)
    names = tuple(cfg.name for cfg in levels)
    payload = _payload(SCALE_SCHEMA, replace(config, levels=names), results,
                       dataset=",".join(names))
    for key in _PATH_FIELDS:
        del payload["config"][key]
    return payload


def summarize_scale(payload: dict) -> str:
    """One line per level: throughput and the RSS-vs-catalogue story."""
    lines = ["out-of-core scale frontier (train-phase peak RSS):"]
    for row in payload["results"]:
        dense_mb = row["est_dense_bytes"] / 2**20
        lines.append(
            f"  {row['level']:>12}: {row['num_users']:>9,} users x "
            f"{row['num_items']:>9,} items ({row['num_train']:,} pairs)  "
            f"{row['ms_per_step']:8.2f} ms/step  "
            f"{row['users_per_s']:>10,.0f} users/s  "
            f"peak RSS {row['peak_rss_mb']:7.1f} MB "
            f"(dense mask alone: {dense_mb:,.0f} MB)")
    return "\n".join(lines)


def _main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.scale_perf",
        description="run one out-of-core scale phase (internal runner "
                    "spawned by run_scale_suite)")
    parser.add_argument("--phase", required=True, choices=PHASES)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    result = run_scale_phase(args.phase, args.work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
