"""The four workloads: inputs, set-up, one op, its correctness check, spans.

Every call into the program goes through a public name of ``repro``.
Each workload owns a recorder (:mod:`spans`); with tracing off its
``span`` is a no-op, so the timed code is the same in both passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import shutil
import statistics
import sys
import traceback

import numpy as np

from oracle import Oracle
from spans import SpanRecorder, median_of

#: Pinned into every export so snapshot bytes depend on the seed alone.
CREATED_UNIX = 0.0
#: Generated-input directories kept per family; older seeds are evicted.
KEEP_SEEDS = 3
K = 20


@dataclasses.dataclass(frozen=True)
class Shapes:
    name: str
    pipe_n: int           # users == items of the in-memory pipeline dataset
    pipe_clusters: int
    pipe_degree: float
    pipe_serve_users: int
    nlist: int
    nprobe: int
    scale_n: int          # users == items of the sharded catalogue
    scale_clusters: int
    dim: int
    batch: int
    negatives: int
    serve_batch: int
    burst: int
    runtime_batch: int
    cache: int
    probe_rows: int       # rows of the fixed rank/mask probe block
    #: pipeline-9k: NDCG@20 of the first timed cycle
    pinned_ndcg20: float
    ndcg20_floor: float
    recall20_floor: float


FULL = Shapes("full", pipe_n=9000, pipe_clusters=24, pipe_degree=20.0,
              pipe_serve_users=1024, nlist=32, nprobe=8, scale_n=100_000,
              scale_clusters=32, dim=64, batch=1024, negatives=64,
              serve_batch=256, burst=512, runtime_batch=64, cache=8192,
              probe_rows=256, pinned_ndcg20=0.2661, ndcg20_floor=0.15,
              recall20_floor=0.80)
TINY = Shapes("tiny", pipe_n=300, pipe_clusters=4, pipe_degree=12.0,
              pipe_serve_users=64, nlist=4, nprobe=2, scale_n=2000,
              scale_clusters=8, dim=16, batch=128, negatives=8,
              serve_batch=32, burst=32, runtime_batch=8, cache=256,
              probe_rows=32, pinned_ndcg20=0.2849, ndcg20_floor=0.05,
              recall20_floor=0.50)


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def cached_inputs(work_dir: pathlib.Path, family: str, config: dict,
                  generate) -> pathlib.Path:
    """``work_dir/family-seedN``, generated unless its manifest matches.

    ``generate(path)`` fills a fresh directory; the manifest is written
    last, so an interrupted generation is never mistaken for a cache.
    """
    path = work_dir / f"{family}-{config['shapes']}-seed{config['seed']}"
    manifest = path / "bench-manifest.json"
    if manifest.is_file() and json.loads(manifest.read_text()) == config:
        manifest.touch()
        return path
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    generate(path)
    manifest.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    stale = sorted(work_dir.glob(f"{family}-*/bench-manifest.json"),
                   key=lambda m: m.stat().st_mtime)[:-KEEP_SEEDS]
    for old in stale:
        shutil.rmtree(old.parent, ignore_errors=True)
    return path


class Workload:
    """One workload: subclasses fill in inputs, set-up, op and check."""

    name = ""
    why = ""
    #: milliseconds one op and its check take on the reference box; with
    #: the calibration cost it turns ``--seconds`` into a fixed op count
    nominal_op_ms = 0.0
    #: a calibration slot follows every ``calib_every`` ops and takes
    #: ``calib_samples`` samples; chosen so that calibration stays
    #: <= 25 % of the timed wall
    calib_every = 1
    calib_samples = 1
    min_ops = 10
    #: ops of the untimed memory pass; ``peak_rss_mb`` is read after them
    memory_ops = 8

    def __init__(self, shapes: Shapes, seed: int, work_dir: pathlib.Path,
                 clock):
        self.shapes = shapes
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock
        self.rec = SpanRecorder(clock)
        self.setup_ms: dict[str, float] = {}
        self.end_checks: list[tuple[str, bool]] = []

    # -- lifecycle, overridden per workload ---------------------------
    def build(self) -> None:
        """Generate this seed's input files under the work dir (cached)."""

    def setup(self) -> None:
        """Everything a user does before the first op; timed as ``setup_s``."""

    def teardown(self) -> None:
        """Drop what :meth:`setup` built, so set-up can be timed again."""

    def open_checks(self) -> None:
        """Untimed, after the last set-up: what only :meth:`check` needs."""

    def before_op(self, i: int) -> None:
        """Untimed preparation of op ``i`` (e.g. start the runtime)."""

    def op(self, i: int):
        """One unit of user-visible work; its result goes to :meth:`check`."""
        raise NotImplementedError

    def after_op(self, i: int) -> None:
        """Untimed: leave no program thread runnable before calibration."""

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def install_trace(self) -> None:
        """Wrap the public calls of each layer this workload goes through."""

    def finish(self) -> None:
        """End-of-run checks; appends ``(what, ok)`` to ``end_checks``."""

    def layer_metrics(self, inclusive: dict, own: dict) -> dict:
        """Per-layer metrics of a traced pass, from the span tables."""
        return {}

    def probes(self) -> dict:
        """Fixed-size layer probes run once after a traced pass."""
        indptr, items = self.source.train_csr(0, self.shapes.probe_rows)
        return self.rank_mask_probe(self.source.num_items, indptr, items)

    # -- shared -------------------------------------------------------
    def _timed(self, key: str, fn):
        start = self.clock()
        value = fn()
        self.setup_ms[key] = 1e3 * (self.clock() - start)
        return value

    def run_op(self, i: int) -> tuple[float, bool]:
        """Run op ``i``; ``(elapsed_ms, ok)``.  An exception is a failed op."""
        self.before_op(i)
        result, raised = None, False
        start = self.clock()
        try:
            with self.rec.span("bench.op"):
                result = self.op(i)
        except Exception:  # noqa: BLE001 - any failure is a failed op
            raised = True
            traceback.print_exc(file=sys.stderr)
        elapsed_ms = 1e3 * (self.clock() - start)
        self.after_op(i)
        return elapsed_ms, not raised and bool(self.check(i, result))

    def rank_mask_probe(self, num_items: int, seen_indptr, seen_items,
                        repeats: int = 7) -> dict:
        """``rank_items`` / ``mask_seen_items`` on a fixed block this wide."""
        from repro.eval.masking import mask_seen_items
        from repro.eval.metrics import rank_items
        rows = self.shapes.probe_rows
        block = np.random.default_rng(7).standard_normal((rows, num_items))
        positions = np.arange(rows, dtype=np.int64)
        rank_ms, mask_ms = [], []
        for _ in range(repeats):
            start = self.clock()
            rank_items(block, K)
            mid = self.clock()
            mask_seen_items(block, seen_indptr, seen_items, positions)
            rank_ms.append(1e3 * (mid - start))
            mask_ms.append(1e3 * (self.clock() - mid))
        return {"eval.rank_items_p50_ms": statistics.median(rank_ms),
                "eval.mask_seen_p50_ms": statistics.median(mask_ms)}


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
class _TrainMixin:
    """Shared by the two workloads that run ``Trainer.train_step``."""

    def _start_training(self, model, source, grad_mode: str,
                        seed: int) -> None:
        from repro.losses.registry import get_loss
        from repro.train.config import TrainConfig
        from repro.train.trainer import Trainer
        s = self.shapes
        self.model = model
        self.trainer = Trainer(model, get_loss("bsl"), source, TrainConfig(
            epochs=1, batch_size=s.batch, n_negatives=s.negatives,
            grad_mode=grad_mode, seed=seed))
        self.losses: list[float] = []

        def batches():
            while True:
                yield from self.trainer.sampler.epoch()
        self.stream = batches()

    def _train_step(self) -> float:
        with self.rec.span("data.sampling.batch"):
            batch = next(self.stream)
        loss = self.trainer.train_step(batch)
        self.losses.append(loss)
        return loss

    def install_trace(self) -> None:
        from repro.tensor import Tensor
        rec, trainer = self.rec, self.trainer
        rec.patch(trainer, "train_step", "train.step")
        rec.patch(self.model, self.forward_method, "models.forward")
        rec.patch(trainer, "loss", "losses.forward")
        rec.patch(Tensor, "backward", "tensor.backward")
        rec.patch(trainer.optimizer, "step", "nn.optim.step")

    def layer_metrics(self, inclusive: dict, own: dict) -> dict:
        step = median_of(inclusive, "train.step")
        batch_ms = inclusive.get("data.sampling.batch", [0.0])
        return {
            "data.sampling.batch_p50_ms": float(np.median(batch_ms)),
            "data.sampling.batch_p90_ms": float(np.quantile(batch_ms, 0.9)),
            "models.forward_p50_ms": median_of(inclusive, "models.forward"),
            "losses.forward_p50_ms": median_of(inclusive, "losses.forward"),
            "tensor.backward_p50_ms": median_of(inclusive, "tensor.backward"),
            "nn.optim.step_p50_ms": median_of(inclusive, "nn.optim.step"),
            "train.step_p50_ms": step,
            "train.step_overhead_frac": (
                median_of(own, "train.step") / step if step else 0.0),
        }


class TrainSparse(_TrainMixin, Workload):
    name = "train-sparse-100k"
    why = ("same train/tensor/nn layers as pipeline-9k but through the "
           "row-sparse path at catalogue scale: a dense-path win that costs "
           "the sparse path, or the reverse, shows here")
    nominal_op_ms = 160.0
    calib_every = 2
    forward_method = "sampled_batch_scores"

    def build(self) -> None:
        self.inputs = scale_inputs(self.work_dir, self.shapes, self.seed)

    def setup(self) -> None:
        from repro.data.source import ShardedInteractionSource
        from repro.train.outofcore import open_mmap_mf
        source = self._timed("data.source.open_ms", lambda:
                             ShardedInteractionSource(self.inputs / "shards"))
        # Copy-on-write: steps update private pages, so the cached tables
        # stay as generated and no write-back runs behind the timed ops.
        model = open_mmap_mf(self.inputs / "tables", mode="c")
        self.source = source
        self._start_training(model, source, "sparse", self.seed)
        self.touched_rows: list[int] = []

    def teardown(self) -> None:
        self.trainer = self.model = self.stream = self.source = None

    def op(self, i: int):
        return self._train_step()

    def check(self, i: int, result) -> bool:
        from repro.tensor.sparse import RowSparseGrad
        if self.rec.enabled:  # gradients survive until the next zero_grad
            self.touched_rows.append(sum(
                p.grad.nnz for p in self.trainer.optimizer.params
                if isinstance(p.grad, RowSparseGrad)))
        return math.isfinite(result)

    def finish(self) -> None:
        """The moving mean of the loss must end lower than it started."""
        w = min(10, max(1, len(self.losses) // 2))
        self.end_checks.append((
            f"loss {w}-step moving mean fell",
            statistics.fmean(self.losses[-w:])
            < statistics.fmean(self.losses[:w])))

    def layer_metrics(self, inclusive, own) -> dict:
        out = super().layer_metrics(inclusive, own)
        out["nn.optim.touched_rows"] = float(
            statistics.median(self.touched_rows))
        return out

# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
class Pipeline(_TrainMixin, Workload):
    name = "pipeline-9k"
    why = ("the only workload through graph/, the dense tensor/ and nn/ "
           "path, eval/, snapshot writes and ann/; it is what a paper "
           "reproducer runs: train, evaluate, export, index, serve")
    nominal_op_ms = 2250.0
    calib_samples = 5
    memory_ops = 2
    forward_method = "batch_scores"
    steps_per_cycle = 2
    #: Steps behind the checkpoint every run starts from.  From a random
    #: init the IVF lists have no structure for the first cycles: the
    #: probe scans most of the catalogue, its cost swings 4x from cycle
    #: to cycle, and that one transient sets the run's peak RSS.
    warm_steps = 60
    #: Sampler seed of the measured cycles; the warm start used seed 0,
    #: which would replay the batches the checkpoint has already seen.
    stream_seed = 1

    def build(self) -> None:
        # A fixed input: dataset, warm start (~20 s to make), training
        # batches and served users do not depend on the seed, which picks
        # only the users checked against the oracle.  The IVF index caches
        # one panel per probe signature, ~600 MB that set this workload's
        # peak RSS, and which signatures occur is chaotic in the training
        # stream: seeded batches or served users moved the resident set
        # by 8 % and the op by 6 % between seeds, the code unchanged.
        s = self.shapes
        config = {"family": "pipeline", "shapes": s.name, "seed": 0,
                  "n": s.pipe_n, "clusters": s.pipe_clusters,
                  "degree": s.pipe_degree, "dim": s.dim,
                  "warm_steps": self.warm_steps}
        self.inputs = cached_inputs(self.work_dir, "pipeline", config,
                                    self._generate)
        self.out = self.inputs / "out"

    def _generate(self, path: pathlib.Path) -> None:
        from repro.data.synthetic import SyntheticConfig, generate_dataset
        from repro.train.checkpoint import save_checkpoint
        s = self.shapes
        dataset = generate_dataset(SyntheticConfig(
            num_users=s.pipe_n, num_items=s.pipe_n,
            num_clusters=s.pipe_clusters, mean_interactions=s.pipe_degree,
            train_noise=0.0, seed=0, name=self.name))
        np.save(path / "train_pairs.npy", dataset.train_pairs)
        np.save(path / "test_pairs.npy", dataset.test_pairs)
        self._start_training(self._new_model(dataset), dataset, "dense", 0)
        for _ in range(self.warm_steps):
            self.trainer.train_step(next(self.stream))
        save_checkpoint(self.model, path / "warm_start.npz")
        self.teardown()

    def _new_model(self, dataset):
        from repro.models.lightgcn import LightGCN
        return LightGCN(dataset, dim=self.shapes.dim, rng=0)

    def setup(self) -> None:
        from repro.data.dataset import InteractionDataset
        from repro.eval.evaluator import Evaluator
        from repro.train.checkpoint import load_checkpoint
        s = self.shapes
        self.dataset = self._timed("data.source.open_ms", lambda:
                                   InteractionDataset(
            s.pipe_n, s.pipe_n, np.load(self.inputs / "train_pairs.npy"),
            np.load(self.inputs / "test_pairs.npy"), name=self.name))
        model = self._new_model(self.dataset)
        load_checkpoint(model, self.inputs / "warm_start.npz")
        self._start_training(model, self.dataset, "dense", self.stream_seed)
        self.evaluator = Evaluator(self.dataset, ks=(K,))
        self.serve_users = np.random.default_rng(0).choice(
            s.pipe_n, size=s.pipe_serve_users, replace=False)
        self.ndcg20: list[float] = []
        self.recall20: list[float] = []
        self.scored_frac: list[float] = []

    def teardown(self) -> None:
        self.trainer = self.model = self.stream = None
        self.dataset = self.evaluator = None

    def open_checks(self) -> None:
        from repro.obs.metrics import get_registry
        self.candidates = get_registry().counter(
            "ann.ivf.candidates", "candidate score slots assembled")

    def op(self, i: int):
        from repro.ann import build_ann_index
        from repro.serve import ExactTopKIndex, export_snapshot
        s, rec = self.shapes, self.rec
        for _ in range(self.steps_per_cycle):
            self._train_step()
        with rec.span("eval.evaluate"):
            ndcg = self.evaluator.evaluate(self.model).metrics[f"ndcg@{K}"]
        with rec.span("serve.snapshot.export"):
            snapshot = export_snapshot(self.model, self.dataset,
                                       self.out / "snapshot",
                                       created_unix=CREATED_UNIX)
        with rec.span("ann.build"):
            ann = build_ann_index(snapshot, self.out / "ann", nlist=s.nlist,
                                  default_nprobe=s.nprobe, seed=0)
        with rec.span("serve.index.topk"):
            exact = ExactTopKIndex(snapshot).topk(self.serve_users, k=K)
        before = self.candidates.value
        with rec.span("ann.topk"):
            approx = ann.topk(self.serve_users, k=K)
        self.scored_frac.append((self.candidates.value - before)
                                / (len(self.serve_users) * s.pipe_n))
        return ndcg, snapshot, exact, approx

    def check(self, i: int, result) -> bool:
        ndcg, snapshot, exact, approx = result
        if i == 0:
            self.first_timed_ndcg20 = ndcg
        self.ndcg20.append(ndcg)
        hits = [len(np.intersect1d(a, b)) for a, b in
                zip(exact.items, approx.items)]
        self.recall20.append(sum(hits) / (K * len(hits)))
        oracle = Oracle(snapshot.users, snapshot.items, snapshot.scoring)
        rows = np.random.default_rng((self.seed, i + 1000)).choice(
            len(self.serve_users), size=2, replace=False)
        exact_ok = all(oracle.matches(
            exact.items[row], exact.scores[row], self.serve_users[row],
            self.dataset.train_items_by_user[self.serve_users[row]], K)
            for row in rows)
        return (exact_ok and ndcg >= self.shapes.ndcg20_floor
                and self.recall20[-1] >= self.shapes.recall20_floor)

    def install_trace(self) -> None:
        import repro.eval.evaluator
        import repro.eval.metrics
        import repro.serve.index
        super().install_trace()
        rec = self.rec
        rec.patch(self.model, "propagate", "graph.propagate")
        rec.patch(repro.eval.metrics, "rank_items", "eval.rank_items")
        rec.patch(repro.eval.evaluator, "mask_seen_items", "eval.mask_seen")
        rec.patch(repro.serve.index, "panel_scores",
                  "serve.index.panel_scores")

    def finish(self) -> None:
        # No falling-loss check here: the checkpoint carries no optimizer
        # state, and Adam's first steps from zero moments move every
        # coordinate by the full learning rate, so loss and NDCG dip
        # before they recover.  The dip is deterministic, hence the pin.
        self.end_checks.append((
            "every loss finite", all(map(math.isfinite, self.losses))))
        pinned = self.shapes.pinned_ndcg20
        self.end_checks.append((
            f"NDCG@{K} of the first timed cycle within 0.005 of {pinned}",
            abs(self.first_timed_ndcg20 - pinned) <= 0.005))

    def layer_metrics(self, inclusive, own) -> dict:
        out = super().layer_metrics(inclusive, own)
        out.update({
            "graph.propagate_p50_ms": median_of(inclusive, "graph.propagate"),
            "eval.evaluate_p50_ms": median_of(inclusive, "eval.evaluate"),
            "eval.ndcg20": self.ndcg20[-1],
            "serve.snapshot.export_p50_ms":
                median_of(inclusive, "serve.snapshot.export"),
            "serve.snapshot.bytes": float(_dir_bytes(self.out / "snapshot")),
            "ann.build_p50_ms": median_of(inclusive, "ann.build"),
            "ann.topk_p50_ms": median_of(inclusive, "ann.topk"),
            "ann.recall20": statistics.median(self.recall20),
            "ann.scored_frac": statistics.median(self.scored_frac),
            "serve.index.topk_p50_ms": median_of(inclusive,
                                                 "serve.index.topk"),
            "serve.index.panel_scores_p50_ms":
                median_of(inclusive, "serve.index.panel_scores"),
        })
        return out

    def probes(self) -> dict:
        from repro.eval.masking import seen_items_csr
        return self.rank_mask_probe(self.shapes.pipe_n, *seen_items_csr(
            self.dataset.train_items_by_user[:self.shapes.probe_rows]))


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def scale_inputs(work_dir: pathlib.Path, shapes: Shapes,
                 seed: int) -> pathlib.Path:
    """Shards, Xavier MF tables and a 4-item-shard snapshot of one seed."""
    config = {"family": "scale", "shapes": shapes.name, "seed": seed,
              "n": shapes.scale_n, "clusters": shapes.scale_clusters,
              "dim": shapes.dim, "item_shards": 4}

    def generate(path: pathlib.Path) -> None:
        from repro.data.synthetic import (SCALE_PRESETS,
                                          generate_scale_shards)
        from repro.serve import export_sharded_source_snapshot
        from repro.train.outofcore import (ITEM_TABLE, USER_TABLE,
                                           init_mmap_mf_tables)
        scale = dataclasses.replace(
            SCALE_PRESETS["scale-100k"], num_users=shapes.scale_n,
            num_items=shapes.scale_n, num_clusters=shapes.scale_clusters,
            seed=seed, name=f"scale-{shapes.name}")
        source = generate_scale_shards(scale, path / "shards")
        init_mmap_mf_tables(path / "tables", source.num_users,
                            source.num_items, shapes.dim, rng=seed)
        export_sharded_source_snapshot(
            np.load(path / "tables" / USER_TABLE, mmap_mode="r"),
            np.load(path / "tables" / ITEM_TABLE, mmap_mode="r"),
            source, path / "snapshot", shards=4, created_unix=CREATED_UNIX)
    return cached_inputs(work_dir, "scale", config, generate)


class _ServeMixin:
    """Shared by the two workloads over the sharded 100k snapshot."""

    def build(self) -> None:
        self.inputs = scale_inputs(self.work_dir, self.shapes, self.seed)

    def _open_service(self, cache_size: int, workers: int | None) -> None:
        from repro.serve import (ShardedRecommendationService,
                                 load_sharded_snapshot)
        snapshot = self._timed("serve.snapshot.load_ms", lambda:
                               load_sharded_snapshot(self.inputs / "snapshot"))
        self.service = ShardedRecommendationService(
            snapshot, cache_size=cache_size, workers=workers)
        self.num_users = snapshot.manifest.num_users
        self.rng = np.random.default_rng((self.seed, 1))

    def open_checks(self) -> None:
        """An oracle over the inputs the snapshot was exported *from*."""
        from repro.data.source import ShardedInteractionSource
        from repro.train.outofcore import ITEM_TABLE, USER_TABLE
        tables = self.inputs / "tables"
        self.oracle = Oracle(np.load(tables / USER_TABLE, mmap_mode="r"),
                             np.load(tables / ITEM_TABLE, mmap_mode="r"),
                             self.service.snapshot.scoring)
        self.source = ShardedInteractionSource(self.inputs / "shards")

    def teardown(self) -> None:
        self.service.index.close()
        self.service = None

    def _check_recommendations(self, i: int, users, recs) -> bool:
        if len(recs) != len(users) or any(r.degraded for r in recs):
            return False
        rows = np.random.default_rng((self.seed, i + 1000)).choice(
            len(users), size=2, replace=False)
        for row in rows:
            user = int(users[row])
            _, seen = self.source.train_csr(user, user + 1)
            if recs[row].user_id != user or not self.oracle.matches(
                    recs[row].items, recs[row].scores, user, seen, K):
                return False
        return True

    def install_trace(self) -> None:
        import repro.serve.shard
        rec, index = self.rec, self.service.index
        rec.patch(index, "topk", "serve.router.topk")
        rec.patch(index.snapshot, "gather_user_rows", "serve.shard.gather")
        rec.patch(index.snapshot, "gather_seen", "serve.shard.gather")
        for shard_index in index.shard_indexes:
            rec.patch(shard_index, "partial_topk", "serve.shard.partial_topk")
        rec.patch(repro.serve.shard, "panel_scores", "serve.shard.score")
        rec.patch(repro.serve.shard, "mask_seen_items", "serve.shard.mask")
        rec.patch(repro.serve.shard, "rank_items", "serve.shard.rank")

    def layer_metrics(self, inclusive: dict, own: dict) -> dict:
        partial = median_of(inclusive, "serve.shard.partial_topk")
        topk = median_of(inclusive, "serve.router.topk")
        stats = self.service.stats
        served = stats.cache_hits + stats.cache_misses
        return {
            "serve.snapshot.bytes":
                float(_dir_bytes(self.inputs / "snapshot")),
            "serve.shard.gather_p50_ms":
                median_of(inclusive, "serve.shard.gather"),
            "serve.shard.partial_topk_p50_ms": partial,
            "serve.shard.score_frac": (
                median_of(inclusive, "serve.shard.score") / partial
                if partial else 0.0),
            "serve.shard.rank_frac": (
                median_of(inclusive, "serve.shard.rank") / partial
                if partial else 0.0),
            "serve.router.topk_p50_ms": topk,
            "serve.router.merge_p50_ms":
                median_of(own, "serve.router.topk"),
            "serve.router.fanout_speedup": partial / topk if topk else 0.0,
            "serve.service.overhead_p50_ms":
                median_of(own, "serve.service.recommend"),
            "serve.service.cache_hit_frac":
                stats.cache_hits / served if served else 0.0,
        }

class ServeBatch(_ServeMixin, Workload):
    name = "serve-batch-100k"
    why = ("catalogue-scale exact retrieval with no cache and no runtime, so "
           "serve.shard does ~99 % of the work: the cliff ROADMAP item 2 "
           "attacks")
    nominal_op_ms = 185.0
    calib_every = 2

    def setup(self) -> None:
        # default fan-out: one worker per core, up to the shard count
        self._open_service(cache_size=0, workers=None)

    def before_op(self, i: int) -> None:
        self.users = self.rng.choice(
            self.num_users, size=self.shapes.serve_batch, replace=False)

    def op(self, i: int):
        with self.rec.span("serve.service.recommend"):
            return self.service.recommend(self.users, k=K)

    def check(self, i: int, result) -> bool:
        return self._check_recommendations(i, self.users, result)


class ServeOnline(_ServeMixin, Workload):
    name = "serve-online-100k"
    why = ("single-user requests through cache, admission and micro-"
           "batching: serve.service and serve.runtime overhead matters here "
           "and is invisible in serve-batch-100k")
    nominal_op_ms = 210.0
    calib_every = 2
    zipf_exponent = 1.1

    def setup(self) -> None:
        from repro.serve import RuntimeConfig, ServingRuntime
        # workers pinned to 1, so a fan-out change predicts no change here
        self._open_service(cache_size=self.shapes.cache, workers=1)
        s = self.shapes
        # slo_ms huge and initial == max: the batch controller sits at its
        # ceiling instead of oscillating on timing feedback.
        self.runtime = ServingRuntime(self.service, RuntimeConfig(
            slo_ms=1e9, initial_batch=s.runtime_batch,
            max_batch=s.runtime_batch, max_queue=max(1024, 2 * s.burst)))
        self.by_rank = self.rng.permutation(self.num_users)
        weights = np.arange(1, self.num_users + 1) ** -self.zipf_exponent
        self.rank_cdf = np.cumsum(weights / weights.sum())
        self.queue_ms: list[float] = []
        self.service_ms: list[float] = []
        self.overhead_ms: list[float] = []

    def teardown(self) -> None:
        self.runtime.stop()
        self.runtime = None
        super().teardown()

    def before_op(self, i: int) -> None:
        ranks = np.searchsorted(self.rank_cdf, self.rng.random(
            self.shapes.burst), side="right")
        self.users = self.by_rank[np.minimum(ranks, self.num_users - 1)]
        self.sweep_s_before = self.service.stats.sweep_s

    def op(self, i: int):
        # The whole burst is admitted before the worker starts, so it is
        # drained in full micro-batches.  With the worker already running,
        # how many requests it finds queued when it first wakes is a race
        # with the submitting thread; the number of index sweeps, and the
        # op time with it, moved 11 % between runs of the same code.
        submit = self.runtime.submit
        handles = [submit(int(user), k=K) for user in self.users]
        self.runtime.start()
        return handles, [h.result(timeout=60.0) for h in handles]

    def after_op(self, i: int) -> None:
        # Stopped before the harness calibrates: the idle poller alone
        # would inflate the calibration kernel.
        self.runtime.stop()

    def check(self, i: int, result) -> bool:
        handles, recs = result
        if self.rec.enabled:
            self.queue_ms.extend(h.queue_ms for h in handles)
            self.service_ms.extend(h.service_ms for h in handles)
            burst_ms = 1e3 * (max(h.finished_at for h in handles)
                              - min(h.enqueued_at for h in handles))
            sweep_ms = 1e3 * (self.service.stats.sweep_s
                              - self.sweep_s_before)
            self.overhead_ms.append(burst_ms - sweep_ms)
        return self._check_recommendations(i, self.users, recs)

    def install_trace(self) -> None:
        super().install_trace()
        self.rec.patch(self.service, "recommend", "serve.service.recommend")

    def layer_metrics(self, inclusive, own) -> dict:
        out = super().layer_metrics(inclusive, own)
        stats = self.runtime.stats
        offered = stats.admitted + stats.rejected
        out.update({
            "serve.runtime.queue_p50_ms": statistics.median(self.queue_ms),
            "serve.runtime.service_p50_ms":
                statistics.median(self.service_ms),
            "serve.runtime.mean_batch": stats.mean_batch,
            "serve.runtime.overhead_p50_ms":
                statistics.median(self.overhead_ms),
            "serve.runtime.shed_frac":
                stats.rejected / offered if offered else 0.0,
        })
        return out

    def probes(self) -> dict:
        """Also the hit path: a batch of users that are all in the cache."""
        out = super().probes()
        head = self.by_rank[:self.shapes.serve_batch]
        self.service.recommend(head, k=K)
        samples = []
        for _ in range(15):
            start = self.clock()
            recs = self.service.recommend(head, k=K)
            samples.append(1e6 * (self.clock() - start) / len(head))
        if all(r.from_cache for r in recs):
            out["serve.service.hit_path_us_per_user"] = \
                statistics.median(samples)
        return out


WORKLOADS = {w.name: w for w in
             (Pipeline, TrainSparse, ServeBatch, ServeOnline)}
