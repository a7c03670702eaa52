#!/usr/bin/env python
"""Same answers, checked: a fingerprint of what the serving stack returns.

Writes ``{entry: sha256}`` over one fixed, seeded matrix, so two
commits can be compared without committing any hashes (bit differences
between machines do not matter; both runs happen on one machine):

* models — MF and LightGCN trained briefly with BSL, plus ``mf-ties``,
  the MF model with item rows tied in groups (``row j = row j % 5``) so
  every list crosses exact score ties inside and across shards — on
  the ``tiny`` and ``yelp2018-small`` presets;
* ``<dataset>/<model>/snapshot-<layout>/<file>`` — the bytes of every
  file of the 1×1 and the 3-shard export, ``created_unix`` pinned;
* ``<dataset>/<model>/<layout>/<path>/chunk=<c>/k=<k>/seen=<0|1>/items``
  (and ``/scores``) — the lists and score bytes for every user, through
  ``ExactTopKIndex`` (1×1 only), the ``ShardedTopKIndex`` router and
  ``RecommendationService`` (``max_batch`` = chunk, no cache), at chunk
  sizes 1, 7 and 256, k of 5 and 20, ``filter_seen`` on and off;
* ``<dataset>/<model>/1x1/ivf-full/...`` — the IVF index at full probe
  (``nprobe == nlist``), ``.../1x1/ivf-probe<p>/...`` the same index at
  ``nprobe`` 1 and 2, where seen items are masked in a subset of the
  lists, each at k of 5 and 20, ``filter_seen`` on and off, and
  ``<dataset>/<model>/ivf-index/<file>`` the bytes of its directory;
* ``<dataset>/<model>/eval/...`` — the evaluator at cutoffs 5 and 20
  with all five metrics, in chunks of 8 users split over the cores:
  every per-user metric array (``per-user/<metric>@<k>``), the test
  users' masked top-20 lists (``top-items/k=20``), ``group_ndcg``
  (``group-ndcg/k=20``) and ``recommendation_counts``
  (``recommendation-counts/k=20``);
* ``tiny/train/<model>/<mode>/...`` — a fixed six-step BSL stream
  through ``Trainer.train_step`` for MF (cosine) and CML (euclidean)
  in both ``grad_mode``s and LightGCN (dense): each step's loss
  (``step=<i>/loss``), then every parameter's bytes (``param/<name>``)
  and its Adam moments (``adam-m/<name>``, ``adam-v/<name>``);
* ``split-8k/train/mf/<dense|sparse>/...`` — the same for MF at dim 64
  on a generated 4096 × 8192 set at batch 1024, where the optimizer's
  and the fused kernel's fan-outs split over the cores (no ``tiny``
  step is large enough to).
* ``split-8k/<mf|mf-ties>/...`` — on that set, an untrained MF at dim
  64 and its tied variant, wide enough that every item shard of the
  3×3 export (2730+ items) and every evaluator chunk takes the
  group-maxima selection: the evaluator entries (chunks of 256 users),
  and the lists of a fixed sample of 512 users through every path at
  chunk 256, k of 5 and 20, ``filter_seen`` on and off.

Usage::

    python scripts/answers.py --out FILE [--src DIR]
    python scripts/answers.py --compare BASE.json HEAD.json [--allowed NOTES]

``--src`` imports ``repro`` from another checkout's ``src`` (the
merge-base of a change, say), so one copy of this script measures both
commits.  ``--compare`` prints every entry that differs, or exists on
one side only, and exits 1 unless each is named by an ``ANSWERS
CHANGED: <pattern> [<pattern> ...] — <reason>`` line of ``--allowed``
(patterns are shell globs over entry names; a line without a reason
names nothing).  CI passes the lines a change adds to ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import pathlib
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

DATASETS = ("tiny", "yelp2018-small")
MODELS = ("mf", "lightgcn", "mf-ties")
LAYOUTS = {"1x1": 1, "3x3": 3}
CHUNKS = (1, 7, 256)
KS = (5, 20)
CREATED_UNIX = 0.0
#: tied item rows of ``mf-ties``: row ``j`` becomes row ``j % TIE_GROUPS``
TIE_GROUPS = 5
#: inverted lists of the IVF index, and the partial probe counts served
#: besides the full probe
NLIST = 4
PARTIAL_PROBES = (1, 2)
#: the evaluator's cutoffs, metrics and users per chunk (small, so even
#: ``tiny``'s test users make chunks for every core)
EVAL_KS = (5, 20)
EVAL_METRICS = ("recall", "ndcg", "precision", "hit", "map")
EVAL_BATCH = 8
#: the training trajectories: model -> ``grad_mode`` runs, over one fixed
#: stream
TRAIN_MODELS = {"mf": ("dense", "sparse"), "cml": ("dense", "sparse"),
                "lightgcn": ("dense",)}
TRAIN_STEPS = 6
TRAIN_BATCH = 96
#: the trajectories on a generated set where the optimizer's item rows
#: (and a dense step's user rows) and the fused kernel's slot, norm and
#: item-gradient loops split over two or more cores (blocks of >= 1024
#: optimizer rows, 2048 distinct item rows, 256 batch rows): model -> runs
SPLIT_MODELS = {"mf": ("dense", "sparse")}
SPLIT_BATCH = 1024
SPLIT_DIM = 64
SPLIT_SET = dict(num_users=4096, num_items=8192, num_clusters=8,
                 mean_interactions=6.0, train_noise=0.0, seed=0,
                 name="split-8k")
#: the wide entries: models on :data:`SPLIT_SET`, users sampled, serving
#: chunks and evaluator chunks
WIDE_MODELS = ("mf", "mf-ties")
WIDE_USERS = 512
WIDE_CHUNKS = (256,)
WIDE_EVAL_BATCH = 256
MARKER = "ANSWERS CHANGED:"


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype}{array.shape}".encode())
    digest.update(memoryview(array).cast("B"))
    return digest.hexdigest()


def _files(prefix: str, root: pathlib.Path) -> dict[str, str]:
    """``{prefix/relative path: sha256}`` over every file under ``root``."""
    return {f"{prefix}/{path.relative_to(root).as_posix()}":
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _lists(prefix: str, items, scores) -> dict[str, str]:
    return {f"{prefix}/items": _digest(items),
            f"{prefix}/scores": _digest(scores)}


def _trained(name: str, dataset):
    from repro.losses import get_loss
    from repro.models import get_model
    from repro.train import TrainConfig, train_model
    model = get_model("mf" if name == "mf-ties" else name, dataset, dim=16,
                      rng=0)
    train_model(model, get_loss("bsl"), dataset,
                TrainConfig(epochs=2, batch_size=256, n_negatives=16,
                            eval_every=0, patience=0, seed=0))
    return _tied(model) if name == "mf-ties" else model


def _tied(model):
    """``model`` with item row ``j`` set to row ``j % TIE_GROUPS``."""
    table = model.item_embedding.weight.data
    table[:] = table[np.arange(len(table)) % TIE_GROUPS]
    return model


def evaluations(model, dataset, base: str,
                batch_users: int = EVAL_BATCH) -> dict[str, str]:
    """The ``<base>/eval/...`` entries of ``model``, computed inside one
    :func:`~repro.tensor.parallel.scope` so the chunks of ``batch_users``
    split over the workers."""
    from repro.eval import Evaluator, group_ndcg
    from repro.eval.diversity import recommendation_counts
    from repro.tensor import parallel
    evaluator = Evaluator(dataset, ks=EVAL_KS, metric_names=EVAL_METRICS,
                          batch_users=batch_users)
    k = max(EVAL_KS)
    prefix = f"{base}/eval"
    with parallel.scope("answers"):
        out = {f"{prefix}/per-user/{key}": _digest(values) for key, values
               in evaluator.evaluate(model).per_user.items()}
        out[f"{prefix}/top-items/k={k}"] = _digest(
            evaluator.top_items(model, k))
        out[f"{prefix}/group-ndcg/k={k}"] = _digest(
            group_ndcg(model, dataset, k=k, batch_users=batch_users))
        out[f"{prefix}/recommendation-counts/k={k}"] = _digest(
            recommendation_counts(model, dataset, k=k,
                                  batch_users=batch_users))
    return out


def trajectories(dataset_name: str = "tiny") -> dict[str, str]:
    """Loss, parameter and Adam-moment bits of every
    :data:`TRAIN_MODELS` run over one fixed stream of
    :data:`TRAIN_STEPS` BSL batches."""
    from repro.data import load_dataset
    return _runs(load_dataset(dataset_name), dataset_name, TRAIN_MODELS,
                 TRAIN_BATCH, dim=16)


def split_trajectories() -> dict[str, str]:
    """:func:`trajectories` for :data:`SPLIT_MODELS` on the generated
    :data:`SPLIT_SET` at batch :data:`SPLIT_BATCH`: runs whose optimizer
    and fused-kernel fan-outs split, so the chunk rule and the hand-off
    to workers are in the bits (on a machine with two or more cores)."""
    return _runs(_split_set(), SPLIT_SET["name"], SPLIT_MODELS, SPLIT_BATCH,
                 dim=SPLIT_DIM)


def _split_set():
    from repro.data import SyntheticConfig, generate_dataset
    return generate_dataset(SyntheticConfig(**SPLIT_SET))


def _runs(dataset, dataset_name: str, models: dict, batch_size: int,
          dim: int) -> dict[str, str]:
    from repro.data.sampling import UniformNegativeSampler
    from repro.losses import get_loss
    from repro.models import get_model
    from repro.tensor import parallel
    from repro.train import TrainConfig, Trainer
    sampler = UniformNegativeSampler(dataset, n_negatives=16,
                                     batch_size=batch_size, rng=0)
    stream = [batch for _, batch in zip(range(TRAIN_STEPS), sampler.epoch())]
    out = {}
    for name, modes in models.items():
        for mode in modes:
            model = get_model(name, dataset, dim=dim, rng=0)
            trainer = Trainer(model, get_loss("bsl"), dataset, TrainConfig(
                epochs=1, batch_size=batch_size, n_negatives=16,
                grad_mode=mode, seed=0))
            prefix = f"{dataset_name}/train/{name}/{mode}"
            with parallel.scope("answers"):
                for step, batch in enumerate(stream):
                    out[f"{prefix}/step={step}/loss"] = _digest(
                        np.float64(trainer.train_step(batch)))
            optimizer = trainer.optimizer
            for i, (key, param) in enumerate(model.named_parameters()):
                out[f"{prefix}/param/{key}"] = _digest(param.data)
                out[f"{prefix}/adam-m/{key}"] = _digest(optimizer._m[i])
                out[f"{prefix}/adam-v/{key}"] = _digest(optimizer._v[i])
    return out


def _close(index) -> None:
    close = getattr(index, "close", None)
    if close is not None:
        close()


def _served(users, prefix: str, *, router, service, exact=None,
            chunks=CHUNKS) -> dict[str, str]:
    """Lists of every path, chunk size, k and ``filter_seen`` setting:
    the router over ``router``, a service over ``service`` and, when
    given, ``ExactTopKIndex`` over the 1×1 set ``exact``."""
    from repro.serve import (ExactTopKIndex, RecommendationService,
                             ShardedTopKIndex)
    out = {}
    for chunk in chunks:
        indexes = {"router": ShardedTopKIndex(router, chunk_users=chunk)}
        if exact is not None:
            indexes["exact"] = ExactTopKIndex(exact, chunk_users=chunk)
        front = RecommendationService(service, cache_size=0, max_batch=chunk)
        for k in KS:
            for seen in (True, False):
                tail = f"chunk={chunk}/k={k}/seen={int(seen)}"
                for path, index in indexes.items():
                    top = index.topk(users, k=k, filter_seen=seen)
                    out.update(_lists(f"{prefix}/{path}/{tail}", top.items,
                                      top.scores))
                recs = front.recommend(users, k=k, filter_seen=seen)
                out.update(_lists(f"{prefix}/service/{tail}",
                                  np.stack([r.items for r in recs]),
                                  np.stack([r.scores for r in recs])))
        for index in (*indexes.values(), front.index):
            _close(index)
    return out


def _wide_model(name: str, dataset):
    """An untrained MF of dim :data:`SPLIT_DIM`, tied for ``mf-ties``."""
    from repro.models import get_model
    model = get_model("mf", dataset, dim=SPLIT_DIM, rng=0)
    return _tied(model) if name == "mf-ties" else model


def wide_answers(models=WIDE_MODELS) -> dict[str, str]:
    """The ``split-8k/<model>/...`` entries of :data:`WIDE_MODELS`."""
    from repro.serve import export_sharded_snapshot, load_sharded_snapshot
    dataset = _split_set()
    users = np.sort(np.random.default_rng(0).choice(
        dataset.num_users, WIDE_USERS, replace=False))
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in models:
            model = _wide_model(name, dataset)
            base = f"{SPLIT_SET['name']}/{name}"
            out.update(evaluations(model, dataset, base, WIDE_EVAL_BATCH))
            for layout, shards in LAYOUTS.items():
                where = pathlib.Path(tmp) / base / layout
                written = export_sharded_snapshot(
                    model, dataset, where, shards=shards, model_name=name,
                    created_unix=CREATED_UNIX)
                out.update(_served(
                    users, f"{base}/{layout}",
                    router=load_sharded_snapshot(where), service=written,
                    exact=written if shards == 1 else None,
                    chunks=WIDE_CHUNKS))
    return out


def ivf_answers(snapshot, where: pathlib.Path, base: str) -> dict[str, str]:
    """The IVF entries of one 1×1 ``snapshot``: the bytes of the index
    directory built at ``where``, and every user's lists at full and at
    partial probe."""
    from repro.ann import IVFFlatIndex, build_ann_index
    full = build_ann_index(snapshot, where, nlist=NLIST,
                           default_nprobe=NLIST, seed=0)
    out = _files(f"{base}/ivf-index", where)
    users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
    paths = {"ivf-full": full, **{
        f"ivf-probe{p}": IVFFlatIndex(snapshot, full.data, nprobe=p)
        for p in PARTIAL_PROBES}}
    for path, index in paths.items():
        for k in KS:
            for seen in (True, False):
                top = index.topk(users, k=k, filter_seen=seen)
                out.update(_lists(f"{base}/1x1/{path}/k={k}/seen={int(seen)}",
                                  top.items, top.scores))
    return out


def answers(datasets=DATASETS, models=MODELS) -> dict[str, str]:
    """The ``{entry: sha256}`` fingerprint of the matrix in the module
    docstring, restricted to ``datasets`` × ``models``."""
    from repro.data import load_dataset
    from repro.serve import (export_sharded_snapshot, export_snapshot,
                             load_sharded_snapshot)
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for dataset_name in datasets:
            dataset = load_dataset(dataset_name)
            users = np.arange(dataset.num_users, dtype=np.int64)
            for name in models:
                model = _trained(name, dataset)
                base = f"{dataset_name}/{name}"
                out.update(evaluations(model, dataset, base))
                for layout, shards in LAYOUTS.items():
                    where = tmp / base / layout
                    if shards == 1:
                        written = export_snapshot(
                            model, dataset, where, model_name=name,
                            created_unix=CREATED_UNIX)
                    else:
                        written = export_sharded_snapshot(
                            model, dataset, where, shards=shards,
                            model_name=name, created_unix=CREATED_UNIX)
                    out.update(_files(f"{base}/snapshot-{layout}", where))
                    prefix = f"{base}/{layout}"
                    # The exact index and the service take the export's
                    # own return; the router the directory loaded back.
                    out.update(_served(
                        users, prefix, router=load_sharded_snapshot(where),
                        service=written,
                        exact=written if shards == 1 else None))
                    if shards == 1:
                        out.update(ivf_answers(written, tmp / base / "ivf",
                                               base))
    if "tiny" in datasets:
        out.update(trajectories("tiny"))
        out.update(split_trajectories())
        out.update(wide_answers([m for m in WIDE_MODELS if m in models]))
    return out


def allowed_patterns(notes: str) -> list[str]:
    """Entry patterns named by ``ANSWERS CHANGED:`` lines with a reason."""
    patterns = []
    for line in notes.splitlines():
        if MARKER not in line:
            continue
        named, _, reason = line.split(MARKER, 1)[1].partition(" — ")
        if reason.strip():
            patterns.extend(named.replace(",", " ").split())
    return patterns


def compare(base: dict, head: dict, notes: str = "") -> list[str]:
    """Changed entries (differing, or on one side only) that no
    ``ANSWERS CHANGED`` line of ``notes`` names."""
    patterns = allowed_patterns(notes)
    changed = sorted(key for key in base.keys() | head.keys()
                     if base.get(key) != head.get(key))
    for key in changed:
        print(f"changed: {key}")
    return [key for key in changed
            if not any(fnmatch.fnmatchcase(key, p) for p in patterns)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the fingerprint JSON here")
    parser.add_argument("--src", default=None,
                        help="import repro from this src directory")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="diff two fingerprint files")
    parser.add_argument("--allowed", default=None,
                        help="text whose ANSWERS CHANGED lines name the "
                             "entries allowed to differ")
    args = parser.parse_args(argv)
    if args.compare:
        base, head = (json.loads(pathlib.Path(p).read_text())
                      for p in args.compare)
        notes = (pathlib.Path(args.allowed).read_text()
                 if args.allowed else "")
        unexplained = compare(base, head, notes)
        for key in unexplained:
            print(f"not named under ANSWERS CHANGED: {key}")
        print(f"answers: {len(head)} entries, "
              f"{len(unexplained)} changed without a reason")
        return 1 if unexplained else 0
    if not args.out:
        parser.error("give --out FILE or --compare BASE HEAD")
    sys.path.insert(0, str(pathlib.Path(args.src or REPO_ROOT / "src")
                           .resolve()))
    import repro
    start = time.perf_counter()
    fingerprint = answers()
    pathlib.Path(args.out).write_text(
        json.dumps(fingerprint, indent=1, sort_keys=True) + "\n")
    print(f"answers: {len(fingerprint)} entries from "
          f"{pathlib.Path(repro.__file__).parent} in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
