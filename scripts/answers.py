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
  (``nprobe == nlist``) and the bytes of its directory.

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
#: inverted lists of the IVF index, probed all at once
NLIST = 4
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
    if name == "mf-ties":
        table = model.item_embedding.weight.data
        table[:] = table[np.arange(len(table)) % TIE_GROUPS]
    return model


def _close(index) -> None:
    close = getattr(index, "close", None)
    if close is not None:
        close()


def _served(users, prefix: str, *, router, service,
            exact=None) -> dict[str, str]:
    """Lists of every path, chunk size, k and ``filter_seen`` setting:
    the router over ``router``, a service over ``service`` and, when
    given, ``ExactTopKIndex`` over the 1×1 set ``exact``."""
    from repro.serve import (ExactTopKIndex, RecommendationService,
                             ShardedTopKIndex)
    out = {}
    for chunk in CHUNKS:
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


def answers(datasets=DATASETS, models=MODELS) -> dict[str, str]:
    """The ``{entry: sha256}`` fingerprint of the matrix in the module
    docstring, restricted to ``datasets`` × ``models``."""
    from repro.ann import build_ann_index
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
                        ivf = build_ann_index(written, tmp / base / "ivf",
                                              nlist=NLIST,
                                              default_nprobe=NLIST, seed=0)
                        out.update(_files(f"{base}/ivf-index",
                                          tmp / base / "ivf"))
                        for k in KS:
                            for seen in (True, False):
                                top = ivf.topk(users, k=k, filter_seen=seen)
                                out.update(_lists(
                                    f"{prefix}/ivf-full/k={k}/seen="
                                    f"{int(seen)}", top.items, top.scores))
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
