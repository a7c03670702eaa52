"""Scorer × topology matrix against an independent brute-force oracle.

The serve parity pins are pairwise (sharded == unsharded, ANN at full
probe == exact, chunked == per-user).  This anchors them: every exact
cell of scorer × topology × scoring × ``filter_seen`` must equal a
reference that shares no code with ``repro.serve`` — dense float64
scores and a Python sort by ``(score desc, id asc)``.
"""

import numpy as np
import pytest

from repro.models import MF
from repro.serve import (ShardedTopKIndex, build_index,
                         export_sharded_snapshot, export_snapshot)

K = 30  # larger than one of three item shards (80 items -> 26/27 rows)


def reference_topk(users, items, scoring, seen_by_user, user_ids, k,
                   filter_seen):
    """Brute-force ``(items, scores)`` rows, one Python sort per user."""
    users = np.asarray(users, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    if scoring == "cosine":
        users = users / (np.linalg.norm(users, axis=1, keepdims=True) + 1e-12)
        items = items / (np.linalg.norm(items, axis=1, keepdims=True) + 1e-12)
    rows = []
    for user in user_ids:
        if scoring == "euclidean":
            scores = -((users[user] - items) ** 2).sum(axis=1)
        else:
            scores = (items * users[user]).sum(axis=1)
        banned = set(seen_by_user[user].tolist()) if filter_seen else set()
        ranked = sorted((i for i in range(len(items)) if i not in banned),
                        key=lambda i: (-scores[i], i))[:k]
        rows.append((ranked, [scores[i] for i in ranked]))
    return rows


@pytest.mark.parametrize("scoring", ["inner", "cosine", "euclidean"])
def test_every_cell_matches_the_oracle(scoring, tiny_dataset, tmp_path):
    model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8, rng=3)
    model.test_scoring = scoring
    snapshot = export_snapshot(model, tiny_dataset, tmp_path / "flat")
    sharded = {n: export_sharded_snapshot(model, tiny_dataset,
                                          tmp_path / f"item-{n}", shards=n,
                                          partition_by="item")
               for n in (1, 3)}
    assert K > min(len(shard) for shard in sharded[3].item_shards)
    # out of order, with duplicates
    user_ids = np.array([7, 0, 59, 7, 31, 0, 12], dtype=np.int64)
    user_table, item_table = model.embeddings()
    want = {filter_seen: reference_topk(
        user_table, item_table, scoring, tiny_dataset.train_items_by_user,
        user_ids, K, filter_seen) for filter_seen in (True, False)}
    for kind in ("exact", "quantized"):
        indexes = {"unsharded": build_index(snapshot, kind)}
        for n, snap in sharded.items():
            indexes[f"{n} item shards"] = ShardedTopKIndex(snap, kind=kind,
                                                           workers=1)
        for filter_seen in (True, False):
            got = {name: index.topk(user_ids, k=K, filter_seen=filter_seen)
                   for name, index in indexes.items()}
            for name, result in got.items():
                cell = f"{kind} / {name} / {scoring} / seen={filter_seen}"
                if kind == "quantized":
                    # int8 is approximate against the oracle, but every
                    # topology must reproduce the unsharded bits
                    np.testing.assert_array_equal(
                        result.items, got["unsharded"].items, err_msg=cell)
                    np.testing.assert_array_equal(
                        result.scores, got["unsharded"].scores, err_msg=cell)
                    continue
                for row, (items, scores) in enumerate(want[filter_seen]):
                    assert result.items[row].tolist() == items, cell
                    np.testing.assert_allclose(result.scores[row], scores,
                                               rtol=0, atol=1e-9,
                                               err_msg=cell)
