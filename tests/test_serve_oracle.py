"""Topology matrix against an independent brute-force oracle.

The serve parity pins are pairwise (sharded == unsharded, ANN at full
probe == exact, chunked == per-user).  This anchors them: every cell
of topology × scoring × ``filter_seen`` must equal a
reference that shares no code with ``repro.serve`` — dense float64
scores and a Python sort by ``(score desc, id asc)``.
"""

import numpy as np
import pytest

from repro.data import load_dataset
from repro.models import MF
from repro.serve import (ExactTopKIndex, ShardedTopKIndex,
                         export_sharded_snapshot, export_snapshot)
from repro.serve.index import ROW_BLOCK, row_blocks

K = 30  # larger than one of three item shards (80 items -> 26/27 rows)
#: chunk sizes on both sides of every row-block edge (ROW_BLOCK = 64),
#: and of the m <= 9 row counts where BLAS switches kernels
EDGE_CHUNKS = (1, 9, 10, 63, 64, 65, 127, 128, 129, 255, 256, 300)


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
    indexes = {"unsharded": ExactTopKIndex(snapshot)}
    for n, snap in sharded.items():
        indexes[f"{n} item shards"] = ShardedTopKIndex(snap, workers=1)
    for filter_seen in (True, False):
        for name, index in indexes.items():
            result = index.topk(user_ids, k=K, filter_seen=filter_seen)
            cell = f"{name} / {scoring} / seen={filter_seen}"
            for row, (items, scores) in enumerate(want[filter_seen]):
                assert result.items[row].tolist() == items, cell
                np.testing.assert_allclose(result.scores[row], scores,
                                           rtol=0, atol=1e-9, err_msg=cell)


def test_row_blocks_span_the_chunk_in_64_to_127_rows():
    assert ROW_BLOCK == 64
    assert row_blocks(0) == []
    for n in (*EDGE_CHUNKS, 191, 192, 1000):
        blocks = row_blocks(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        assert sizes == [n] if n < 2 * ROW_BLOCK else all(
            ROW_BLOCK <= size < 2 * ROW_BLOCK for size in sizes), n


@pytest.fixture(scope="module")
def yelp_small():
    """650 items: one full 512-row panel plus a zero-padded one."""
    return load_dataset("yelp2018-small")


@pytest.mark.parametrize("scoring", ["inner", "cosine", "euclidean"])
def test_row_block_edges_match_the_oracle(scoring, yelp_small, tmp_path):
    """A chunk of every edge size scores to the same bits unsharded and
    over three item shards, and ranks exactly as the oracle does."""
    dataset = yelp_small
    model = MF(dataset.num_users, dataset.num_items, dim=8, rng=3)
    model.test_scoring = scoring
    snapshot = export_snapshot(model, dataset, tmp_path / "flat")
    sharded = export_sharded_snapshot(model, dataset, tmp_path / "item-3",
                                      shards=3, partition_by="item")
    user_table, item_table = model.embeddings()
    every_user = np.arange(dataset.num_users, dtype=np.int64)
    want = reference_topk(user_table, item_table, scoring,
                          dataset.train_items_by_user, every_user, K, True)
    requests = np.random.default_rng(0).integers(
        0, dataset.num_users, size=max(EDGE_CHUNKS))
    for chunk in EDGE_CHUNKS:
        user_ids = requests[:chunk]
        exact = ExactTopKIndex(snapshot, chunk_users=chunk).topk(user_ids,
                                                                 k=K)
        routed = ShardedTopKIndex(sharded, chunk_users=chunk,
                                  workers=1).topk(user_ids, k=K)
        cell = f"{scoring} / chunk {chunk}"
        np.testing.assert_array_equal(routed.items, exact.items, cell)
        assert routed.scores.tobytes() == exact.scores.tobytes(), cell
        for row, user in enumerate(user_ids):
            items, scores = want[user]
            assert exact.items[row].tolist() == items, cell
            np.testing.assert_allclose(exact.scores[row], scores, rtol=0,
                                       atol=1e-9, err_msg=cell)
