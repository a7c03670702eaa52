"""Topology matrix against an independent brute-force oracle.

The serve parity pins are pairwise (sharded == unsharded, ANN at full
probe == exact, chunked == per-user).  This anchors them: every cell
of topology × scoring × ``filter_seen`` must equal a
reference that shares no code with ``repro.serve`` — dense float64
scores and a Python sort by ``(score desc, id asc)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.index
from repro.data import InteractionDataset, load_dataset
from repro.models import MF
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import (ExactTopKIndex, ShardedTopKIndex,
                         export_sharded_snapshot, export_snapshot)
from repro.eval.masking import mask_seen_items
from repro.eval.metrics import rank_items
from repro.serve.index import (PANEL_WIDTH, ROW_BLOCK, PanelScorer,
                               panel_scores, row_blocks, score_margin,
                               scoring_ready_users)

K = 30  # larger than one of three item shards (80 items -> 26/27 rows)
#: chunk sizes on both sides of every row-block edge (ROW_BLOCK = 64),
#: and of the m <= 9 row counts where BLAS switches kernels
EDGE_CHUNKS = (1, 9, 10, 63, 64, 65, 127, 128, 129, 255, 256, 300)


def reference_topk(users, items, scoring, seen_by_user, user_ids, k,
                   filter_seen):
    """Brute-force ``(items, scores)`` rows, one Python sort per user.

    Seen items score ``-inf`` (so a user with fewer than ``k`` unseen
    items gets their smallest ids last) and NaN ranks below ``-inf``.
    """
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
        if filter_seen:
            scores[seen_by_user[user]] = -np.inf
        nan = np.isnan(scores)
        ranked = sorted(range(len(items)), key=lambda i: (
            nan[i], 0.0 if nan[i] else -scores[i], i))[:k]
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


# ----------------------------------------------------------------------
# Hostile inputs for the two-pass scorer: float32 first pass, certified
# float64 re-score.  Every case must still give the oracle's lists, and
# the same bits unsharded and over three item shards.
# ----------------------------------------------------------------------
HOSTILE_K = 10
HOSTILE_FILLERS = 3072
HOSTILE_CASES = ("near-ties", "duplicate-ties", "few-unseen",
                 "k-covers-catalogue", "float32-overflow",
                 "float32-underflow", "nan-row")


def hostile_tables(case, seed=None):
    """``(users, items, seen_by_user, k)`` for one hostile case.

    The base geometry puts every user (scales 1.7–3.9) along one axis,
    each tilted by ~5e-8, and the items in three tiers that rank the
    same way under inner, cosine and euclidean scoring: 7 winners, a
    cluster straddling rank ``k`` whose scores differ by ~1e-8 (two of
    its rows by 1e-12) — below float32's resolution, so its first pass
    orders the cluster at random — and :data:`HOSTILE_FILLERS` fillers
    far below, so that every item shard of a 3-shard export holds at
    least 1024 items and takes the group-maxima threshold.
    """
    rng = np.random.default_rng(HOSTILE_CASES.index(case) if seed is None
                                else seed)
    n_users, dim = 12, 8
    axis = rng.standard_normal(dim)
    axis /= np.linalg.norm(axis)

    def off_axis(n, length):
        vectors = rng.standard_normal((n, dim))
        vectors -= np.outer(vectors @ axis, axis)
        return length * vectors / np.linalg.norm(vectors, axis=1,
                                                 keepdims=True)

    users = np.linspace(1.7, 3.9, n_users)[:, None] * (
        axis + 5e-8 * rng.standard_normal((n_users, dim)))
    winners = (1.2 + 0.05 * np.arange(7))[:, None] * axis + off_axis(7, 0.3)
    if case == "duplicate-ties":
        # 20 identical rows across rank k: a tie flood, every one of
        # them a candidate
        cluster = np.tile(axis + off_axis(1, 1.0), (20, 1))
    else:
        cluster = axis + off_axis(6, 1.0)
        cluster[1] = cluster[0] + 1e-12 * axis
    fillers = 0.3 * axis + off_axis(HOSTILE_FILLERS, 1.5)
    items = np.vstack([winners, cluster, fillers])
    n_items = len(items)
    first_filler = n_items - len(fillers)
    seen_by_user = [rng.choice(np.arange(first_filler, n_items), 5,
                               replace=False) for _ in range(n_users)]
    k = HOSTILE_K
    if case == "few-unseen":
        # user 0 has seen all but three items
        seen_by_user[0] = np.delete(np.arange(n_items), [3, 9, 40])
    elif case == "k-covers-catalogue":
        k = n_items + 5
    elif case == "float32-overflow":
        users, items = users * 1e20, items * 1e20
    elif case == "float32-underflow":
        users, items = users * 1e-25, items * 1e-25
    elif case == "nan-row":
        items[50] = np.nan
    return users, items, [np.sort(s) for s in seen_by_user], k


def hostile_indexes(case, scoring, tmp_path, seed=None):
    """``(tables, unsharded index, 3-item-shard router)`` for one case."""
    users, items, seen_by_user, k = hostile_tables(case, seed)
    pairs = np.array([(u, i) for u, seen in enumerate(seen_by_user)
                      for i in seen], dtype=np.int64)
    dataset = InteractionDataset(len(users), len(items), pairs,
                                 np.empty((0, 2), dtype=np.int64))
    model = MF(len(users), len(items), dim=users.shape[1],
               tables=(users, items))
    model.test_scoring = scoring
    flat = export_snapshot(model, dataset, tmp_path / f"{case}-{seed}-flat")
    sharded = export_sharded_snapshot(
        model, dataset, tmp_path / f"{case}-{seed}-item-3", shards=3,
        partition_by="item")
    assert min(len(shard) for shard in sharded.item_shards) >= 1024
    return ((users, items, seen_by_user, k), ExactTopKIndex(flat),
            ShardedTopKIndex(sharded, workers=1))


def assert_hostile_parity(case, scoring, tmp_path, seed=None):
    (users, items, seen_by_user, k), exact_index, router = hostile_indexes(
        case, scoring, tmp_path, seed)
    user_ids = np.arange(len(users))
    for filter_seen in (True, False):
        cell = f"{case} / {scoring} / seen={filter_seen}"
        want = reference_topk(users, items, scoring, seen_by_user, user_ids,
                              k, filter_seen)
        exact = exact_index.topk(user_ids, k=k, filter_seen=filter_seen)
        routed = router.topk(user_ids, k=k, filter_seen=filter_seen)
        np.testing.assert_array_equal(routed.items, exact.items, cell)
        assert routed.scores.tobytes() == exact.scores.tobytes(), cell
        for row, (want_items, want_scores) in enumerate(want):
            assert exact.items[row].tolist() == want_items, cell
            np.testing.assert_allclose(exact.scores[row], want_scores,
                                       rtol=1e-9, atol=0, err_msg=cell)


@pytest.mark.parametrize("scoring", ["inner", "cosine", "euclidean"])
@pytest.mark.parametrize("case", HOSTILE_CASES)
def test_hostile_inputs_match_the_oracle(case, scoring, tmp_path):
    assert_hostile_parity(case, scoring, tmp_path)


@pytest.mark.parametrize("scoring", ["inner", "cosine", "euclidean"])
def test_near_ties_fail_parity_without_the_margin(scoring, tmp_path,
                                                  monkeypatch):
    """Control: the parity test can see a wrong margin.  With a zero
    margin the float32 first pass alone picks the shortlist, and the
    near-tie cluster it cannot order breaks the lists of at least one of
    four near-tie tables that the real margin serves exactly."""
    seeds = range(4)
    for seed in seeds:
        assert_hostile_parity("near-ties", scoring, tmp_path, seed)
    monkeypatch.setattr(repro.serve.index, "score_margin",
                        lambda user_norms, *_: np.zeros_like(user_norms))
    broken = 0
    for seed in seeds:
        try:
            assert_hostile_parity("near-ties", scoring, tmp_path, seed)
        except AssertionError:
            broken += 1
    assert broken, "a zero margin went unnoticed"


def test_uncertified_rows_are_counted(tmp_path):
    """Only a non-finite threshold leaves a row uncertified: fewer than
    ``k`` unseen items (user 0 of ``few-unseen``) or norms where float32
    could overflow (every user of ``float32-overflow``).  A tie flood and
    near-ties certify, their extra columns re-scored as candidates."""
    with use_registry(MetricsRegistry()) as registry:
        counter = registry.counter("serve.index.uncertified_rows")
        for case, uncertified in (("duplicate-ties", 0), ("near-ties", 0),
                                  ("few-unseen", 1),
                                  ("float32-overflow", 12)):
            (users, *_), index, _ = hostile_indexes(case, "inner", tmp_path)
            before = counter.value
            index.topk(np.arange(len(users)), k=HOSTILE_K)
            assert counter.value - before == uncertified, case


def test_a_random_table_certifies_every_row(tiny_dataset, tmp_path):
    with use_registry(MetricsRegistry()) as registry:
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=3)
        index = ExactTopKIndex(export_snapshot(model, tiny_dataset,
                                               tmp_path / "flat"))
        index.topk(np.arange(tiny_dataset.num_users), k=HOSTILE_K)
        assert registry.counter("serve.index.uncertified_rows").value == 0


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 256), log_scale=st.floats(-20, 15),
       n_items=st.integers(1, 700), n_users=st.integers(1, 70),
       scoring=st.sampled_from(["inner", "cosine", "euclidean"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_first_pass_error_stays_within_half_the_margin(
        dim, log_scale, n_items, n_users, scoring, seed):
    """``score_margin`` is twice a bound on ``|s32 - s64|``: the error
    observed between the two passes never reaches half of it."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale

    def table(n):
        spread = 10.0 ** rng.uniform(-1, 1, size=(n, 1))
        return scale * spread * rng.standard_normal((n, dim))

    scorer = PanelScorer(table(n_items), scoring)
    block = scoring_ready_users(table(n_users), scoring)
    with np.errstate(over="ignore", invalid="ignore"):
        first = scorer._first_pass(block, panel_scores).astype(np.float64)
    exact = scorer._exact(block, None, panel_scores)
    delta = score_margin(np.sqrt(np.einsum("ij,ij->i", block, block)),
                         scorer._item_norm, dim, scoring)
    trusted = np.isfinite(delta)
    worst = np.abs(first - exact)[trusted].max(axis=1, initial=0.0)
    assert np.all(worst <= 0.5 * delta[trusted]), (worst / delta[trusted])


@pytest.mark.parametrize("scoring", ["inner", "cosine", "euclidean"])
@pytest.mark.parametrize("table", ["random", "ties"])
@pytest.mark.parametrize("n_users", [20, 64, 127, 129, 256])
def test_first_pass_is_one_gemm_per_row_block(n_users, table, scoring):
    """Each row block's first pass hands the caller's ``score`` one
    float32 panel that spans all ``n_items`` rows, so one GEMM per block;
    its re-score, certified (``random``) or over every column (``ties``),
    still gets ``PANEL_WIDTH``-wide float64 panels."""
    rng = np.random.default_rng(n_users)
    n_items, dim, k = 1300, 16, 10
    rows = (rng.standard_normal((n_items, dim)) if table == "random"
            else np.ones((n_items, dim)))
    scorer = PanelScorer(rows, scoring)
    calls = []

    def spy(vectors, panels, n, out=None):
        calls.append((len(vectors), vectors.dtype, panels.dtype,
                      panels.shape, n))
        return panel_scores(vectors, panels, n, out=out)

    vectors = scoring_ready_users(rng.standard_normal((n_users, dim)),
                                  scoring)
    seen_indptr = np.arange(0, 3 * n_users + 1, 3, dtype=np.int64)
    seen = (seen_indptr, rng.integers(0, n_items, size=3 * n_users),
            np.arange(n_users))
    scorer.topk(vectors, k, seen, score=spy, mask=mask_seen_items,
                rank=rank_items)
    blocks = row_blocks(n_users)
    assert len(calls) == 2 * len(blocks)
    for (lo, hi), first, rescore in zip(blocks, calls[::2], calls[1::2]):
        assert first == (hi - lo, np.float32, np.float32, (1, n_items, dim),
                         n_items)
        m, user_dtype, dtype, shape, _ = rescore
        assert (m, user_dtype, dtype, shape[1:]) == (
            hi - lo, np.float64, np.float64, (PANEL_WIDTH, dim))
        if table == "ties":  # no row certified: every column re-scored
            assert shape[0] == -(-n_items // PANEL_WIDTH)


def test_table_bytes_are_the_float32_rows_without_padding():
    n_items, dim = 1300, 16
    assert n_items % PANEL_WIDTH
    scorer = PanelScorer(np.random.default_rng(0).standard_normal(
        (n_items, dim)), "cosine")
    assert scorer.table_bytes == n_items * dim * 4
