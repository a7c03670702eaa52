"""``scripts/answers.py``: the same-answers fingerprint CI compares.

Two runs of one tree must agree entry for entry, and the fingerprint
must see planted defects: the router's merge breaking score ties by
descending instead of ascending item id changes the tied model's lists,
Adam's ``eps`` one ulp off changes the training trajectories, and NDCG
discounts one rank off change the evaluator's NDCG entries and nothing
else.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
spec = importlib.util.spec_from_file_location(
    "answers_script", REPO_ROOT / "scripts" / "answers.py")
answers_script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(answers_script)


@pytest.fixture(scope="module")
def tiny_answers():
    return answers_script.answers(datasets=("tiny",))


def test_two_runs_are_identical(tiny_answers):
    assert len(tiny_answers) > 100
    assert answers_script.answers(datasets=("tiny",)) == tiny_answers
    assert answers_script.compare(tiny_answers, dict(tiny_answers)) == []


def test_merge_tie_order_defect_changes_entries(tiny_answers, monkeypatch):
    import repro.serve.router as router

    def merge_ties_descending(partials, k, allow_underflow=False):
        ids = np.concatenate([ids for ids, _ in partials], axis=1)
        scores = np.concatenate([scores for _, scores in partials], axis=1)
        order = np.lexsort((-ids, -scores), axis=-1)[:, :k]
        return (np.take_along_axis(ids, order, axis=-1),
                np.take_along_axis(scores, order, axis=-1))

    monkeypatch.setattr(router, "_merge_partials", merge_ties_descending)
    planted = answers_script.answers(datasets=("tiny",), models=("mf-ties",))
    changed = [key for key, value in planted.items()
               if tiny_answers[key] != value]
    assert changed
    assert all("/router/" in key or "/service/" in key for key in changed)


def test_training_trajectories_cover_every_run(tiny_answers):
    runs = {f"tiny/train/{name}/{mode}"
            for name, modes in answers_script.TRAIN_MODELS.items()
            for mode in modes}
    assert runs == {key.rsplit("/", 2)[0] for key in tiny_answers
                    if key.startswith("tiny/train/") and "/step=" in key}
    for run in runs:
        steps = [key for key in tiny_answers
                 if key.startswith(f"{run}/step=")]
        assert len(steps) == answers_script.TRAIN_STEPS
        for part in ("param", "adam-m", "adam-v"):
            assert any(key.startswith(f"{run}/{part}/")
                       for key in tiny_answers)


def test_split_trajectories_hand_blocks_to_workers(tiny_answers,
                                                  monkeypatch):
    """The ``split-8k`` runs are in the fingerprint, and their steps
    split the optimizer's and the fused kernel's loops into blocks."""
    from repro.tensor import parallel
    real, split = parallel.fan_out, set()

    def recording(n, fn, min_rows=1):
        if parallel._local.pool is not None and n // max(1, min_rows) > 1:
            split.add(fn.__qualname__.split(".")[0])
        return real(n, fn, min_rows)
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    monkeypatch.setattr(parallel, "fan_out", recording)
    planted = answers_script.split_trajectories()
    assert {"Adam", "fused_sampled_scores"} <= split
    runs = {f"split-8k/train/mf/{mode}" for mode in ("dense", "sparse")}
    assert runs == {key.rsplit("/", 2)[0] for key in planted
                    if "/step=" in key}
    assert planted.items() <= tiny_answers.items()


def test_one_ulp_adam_eps_changes_the_trajectories(tiny_answers,
                                                   monkeypatch):
    """The tables are float32, so the update sees ``eps`` rounded to
    float32: the plant is one float32 ulp (one float64 ulp rounds
    away)."""
    import repro.nn.optim as optim
    init = optim.Adam.__init__

    def eps_one_ulp_up(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.eps = float(np.nextafter(np.float32(self.eps),
                                      np.float32(np.inf)))

    monkeypatch.setattr(optim.Adam, "__init__", eps_one_ulp_up)
    planted = answers_script.trajectories("tiny")
    assert planted.keys() <= tiny_answers.keys()
    changed = [key for key, value in planted.items()
               if tiny_answers[key] != value]
    assert any("/param/" in key for key in changed)
    assert any("/adam-v/" in key for key in changed)


def test_one_ulp_high_threshold_changes_a_wide_tied_entry(tiny_answers,
                                                         monkeypatch):
    """Control for the wide entries: a selection threshold one ulp above
    the k-th group maximum drops the tied k-th items from the evaluator's
    ``split-8k`` ``mf-ties`` lists, and the fingerprint sees it."""
    from repro.eval import Evaluator, metrics
    dataset = answers_script._split_set()
    model = answers_script._wide_model("mf-ties", dataset)
    key = "split-8k/mf-ties/eval/top-items/k=20"

    def top_items():
        evaluator = Evaluator(dataset, ks=(20,),
                              batch_users=answers_script.WIDE_EVAL_BATCH)
        return answers_script._digest(evaluator.top_items(model, 20))

    assert top_items() == tiny_answers[key]
    real = metrics.kth_group_max
    monkeypatch.setattr(metrics, "kth_group_max", lambda scores, k:
                        np.nextafter(real(scores, k), np.inf))
    assert top_items() != tiny_answers[key]


def test_unmasked_seen_items_change_only_filtered_ivf_lists(
        tiny_answers, monkeypatch, tmp_path):
    """Control for the partial-probe IVF entries: with seen-item masking
    that masks nothing, ``seen=1`` lists at partial probe change and no
    ``seen=0`` entry does, while the real masking reproduces them."""
    from repro.ann import IVFFlatIndex
    from repro.data import load_dataset
    from repro.serve import export_snapshot
    dataset = load_dataset("tiny")
    snapshot = export_snapshot(
        answers_script._trained("mf", dataset), dataset, tmp_path / "snap",
        model_name="mf", created_unix=answers_script.CREATED_UNIX)

    def ivf_entries(name):
        return answers_script.ivf_answers(snapshot, tmp_path / name,
                                          "tiny/mf")

    real = ivf_entries("real")
    assert any("/ivf-probe1/" in key for key in real)
    assert real.items() <= tiny_answers.items()

    def masks_nothing(self, users, probes):
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(self.data.nlist + 1, dtype=np.int64), empty, empty

    monkeypatch.setattr(IVFFlatIndex, "_seen_by_list", masks_nothing)
    changed = {key for key, value in ivf_entries("planted").items()
               if real[key] != value}
    assert any("/ivf-probe" in key and "/seen=1/" in key for key in changed)
    assert not any("/seen=0/" in key for key in changed)


def test_evaluation_covers_every_model(tiny_answers):
    for name in answers_script.MODELS:
        entries = {key.split("/eval/", 1)[1] for key in tiny_answers
                   if key.startswith(f"tiny/{name}/eval/")}
        assert entries == {
            *(f"per-user/{m}@{k}" for m in answers_script.EVAL_METRICS
              for k in answers_script.EVAL_KS),
            "top-items/k=20", "group-ndcg/k=20",
            "recommendation-counts/k=20"}


def test_ndcg_discount_one_rank_off_changes_only_ndcg(tiny_answers,
                                                      monkeypatch):
    from repro.data import load_dataset
    from repro.eval import Evaluator
    init = Evaluator.__init__

    def discounts_one_rank_off(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._discounts = 1.0 / np.log2(np.arange(3, len(self._discounts)
                                                  + 3))

    dataset = load_dataset("tiny")
    model = answers_script._trained("mf", dataset)
    monkeypatch.setattr(Evaluator, "__init__", discounts_one_rank_off)
    planted = answers_script.evaluations(model, dataset, "tiny/mf")
    changed = {key for key, value in planted.items()
               if tiny_answers[key] != value}
    assert {"tiny/mf/eval/per-user/ndcg@5", "tiny/mf/eval/per-user/ndcg@20",
            "tiny/mf/eval/group-ndcg/k=20"} == changed


def test_compare_needs_a_reasoned_answers_changed_line():
    base = {"tiny/mf/1x1/exact/items": "a", "tiny/mf/3x3/router/items": "b"}
    head = {"tiny/mf/1x1/exact/items": "a", "tiny/mf/3x3/router/items": "c",
            "tiny/mf/3x3/new": "d"}
    assert answers_script.compare(base, head) == [
        "tiny/mf/3x3/new", "tiny/mf/3x3/router/items"]
    notes = ("+ANSWERS CHANGED: tiny/mf/3x3/* — the merge now breaks ties "
             "by id\n"
             "+ANSWERS CHANGED: tiny/mf/1x1/*\n")
    assert answers_script.compare(base, head, notes) == []
    assert answers_script.allowed_patterns(notes) == ["tiny/mf/3x3/*"]
