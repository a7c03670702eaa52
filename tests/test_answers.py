"""``scripts/answers.py``: the same-answers fingerprint CI compares.

Two runs of one tree must agree entry for entry, and the fingerprint
must see a planted defect: the router's merge breaking score ties by
descending instead of ascending item id changes the tied model's lists.
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
