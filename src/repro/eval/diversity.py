"""Beyond-accuracy metrics: coverage, Gini concentration, novelty.

The fairness analysis of the paper (Lemma 2 / Fig. 4a) is about
popularity bias; these complementary system-level metrics quantify the
same phenomenon over the *recommendation lists* instead of NDCG mass:
a loss that over-recommends popular items has low item coverage, high
Gini concentration and low novelty.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.eval.evaluator import Evaluator
from repro.models.base import Recommender

__all__ = ["recommendation_counts", "item_coverage", "gini_index",
           "mean_novelty", "diversity_report"]


def recommendation_counts(model: Recommender, dataset: InteractionDataset,
                          k: int = 20, batch_users: int = 256) -> np.ndarray:
    """How often each item appears in users' masked top-``k`` lists
    (every user's, from :meth:`Evaluator.top_items`)."""
    top = Evaluator(dataset, batch_users=batch_users).top_items(
        model, k, users=np.arange(dataset.num_users))
    return np.bincount(top.ravel(), minlength=dataset.num_items)


def item_coverage(counts: np.ndarray) -> float:
    """Fraction of the catalogue recommended to at least one user."""
    return float((counts > 0).mean())


def gini_index(counts: np.ndarray) -> float:
    """Gini concentration of recommendation exposure (0 = egalitarian).

    Standard mean-absolute-difference formulation over item exposure
    counts; 1 means all exposure goes to one item.
    """
    values = np.sort(np.asarray(counts, dtype=np.float64))
    n = len(values)
    total = values.sum()
    if total == 0:
        return 0.0
    cum = np.cumsum(values)
    # Gini = 1 - 2 * sum((cum - v/2)) / (n * total), standard identity.
    lorenz_area = (cum - values / 2.0).sum() / (n * total)
    return float(1.0 - 2.0 * lorenz_area)


def mean_novelty(counts: np.ndarray, dataset: InteractionDataset) -> float:
    """Exposure-weighted novelty ``-log2 p(item)`` (self-information).

    ``p(item)`` is the item's share of training interactions; rarely
    interacted items are more novel.  Higher = recommendations reach
    deeper into the tail.
    """
    pop = dataset.item_popularity.astype(np.float64)
    probs = (pop + 1.0) / (pop.sum() + dataset.num_items)  # Laplace
    info = -np.log2(probs)
    total = counts.sum()
    if total == 0:
        return 0.0
    return float((counts * info).sum() / total)


def diversity_report(model: Recommender, dataset: InteractionDataset,
                     k: int = 20) -> dict[str, float]:
    """Convenience bundle of the three metrics."""
    counts = recommendation_counts(model, dataset, k=k)
    return {
        f"coverage@{k}": item_coverage(counts),
        f"gini@{k}": gini_index(counts),
        f"novelty@{k}": mean_novelty(counts, dataset),
    }
