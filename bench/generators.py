"""Seeded input generators for the benchmark workloads.

The basket and synthetic data come from these generators rather than from
``tbmlearn.experiments.synth_dataset``, so a change to the package cannot
change what those two workloads feed it.  Each generator returns FIMI text:
one transaction per line, whitespace-separated item identifiers.

The structure of each workload (item labels and implication rules, the
synthetic support) is drawn from the fixed ``STRUCTURE_SEED``; the run's
seed draws the transactions.  Fit cost depends mostly on the structure, so
this keeps the cost of a workload close to the same across seeds while every
seed still gives different data.
"""

from __future__ import annotations

import numpy as np

STRUCTURE_SEED = 20180521


def basket_fimi(
    seed,
    n_items: int,
    n_transactions: int,
    mean_length: float,
    zipf_exponent: float,
    n_rules: int,
) -> str:
    """Zipf market baskets with exact implication rules.

    Item popularity follows a Zipf law over a random relabelling of the
    items.  ``n_rules`` "child" items, drawn from popularity ranks 10 to
    59, each get a "parent" among the ten most popular items; whenever a
    basket holds a child it also holds the parent, so a child never occurs
    alone, as with product variants or categorical hierarchies.  Basket
    lengths are one plus a Poisson draw, set so that the mean length after
    adding parents is close to ``mean_length``.
    """
    if n_items < 60:
        raise ValueError("the implication rules need at least 60 items")
    structure = np.random.default_rng(STRUCTURE_SEED)
    popularity = np.arange(1, n_items + 1, dtype=np.float64) ** -zipf_exponent
    popularity /= popularity.sum()
    item_of_rank = structure.permutation(n_items)
    child_ranks = structure.choice(np.arange(10, 60), size=n_rules, replace=False)
    parent_ranks = structure.choice(10, size=n_rules)
    parent_of = {
        int(item_of_rank[c]): int(item_of_rank[p])
        for c, p in zip(child_ranks, parent_ranks)
    }
    rng = np.random.default_rng(seed)
    # Parents add about 0.35 items per basket on average at 500 items.
    lengths = 1 + rng.poisson(max(mean_length - 1.35, 0.0), size=n_transactions)
    lengths = np.minimum(lengths, n_items)
    pool = item_of_rank[rng.choice(n_items, size=2 * int(lengths.sum()), p=popularity)]
    pos = 0
    lines = []
    for length in lengths:
        basket: set[int] = set()
        while len(basket) < length:
            if pos == len(pool):
                pool = item_of_rank[rng.choice(n_items, size=len(pool), p=popularity)]
                pos = 0
            basket.add(int(pool[pos]))
            pos += 1
        basket.update([parent_of[c] for c in basket if c in parent_of])
        lines.append(" ".join(map(str, sorted(basket))))
    return "\n".join(lines) + "\n"


def synth_fimi(seed, n_vars: int, support_size: int, n_samples: int) -> str:
    """The paper's synthetic protocol: uniform draws from a random support.

    The support is ``support_size`` distinct non-empty patterns over
    ``n_vars`` variables; each of the ``n_samples`` lines is one of them,
    drawn uniformly.  The empty pattern is left out because a blank FIMI
    line is skipped by default.
    """
    structure = np.random.default_rng(STRUCTURE_SEED)
    masks = structure.choice(np.arange(1, 1 << n_vars), size=support_size, replace=False)
    patterns = [
        " ".join(str(i) for i in range(n_vars) if int(m) >> i & 1) for m in masks
    ]
    draws = np.random.default_rng(seed).integers(0, support_size, size=n_samples)
    return "\n".join(patterns[d] for d in draws) + "\n"
