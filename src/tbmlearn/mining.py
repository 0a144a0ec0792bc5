"""Frequent-itemset selection of the model's parameter domain.

The parameter domain consists of every non-empty pattern whose empirical
support reaches a threshold ``sigma`` and whose cardinality is at most ``k``.
Support anti-monotonicity makes this an ordinary frequent-itemset mining
problem, solved here level by level (Apriori; Agrawal & Srikant, VLDB 1994)
over vertical tidsets (Zaki, IEEE TKDE 2000).  The data are one sparse
matrix X, distinct transactions by occurring items, built from the
dataset's CSR arrays (``TransactionDataset.csr``), so mining's cost and
memory do not depend on the size of the variable universe.  The supports of
every one-item extension of the frequent j-sets are one sparse product, the
j-sets' tidsets weighted by multiplicity times X; an extension is kept when
its item follows the prefix's last item and its support reaches the
threshold, and its tidset is its prefix's tidset filtered through the new
item's posting by :func:`patterns.extend_rows`, the helper that also builds
the rows of the incidence matrix Z.  Only the kept nonzeros are copied.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .patterns import Pattern, TransactionDataset, compact, extend_rows

if TYPE_CHECKING:
    from scipy import sparse

DEFAULT_DOMAIN_CAP = 10_000_000


class DomainSizeError(RuntimeError):
    """Raised when mining would produce more patterns than the configured cap,
    or when a fit's domain would need a Fisher matrix over
    ``fitting.FISHER_MAX_BYTES``."""


def support_threshold(sigma: float, n_samples: int) -> int:
    """The smallest count c >= 1 with ``c / n_samples >= sigma``.

    A zero threshold is only produced by ``sigma == 0``, where every pattern
    within the cardinality bound qualifies regardless of support.  The
    product ``sigma * n_samples`` may land an ulp off an integer, so the
    count steps up from one below its ceiling.
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    if sigma == 0.0:
        return 0
    count = max(1, math.ceil(sigma * n_samples) - 1)
    while count / n_samples < sigma:
        count += 1
    return count


@dataclass(frozen=True)
class ParameterDomain:
    """The mined set of parameter-carrying patterns, in canonical order."""

    patterns: tuple[Pattern, ...]
    sigma: float
    k: int

    def __post_init__(self):
        for p in self.patterns:
            if not p:
                raise ValueError("the empty pattern never carries a parameter")
            if len(p) > self.k:
                raise ValueError(f"pattern {p} exceeds the order bound k={self.k}")

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    @cached_property
    def _members(self) -> frozenset[Pattern]:
        return frozenset(self.patterns)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self._members


def _max_domain_size(n_variables: int, k: int) -> int:
    return sum(math.comb(n_variables, i) for i in range(1, min(k, n_variables) + 1))


def _transactions_by_items(
    dataset: TransactionDataset, threshold: int
) -> tuple[np.ndarray, sparse.csr_matrix, np.ndarray]:
    """The frequent items in increasing order, the 0/1 CSR matrix X of the
    distinct transactions (rows, in ``entries`` order) by those items, and
    the transactions' multiplicities.  Columns index only occurring items,
    so nothing here scales with ``n_variables``."""
    from scipy import sparse
    indptr, ids, counts = dataset.csr
    weights = counts.astype(np.float64)
    items, cols = compact(ids)
    rows = np.repeat(np.arange(len(weights)), np.diff(indptr))
    frequent = np.bincount(cols, weights=weights[rows], minlength=len(items)) >= threshold
    keep = frequent[cols]
    column = np.cumsum(frequent) - 1
    data = sparse.csr_matrix(
        (np.ones(int(keep.sum())), (rows[keep], column[cols[keep]])),
        shape=(len(weights), int(frequent.sum())),
    )
    return items[frequent], data, weights


def mine_parameter_domain(
    dataset: TransactionDataset,
    sigma: float,
    k: int,
    max_domain_size: int = DEFAULT_DOMAIN_CAP,
) -> ParameterDomain:
    """Enumerate all patterns with support >= sigma and cardinality <= k.

    Output is in canonical order, independent of transaction order and, for
    ``sigma == 0``, covers the full variable universe of the dataset
    (including variables that never occur).  Raises
    :class:`DomainSizeError` when the result would exceed
    ``max_domain_size``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    threshold = support_threshold(sigma, dataset.n_samples)

    if threshold == 0:
        if _max_domain_size(dataset.n_variables, k) > max_domain_size:
            raise DomainSizeError(
                f"sigma=0 over {dataset.n_variables} variables yields more than "
                f"{max_domain_size} patterns"
            )
        universe = range(dataset.n_variables)
        patterns = tuple(
            p for order in range(1, k + 1) for p in itertools.combinations(universe, order)
        )
        return ParameterDomain(patterns=patterns, sigma=sigma, k=k)

    from scipy import sparse
    items, data, weights = _transactions_by_items(dataset, threshold)
    postings = data.T.tocsr()
    # The frequent sets of one order, in canonical order, with their tidsets
    # (CSR rows over the distinct transactions) and last items (columns of X).
    level = [(item,) for item in items.tolist()]
    bounds = postings.indptr.tolist()
    tids = [postings.indices[a:z] for a, z in zip(bounds, bounds[1:])]
    last = np.arange(len(level))
    found: list[Pattern] = []
    for order in range(1, k + 1):
        found.extend(level)
        if len(found) > max_domain_size:
            raise DomainSizeError(
                f"more than {max_domain_size} frequent patterns; raise the cap "
                "or increase sigma"
            )
        if not level or order == k:
            break
        tid_indptr = np.zeros(len(tids) + 1, dtype=np.int64)
        np.cumsum([tid.size for tid in tids], out=tid_indptr[1:])
        tid_indices = np.concatenate(tids)
        scaled = sparse.csr_matrix(
            (weights[tid_indices], tid_indices, tid_indptr), shape=(len(level), data.shape[0])
        )
        del tid_indices
        counts = scaled @ data
        counts.sort_indices()
        rows = np.repeat(np.arange(len(level)), np.diff(counts.indptr))
        keep = (counts.data >= threshold) & (counts.indices > last[rows])
        rows, last = rows[keep], counts.indices[keep]
        if len(rows) and order + 1 < k:
            tids = extend_rows(tids, rows, postings.indptr, postings.indices, last, data.shape[0])
        level = [level[r] + (item,) for r, item in zip(rows.tolist(), items[last].tolist())]
    return ParameterDomain(patterns=tuple(found), sigma=sigma, k=k)
