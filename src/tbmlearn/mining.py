"""Frequent-itemset selection of the model's parameter domain.

The parameter domain consists of every non-empty pattern whose empirical
support reaches a threshold ``sigma`` and whose cardinality is at most ``k``.
Support anti-monotonicity makes this an ordinary frequent-itemset mining
problem, solved here by a depth-first enumeration over per-item transaction
lists with support pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import SampleSpace, multiplicities
from .patterns import Pattern, TransactionDataset, sort_key

DEFAULT_DOMAIN_CAP = 10_000_000


class DomainSizeError(RuntimeError):
    """Raised when mining would produce more patterns than the configured cap."""


def support_threshold(sigma: float, n_samples: int) -> int:
    """Integer count implementing ``support >= sigma`` reproducibly.

    A zero threshold is only produced by ``sigma == 0``, where every pattern
    within the cardinality bound qualifies regardless of support.
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    if sigma == 0.0:
        return 0
    return max(1, math.ceil(sigma * n_samples))


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


def mine_parameter_domain(
    dataset: TransactionDataset,
    sigma: float,
    k: int,
    max_domain_size: int = DEFAULT_DOMAIN_CAP,
) -> ParameterDomain:
    """Enumerate all patterns with support >= sigma and cardinality <= k.

    Output is independent of transaction order and, for ``sigma == 0``,
    covers the full variable universe of the dataset (including variables
    that never occur).  Raises :class:`DomainSizeError` when the result
    would exceed ``max_domain_size``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    threshold = support_threshold(sigma, dataset.n_samples)

    space = SampleSpace.from_patterns(dataset.entries)
    weights = multiplicities(space, dataset)
    item_tids = space.item_rows
    empty = np.empty(0, dtype=np.int32)

    if threshold == 0:
        if _max_domain_size(dataset.n_variables, k) > max_domain_size:
            raise DomainSizeError(
                f"sigma=0 over {dataset.n_variables} variables yields more than "
                f"{max_domain_size} patterns"
            )
        items = list(range(dataset.n_variables))
    else:
        items = sorted(
            i for i, idx in item_tids.items() if int(weights[idx].sum()) >= threshold
        )

    found: list[Pattern] = []

    def extend(prefix: Pattern, tids: np.ndarray, start: int) -> None:
        for pos in range(start, len(items)):
            item = items[pos]
            sub = np.intersect1d(tids, item_tids.get(item, empty), assume_unique=True)
            if int(weights[sub].sum()) < threshold:
                continue
            candidate = prefix + (item,)
            found.append(candidate)
            if len(found) > max_domain_size:
                raise DomainSizeError(
                    f"more than {max_domain_size} frequent patterns; raise the cap "
                    "or increase sigma"
                )
            if len(candidate) < k:
                extend(candidate, sub, pos + 1)

    all_tids = np.arange(len(space), dtype=np.int32)
    extend((), all_tids, 0)

    return ParameterDomain(
        patterns=tuple(sorted(found, key=sort_key)), sigma=sigma, k=k
    )
