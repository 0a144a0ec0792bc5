"""Reduced sample spaces and the Gibbs distributions defined over them.

The sample space of a transductive model is the union of the parameter
domain, the distinct transactions of the dataset, and the empty pattern.
Probabilities are kept in log space; the log-partition value is always the
negative log-probability of the empty pattern.

:func:`incidence_matrix` is the package's one count of containment; fits,
supports, model loads, ``GibbsModel.eta`` and the full-cube feasibility LP
all read it.  A pattern's row is its prefix's row (the pattern without its
last item) intersected with the posting of its last item, and the empty
pattern's row is every outcome: the prefix tidset recurrence of vertical
mining (Zaki, IEEE TKDE 2000).  Rows are kept by pattern, so a domain closed
under prefixes, as a mined one is, pays one intersection per row instead of
one per item.  The postings, ``SampleSpace.item_rows``, are built once per
space.  Mining does not read them: it counts over its own sparse matrix of
the distinct transactions (see :mod:`tbmlearn.mining`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .patterns import BOTTOM, Pattern, TransactionDataset, sort_key


@dataclass(frozen=True)
class SampleSpace:
    """Deterministically ordered set of outcome patterns, always containing bottom."""

    outcomes: tuple[Pattern, ...]
    index: dict[Pattern, int]

    @classmethod
    def from_patterns(cls, patterns: Iterable[Pattern]) -> "SampleSpace":
        outcomes = tuple(sorted(set(patterns) | {BOTTOM}, key=sort_key))
        return cls(outcomes=outcomes, index={x: i for i, x in enumerate(outcomes)})

    @cached_property
    def item_rows(self) -> dict[int, np.ndarray]:
        """Item -> sorted int32 positions of the outcomes that contain it: the
        postings that :func:`incidence_matrix` intersects."""
        lists: dict[int, list[int]] = {}
        for pos, outcome in enumerate(self.outcomes):
            for item in outcome:
                lists.setdefault(item, []).append(pos)
        return {item: np.array(pos, dtype=np.int32) for item, pos in lists.items()}

    def __len__(self) -> int:
        return len(self.outcomes)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self.index

    def position(self, pattern: Pattern) -> int:
        try:
            return self.index[pattern]
        except KeyError:
            raise ValueError(f"pattern {pattern} is outside the sample space") from None


def build_sample_space(
    domain: Iterable[Pattern], dataset: TransactionDataset
) -> SampleSpace:
    """Union of parameter domain, distinct transactions, and the empty pattern."""
    return SampleSpace.from_patterns(list(domain) + list(dataset.entries))


def logsumexp(x: np.ndarray) -> float:
    """``scipy.special.logsumexp`` of a 1-D float array, bit for bit, but faster.

    Same arithmetic, without scipy's array-API dispatch.  A non-finite maximum
    (nan or an infinity) is the result itself, as it is in scipy.
    """
    top = x.max()
    if not math.isfinite(top):
        return float(top)
    at_top = x == top
    count = np.count_nonzero(at_top)
    shifted = x - top
    shifted[at_top] = -np.inf
    s = np.exp(shifted).sum() / count
    return float(np.log1p(s) + np.log(count) + top)


def incidence_matrix(space: SampleSpace, patterns: Sequence[Pattern]) -> sparse.csr_matrix:
    """Sparse 0/1 matrix with rows indexed by ``patterns``, columns by outcomes.

    Entry (j, i) is one iff outcome i contains pattern j.  Built by the prefix
    recurrence of the module docstring, starting from the postings as the rows
    of single items; a prefix missing from ``patterns`` is built on the way.
    The cost never depends on the size of the variable universe.
    """
    empty = np.empty(0, dtype=np.int32)
    rows = {(item,): cols for item, cols in space.item_rows.items()}
    rows[BOTTOM] = np.arange(len(space), dtype=np.int32)
    for pattern in patterns:
        for end in range(1, len(pattern) + 1):
            prefix = pattern[:end]
            if prefix not in rows:
                posting = space.item_rows.get(prefix[-1], empty)
                rows[prefix] = np.intersect1d(rows[prefix[:-1]], posting, assume_unique=True)
    chosen = [rows[p] for p in patterns]
    indptr = np.zeros(len(patterns) + 1, dtype=np.int64)
    np.cumsum([cols.size for cols in chosen], out=indptr[1:])
    indices = np.concatenate(chosen) if chosen else empty
    data = np.ones(len(indices), dtype=np.float64)
    return sparse.csr_matrix(
        (data, indices, indptr), shape=(len(patterns), len(space))
    )


def multiplicities(space: SampleSpace, dataset: TransactionDataset) -> np.ndarray:
    """Count of each outcome in ``dataset``, in space order (``ValueError`` if outside)."""
    counts = np.zeros(len(space))
    for t, mult in dataset.entries.items():
        counts[space.position(t)] = mult
    return counts


def supports(dataset: TransactionDataset, patterns: Sequence[Pattern]) -> np.ndarray:
    """Transactions containing each pattern, counted through Z over the distinct ones."""
    space = SampleSpace.from_patterns(dataset.entries)
    return incidence_matrix(space, patterns).dot(multiplicities(space, dataset))


class GibbsModel:
    """A Gibbs distribution over a reduced sample space.

    The log-probability of an outcome is the sum of the parameters of its
    contained domain patterns minus the log-partition value, so the empty
    pattern always carries probability ``exp(-log_partition)``.
    """

    def __init__(
        self,
        space: SampleSpace,
        domain: Sequence[Pattern],
        theta: Sequence[float] | np.ndarray,
        incidence: sparse.csr_matrix | None = None,
    ):
        domain = tuple(domain)
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (len(domain),):
            raise ValueError("theta must align with the domain patterns")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta values must be finite")
        if incidence is None:
            incidence = incidence_matrix(space, domain)
        self.space = space
        self.domain = domain
        self.theta = theta
        self.incidence = incidence
        raw = incidence.T.dot(theta) if len(domain) else np.zeros(len(space))
        self.log_partition = logsumexp(raw)
        self.log_probs = raw - self.log_partition
        self._etas: np.ndarray | None = None

    @property
    def theta_map(self) -> dict[Pattern, float]:
        return {p: float(v) for p, v in zip(self.domain, self.theta)}

    @property
    def probabilities(self) -> dict[Pattern, float]:
        p = np.exp(self.log_probs)
        return {x: float(v) for x, v in zip(self.space.outcomes, p)}

    def log_prob(self, x: Pattern) -> float:
        return float(self.log_probs[self.space.position(x)])

    def prob(self, x: Pattern) -> float:
        return float(np.exp(self.log_prob(x)))

    def energy(self, x: Pattern) -> float:
        """Negative sum of the parameters of the domain patterns contained in ``x``."""
        return -(self.log_prob(x) + self.log_partition)

    def etas(self) -> np.ndarray:
        """Expectation coordinates for every domain pattern."""
        if self._etas is None:
            self._etas = self.incidence.dot(np.exp(self.log_probs))
        return self._etas

    def eta(self, x: Pattern) -> float:
        """Probability that a random outcome contains ``x``."""
        return float(incidence_matrix(self.space, [x]).dot(np.exp(self.log_probs))[0])

    def negative_entropy(self) -> float:
        """Sum of p log p over the sample space (the dual potential)."""
        p = np.exp(self.log_probs)
        return float(np.dot(p, self.log_probs))

    def log_likelihood(self, dataset: TransactionDataset) -> float:
        """Total data log-likelihood; every transaction must lie in the space."""
        return sum(
            mult * self.log_prob(t) for t, mult in dataset.entries.items()
        )


def uniform_model(space: SampleSpace) -> GibbsModel:
    return GibbsModel(space, domain=(), theta=np.zeros(0))
