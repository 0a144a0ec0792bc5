"""Reduced sample spaces and the Gibbs distributions defined over them.

The sample space of a transductive model is the union of the parameter
domain, the distinct transactions of the dataset, and the empty pattern.
Probabilities are kept in log space; the log-partition value is always the
negative log-probability of the empty pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .mining import ParameterDomain
from .patterns import BOTTOM, Pattern, TransactionDataset, is_subpattern, sort_key


@dataclass(frozen=True)
class SampleSpace:
    """Deterministically ordered set of outcome patterns, always containing bottom."""

    outcomes: tuple[Pattern, ...]
    index: dict[Pattern, int]

    @classmethod
    def from_patterns(cls, patterns: Iterable[Pattern]) -> "SampleSpace":
        outcomes = tuple(sorted(set(patterns) | {BOTTOM}, key=sort_key))
        return cls(outcomes=outcomes, index={x: i for i, x in enumerate(outcomes)})

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
    domain: ParameterDomain | Iterable[Pattern], dataset: TransactionDataset
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

    Entry (j, i) is one iff outcome i contains pattern j.  Built from
    per-variable postings so the cost depends on pattern contents, never on
    the size of the variable universe.
    """
    postings: dict[int, np.ndarray] = {}
    for i, x in enumerate(space.outcomes):
        for item in x:
            postings.setdefault(item, []).append(i)
    postings = {v: np.array(ix, dtype=np.int32) for v, ix in postings.items()}
    empty = np.empty(0, dtype=np.int32)
    all_cols = np.arange(len(space), dtype=np.int32)

    indptr = np.zeros(len(patterns) + 1, dtype=np.int64)
    rows: list[np.ndarray] = []
    for j, pat in enumerate(patterns):
        cols = all_cols
        for item in pat:
            cols = np.intersect1d(cols, postings.get(item, empty), assume_unique=True)
            if cols.size == 0:
                break
        rows.append(cols)
        indptr[j + 1] = indptr[j] + cols.size
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int32)
    data = np.ones(len(indices), dtype=np.float64)
    return sparse.csr_matrix(
        (data, indices, indptr), shape=(len(patterns), len(space))
    )


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
        self._domain_index = {p: j for j, p in enumerate(domain)}
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
        j = self._domain_index.get(x)
        if j is not None:
            return float(self.etas()[j])
        p = np.exp(self.log_probs)
        return float(
            sum(v for outcome, v in zip(self.space.outcomes, p) if is_subpattern(x, outcome))
        )

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
