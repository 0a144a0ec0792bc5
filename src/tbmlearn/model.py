"""Reduced sample spaces and the Gibbs distributions defined over them.

The sample space of a transductive model is the union of the parameter
domain, the distinct transactions of the dataset, and the empty pattern ⊥,
which :func:`build_sample_space` lists like any other row.  The fit then
drops the outcomes its data rule out (see ``fitting.ascend``), so a fitted
model's space may lack some domain patterns, though each lies in some
outcome, and lacks ⊥ where some domain pattern is in every transaction.
Probabilities are kept in log space; the log-partition value is -log p(⊥)
in every space that holds ⊥.

:func:`incidence_rows` is the package's one count of containment; fits,
supports, model loads, ``GibbsModel.eta`` and the full-cube face LP
all read it.  A pattern's row is its prefix's row (the pattern without its
last item) intersected with the posting of its last item, and the empty
pattern's row is every outcome: the prefix tidset recurrence of vertical
mining (Zaki, IEEE TKDE 2000).  Rows are built one pattern length at a time
and kept by pattern, so a domain closed under prefixes, as a mined one is,
pays one intersection per row instead of one per item; each intersection
filters the prefix's row through its item's posting, marked once per item
(:func:`patterns.extend_rows`, which mining shares).  The postings,
``SampleSpace.item_rows``, are the outcomes of each item column, sorted out
of the space's rows by numpy once per space.

Z's CSR arrays are the package's own, and loading or scoring a model runs
on them with numpy alone.  :func:`incidence_matrix` wraps them in scipy's
sparse matrix for the sparse products of fitting, supports and
expectations; it, and ``GibbsModel.incidence``, import scipy at first use,
so neither ``import tbmlearn`` nor ``tbmlearn eval`` loads it.

A :class:`SampleSpace` holds its outcomes as CSR arrays over compact item
columns, sorted and deduplicated by :func:`patterns.canonical_ranks`, so
building a space, its Z and the data's multiplicities walks no tuple; the
tuple views ``outcomes`` and ``index`` are built only when asked for.
:func:`locate_rows` finds CSR rows of patterns, such as a dataset's, among
the outcomes by ranking them together with the space's rows, which gives
:func:`multiplicities` and :meth:`GibbsModel.log_probs_of_rows` without a
lookup per transaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .patterns import (
    BOTTOM,
    Pattern,
    TransactionDataset,
    canonical_ranks,
    compact,
    extend_rows,
    flatten_canonical,
    row_pattern,
    split_rows,
    take_rows,
)

if TYPE_CHECKING:
    from scipy import sparse

_SUM_ROWS = 1 << 8
FSUM_CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """Deterministically ordered set of distinct outcome patterns.

    Outcome i is ``items[indices[indptr[i]:indptr[i + 1]]]``: ``items`` holds
    the identifiers that occur, in increasing order, and ``indices`` their
    compact int32 columns, so nothing here scales with the variable
    universe.  Outcomes are in canonical order (:func:`patterns.sort_key`).
    ``outcomes`` and ``index`` are tuple views built at first use; fitting,
    the model writer and the array scoring of ``metrics`` never build them.
    """

    items: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_patterns(cls, patterns: Iterable[Pattern]) -> "SampleSpace":
        return cls.from_rows(*flatten_canonical(list(patterns), "sample_space"))

    @classmethod
    def from_rows(cls, indptr: np.ndarray, ids: np.ndarray) -> "SampleSpace":
        """The space of the distinct CSR rows ``(indptr, ids)`` (see
        :func:`patterns.flatten`), and of nothing else."""
        items, cols = compact(ids)
        cols = cols.astype(np.int32, copy=False)
        _, firsts = canonical_ranks(indptr, cols)
        out_indptr, indices = take_rows(indptr, cols, firsts)
        return cls(items, out_indptr, indices)

    @cached_property
    def outcomes(self) -> tuple[Pattern, ...]:
        return tuple(split_rows(self.items, self.indptr, self.indices))

    @cached_property
    def index(self) -> dict[Pattern, int]:
        return dict(zip(self.outcomes, range(len(self))))

    @cached_property
    def item_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, positions)``: the space transposed, item column c holding
        the sorted int32 positions of the outcomes that contain ``items[c]``.
        These are the postings :func:`incidence_rows` filters by.  A stable
        sort of the columns keeps each column's outcomes in order; keyed on
        the smallest unsigned type that holds every column, it is numpy's
        radix sort for up to 2^16 items."""
        n_items = len(self.items)
        order = np.argsort(self.indices.astype(np.min_scalar_type(n_items)), kind="stable")
        rows = np.repeat(np.arange(len(self), dtype=np.int32), np.diff(self.indptr))
        indptr = np.zeros(n_items + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=n_items), out=indptr[1:])
        return indptr, rows[order]

    def __len__(self) -> int:
        return len(self.indptr) - 1

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
    """Union of parameter domain, distinct transactions and the empty pattern (a last empty row)."""
    domain_indptr, domain_ids = flatten_canonical(list(domain), "domain")
    data_indptr, data_ids, _ = dataset.csr
    shifted = data_indptr + domain_indptr[-1]
    indptr = np.concatenate([domain_indptr, shifted[1:], shifted[-1:]])
    return SampleSpace.from_rows(indptr, np.concatenate([domain_ids, data_ids]))


def locate_rows(space: SampleSpace, indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The position in ``space`` of each CSR row ``(indptr, ids)`` of canonical
    patterns (see :func:`patterns.flatten`); ``ValueError`` names the first
    row that is no outcome.

    The rows are ranked together with the space's own by
    :func:`patterns.canonical_ranks`: a row is an outcome exactly when it
    shares that outcome's rank.
    """
    n = len(space)
    flat = np.concatenate([space.items[space.indices], ids])
    if flat.dtype == object:
        flat = np.unique(flat, return_inverse=True)[1]
    rank, firsts = canonical_ranks(
        np.concatenate([space.indptr, indptr[1:] + space.indptr[-1]]), flat
    )
    position = np.full(len(firsts), -1, dtype=np.int64)
    position[rank[:n]] = np.arange(n)
    at = position[rank[n:]]
    outside = np.flatnonzero(at < 0)
    if outside.size:
        raise ValueError(
            f"pattern {row_pattern(indptr, ids, outside[0])} is outside the sample space"
        )
    return at


def fsum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())`` of a 1-D float array, bit for bit, fed
    ``FSUM_CHUNK`` elements at a time, so no list of the whole array is held."""
    chunks = (values[i:i + FSUM_CHUNK].tolist() for i in range(0, values.size, FSUM_CHUNK))
    return math.fsum(chain.from_iterable(chunks))


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


def incidence_rows(
    space: SampleSpace, patterns: Sequence[Pattern]
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR arrays ``(indptr, indices)`` of Z: row j holds, in increasing
    order, the int32 positions of the outcomes that contain ``patterns[j]``.

    Built by the prefix recurrence of the module docstring, one level of
    pattern length at a time, starting from the postings as the rows of
    single items; a prefix missing from ``patterns`` is built on the way.
    Each level extends its prefixes' rows through
    :func:`patterns.extend_rows`.  The cost never depends on the size of the
    variable universe.
    """
    column = dict(zip(space.items.tolist(), range(len(space.items))))
    posting_indptr, postings = space.item_rows
    # Items no outcome holds get the empty posting past the last column.
    absent = len(column)
    posting_indptr = np.append(posting_indptr, posting_indptr[-1])
    # Each prefix's (length, row within its length), and per length the
    # (parent row, item column) of every row.
    where: dict[Pattern, tuple[int, int]] = {BOTTOM: (0, 0)}
    levels: list[list[tuple[int, int]]] = [[]]

    def place(pattern: Pattern) -> tuple[int, int]:
        got = where.get(pattern)
        if got is None:
            parent = place(pattern[:-1])[1]
            if len(levels) == len(pattern):
                levels.append([])
            level = levels[len(pattern)]
            got = where[pattern] = (len(pattern), len(level))
            level.append((parent, column.get(pattern[-1], absent)))
        return got

    placed = [place(p) for p in patterns]
    n = len(space)
    bounds = posting_indptr.tolist()
    rows = [[np.arange(n, dtype=np.int32)]]
    for depth, level in enumerate(levels[1:], start=1):
        parents, items = np.array(level, dtype=np.int64).reshape(-1, 2).T
        if depth == 1:
            rows.append([postings[bounds[c]:bounds[c + 1]] for c in items.tolist()])
        else:
            rows.append(extend_rows(rows[-1], parents, posting_indptr, postings, items, n))
    chosen = [rows[d][r] for d, r in placed]
    indptr = np.zeros(len(patterns) + 1, dtype=np.int64)
    np.cumsum([cols.size for cols in chosen], out=indptr[1:])
    indices = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int32)
    return indptr, indices


def _csr(indptr: np.ndarray, indices: np.ndarray, n_outcomes: int) -> sparse.csr_matrix:
    """Z's arrays as scipy's sparse 0/1 matrix, which loads scipy at its first call."""
    from scipy import sparse
    data = np.ones(len(indices), dtype=np.float64)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_outcomes))


def incidence_matrix(space: SampleSpace, patterns: Sequence[Pattern]) -> sparse.csr_matrix:
    """Sparse 0/1 matrix with rows indexed by ``patterns``, columns by outcomes:
    entry (j, i) is one iff outcome i contains pattern j (:func:`incidence_rows`)."""
    return _csr(*incidence_rows(space, patterns), len(space))


def multiplicities(space: SampleSpace, dataset: TransactionDataset) -> np.ndarray:
    """Count of each outcome in ``dataset``, in space order (``ValueError`` if outside)."""
    indptr, ids, mults = dataset.csr
    counts = np.zeros(len(space))
    counts[locate_rows(space, indptr, ids)] = mults
    return counts


def supports(dataset: TransactionDataset, patterns: Sequence[Pattern]) -> np.ndarray:
    """Transactions containing each pattern, counted through Z over the distinct ones."""
    space = build_sample_space((), dataset)
    return incidence_matrix(space, patterns).dot(multiplicities(space, dataset))


class GibbsModel:
    """A Gibbs distribution over a reduced sample space.

    The log-probability of an outcome is the sum of the parameters of its
    contained domain patterns minus the log-partition value, so the empty
    pattern, if an outcome, carries probability ``exp(-log_partition)``.

    The model holds Z as its CSR arrays, ``incidence_rows``, and adds each
    outcome's parameters with ``np.add.at`` in Z's row order from 0.0, as
    scipy's ``Z^T θ`` does, so scoring a loaded model loads no scipy.  It
    adds ``_SUM_ROWS`` rows of Z at a time, so no array the size of Z is
    made.  ``incidence``, scipy's matrix of those arrays, is built at first
    use unless the fit that made the model hands its own over.
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
        if not len(space):
            raise ValueError("the sample space has no outcome")
        if incidence is None:
            self.incidence_rows = incidence_rows(space, domain)
        else:
            self.incidence_rows = (incidence.indptr, incidence.indices)
            self.__dict__["incidence"] = incidence
        self.space = space
        self.domain = domain
        self.theta = theta
        indptr, indices = self.incidence_rows
        raw = np.zeros(len(space))
        for a in range(0, len(domain), _SUM_ROWS):
            b = min(a + _SUM_ROWS, len(domain))
            terms = np.repeat(theta[a:b], np.diff(indptr[a:b + 1]))
            np.add.at(raw, indices[indptr[a]:indptr[b]], terms)
        self.log_partition = logsumexp(raw)
        self.log_probs = raw - self.log_partition
        self._etas: np.ndarray | None = None

    @cached_property
    def incidence(self) -> sparse.csr_matrix:
        return _csr(*self.incidence_rows, len(self.space))

    @property
    def theta_map(self) -> dict[Pattern, float]:
        return {p: float(v) for p, v in zip(self.domain, self.theta)}

    @property
    def probabilities(self) -> dict[Pattern, float]:
        p = np.exp(self.log_probs)
        return {x: float(v) for x, v in zip(self.space.outcomes, p)}

    def log_prob(self, x: Pattern) -> float:
        return float(self.log_probs[self.space.position(x)])

    def log_probs_of_rows(self, indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """:meth:`log_prob` of each CSR row ``(indptr, ids)``, located at once
        by :func:`locate_rows`."""
        return self.log_probs[locate_rows(self.space, indptr, ids)]

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
        """Sum of p log p over the sample space (the dual potential), exactly rounded."""
        return fsum(np.exp(self.log_probs) * self.log_probs)
