"""Canonical itemset patterns, transaction datasets, and empirical statistics.

A pattern is the set of "on" variables of a binary configuration, stored as a
strictly increasing tuple of non-negative integer identifiers.  The empty
tuple is the all-zeros configuration (bottom).  Datasets are multisets of
patterns with integer multiplicities, which keeps every support computation
exact.  Containment is counted once, by ``model.incidence_matrix``.

Datasets and sample spaces also keep their patterns as CSR arrays: row i is
``ids[indptr[i]:indptr[i + 1]]``, the vertical layout of mining's matrix X
(Zaki, IEEE TKDE 2000).  :func:`parse_fimi` reads the text with numpy's own
text reader straight into that layout, and the helpers below sort, gather
and intersect rows without building a tuple per pattern.  Identifiers past
the int64 range are kept as an object array of Python integers.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

Pattern = tuple[int, ...]

BOTTOM: Pattern = ()

_SCAN_BLOCK = 1 << 18
_SPLIT_ROWS = 1 << 12
# The bytes numpy's reader reads as the line reader does, with a carriage
# return only right before a line feed.
_SCANNABLE = b"0123456789 \t\n\r"


class FimiFormatError(ValueError):
    """Raised when a transaction file cannot be parsed."""


def canonicalize(items: Iterable[int]) -> Pattern:
    """Deduplicate and sort variable identifiers into canonical pattern form."""
    out = tuple(sorted(set(items)))
    if out and out[0] < 0:
        raise ValueError(f"negative variable identifier in pattern {out}")
    return out


def is_canonical(pattern: Pattern) -> bool:
    return all(a < b for a, b in zip(pattern, pattern[1:])) and (
        not pattern or pattern[0] >= 0
    )


def sort_key(pattern: Pattern) -> tuple[int, Pattern]:
    """Canonical ordering used everywhere: cardinality first, then lexicographic."""
    return (len(pattern), pattern)


def flatten(patterns: Collection[Pattern]) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, ids)`` of the patterns as CSR rows.

    ``ids`` is int64 when every identifier is an integer in its range, and
    otherwise an object array of the identifiers as given.
    """
    indptr = np.zeros(len(patterns) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, patterns), dtype=np.int64, count=len(patterns)),
              out=indptr[1:])
    types = set(map(type, chain.from_iterable(patterns)))
    if all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
        try:
            flat = chain.from_iterable(patterns)
            return indptr, np.fromiter(flat, dtype=np.int64, count=int(indptr[-1]))
        except OverflowError:
            pass
    ids = np.empty(int(indptr[-1]), dtype=object)
    ids[:] = list(chain.from_iterable(patterns))
    return indptr, ids


def flatten_canonical(patterns: Collection[Pattern], field: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`flatten` of patterns handed in from outside, refusing one that
    is not strictly increasing non-negative integers: a repeated or unsorted
    item would land on another outcome.  The check runs over the flat
    arrays; only patterns that fail it, or that hold identifiers past the
    int64 range, are walked one by one, to name the first bad pattern of
    ``field``."""
    indptr, ids = flatten(patterns)
    if ids.dtype != np.int64 or not rows_are_canonical(indptr, ids):
        for p in patterns:
            integers = all(isinstance(i, (int, np.integer)) and type(i) is not bool for i in p)
            if not (integers and is_canonical(p)):
                raise ValueError(
                    f"{field} pattern {tuple(p)} is not strictly increasing non-negative integers"
                )
    return indptr, ids


def rows_are_canonical(indptr: np.ndarray, ids: np.ndarray) -> bool:
    """Whether every row of integers is strictly increasing and non-negative."""
    if ids.size == 0:
        return True
    rising = np.diff(ids) > 0
    # Steps across a row boundary do not count.
    bounds = indptr[1:-1] - 1
    rising[bounds[(bounds >= 0) & (bounds < rising.size)]] = True
    return bool(ids.min() >= 0 and rising.all())


def compact(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct identifiers in increasing order, and the column of each
    identifier among them: ``np.unique(ids, return_inverse=True)``.  Small
    non-negative integer identifiers go through a presence table of at most
    four entries per identifier, in linear time, instead of a sort."""
    if ids.dtype.kind == "i" and ids.size and ids.min() >= 0 and ids.max() < 4 * ids.size:
        present = np.zeros(int(ids.max()) + 1, dtype=bool)
        present[ids] = True
        column = np.cumsum(present, dtype=np.int32) - 1
        return np.flatnonzero(present), column[ids]
    return np.unique(ids, return_inverse=True)


def take_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``rows``, in that order, as a new ``(indptr, indices)``."""
    starts = indptr[rows]
    new_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(indptr[rows + 1] - starts, out=new_indptr[1:])
    position = np.int32 if max(indptr[-1], new_indptr[-1]) < 2**31 else np.int64
    gather = np.repeat((starts - new_indptr[:-1]).astype(position), np.diff(new_indptr))
    gather += np.arange(new_indptr[-1], dtype=position)
    return new_indptr, indices[gather]


def split_rows(items: np.ndarray, indptr: np.ndarray, cols: np.ndarray) -> list:
    """CSR rows of columns into ``items``, each made a tuple of Python ints.

    Every row that holds an identifier shares one int object for it.  Rows
    are converted ``_SPLIT_ROWS`` at a time, so no flat list of every
    identifier is held at once.
    """
    objects = items.astype(object)
    bounds = indptr.tolist()
    out = []
    for first in range(0, len(bounds) - 1, _SPLIT_ROWS):
        ends = bounds[first:first + _SPLIT_ROWS + 1]
        flat = objects[cols[ends[0]:ends[-1]]].tolist()
        out += [tuple(flat[a - ends[0]:z - ends[0]]) for a, z in zip(ends, ends[1:])]
    return out


def row_pattern(indptr: np.ndarray, ids: np.ndarray, row: int) -> Pattern:
    """CSR row ``row`` of identifiers as a pattern, as error messages name it."""
    return tuple(ids[indptr[row]:indptr[row + 1]].tolist())


def _row_keys(mat: np.ndarray) -> np.ndarray:
    """One opaque key per row of a non-negative integer matrix.  The key holds
    the row's big-endian bytes, so keys order as the rows do lexicographically."""
    big = np.ascontiguousarray(mat, dtype=mat.dtype.newbyteorder(">"))
    return big.view(np.dtype((np.void, big.itemsize * mat.shape[1]))).ravel()


def canonical_ranks(indptr: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical order of CSR rows of non-negative integers, each row strictly
    increasing: by length, then lexicographically (:func:`sort_key`).

    Returns ``(rank, firsts)``: ``rank[i]`` is the position of row i among
    the distinct rows in that order, and ``firsts[r]`` is the first input row
    of rank r.  Rows of one length that are already in strictly increasing
    order, as in a file tbmlearn wrote, are not sorted.
    """
    lengths = np.diff(indptr)
    by_length = np.argsort(lengths, kind="stable")
    groups = np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1)
    rank = np.empty(len(lengths), dtype=np.int64)
    firsts = []
    done = 0
    for rows in groups:
        if rows.size == 0:
            continue
        length = int(lengths[rows[0]])
        new = np.ones(rows.size, dtype=bool)
        if length == 0:
            new[1:] = False
        else:
            span = np.arange(length, dtype=np.int32 if indptr[-1] < 2**31 else np.int64)
            mat = cols[indptr[rows].astype(span.dtype)[:, None] + span]
            step = mat[1:] - mat[:-1]
            differs = step != 0
            lead = step[np.arange(step.shape[0]), differs.argmax(axis=1)]
            if not (differs.any(axis=1).all() and (lead > 0).all()):
                keys = _row_keys(mat)
                order = np.argsort(keys, kind="stable")
                rows, keys = rows[order], keys[order]
                new[1:] = keys[1:] != keys[:-1]
        rank[rows] = done + np.cumsum(new) - 1
        firsts.append(rows[new])
        done += len(firsts[-1])
    if not firsts:
        return rank, np.empty(0, dtype=np.int64)
    return rank, np.concatenate(firsts)


def extend_rows(
    parents: list[np.ndarray],
    rows: np.ndarray,
    posting_indptr: np.ndarray,
    postings: np.ndarray,
    items: np.ndarray,
    width: int,
) -> list[np.ndarray]:
    """Row i of the result is ``parents[rows[i]]`` kept where it meets the
    posting of ``items[i]``: the prefix tidset recurrence of vertical mining.

    Rows are grouped by item; each item's posting is marked once in a
    boolean vector of ``width`` entries, and every parent row of the group is
    filtered through it, so a heavy posting is read once, not once per row.
    Sorted parent rows give sorted result rows.
    """
    out: list[np.ndarray] = [postings[:0]] * len(rows)
    mask = np.zeros(width, dtype=bool)
    bounds = posting_indptr.tolist()
    order = np.argsort(items, kind="stable")
    posting = postings[:0]
    current = None
    for i, item, r in zip(order.tolist(), items[order].tolist(), rows[order].tolist()):
        if item != current:
            mask[posting] = False
            posting = postings[bounds[item]:bounds[item + 1]]
            mask[posting] = True
            current = item
        parent = parents[r]
        out[i] = parent[mask[parent]]
    return out


@dataclass(frozen=True)
class TransactionDataset:
    """A multiset of transactions over variables ``0 .. n_variables - 1``.

    ``entries`` maps each distinct canonical pattern to its positive integer
    multiplicity; ``n_samples`` is the multiset size N.  ``csr`` holds the
    same transactions as arrays, in ``entries`` order.  A dataset built from
    its arrays, as the parser builds one, makes ``entries`` from them at
    first use.
    """

    entries: dict[Pattern, int]
    n_variables: int
    n_samples: int = field(init=False)

    def __post_init__(self):
        indptr, ids, counts = self.csr
        fast = (
            ids.dtype.kind == "i"
            and counts.dtype == np.int64
            and rows_are_canonical(indptr, ids)
            and (counts.size == 0 or counts.min() > 0)
            and (ids.size == 0 or int(ids.max()) < self.n_variables)
        )
        if not fast:
            self._check_each()
        total = sum(counts.tolist())
        if total < 1:
            raise ValueError("dataset must contain at least one transaction")
        object.__setattr__(self, "n_samples", total)

    def _check_each(self) -> None:
        """The checks of ``__post_init__``, one entry at a time, raising at the first failure."""
        for pattern, mult in self.entries.items():
            if not is_canonical(pattern):
                raise ValueError(f"non-canonical pattern {pattern}")
            if not isinstance(mult, int) or mult <= 0:
                raise ValueError(f"multiplicity for {pattern} must be a positive integer")
            if pattern and pattern[-1] >= self.n_variables:
                raise ValueError(
                    f"pattern {pattern} exceeds variable universe of size {self.n_variables}"
                )

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, ids, counts)``: the distinct transactions as CSR rows
        (see :func:`flatten`) and their multiplicities, in ``entries`` order.
        ``counts`` is int64, or an object array of the multiplicities as given
        when one is not an integer in that range."""
        indptr, ids = flatten(self.entries)
        mults = list(self.entries.values())
        if set(map(type, mults)) <= {int}:
            try:
                return indptr, ids, np.array(mults, dtype=np.int64)
            except OverflowError:
                pass
        counts = np.empty(len(mults), dtype=object)
        counts[:] = mults
        return indptr, ids, counts

    def __getattr__(self, name: str):
        # Reached for ``entries`` only until it is made.
        if name != "entries":
            raise AttributeError(name)
        indptr, ids, counts = self.csr
        items, cols = compact(ids)
        entries = dict(zip(split_rows(items, indptr, cols), counts.tolist()))
        object.__setattr__(self, "entries", entries)
        return entries

    @classmethod
    def _from_csr(cls, n_variables, csr) -> "TransactionDataset":
        """A dataset of the arrays ``csr`` alone, as the parser builds one."""
        dataset = cls.__new__(cls)
        object.__setattr__(dataset, "n_variables", n_variables)
        dataset.__dict__["csr"] = csr
        dataset.__post_init__()
        return dataset

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Iterable[int]], n_variables: int | None = None
    ) -> "TransactionDataset":
        """Aggregate raw transactions into multiplicity form.

        ``n_variables`` defaults to one plus the largest identifier seen.
        """
        entries: dict[Pattern, int] = {}
        max_id = -1
        for raw in transactions:
            pattern = canonicalize(raw)
            if pattern:
                max_id = max(max_id, pattern[-1])
            entries[pattern] = entries.get(pattern, 0) + 1
        if n_variables is None:
            n_variables = max_id + 1
        return cls(entries=entries, n_variables=n_variables)

    def unique_patterns(self) -> list[Pattern]:
        """Distinct transactions in canonical order."""
        return sorted(self.entries, key=sort_key)

    def with_universe(self, n_variables: int) -> "TransactionDataset":
        """Same data embedded in a (larger) variable universe."""
        if n_variables < self.n_variables:
            raise ValueError("cannot shrink the variable universe")
        return TransactionDataset._from_csr(n_variables, self.csr)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Relative frequencies of the distinct transactions of a dataset."""

    probs: dict[Pattern, float]
    support: frozenset[Pattern]

    def __post_init__(self):
        total = math.fsum(self.probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        if any(p <= 0 for p in self.probs.values()):
            raise ValueError("empirical probabilities must be positive")

    @classmethod
    def from_dataset(cls, dataset: TransactionDataset) -> "EmpiricalDistribution":
        n = dataset.n_samples
        probs = {pattern: mult / n for pattern, mult in dataset.entries.items()}
        return cls(probs=probs, support=frozenset(probs))


def parse_fimi(
    text: str | bytes, *, empty_as_bottom: bool = False
) -> TransactionDataset:
    """Parse transaction data in the one-line-per-transaction integer format.

    Each nonempty line holds whitespace-separated non-negative integer item
    identifiers; duplicates within a line are collapsed.  Empty lines are
    skipped unless ``empty_as_bottom`` is set, in which case each one counts
    as an observation of the empty pattern.

    Text of ASCII digits, spaces, tabs and line feeds (a carriage return
    only right before a line feed), with identifiers below 2^63, is read by
    numpy's text reader, ``np.fromstring``.  Any other text is read line by
    line, with Python's own line and token splitting; both give the same
    dataset.
    """
    data = text if isinstance(text, bytes) else text.encode("utf-8", "replace")
    dataset = _scan_fimi(data, empty_as_bottom)
    return dataset if dataset is not None else _read_fimi(text, empty_as_bottom)


def _scan_tokens(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Each token's value and each line's token count, of the whole lines
    ``block``; ``None`` when numpy's reader would not read them as the line
    reader does.  A line ends at a line feed, and a last line needs none."""
    if block.translate(None, _SCANNABLE) or block.count(b"\r") != block.count(b"\r\n"):
        return None
    # -1 marks each line's end, the last line's too: numpy reads a text of
    # blanks alone as one 0.
    if not block.endswith(b"\n"):
        block += b"\n"
    # numpy 1.x warns where numpy 2 raises when it stops before the end.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(block.replace(b"\n", b" -1 "), dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    ends = np.flatnonzero(values < 0)
    values = np.delete(values, ends)
    top = values.max(initial=0)
    if top == np.iinfo(np.int64).max:  # numpy clips tokens past int64 to it
        return None
    return values.astype(np.int32) if top < 2**31 else values, np.diff(ends, prepend=-1) - 1


def _scan_fimi(data: bytes, empty_as_bottom: bool) -> TransactionDataset | None:
    """The numpy reader of :func:`parse_fimi`; ``None`` when the text needs the line reader."""
    # Blocks of whole lines keep numpy's int64 tokens few.
    values, sizes = [], []
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _SCAN_BLOCK) + 1 or len(data)
        tokens = _scan_tokens(data[start:stop])
        if tokens is None:
            return None
        values.append(tokens[0])
        sizes.append(tokens[1])
        start = stop
    if not values:
        return None
    values, sizes = np.concatenate(values), np.concatenate(sizes)
    indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    if not rows_are_canonical(indptr, values):
        line = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
        values = values[np.lexsort((values, line))]
        repeated = np.flatnonzero((line[1:] == line[:-1]) & (values[1:] == values[:-1])) + 1
        values = np.delete(values, repeated)
        sizes = np.bincount(np.delete(line, repeated), minlength=sizes.size)
        del line
    if not empty_as_bottom:
        sizes = sizes[sizes > 0]
    if sizes.size == 0:
        return None
    indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])

    # Distinct transactions in order of first appearance, as a dict fills.
    rank, firsts = canonical_ranks(indptr, values)
    counts = np.bincount(rank)
    appear = np.argsort(firsts)
    indptr, values = take_rows(indptr, values, firsts[appear])
    n_variables = int(values.max()) + 1 if values.size else 0
    return TransactionDataset._from_csr(n_variables, (indptr, values, counts[appear]))


def _read_fimi(text: str | bytes, empty_as_bottom: bool) -> TransactionDataset:
    """The line reader of :func:`parse_fimi`."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = _checked_lines(text, empty_as_bottom)
    first = next(lines, None)
    if first is None:
        raise FimiFormatError("no transactions found")
    return TransactionDataset.from_transactions(chain((first,), lines))


def _checked_lines(text: str, empty_as_bottom: bool) -> Iterator[list[int]]:
    """The item identifiers of each transaction line, checked as they are read."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens and not empty_as_bottom:
            continue
        try:
            ids = [int(tok) for tok in tokens]
        except ValueError as exc:
            raise FimiFormatError(f"line {lineno}: malformed token in {line!r}") from exc
        if any(i < 0 for i in ids):
            raise FimiFormatError(f"line {lineno}: negative item identifier")
        yield ids


def format_fimi(dataset: TransactionDataset) -> str:
    """Serialize a dataset, one line per multiset occurrence, sorted canonically."""
    lines = []
    for pattern in sorted(dataset.entries, key=sort_key):
        line = " ".join(str(i) for i in pattern)
        lines.extend([line] * dataset.entries[pattern])
    return "\n".join(lines) + "\n"
