"""Canonical itemset patterns, transaction datasets, and empirical statistics.

A pattern is the set of "on" variables of a binary configuration, stored as a
strictly increasing tuple of non-negative integer identifiers.  The empty
tuple is the all-zeros configuration (bottom).  Datasets are multisets of
patterns with integer multiplicities, which keeps every support computation
exact.  Containment is counted once, by ``model.incidence_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

Pattern = tuple[int, ...]

BOTTOM: Pattern = ()


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


@dataclass(frozen=True)
class TransactionDataset:
    """A multiset of transactions over variables ``0 .. n_variables - 1``.

    ``entries`` maps each distinct canonical pattern to its positive integer
    multiplicity; ``n_samples`` is the multiset size N.
    """

    entries: dict[Pattern, int]
    n_variables: int
    n_samples: int = field(init=False)

    def __post_init__(self):
        total = 0
        for pattern, mult in self.entries.items():
            if not is_canonical(pattern):
                raise ValueError(f"non-canonical pattern {pattern}")
            if not isinstance(mult, int) or mult <= 0:
                raise ValueError(f"multiplicity for {pattern} must be a positive integer")
            if pattern and pattern[-1] >= self.n_variables:
                raise ValueError(
                    f"pattern {pattern} exceeds variable universe of size {self.n_variables}"
                )
            total += mult
        if total < 1:
            raise ValueError("dataset must contain at least one transaction")
        object.__setattr__(self, "n_samples", total)

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
        return TransactionDataset(entries=dict(self.entries), n_variables=n_variables)


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
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    entries: dict[Pattern, int] = {}
    max_id = -1
    n_lines = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            if not empty_as_bottom:
                continue
            pattern: Pattern = BOTTOM
        else:
            try:
                ids = [int(tok) for tok in tokens]
            except ValueError as exc:
                raise FimiFormatError(f"line {lineno}: malformed token in {line!r}") from exc
            if any(i < 0 for i in ids):
                raise FimiFormatError(f"line {lineno}: negative item identifier")
            pattern = canonicalize(ids)
            max_id = max(max_id, pattern[-1])
        entries[pattern] = entries.get(pattern, 0) + 1
        n_lines += 1
    if n_lines == 0:
        raise FimiFormatError("no transactions found")
    return TransactionDataset(entries=entries, n_variables=max_id + 1)


def format_fimi(dataset: TransactionDataset) -> str:
    """Serialize a dataset, one line per multiset occurrence, sorted canonically."""
    lines = []
    for pattern in sorted(dataset.entries, key=sort_key):
        line = " ".join(str(i) for i in pattern)
        lines.extend([line] * dataset.entries[pattern])
    return "\n".join(lines) + "\n"
