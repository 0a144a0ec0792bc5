"""Pattern canonicalization, dataset parsing, and empirical statistics.

Containment and empirical expectations are read through the package's one
count, ``model.incidence_matrix``, and checked against the set oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbmlearn import (
    EmpiricalDistribution,
    FimiFormatError,
    SampleSpace,
    TransactionDataset,
    build_sample_space,
    canonicalize,
    format_fimi,
    incidence_matrix,
    parse_fimi,
)
from tbmlearn.fitting import empirical_targets
from tbmlearn.model import supports

from oracles import brute_eta, enumerate_patterns


def row_contains(s, x) -> bool:
    """Whether outcome ``x`` is in the incidence row of pattern ``s``."""
    space = SampleSpace.from_patterns([x])
    return space.position(x) in incidence_matrix(space, [s]).indices


def empirical_eta(dataset, x) -> float:
    """The fit's target for ``x``: its incidence row over the data's space."""
    space = build_sample_space([], dataset)
    return float(empirical_targets(dataset, space, incidence_matrix(space, [x]))[0])


class TestContainment:
    def test_empty_pattern_contained_everywhere(self):
        assert row_contains((), (1, 2))
        assert row_contains((), ())

    def test_definition(self):
        assert row_contains((1,), (1, 2))
        assert not row_contains((3,), (1, 2))

    def test_superset_is_not_subset(self):
        assert not row_contains((1, 2), (1,))

    @given(
        st.sets(st.integers(0, 12)),
        st.sets(st.integers(0, 12)),
    )
    def test_matches_set_semantics(self, a, b):
        s, x = canonicalize(a), canonicalize(b)
        assert row_contains(s, x) == (a <= b)


class TestCanonicalize:
    def test_sorts_and_dedupes(self):
        assert canonicalize([2, 1, 2]) == (1, 2)
        assert canonicalize([]) == ()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            canonicalize([1, -2])


class TestParseFimi:
    def test_basic(self):
        d = parse_fimi("1 2\n1\n1 2\n")
        assert d.entries == {(1, 2): 2, (1,): 1}
        assert d.n_samples == 3
        assert d.n_variables == 3

    def test_canonicalizes_line_order(self):
        d = parse_fimi("2 1\n")
        assert d.entries == {(1, 2): 1}

    def test_malformed_token_reports_line(self):
        with pytest.raises(FimiFormatError, match="line 1"):
            parse_fimi("1 x\n")
        with pytest.raises(FimiFormatError, match="line 3"):
            parse_fimi("1\n2\n1 ?\n")

    def test_negative_identifier_rejected(self):
        with pytest.raises(FimiFormatError):
            parse_fimi("1 -2\n")

    def test_empty_file_rejected(self):
        with pytest.raises(FimiFormatError):
            parse_fimi("")
        with pytest.raises(FimiFormatError):
            parse_fimi("\n\n")

    def test_crlf(self):
        d = parse_fimi(b"1 2\r\n2\r\n")
        assert d.entries == {(1, 2): 1, (2,): 1}

    def test_empty_lines_skipped_by_default(self):
        d = parse_fimi("1\n\n2\n")
        assert d.n_samples == 2

    def test_empty_lines_as_bottom(self):
        d = parse_fimi("1\n\n2\n", empty_as_bottom=True)
        assert d.n_samples == 3
        assert d.entries[()] == 1

    def test_roundtrip(self):
        text = "3 1\n2\n1 3\n2\n0\n"
        d = parse_fimi(text)
        again = parse_fimi(format_fimi(d))
        assert again.entries == d.entries
        assert again.n_variables == d.n_variables

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 8), min_size=1, max_size=5),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_random(self, transactions):
        d = TransactionDataset.from_transactions(transactions)
        again = parse_fimi(format_fimi(d))
        assert again.entries == d.entries
        assert again.n_variables == d.n_variables


class TestTransactionDataset:
    def test_counts_totals(self, worked_dataset):
        assert worked_dataset.n_samples == 10
        assert worked_dataset.n_variables == 3

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            TransactionDataset(entries={(1,): 0}, n_variables=2)

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError):
            TransactionDataset(entries={(5,): 1}, n_variables=3)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            TransactionDataset(entries={}, n_variables=1)

    def test_with_universe_keeps_data(self, worked_dataset):
        wide = worked_dataset.with_universe(1000)
        assert wide.entries == worked_dataset.entries
        assert wide.n_variables == 1000
        with pytest.raises(ValueError):
            worked_dataset.with_universe(1)


class TestEmpiricalEta:
    def test_worked_values(self, worked_dataset):
        assert empirical_eta(worked_dataset, (1,)) == pytest.approx(0.7, abs=0)
        assert empirical_eta(worked_dataset, (1, 2)) == pytest.approx(0.4, abs=0)

    def test_bottom_always_one(self, worked_dataset):
        assert empirical_eta(worked_dataset, ()) == 1.0

    def test_exact_integer_support(self, worked_dataset):
        assert supports(worked_dataset, [(1,), (2,)]).tolist() == [7, 5]

    def test_matches_powerset_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            universe = list(enumerate_patterns(n))
            weights = rng.dirichlet(np.ones(len(universe)))
            counts = rng.multinomial(200, weights)
            entries = {x: int(c) for x, c in zip(universe, counts) if c > 0}
            d = TransactionDataset(entries=entries, n_variables=n)
            probs = {x: c / 200 for x, c in entries.items()}
            for x in universe:
                assert empirical_eta(d, x) == pytest.approx(
                    brute_eta(probs, x), abs=1e-12
                )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 6), max_size=6), min_size=1, max_size=15
        ),
        st.sets(st.integers(0, 6), max_size=4),
        st.data(),
    )
    def test_monotone_under_containment(self, transactions, sup, data):
        d = TransactionDataset.from_transactions(transactions, n_variables=7)
        y = canonicalize(sup)
        x = canonicalize(data.draw(st.sets(st.sampled_from(sorted(sup)))) if sup else set())
        assert empirical_eta(d, x) >= empirical_eta(d, y)


class TestEmpiricalDistribution:
    def test_from_dataset(self, worked_dataset):
        p = EmpiricalDistribution.from_dataset(worked_dataset)
        assert p.probs[(1, 2)] == 0.4
        assert sum(p.probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert p.support == frozenset(worked_dataset.entries)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(probs={(1,): 0.5}, support=frozenset({(1,)}))
