"""Parameter-domain mining against exhaustive enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbmlearn import (
    DomainSizeError,
    ParameterDomain,
    TransactionDataset,
    mine_parameter_domain,
    parse_fimi,
    support_threshold,
)

from tbmlearn.patterns import extend_rows

from conftest import traced_peak
from oracles import brute_force_domain, contains, random_dataset


class TestSupportThreshold:
    def test_zero_sigma_keeps_everything(self):
        assert support_threshold(0.0, 100) == 0

    def test_positive_sigma_is_at_least_one(self):
        assert support_threshold(1e-9, 10) == 1

    def test_rounding(self):
        assert support_threshold(0.3, 10) == 3
        assert support_threshold(0.31, 10) == 4
        assert support_threshold(1.0, 7) == 7

    def test_smallest_count_reaching_sigma(self):
        # 0.07 * 100 == 7.000000000000001, yet 7 / 100 >= 0.07.
        assert support_threshold(0.07, 100) == 7
        assert support_threshold(0.28, 25) == 7
        # 3 * nextafter(1/3, 1) rounds to 1.0, yet 1 / 3 < sigma.
        assert support_threshold(float(np.nextafter(1 / 3, 1)), 3) == 2
        sigmas = [j / 100 for j in range(1, 100)]
        for n in range(1, 2001):
            # c / n rises with c, so the first c reaching sigma is a search.
            smallest = np.searchsorted(np.arange(1, n + 1) / n, sigmas) + 1
            got = [support_threshold(sigma, n) for sigma in sigmas]
            assert got == smallest.tolist(), n

    def test_bounds(self):
        with pytest.raises(ValueError):
            support_threshold(-0.1, 10)
        with pytest.raises(ValueError):
            support_threshold(1.1, 10)


class TestMineParameterDomain:
    def test_worked_example(self, worked_dataset):
        domain = mine_parameter_domain(worked_dataset, 0.45, 2)
        assert domain.patterns == ((1,), (2,))

    def test_unattainable_threshold_yields_empty(self, worked_dataset):
        domain = mine_parameter_domain(worked_dataset, 1.0, 2)
        assert domain.patterns == ()

    def test_sigma_zero_covers_universe(self):
        d = parse_fimi("1 2\n")
        domain = mine_parameter_domain(d, 0.0, 1)
        assert domain.patterns == ((0,), (1,), (2,))

    def test_sigma_zero_includes_all_small_orders(self):
        d = parse_fimi("0 1\n2\n")
        domain = mine_parameter_domain(d, 0.0, 2)
        assert len(domain) == 3 + 3

    def test_invalid_arguments(self, worked_dataset):
        with pytest.raises(ValueError):
            mine_parameter_domain(worked_dataset, -0.5, 2)
        with pytest.raises(ValueError):
            mine_parameter_domain(worked_dataset, 0.5, 0)

    def test_size_cap(self):
        d = parse_fimi(" ".join(str(i) for i in range(30)) + "\n")
        with pytest.raises(DomainSizeError):
            mine_parameter_domain(d, 0.0, 3, max_domain_size=100)
        with pytest.raises(DomainSizeError):
            mine_parameter_domain(d, 0.5, 3, max_domain_size=10)

    def test_size_cap_boundary_at_higher_orders(self):
        rng = np.random.default_rng(5)
        d = TransactionDataset(entries=random_dataset(rng, 7, 200), n_variables=7)
        domain = mine_parameter_domain(d, 0.1, 3)
        assert max(len(p) for p in domain) == 3
        capped = mine_parameter_domain(d, 0.1, 3, max_domain_size=len(domain))
        assert capped.patterns == domain.patterns
        with pytest.raises(DomainSizeError):
            mine_parameter_domain(d, 0.1, 3, max_domain_size=len(domain) - 1)

    def test_order_cap_respected(self, worked_dataset):
        domain = mine_parameter_domain(worked_dataset, 0.1, 1)
        assert all(len(p) == 1 for p in domain)

    def test_independent_of_transaction_order(self):
        text = "1 2\n3\n1 2 3\n2\n1 3\n"
        lines = text.strip().split("\n")
        d1 = parse_fimi("\n".join(lines) + "\n")
        d2 = parse_fimi("\n".join(reversed(lines)) + "\n")
        for sigma in (0.0, 0.2, 0.4):
            a = mine_parameter_domain(d1, sigma, 3)
            b = mine_parameter_domain(d2, sigma, 3)
            assert a.patterns == b.patterns

    def test_transaction_order_with_unused_variables(self):
        # Variables 0, 4 and 7 never occur; column ids must not shift patterns.
        lines = ["1 2 5", "3", "1 2 3 6", "2 6", "1 3 5", "2 5 6", "1 2"] * 2
        rng = np.random.default_rng(8)
        d1 = TransactionDataset.from_transactions(
            [map(int, t.split()) for t in lines], n_variables=8
        )
        shuffled = [lines[i] for i in rng.permutation(len(lines))]
        d2 = TransactionDataset.from_transactions(
            [map(int, t.split()) for t in shuffled], n_variables=8
        )
        assert list(d1.entries) != list(d2.entries)
        for sigma in (0.1, 0.3):
            a = mine_parameter_domain(d1, sigma, 3)
            assert a.patterns == mine_parameter_domain(d2, sigma, 3).patterns
            assert a.patterns == brute_force_domain(d1, sigma, 3).patterns

    def test_downward_closure(self):
        rng = np.random.default_rng(3)
        entries = random_dataset(rng, 6, 120)
        d = TransactionDataset(entries=entries, n_variables=6)
        domain = mine_parameter_domain(d, 0.15, 3)
        members = set(domain.patterns)
        for p in domain:
            for drop in range(len(p)):
                sub = p[:drop] + p[drop + 1 :]
                if sub:
                    assert sub in members

    def test_size_bound(self):
        rng = np.random.default_rng(4)
        entries = random_dataset(rng, 5, 60)
        d = TransactionDataset(entries=entries, n_variables=5)
        domain = mine_parameter_domain(d, 0.0, 2)
        assert len(domain) <= math.comb(5, 1) + math.comb(5, 2)


class TestBruteForceEquivalence:
    def test_matches_on_random_datasets(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            n = int(rng.integers(3, 9))
            entries = random_dataset(rng, n, int(rng.integers(10, 120)))
            d = TransactionDataset(entries=entries, n_variables=n)
            for sigma in (0.0, 0.25, 0.6):
                for k in (1, 2, 3):
                    fast = mine_parameter_domain(d, sigma, k)
                    slow = brute_force_domain(d, sigma, k)
                    assert fast.patterns == slow.patterns

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sets(st.integers(0, 29)), min_size=1, max_size=8),
        st.lists(st.sets(st.integers(0, 29)), min_size=1, max_size=6),
        st.data(),
    )
    def test_extend_rows_matches_set_intersection(self, parents, postings, data):
        # The helper behind mining's tidsets and the rows of Z: row i is
        # parent rows[i] kept where it meets posting items[i].  Items repeat
        # and come unsorted, so postings are marked and cleared in groups.
        rows = data.draw(st.lists(st.integers(0, len(parents) - 1), max_size=12))
        items = data.draw(st.lists(st.integers(0, len(postings) - 1), min_size=len(rows),
                                   max_size=len(rows)))

        posting_indptr = np.cumsum([0] + [len(x) for x in postings])
        flat = np.array([i for x in postings for i in sorted(x)], dtype=np.int32)
        got = extend_rows(
            [np.array(sorted(x), dtype=np.int32) for x in parents],
            np.array(rows, dtype=np.int64), posting_indptr, flat,
            np.array(items, dtype=np.int64), 30,
        )
        assert len(got) == len(rows)
        for row, r, item in zip(got, rows, items):
            assert row.dtype == np.int32
            assert row.tolist() == sorted(parents[r] & postings[item])

    def test_brute_force_guards_universe_size(self):
        d = parse_fimi(" ".join(str(i) for i in range(25)) + "\n")
        with pytest.raises(ValueError):
            brute_force_domain(d, 0.5, 2)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sets(st.integers(0, 5), max_size=5), st.integers(1, 4)),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([0.0, 0.2, 0.5, 0.9]),
        st.integers(1, 4),
    )
    def test_property_equivalence(self, counted, sigma, k):
        transactions = [t for t, mult in counted for _ in range(mult)]
        d = TransactionDataset.from_transactions(transactions, n_variables=6)
        assert (
            mine_parameter_domain(d, sigma, k).patterns
            == brute_force_domain(d, sigma, k).patterns
        )


class TestParameterDomain:
    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            ParameterDomain(patterns=((),), sigma=0.1, k=2)

    def test_rejects_oversized_pattern(self):
        with pytest.raises(ValueError):
            ParameterDomain(patterns=((1, 2, 3),), sigma=0.1, k=2)

    def test_membership_and_len(self, worked_dataset):
        domain = mine_parameter_domain(worked_dataset, 0.3, 2)
        assert (1, 2) in domain
        assert (3,) not in domain
        assert len(domain) == 3

    def test_mined_supports_reach_sigma(self, worked_dataset):
        domain = mine_parameter_domain(worked_dataset, 0.45, 2)
        for p in domain:
            support = sum(m for t, m in worked_dataset.entries.items() if contains(p, t))
            assert support / worked_dataset.n_samples >= 0.45


class TestMiningMemory:
    def test_cost_ignores_the_variable_universe(self):
        # A universe of 10^9 + 1 variables, of which two occur.
        d = parse_fimi("0 1000000000\n0\n1000000000\n0 1000000000\n")
        domain = mine_parameter_domain(d, 0.2, 2)
        assert domain.patterns == ((0,), (1000000000,), (0, 1000000000))
        assert traced_peak(lambda: mine_parameter_domain(d, 0.2, 2)) < 1 << 20

    def test_tidset_gathers_are_chunked(self):
        # Zipf baskets: the popular items' postings recur in thousands of
        # extensions, about 6.3M nonzeros of prefix tidsets and postings against
        # 0.45M kept.  Gathering them all would take near 150 MiB; marking each
        # posting once per item copies only the kept nonzeros.
        rng = np.random.default_rng(0)
        popularity = 1.0 / np.arange(1, 201)
        popularity /= popularity.sum()
        lengths = 1 + rng.poisson(19, size=3000)
        d = TransactionDataset.from_transactions(
            (rng.choice(200, size=n, replace=False, p=popularity).tolist() for n in lengths),
            n_variables=200,
        )
        peak = traced_peak(lambda: mine_parameter_domain(d, 0.01, 3))
        assert peak < 64 << 20
