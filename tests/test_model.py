"""Sample-space construction and Gibbs-model bookkeeping."""

import math
import pickle
from unittest import mock

import numpy as np
import pytest
import scipy.special
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import tbmlearn.model
from tbmlearn import (
    GibbsModel,
    SampleSpace,
    TransactionDataset,
    build_sample_space,
    canonicalize,
    fit_tbm,
    incidence_matrix,
    mine_parameter_domain,
)
from tbmlearn.model import logsumexp, multiplicities
from tbmlearn.patterns import sort_key

from conftest import WORKED_PHI, WORKED_PROBS, WORKED_PSI, WORKED_THETA1
from oracles import brute_eta, contains


def worked_mle_model():
    space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
    return GibbsModel(space, [(1,), (2,)], [WORKED_THETA1, 0.0])


class TestSampleSpace:
    def test_union_construction(self, worked_dataset):
        domain = mine_parameter_domain(worked_dataset, 0.45, 2)
        space = build_sample_space(domain, worked_dataset)
        assert space.outcomes == ((), (1,), (2,), (1, 2))
        assert len(space) == 4

    def test_holds_only_the_given_patterns(self):
        # Bottom is an outcome only when listed; build_sample_space lists it.
        space = SampleSpace.from_patterns([(0, 1), (0, 1)])
        assert space.outcomes == ((0, 1),) and () not in space
        d = TransactionDataset(entries={(0, 1): 2}, n_variables=2)
        assert build_sample_space([], d).outcomes == ((), (0, 1))

    def test_degenerate_point_mass(self):
        d = TransactionDataset(entries={(): 3}, n_variables=0)
        space = build_sample_space([], d)
        assert space.outcomes == ((),)

    def test_union_of_disjoint_parts(self):
        d = TransactionDataset(entries={(2,): 1}, n_variables=3)
        space = build_sample_space([(0, 1)], d)
        assert space.outcomes == ((), (2,), (0, 1))

    def test_ordering_cardinality_then_lexicographic(self):
        space = SampleSpace.from_patterns([(5,), (1, 2), (0,), (), (0, 3)])
        assert space.outcomes == ((), (0,), (5,), (0, 3), (1, 2))

    def test_position_error_outside(self):
        space = SampleSpace.from_patterns([(1,)])
        with pytest.raises(ValueError, match="outside the sample space"):
            space.position((9,))

    def test_size_bound(self, worked_dataset):
        domain = mine_parameter_domain(worked_dataset, 0.1, 2)
        space = build_sample_space(domain, worked_dataset)
        assert len(space) <= len(domain) + len(worked_dataset.entries) + 1


# Identifiers past the int32 range, and one past the int64 range, which
# keeps the space's identifiers as Python integers.
ITEMS = st.one_of(
    st.integers(0, 6), st.integers(2**31 - 2, 2**31 + 2), st.just(2**63 + 5)
)


class TestSampleSpaceArrays:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sets(ITEMS, max_size=5), max_size=14),
        st.lists(st.tuples(st.sets(ITEMS, max_size=4), st.integers(1, 5)), min_size=1,
                 max_size=8),
    )
    def test_equals_tuple_oracle(self, patterns, counted):
        # The CSR space against sorted(set(patterns) | {()}): outcome order,
        # position, postings and multiplicities, with duplicates and ().
        pats = [canonicalize(p) for p in patterns]
        pats += pats[: len(pats) // 2] + [()]
        entries = {}
        for items, mult in counted:
            t = canonicalize(items)
            entries[t] = entries.get(t, 0) + mult
        dataset = TransactionDataset(entries=entries, n_variables=2**64)

        for space, union in (
            (SampleSpace.from_patterns(pats), set(pats)),
            (build_sample_space(pats, dataset), set(pats) | set(entries)),
        ):
            expected = sorted(union | {()}, key=sort_key)
            assert space.outcomes == tuple(expected)
            assert len(space) == len(expected)
            for i, x in enumerate(expected):
                assert space.position(x) == i and x in space
            items = sorted({i for x in expected for i in x})
            assert space.items.tolist() == items
            indptr, positions = space.item_rows
            for c, item in enumerate(items):
                got = positions[indptr[c]:indptr[c + 1]].tolist()
                assert got == [i for i, x in enumerate(expected) if item in x]

        # Built from the dataset, or looked up in a space that was not: one
        # of the same outcomes, or one built from the data in another order.
        wider = SampleSpace.from_patterns(pats + list(entries))
        reordered = TransactionDataset(dict(reversed(entries.items())), 2**64)
        for space in (build_sample_space(pats, dataset), wider,
                      build_sample_space(pats, reordered)):
            want = [entries.get(x, 0) for x in space.outcomes]
            assert multiplicities(space, dataset).tolist() == want


    def test_multiplicities_reject_a_transaction_outside(self):
        dataset = TransactionDataset(entries={(0,): 2, (0, 7): 1, (5,): 3}, n_variables=8)
        space = SampleSpace.from_patterns([(0,), (5,), (0, 5)])
        with pytest.raises(ValueError, match=r"pattern \(0, 7\) is outside the sample space"):
            multiplicities(space, dataset)

    @pytest.mark.parametrize(
        "entries, sigma, face",
        [
            ({(): 2, (1,): 3, (2,): 1, (1, 2): 4}, 0.45, False),
            # Item 3 occurs only with item 0, so the fit moves to a face.
            ({(): 1, (0,): 2, (0, 3): 4, (1,): 3, (0, 1, 3): 2, (1, 2): 1}, 0.0, True),
        ],
    )
    def test_spaces_and_fitted_models_pickle(self, entries, sigma, face):
        dataset = TransactionDataset(entries=entries, n_variables=4)
        space = build_sample_space([(1,), (0, 1)], dataset)
        again = pickle.loads(pickle.dumps(space))
        assert again.outcomes == space.outcomes
        assert multiplicities(again, dataset).tolist() == multiplicities(space, dataset).tolist()
        model, report, _ = fit_tbm(dataset, sigma, 2)
        assert bool(report.removed_parameters) == face
        loaded = pickle.loads(pickle.dumps(model))
        assert loaded.space.outcomes == model.space.outcomes
        assert loaded.domain == model.domain
        np.testing.assert_array_equal(loaded.log_probs, model.log_probs)


class TestIncidenceMatrix:
    def test_against_direct_subset_checks(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            outcomes = {
                tuple(sorted(rng.choice(8, size=rng.integers(0, 5), replace=False)))
                for _ in range(12)
            }
            space = SampleSpace.from_patterns(outcomes)
            patterns = [p for p in space.outcomes if p][:6]
            z = incidence_matrix(space, patterns).toarray()
            for j, p in enumerate(patterns):
                for i, x in enumerate(space.outcomes):
                    assert z[j, i] == contains(p, x)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sets(st.integers(0, 7), max_size=5), max_size=15),
        st.lists(st.sets(st.integers(0, 9), max_size=4), max_size=12),
    )
    def test_equals_dense_oracle(self, outcomes, patterns):
        # Items 8 and 9 occur in no outcome, random patterns often lack their
        # prefixes, and the tail repeats patterns and adds the empty one.
        space = SampleSpace.from_patterns(canonicalize(x) for x in outcomes)
        pats = [canonicalize(p) for p in patterns]
        pats += pats[: len(pats) // 2] + [()]
        z = incidence_matrix(space, pats)
        dense = [[contains(p, x) for x in space.outcomes] for p in pats]
        assert z.shape == (len(pats), len(space))
        assert np.array_equal(z.toarray(), np.array(dense, dtype=np.float64))
        assert z.indices.dtype == np.int32 and z.indptr.dtype == np.int32
        for j in range(len(pats)):
            assert np.all(np.diff(z.indices[z.indptr[j] : z.indptr[j + 1]]) > 0)

    def test_pattern_outside_space_allowed(self):
        space = SampleSpace.from_patterns([(), (1,), (1, 2)])
        z = incidence_matrix(space, [(9,)])
        assert z.nnz == 0


class TestScoringWithoutScipy:
    """The postings and the model's energies, computed with numpy alone,
    against scipy's transpose and product, bit for bit."""

    @staticmethod
    def assert_scipy_transpose(space):
        ones = np.ones(space.indices.size, dtype=bool)
        shape = (len(space), len(space.items))
        want = sparse.csr_matrix((ones, space.indices, space.indptr), shape=shape).tocsc()
        indptr, positions = space.item_rows
        assert np.array_equal(indptr, want.indptr)
        assert np.array_equal(positions, want.indices) and positions.dtype == np.int32

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 300), max_size=6), max_size=40))
    def test_item_rows_equal_scipy_transpose(self, outcomes):
        self.assert_scipy_transpose(SampleSpace.from_patterns(canonicalize(x) for x in outcomes))

    def test_item_rows_above_2_16_items(self):
        # Past 2^16 columns the sort keys are uint32, which numpy does not
        # radix-sort.
        rng = np.random.default_rng(4)
        rows = np.sort(rng.choice(300_000, size=(40_000, 4)), axis=1)
        rows = rows[(np.diff(rows, axis=1) > 0).all(axis=1)]
        indptr = np.arange(0, rows.size + 1, 4, dtype=np.int64)
        space = SampleSpace.from_rows(indptr, rows.ravel())
        assert len(space.items) > 2**16
        self.assert_scipy_transpose(space)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sets(st.integers(0, 7), max_size=5), max_size=15),
        st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=3), max_size=12,
                 unique_by=frozenset),
        st.data(),
    )
    def test_log_probs_equal_scipy_product(self, outcomes, patterns, data):
        # Blocks of 3 rows put block bounds inside these small domains.
        space = SampleSpace.from_patterns([()] + [canonicalize(x) for x in outcomes])
        domain = sorted((canonicalize(p) for p in patterns), key=sort_key)
        theta = np.array(data.draw(st.lists(
            st.floats(-30.0, 30.0), min_size=len(domain), max_size=len(domain))))
        raw = (incidence_matrix(space, domain).T.dot(theta) if domain
               else np.zeros(len(space)))
        want = raw - logsumexp(raw)
        for rows in (3, tbmlearn.model._SUM_ROWS):
            with mock.patch.object(tbmlearn.model, "_SUM_ROWS", rows):
                model = GibbsModel(space, domain, theta)
            assert model.log_probs.tobytes() == want.tobytes()
            assert model.log_partition == logsumexp(raw)


class TestGibbsModel:
    def test_uniform_energies_and_partition(self):
        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        m = GibbsModel(space, (), ())
        assert m.log_partition == pytest.approx(np.log(4), abs=1e-12)
        for x in space.outcomes:
            assert m.energy(x) == pytest.approx(0.0, abs=1e-12)
        assert m.eta((1, 2)) == pytest.approx(0.25, abs=1e-12)
        assert m.eta(()) == pytest.approx(1.0, abs=1e-12)

    def test_single_outcome_space(self):
        m = GibbsModel(SampleSpace.from_patterns([()]), (), ())
        assert m.log_partition == pytest.approx(0.0, abs=0)
        assert m.negative_entropy() == pytest.approx(0.0, abs=0)

    def test_worked_mle_values(self):
        m = worked_mle_model()
        assert m.log_partition == pytest.approx(WORKED_PSI, abs=1e-12)
        for x, p in WORKED_PROBS.items():
            assert m.prob(x) == pytest.approx(p, abs=1e-12)
        assert m.energy((1, 2)) == pytest.approx(-WORKED_THETA1, abs=1e-12)
        assert m.energy(()) == pytest.approx(0.0, abs=1e-12)
        assert m.eta((1,)) == pytest.approx(0.7, abs=1e-12)
        assert m.eta((2,)) == pytest.approx(0.5, abs=1e-12)
        assert m.negative_entropy() == pytest.approx(WORKED_PHI, abs=1e-12)

    def test_log_prob_identity_random_theta(self):
        rng = np.random.default_rng(9)
        space = SampleSpace.from_patterns(
            [(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]
        )
        domain = [(0,), (1,), (2,), (0, 1), (1, 2)]
        for _ in range(5):
            theta = rng.normal(size=len(domain))
            m = GibbsModel(space, domain, theta)
            for x in space.outcomes:
                expected = sum(
                    t for p, t in zip(domain, theta) if contains(p, x)
                ) - m.log_partition
                assert m.log_prob(x) == pytest.approx(expected, abs=1e-10)
            assert m.log_prob(()) == pytest.approx(-m.log_partition, abs=1e-12)
            assert np.exp(m.log_probs).sum() == pytest.approx(1.0, abs=1e-10)

    def test_eta_matches_brute_force(self):
        m = worked_mle_model()
        probs = m.probabilities
        for x in [(), (1,), (2,), (1, 2)]:
            assert m.eta(x) == pytest.approx(brute_eta(probs, x), abs=1e-12)

    def test_energy_outside_space_raises(self):
        m = worked_mle_model()
        with pytest.raises(ValueError):
            m.energy((7,))

    def test_theta_must_align_and_be_finite(self):
        space = SampleSpace.from_patterns([(), (1,)])
        with pytest.raises(ValueError):
            GibbsModel(space, [(1,)], [1.0, 2.0])
        with pytest.raises(ValueError):
            GibbsModel(space, [(1,)], [np.inf])

    def test_positive_probabilities(self):
        m = worked_mle_model()
        assert all(p > 0 for p in m.probabilities.values())


SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan])
MAGNITUDE = st.builds(
    lambda m, sign: sign * m,
    st.floats(min_value=1e-3, max_value=700.0),
    st.sampled_from([-1.0, 1.0]),
)


def same_bits(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


class TestLogSumExp:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(MAGNITUDE, min_size=1, max_size=300),
        st.integers(min_value=0, max_value=40),
        st.lists(SPECIAL, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_equals_scipy_bit_for_bit(self, values, ties, specials, rnd):
        values = values + [max(values)] * ties + specials
        rnd.shuffle(values)
        x = np.array(values, dtype=np.float64)
        want = float(scipy.special.logsumexp(x))
        assert same_bits(logsumexp(x), want)

    @pytest.mark.parametrize(
        "values",
        [
            [0.0],
            [-700.0],
            [700.0] * 7,
            [1e-3, -1e-3, 1e-3],
            [-math.inf, -math.inf],
            [-math.inf, 2.5],
            [math.inf, 1.0, math.inf],
            [math.nan, 1.0],
            [math.inf, math.nan],
        ],
    )
    def test_edge_cases_equal_scipy(self, values):
        x = np.array(values, dtype=np.float64)
        want = float(scipy.special.logsumexp(x))
        assert same_bits(logsumexp(x), want)

    def test_input_is_not_modified(self):
        x = np.array([1.0, 3.0, 3.0, -2.0])
        logsumexp(x)
        np.testing.assert_array_equal(x, [1.0, 3.0, 3.0, -2.0])
