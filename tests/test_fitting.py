"""Moment-matching gradient ascent: convergence, guards, instrumentation."""

import json
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from tbmlearn import (
    DomainSizeError,
    EmpiricalDistribution,
    FitConfig,
    SampleSpace,
    TransactionDataset,
    evaluate_gibbs,
    fit,
    fit_tbm,
    fit_to_moments,
    kl_divergence,
    mine_parameter_domain,
)
from tbmlearn import baselines, fit_full_bm, fitting
from tbmlearn.experiments import synth_dataset
from tbmlearn.fitting import empirical_targets, fisher_matrix, interior_feasible
from tbmlearn.geometry import m_projection
from tbmlearn.model import (
    GibbsModel, build_sample_space, incidence_matrix, multiplicities, supports
)
from tbmlearn.patterns import sort_key
from tbmlearn.serialize import dumps_model, model_from_dict

from conftest import WORKED_PROBS, WORKED_PSI, WORKED_THETA1
from oracles import (
    brute_support, closure_by_pattern, contains, enumerate_patterns, moment_gap, random_dataset,
    whole_domain_gap,
)

TIGHT = FitConfig(tol=1e-10, max_sweeps=200_000)


class TestWorkedExample:
    def test_closed_form_mle(self, worked_dataset):
        model, report = fit(worked_dataset, [(1,), (2,)], TIGHT)
        assert report.converged and not report.removed_parameters
        for x, p in WORKED_PROBS.items():
            assert model.prob(x) == pytest.approx(p, abs=1e-9)
        assert model.theta_map[(1,)] == pytest.approx(WORKED_THETA1, abs=1e-9)
        assert model.theta_map[(2,)] == pytest.approx(0.0, abs=1e-9)
        assert model.log_partition == pytest.approx(WORKED_PSI, abs=1e-9)

    def test_moment_matching(self, worked_dataset):
        model, report = fit(worked_dataset, [(1,), (2,)], TIGHT)
        assert model.eta((1,)) == pytest.approx(0.7, abs=1e-10)
        assert model.eta((2,)) == pytest.approx(0.5, abs=1e-10)
        assert report.final_gap <= 1e-10


class TestEdgeCases:
    def test_empty_domain_returns_uniform(self, worked_dataset):
        model, report = fit(worked_dataset, [], None)
        assert report.iterations == 0
        assert report.converged
        assert not report.domain_emptied
        probs = np.exp(model.log_probs)
        np.testing.assert_allclose(probs, 1.0 / len(model.space), atol=1e-12)

    def test_saturated_domain_reproduces_frequencies(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            entries = random_dataset(rng, n, 150)
            if () not in entries:
                entries[()] = 1
            d = TransactionDataset(entries=entries, n_variables=n)
            space = build_sample_space(list(d.entries), d)
            domain = [x for x in space.outcomes if x]
            model, report = fit(d, domain, TIGHT)
            assert report.converged and not report.removed_parameters
            for x, mult in d.entries.items():
                assert model.prob(x) == pytest.approx(
                    mult / d.n_samples, abs=1e-7
                )

    def test_single_outcome_space(self):
        d = TransactionDataset(entries={(): 4}, n_variables=0)
        model, report = fit(d, [], None)
        assert model.log_partition == pytest.approx(0.0)
        assert model.prob(()) == 1.0


class TestGradientAndLikelihood:
    def test_gradient_matches_finite_differences(self, worked_dataset):
        rng = np.random.default_rng(1)
        d = worked_dataset
        patterns = sorted(mine_parameter_domain(d, 0.3, 2))
        space = build_sample_space(patterns, d)
        incidence = incidence_matrix(space, patterns)
        targets = empirical_targets(d, space, incidence)
        n = d.n_samples

        def loglik(theta):
            m = GibbsModel(space, patterns, theta)
            return n * (float(targets @ theta) - m.log_partition)

        h = 1e-5
        for _ in range(5):
            theta = rng.uniform(-1, 1, size=len(patterns))
            m = GibbsModel(space, patterns, theta)
            analytic = n * (targets - m.etas())
            for j in range(len(patterns)):
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd = (loglik(up) - loglik(dn)) / (2 * h)
                assert analytic[j] == pytest.approx(fd, rel=1e-6, abs=1e-7 * n)

    def test_likelihood_nondecreasing_over_sweep_budgets(self, worked_dataset):
        d = worked_dataset
        patterns = sorted(mine_parameter_domain(d, 0.3, 2))
        space = build_sample_space(patterns, d)
        incidence = incidence_matrix(space, patterns)
        targets = empirical_targets(d, space, incidence)
        values = []
        for budget in (0, 1, 2, 4, 8, 16, 32, 64):
            cfg = FitConfig(tol=0.0, max_sweeps=budget)
            model, _ = fit_to_moments(space, patterns, multiplicities(space, d), cfg)
            values.append(
                float(targets @ model.theta) - model.log_partition
            )
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_normalization_preserved(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,), (1, 2)], None)
        assert abs(np.exp(model.log_probs).sum() - 1.0) <= 1e-10


class TestMomentMatchingRandom:
    def test_random_instances_converge(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            entries = random_dataset(rng, n, int(rng.integers(30, 300)))
            d = TransactionDataset(entries=entries, n_variables=n)
            sigma = float(rng.choice([0.0, 0.1, 0.3]))
            k = int(rng.integers(1, 4))
            model, report, domain = fit_tbm(d, sigma, k)
            assert report.converged
            survivors = list(model.domain)
            if survivors:
                z = incidence_matrix(model.space, survivors)
                target = empirical_targets(d, model.space, z)
                gap = np.max(np.abs(target - model.etas()))
                assert gap <= 1e-6


class TestDivergenceGuard:
    def test_degenerate_pair_removes_exactly_one(self):
        # eta(1) = eta(1, 2) = 0.4: no mass on (1,) alone.
        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        model, report = fit_to_moments(space, [(1,), (1, 2)], [0.3, 0.0, 0.3, 0.4])
        assert report.iterations < 10_000
        assert len(report.removed_parameters) == 1
        assert report.converged and not report.domain_emptied
        assert np.all(np.isfinite(model.log_probs))
        assert np.all(np.isfinite(model.theta))
        survivor = model.domain[0]
        assert model.eta(survivor) == pytest.approx(0.4, abs=1e-6)

    def test_well_posed_fit_has_no_removals(self, worked_dataset):
        _, report = fit(worked_dataset, [(1,), (2,)], None)
        assert report.removed_parameters == ()

    # A target of 0 drops the outcomes that hold its pattern, and a target of
    # 1 those that lack it, and the row left constant on that face leaves.

    def test_zero_support_pattern_removed(self):
        d = TransactionDataset(entries={(0,): 5, (0, 1): 5}, n_variables=3)
        domain = mine_parameter_domain(d, 0.0, 2)
        model, report = fit(d, domain)
        assert (2,) in report.removed_parameters
        assert report.converged
        assert np.all(np.isfinite(model.log_probs))
        assert whole_domain_gap(d, list(domain), model) <= FitConfig().tol

    def test_full_support_pattern_removed(self):
        d = TransactionDataset(entries={(0,): 6, (0, 1): 4}, n_variables=2)
        model, report = fit(d, [(0,), (1,)])
        assert report.removed_parameters == ((0,),)
        assert report.converged
        assert () not in model.space
        assert whole_domain_gap(d, [(0,), (1,)], model) <= FitConfig().tol

    def test_all_parameters_removed_flags_report(self):
        d = TransactionDataset(entries={(0,): 10}, n_variables=1)
        model, report = fit(d, [(0,)])
        assert report.domain_emptied
        assert report.converged
        assert model.space.outcomes == ((0,),)
        probs = np.exp(model.log_probs)
        np.testing.assert_allclose(probs, 1.0 / len(model.space), atol=1e-12)
        assert whole_domain_gap(d, [(0,)], model) <= FitConfig().tol


def closure_pairs(dataset, domain):
    """(s, u) in ``domain``, u one item longer than s, with equal counts in the data."""
    count = {p: brute_support(dataset, p) for p in domain}
    pairs = []
    for u in domain:
        for i in range(len(u)):
            s = u[:i] + u[i + 1:]
            if s and s in count and count[s] == count[u]:
                pairs.append((s, u))
    return pairs


def close_under(rules, x):
    """``x`` with the parent of every child it holds added, until nothing changes."""
    items = set(x)
    while True:
        grown = items | {parent for child, parent in rules if child in items}
        if grown == items:
            return tuple(sorted(items))
        items = grown


@st.composite
def planted_implications(draw):
    """Every configuration of n items, closed under planted child -> parent rules
    after adding a forced item, if one is drawn, with random multiplicities:
    the rules and the forced item are the data's only boundary."""
    n = draw(st.integers(3, 6))
    items = st.integers(0, n - 1)
    rules = draw(
        st.lists(st.tuples(items, items).filter(lambda r: r[0] != r[1]), min_size=1, max_size=3)
    )
    forced = draw(st.sets(items, max_size=1))
    entries = {}
    for x in enumerate_patterns(n):
        x = close_under(rules, tuple(forced.union(x)))
        entries[x] = entries.get(x, 0) + draw(st.integers(1, 20))
    return TransactionDataset(entries=entries, n_variables=n), draw(st.integers(2, 3))


class TestClosureFace:
    """``fit`` fits on the face that the data's closure pairs certify."""

    @staticmethod
    def implication_dataset():
        # Item 3 occurs only with item 0.
        rng = np.random.default_rng(0)
        entries = {}
        for x, c in random_dataset(rng, 5, 500).items():
            if 3 in x and 0 not in x:
                x = (0,) + x
            entries[x] = entries.get(x, 0) + c
        return TransactionDataset(entries=entries, n_variables=5)

    def test_face_drops_the_predicted_outcomes_without_an_lp(self, monkeypatch):
        d = self.implication_dataset()
        domain = list(mine_parameter_domain(d, 0.0, 2))

        def no_lp(*args):
            raise AssertionError("the feasibility LP ran")

        monkeypatch.setattr(fitting, "interior_feasible", no_lp)
        model, report = fit(d, domain)
        pairs = closure_pairs(d, domain)
        assert ((3,), (0, 3)) in pairs
        space = build_sample_space(domain, d)
        dropped = {
            x for x in space.outcomes
            if any(contains(s, x) and not contains(u, x) for s, u in pairs)
        }
        assert dropped and not dropped & set(d.entries)
        assert set(model.space.outcomes) == set(space.outcomes) - dropped
        assert list(model.space.outcomes) == sorted(model.space.outcomes, key=sort_key)
        assert (3,) in report.removed_parameters and (3,) not in model.domain
        assert (0, 3) in model.domain
        assert report.converged
        assert whole_domain_gap(d, domain, model) <= FitConfig().tol

    def test_face_space_lists_only_the_items_its_outcomes_hold(self):
        # Item 3 never occurs, so every outcome that holds it leaves the face.
        d = TransactionDataset({(): 1, (0,): 2, (1,): 3, (0, 1): 2, (0, 1, 2): 2}, 4)
        domain = list(mine_parameter_domain(d, 0.0, 2))
        assert 3 in build_sample_space(domain, d).items.tolist()
        model, report = fit(d, domain)
        held = sorted({i for x in model.space.outcomes for i in x})
        assert model.space.items.tolist() == held == [0, 1, 2]
        loaded = model_from_dict(json.loads(dumps_model(model, report)))[0]
        assert loaded.space.items.tolist() == held
        assert loaded.space.outcomes == model.space.outcomes

    def test_without_a_pair_inputs_come_back_untouched(self, worked_dataset):
        space = build_sample_space([(1,), (2,)], worked_dataset)
        z = incidence_matrix(space, [(1,), (2,)])
        targets = empirical_targets(worked_dataset, space, z)
        support = multiplicities(space, worked_dataset) > 0
        assert fitting.ReducedSpace(space, [(1,), (2,)], z, support).closure(targets) is None
        # With a pair, the face gets its own Z and the caller's stays whole.
        d = self.implication_dataset()
        domain = sorted(mine_parameter_domain(d, 0.0, 2), key=sort_key)
        space = build_sample_space(domain, d)
        z = incidence_matrix(space, domain)
        before = z.copy()
        support = multiplicities(space, d) > 0
        face, aliases = fitting.ReducedSpace(space, domain, z, support).closure(
            empirical_targets(d, space, z)
        )
        assert aliases.size and face.incidence.shape[1] < len(space)
        assert all(
            np.array_equal(a, b)
            for a, b in zip((z.indptr, z.indices, z.data), (before.indptr, before.indices, before.data))
        )

    @settings(max_examples=30, deadline=None)
    @given(planted_implications())
    def test_planted_implications(self, data):
        d, k = data
        domain = list(mine_parameter_domain(d, 0.0, k))
        model, report = fit(d, domain)
        outcomes = set(model.space.outcomes)
        assert set(d.entries) <= outcomes
        assert all(any(contains(p, x) for x in outcomes) for p in model.domain)
        # Bottom leaves the face exactly when some item is in every transaction.
        pinned = any(brute_support(d, (i,)) == d.n_samples for i in range(d.n_variables))
        assert (() not in outcomes) == pinned
        if not pinned:
            assert model.log_partition == pytest.approx(-model.log_prob(()), abs=1e-12)
        assert report.converged
        assert whole_domain_gap(d, domain, model) <= FitConfig().tol


@st.composite
def closure_cases(draw):
    """A small dataset, a domain of patterns that the data may not hold, and
    targets: the data's, or drawn from {0, 1/4, 1/2, 1} for 0s, 1s and ties."""
    n = draw(st.integers(1, 4))
    entries = {}
    for row in draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=8)):
        x = tuple(sorted(row))
        entries[x] = entries.get(x, 0) + draw(st.integers(1, 5))
    pattern = st.sets(st.integers(0, n - 1), min_size=1, max_size=3).map(lambda p: tuple(sorted(p)))
    domain = sorted(draw(st.lists(pattern, min_size=1, max_size=8, unique=True)), key=sort_key)
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    drawn = draw(st.none() | st.lists(values, min_size=len(domain), max_size=len(domain)))
    return TransactionDataset(entries=entries, n_variables=n), domain, drawn


class TestClosurePairTable:
    """``closure``'s array rules give the per-pattern loop's face, for ``fit``'s
    normalizer and for the full cube's."""

    @staticmethod
    def assert_same(got, want):
        assert (got is None) == (want is None)
        if got is None:
            return
        (face, leave), (face_want, leave_want) = got, want
        assert face.patterns == face_want.patterns
        assert np.array_equal(leave, leave_want)
        for name in ("items", "indptr", "indices"):
            assert np.array_equal(getattr(face.sample_space, name), getattr(face_want.sample_space, name))
        assert face.incidence.shape == face_want.incidence.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(face.incidence, name), getattr(face_want.incidence, name))
        assert np.array_equal(face.support, face_want.support)

    @settings(max_examples=60, deadline=None)
    @given(closure_cases())
    def test_pair_table_matches_the_pattern_loop(self, case):
        d, domain, drawn = case
        space = build_sample_space(domain, d)
        weights = multiplicities(space, d)
        normalizer = fitting.ReducedSpace.over(space, domain).view(weights > 0)
        targets = normalizer.incidence.dot(weights) / weights.sum() if drawn is None else np.array(drawn)
        self.assert_same(normalizer.closure(targets), closure_by_pattern(normalizer, targets))
        cube = baselines.FullCube(d.n_variables, domain, d)
        if drawn is None:
            targets = supports(d, domain) / d.n_samples
        self.assert_same(cube.closure(targets), closure_by_pattern(cube._reduced(), targets))


@st.composite
def small_datasets(draw):
    """Up to 8 distinct transactions over at most 4 items, some with
    multiplicities up to 10^10, and a mined domain."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=8))
    counts = st.one_of(st.integers(1, 20), st.integers(1, 10**10))
    entries = {}
    for row in rows:
        x = tuple(sorted(row))
        entries[x] = entries.get(x, 0) + draw(counts)
    d = TransactionDataset(entries=entries, n_variables=n)
    sigma, k = draw(st.sampled_from([0.0, 0.1, 0.3])), draw(st.integers(1, 3))
    return d, list(mine_parameter_domain(d, sigma, k))


class TestSupportStays:
    """A fit keeps every transaction of its data as an outcome, whatever the
    spread of their multiplicities."""

    def test_tiny_target_keeps_its_transaction(self):
        # The target of (2,) is 8e-10, under the LP solver's tolerance, but
        # every outcome is observed, so no LP runs.
        d = TransactionDataset({(): 1, (1,): 10**10, (2,): 3, (1, 2): 5}, 3)
        model, report = fit(d, [(1,), (2,)])
        assert model.domain == ((1,), (2,)) and report.removed_parameters == ()
        assert (2,) in model.space and report.converged
        evaluation = evaluate_gibbs(model, d)
        assert np.isfinite(evaluation.kl) and np.isfinite(evaluation.log_likelihood)

    def test_rounding_keeps_a_tiny_mass(self):
        # The target of (1,) rounds to 1, whose rule would drop bottom.
        space = SampleSpace.from_patterns([(), (1,)])
        model, report = fit_to_moments(space, [(1,)], [1e-17, 1.0])
        assert () in model.space and report.removed_parameters == ()
        assert report.converged

    @settings(max_examples=40, deadline=None)
    @given(small_datasets())
    @example((TransactionDataset({(): 1, (1,): 10**10, (2,): 3, (1, 2): 5}, 3), [(1,), (2,)]))
    def test_every_transaction_is_an_outcome(self, data):
        d, domain = data
        model, _ = fit(d, domain)
        assert set(d.entries) <= set(model.space.outcomes)
        model, _ = fit_full_bm(d, domain)
        if isinstance(model, GibbsModel):  # the fit moved to a face of the cube
            assert set(d.entries) <= set(model.space.outcomes)


class TestInputOrder:
    """Pattern order and a precomputed incidence leave every output bit alone."""

    @staticmethod
    def fits(space, patterns, weights, cfg):
        rng = np.random.default_rng(4)
        order = sorted(range(len(patterns)), key=lambda j: sort_key(patterns[j]))
        shuffled = list(rng.permutation(len(patterns)))
        for perm in (order, shuffled):
            pats = [patterns[j] for j in perm]
            yield fit_to_moments(space, pats, weights, cfg)
            z = incidence_matrix(space, pats)
            yield fit_to_moments(space, pats, weights, cfg, incidence=z)

    def assert_identical(self, space, patterns, weights, cfg):
        (model, report), *others = self.fits(space, patterns, weights, cfg)
        for other, other_report in others:
            assert other.domain == model.domain
            assert other.theta.tobytes() == model.theta.tobytes()
            assert other.log_probs.tobytes() == model.log_probs.tobytes()
            assert other_report == report
        return report

    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            d = TransactionDataset(entries=random_dataset(rng, n, 300), n_variables=n)
            patterns = list(mine_parameter_domain(d, 0.0, 2))
            space = build_sample_space(patterns, d)
            self.assert_identical(space, patterns, multiplicities(space, d), TIGHT)

    def test_boundary_removal_path(self):
        # eta(1, 2) = eta(1) = 0.4 and eta(2) = 0.5.
        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        report = self.assert_identical(
            space, [(1, 2), (2,), (1,)], [0.5, 0.0, 0.1, 0.4], FitConfig()
        )
        assert len(report.removed_parameters) == 1


class TestFisherMatrix:
    """The Fisher build equals the one-piece sparse product, bit for bit, from
    a dense transpose and from a row-blocked CSR one."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 200),
        n=st.integers(1, 150),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        dense=st.booleans(),
    )
    @example(m=1, n=5, density=0.5, seed=0, dense=False)
    @example(m=1, n=5, density=0.5, seed=0, dense=True)
    @example(m=64, n=90, density=0.3, seed=1, dense=False)
    @example(m=64, n=90, density=0.3, seed=1, dense=True)
    @example(m=129, n=150, density=0.2, seed=2, dense=False)
    @example(m=129, n=150, density=0.2, seed=2, dense=True)
    def test_equals_serial_product(self, m, n, density, seed, dense):
        rng = np.random.default_rng(seed)
        z = sparse.csr_matrix((rng.random((m, n)) < density).astype(np.float64))
        p = rng.dirichlet(np.ones(n))
        etas = z.dot(p)
        g = (z.multiply(p)).dot(z.T).toarray() - np.outer(etas, etas)
        expected = 0.5 * (g + g.T)
        got = fisher_matrix(z, z.T.toarray() if dense else z.T.tocsr(), p, etas)
        assert got.tobytes() == expected.tobytes()
        assert np.array_equal(got, got.T)


class TestSolveFisher:
    def test_indefinite_matrix_falls_back_to_least_squares(self):
        # The Cholesky attempt overwrites part of g before it fails; the
        # fallback must still see the original matrix.
        rng = np.random.default_rng(6)
        a = rng.normal(size=(6, 6))
        g = a + a.T
        residual = rng.normal(size=6)
        expected = g.copy()
        expected[np.diag_indices_from(expected)] += 1e-12 * np.max(np.diag(g))
        got = fitting.solve_fisher(g)(residual)
        want = np.linalg.lstsq(expected, residual, rcond=None)[0]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 80])
    def test_cholesky_solve_equals_scipys(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        g = a @ a.T + n * np.eye(n)
        residual = rng.normal(size=n)
        regularized = g.copy()
        regularized[np.diag_indices_from(g)] += 1e-12 * np.max(np.diag(g))
        want = cho_solve(cho_factor(regularized.T, overwrite_a=True, check_finite=False), residual)
        got = fitting.solve_fisher(g)(residual)
        assert got.tobytes() == want.tobytes()


class TestFisherSteps:
    """Fits that take Fisher steps depend neither on the pool's worker count
    nor on the form of Z's transpose."""

    @staticmethod
    def counted_fit(monkeypatch, dataset, cfg, k=2):
        calls = []
        original = fitting.natural_direction

        def counting(*args):
            calls.append(args[0].shape[0])
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(fitting, "natural_direction", counting)
            model, report, _ = fit_tbm(dataset, 0.0, k, cfg)
        return model, report, calls

    def fit_by_worker_count(self, monkeypatch, dataset, cfg, k=2):
        monkeypatch.setattr(fitting, "FISHER_DENSE_BYTES", 0)  # the pooled form
        fits = []
        for workers in (1, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                monkeypatch.setattr(fitting, "_fisher_pool", pool)
                fits.append(self.counted_fit(monkeypatch, dataset, cfg, k))
        (model, report, calls), (other, other_report, other_calls) = fits
        assert report.converged
        assert calls and calls == other_calls
        assert other.theta.tobytes() == model.theta.tobytes()
        assert other.log_probs.tobytes() == model.log_probs.tobytes()
        assert other_report == report
        return report, calls

    def test_worker_count_leaves_fit_unchanged(self, monkeypatch):
        rng = np.random.default_rng(0)
        d = TransactionDataset(entries=random_dataset(rng, 16, 300), n_variables=16)
        _, calls = self.fit_by_worker_count(monkeypatch, d, FitConfig(tol=1e-9))
        assert calls[0] > 2 * fitting.FISHER_BLOCK_ROWS

    def test_fisher_steps_after_a_removal(self, monkeypatch):
        # Item 3 occurs only with item 0 or item 1: a boundary no closure
        # pair certifies.  The face LP drops the outcomes that hold 3 but
        # neither 0 nor 1, and (0, 3) aliases there.
        report, calls = self.fit_by_worker_count(
            monkeypatch, TestLpBudget.either_parent_dataset(), FitConfig(), k=3
        )
        assert report.removed_parameters == ((0, 3),)
        assert sorted(set(calls)) == [24, 25]

    def test_one_block_fisher_steps_start_no_pool(self, monkeypatch, worked_dataset):
        monkeypatch.setattr(fitting, "FISHER_DENSE_BYTES", 0)
        monkeypatch.setattr(fitting, "_fisher_pool", None)
        before = threading.active_count()
        _, report, calls = self.counted_fit(monkeypatch, worked_dataset, TIGHT)
        assert report.converged and calls
        assert max(calls) <= fitting.FISHER_BLOCK_ROWS
        assert threading.active_count() == before
        assert fitting._fisher_pool is None

    @staticmethod
    def assert_same_by_form(monkeypatch, run):
        """``run()`` gives the same (model, report) with the dense transpose
        refused and at its default limit, and each runs in its own form."""
        fits = []
        for limit in (0, fitting.FISHER_DENSE_BYTES):
            forms = []
            original = fitting.natural_direction

            def counting(*args):
                forms.append(type(args[1]))
                return original(*args)

            with monkeypatch.context() as patch:
                patch.setattr(fitting, "FISHER_DENSE_BYTES", limit)
                patch.setattr(fitting, "natural_direction", counting)
                model, report = run()
            fits.append((model, report, forms))
        (model, report, forms), (other, other_report, other_forms) = fits
        assert report.converged
        assert forms and set(forms) == {sparse.csr_matrix}
        assert other_forms == [np.ndarray] * len(forms)
        assert other.theta.tobytes() == model.theta.tobytes()
        assert other.log_probs.tobytes() == model.log_probs.tobytes()
        assert other_report == report

    def test_dense_transpose_leaves_worked_fit_unchanged(self, monkeypatch, worked_dataset):
        self.assert_same_by_form(monkeypatch, lambda: fit_tbm(worked_dataset, 0.0, 2, TIGHT)[:2])

    def test_dense_transpose_leaves_biasvar_sized_fit_unchanged(self, monkeypatch):
        # The bias-variance harness's scale: 200 outcomes and bottom over 20
        # variables, the 20 singletons and 10 pairs, and the moments of a
        # strictly positive distribution.
        rng = np.random.default_rng(7)
        masks = rng.choice(1 << 20, size=200, replace=False)
        outcomes = {tuple(i for i in range(20) if mask >> i & 1) for mask in masks.tolist()}
        space = SampleSpace.from_patterns(outcomes | {()})
        patterns = [(i,) for i in range(20)] + [(i, i + 1) for i in range(0, 20, 2)]
        p = rng.uniform(0.1, 1.0, size=len(space))
        self.assert_same_by_form(monkeypatch, lambda: fit_to_moments(space, patterns, p, TIGHT))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_builds_with_a_fresh_pool(self):
        # More than two blocks of rows, so the pool has live threads when the
        # process forks, and the child's build needs a pool of its own.
        m = 3 * fitting.FISHER_BLOCK_ROWS + 1
        rng = np.random.default_rng(2)
        z = sparse.csr_matrix((rng.random((m, 2 * m)) < 0.1).astype(np.float64))
        p = np.full(2 * m, 1.0 / (2 * m))
        args = (z, z.T.tocsr(), p, z.dot(p))
        expected = fisher_matrix(*args)

        def build_again():
            assert np.array_equal(fisher_matrix(*args), expected)

        child = multiprocessing.get_context("fork").Process(target=build_again)
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join(timeout=30)
        assert not hung and child.exitcode == 0


class TestChordSteps:
    """Fits over more than one block of rows reuse the factored G while steps
    are short and halve the residual norm, and land where rebuilding it every
    step lands."""

    @staticmethod
    def dataset():
        rng = np.random.default_rng(0)
        return TransactionDataset(entries=random_dataset(rng, 16, 300), n_variables=16)

    def test_fewer_builds_than_iterations(self, monkeypatch):
        d = self.dataset()
        cfg = FitConfig(tol=1e-9)
        model, report, calls = TestFisherSteps.counted_fit(monkeypatch, d, cfg)
        assert len(model.domain) > fitting.FISHER_BLOCK_ROWS
        assert report.converged
        assert 0 < len(calls) < report.iterations
        assert whole_domain_gap(d, list(mine_parameter_domain(d, 0.0, 2)), model) <= cfg.tol
        monkeypatch.setattr(fitting, "CHORD_RATIO", 0.0)
        rebuilt, rebuilt_report, rebuilt_calls = TestFisherSteps.counted_fit(monkeypatch, d, cfg)
        assert len(rebuilt_calls) == rebuilt_report.iterations
        np.testing.assert_allclose(model.log_probs, rebuilt.log_probs, rtol=0, atol=1e-6)

    def test_drifting_boundary_fit_unchanged(self, monkeypatch):
        # The fit drifts until the face LP runs, then keeps 60 of its 175
        # parameters on the face; the drift rule keeps each step before the
        # LP a fresh Newton step.
        d, _ = synth_dataset(10, 60, 3000, seed=3)
        model, report, _ = fit_tbm(d, 0.02, 3)
        monkeypatch.setattr(fitting, "CHORD_RATIO", 0.0)
        rebuilt, rebuilt_report, _ = fit_tbm(d, 0.02, 3)
        assert len(report.removed_parameters) == 175 - 60
        assert model.theta.tobytes() == rebuilt.theta.tobytes()
        assert report.removed_parameters == rebuilt_report.removed_parameters
        assert report.iterations == rebuilt_report.iterations

    def test_reuse_needs_a_strict_rise(self, monkeypatch, worked_dataset):
        # With the size rule off, the worked fixture reuses its factor down to
        # float resolution.  A plateau step from it must not count, or the
        # fit stalls one rounding short of matching the moments exactly.
        monkeypatch.setattr(fitting, "FISHER_BLOCK_ROWS", 1)
        _, report = fit(worked_dataset, [(1,), (2,)], FitConfig(tol=0.0, max_sweeps=60))
        assert report.converged and report.final_gap == 0.0

    def test_failed_reuse_rebuilds_at_the_same_point(self):
        events = []

        class SpoiledReuse(fitting.ReducedSpace):
            """Its factored solve points downhill from its second use on."""

            def state(self, theta):
                events.append(("state", theta.copy()))
                return super().state(theta)

            def fisher_solve(self, log_probs, etas):
                events.append(("build", log_probs.copy()))
                solve = super().fisher_solve(log_probs, etas)
                uses = []

                def spoiled(residual):
                    uses.append(None)
                    direction = solve(residual) if len(uses) == 1 else -solve(residual)
                    events.append(("solve", direction))
                    return direction

                return spoiled

        d = self.dataset()
        patterns = sorted(mine_parameter_domain(d, 0.0, 2), key=sort_key)
        space = build_sample_space(patterns, d)
        z = incidence_matrix(space, patterns)
        targets = empirical_targets(d, space, z)
        support = multiplicities(space, d) > 0
        _, report = fitting.ascend(
            SpoiledReuse(space, patterns, z, support), targets, FitConfig(tol=1e-9)
        )
        assert report.converged
        kinds = [kind for kind, _ in events]
        # The first reuse follows the state of an accepted step.  Its downhill
        # trial is refused, and G is built at the accepted point, whose full
        # step is tried next.
        reuse = next(i for i in range(1, len(kinds)) if kinds[i - 1:i + 1] == ["state", "solve"])
        assert kinds[reuse + 1:reuse + 5] == ["state", "build", "solve", "state"]
        accepted = events[reuse - 1][1]
        (_, at), (_, direction), (_, trial) = events[reuse + 2:reuse + 5]
        reference = fitting.ReducedSpace(space, patterns, z, support)
        assert at.tobytes() == reference.state(accepted)[0].tobytes()
        assert trial.tobytes() == (accepted + direction).tobytes()


class TestDenseGate:
    """Above the byte budget a fit is refused before its first iteration, and
    no Fisher matrix is built."""

    @pytest.fixture
    def no_fisher(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Fisher matrix built above the byte budget")

        monkeypatch.setattr(fitting, "fisher_matrix", refuse)
        monkeypatch.setattr(fitting, "solve_fisher", refuse)
        monkeypatch.setattr(baselines, "solve_fisher", refuse)

    def test_refused_before_any_iteration(self, no_fisher, monkeypatch):
        rng = np.random.default_rng(5)
        d = TransactionDataset(entries=random_dataset(rng, 5, 300), n_variables=5)
        patterns = list(mine_parameter_domain(d, 0.05, 2))
        space = build_sample_space(patterns, d)
        monkeypatch.setattr(fitting, "FISHER_MAX_BYTES", 8 * len(patterns) ** 2 - 1)
        message = f"{len(patterns)} parameters need .* raise sigma or lower k"
        with pytest.raises(DomainSizeError, match=message):
            fit_to_moments(space, patterns, multiplicities(space, d))
        with pytest.raises(DomainSizeError, match=message):
            fit_full_bm(d, patterns)

    def test_gate_counts_parameters_after_the_filter(self, monkeypatch, worked_dataset):
        # No outcome contains (3,), and item 0 never occurs: each is constant
        # on the up-front face and leaves, and two parameters are left for
        # the gate.
        space = build_sample_space([(1,), (2,)], worked_dataset)
        patterns, counts = [(1,), (2,), (3,)], multiplicities(space, worked_dataset)
        bm_patterns = [(0,), (1,), (2,)]
        monkeypatch.setattr(fitting, "FISHER_MAX_BYTES", 8 * 2**2)
        _, report = fit_to_moments(space, patterns, counts)
        _, bm_report = fit_full_bm(worked_dataset, bm_patterns)
        assert report.converged and report.removed_parameters == ((3,),)
        assert bm_report.converged and bm_report.removed_parameters == ((0,),)
        monkeypatch.setattr(fitting, "FISHER_MAX_BYTES", 8 * 2**2 - 1)
        with pytest.raises(DomainSizeError, match="^2 parameters"):
            fit_to_moments(space, patterns, counts)
        with pytest.raises(DomainSizeError, match="^2 parameters"):
            fit_full_bm(worked_dataset, bm_patterns)


class TestInteriorFeasibility:
    """The face marks the outcomes that some distribution with the moments of
    one on the support gives mass: the support, and what the LP adds."""

    space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])

    def face(self, patterns, support):
        z = incidence_matrix(self.space, patterns)
        return interior_feasible(z, np.array(support))

    def test_degenerate_targets_infeasible(self):
        # eta(1) = eta(1, 2): no outcome holds 1 without 2.  Bottom's column
        # is (2,)'s on these rows, so it joins the face.
        assert self.face([(1,), (1, 2)], [False, False, True, True]).tolist() == [
            True, False, True, True
        ]

    def test_interior_targets_feasible(self, monkeypatch):
        # A full support, or rows independent up to a constant over the
        # support, leave every outcome on the face, and no LP runs.
        def refuse(*args, **kwargs):
            raise AssertionError("linprog ran")

        monkeypatch.setattr(fitting, "linprog", refuse)
        assert self.face([(1,), (2,)], [True] * 4) is None
        assert self.face([(1,), (2,), (1, 2)], [True] * 4) is None
        assert self.face([(1,), (2,)], [True, True, True, False]) is None

    def test_bottom_can_leave_the_face(self):
        # eta(1) + eta(2) - eta(1, 2) = 1: every outcome holds 1 or 2.
        assert self.face([(1,), (2,), (1, 2)], [False, True, True, True]).tolist() == [
            False, True, True, True
        ]


class TestLpBudget:
    """The face LP runs at most once per fit, and never on an interior fit."""

    @staticmethod
    def either_parent_dataset():
        # Item 3 occurs only with item 0 or item 1.
        rng = np.random.default_rng(0)
        entries = {}
        for x, c in random_dataset(rng, 5, 500).items():
            if 3 in x and 0 not in x and 1 not in x:
                x = tuple(sorted(x + (0,)))
            entries[x] = entries.get(x, 0) + c
        return TransactionDataset(entries=entries, n_variables=5)

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        for module in (fitting, baselines):
            original = module.interior_feasible

            def counting(*args, original=original):
                calls.append(None)
                return original(*args)

            monkeypatch.setattr(module, "interior_feasible", counting)
        return calls

    def test_criterion_5_space(self, lp_calls):
        # The closure pair (1,) ⊂ (1, 2) gives the face up front.
        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        model, report = fit_to_moments(space, [(1,), (1, 2)], [0.3, 0.0, 0.3, 0.4])
        assert lp_calls == [] and report.converged
        assert moment_gap({(1,): 0.4, (1, 2): 0.4}, model) <= FitConfig().tol

    def test_implication_datasets(self, lp_calls):
        implication = TestClosureFace.implication_dataset()
        for d, k in [(implication, 2), (implication, 3), (self.either_parent_dataset(), 3)]:
            before = len(lp_calls)
            _, report, _ = fit_tbm(d, 0.0, k)
            assert len(lp_calls) - before <= 1 and report.converged
        assert len(lp_calls) - before == 1

    def test_synth_boundary_fit(self, lp_calls):
        d, _ = synth_dataset(10, 60, 3000, seed=3)
        _, report, _ = fit_tbm(d, 0.02, 3)
        assert len(lp_calls) == 1 and report.converged

    def test_boundary_fit_with_a_large_z(self, lp_calls):
        # Z holds 36083 nonzeros.  The face is the 300 transactions and
        # bottom, where 300 parameters stay.
        d, _ = synth_dataset(16, 300, 20_000, seed=0)
        domain = sorted(mine_parameter_domain(d, 0.005, 3), key=sort_key)
        assert incidence_matrix(build_sample_space(domain, d), domain).nnz == 36083
        model, report = fit(d, domain)
        assert len(lp_calls) == 1 and report.converged
        assert len(domain) == 696 and len(report.removed_parameters) == 396
        assert len(model.domain) == 300 and report.iterations == 20
        assert set(model.space.outcomes) == set(d.entries) | {()}

    def test_no_verdict_keeps_the_domain(self, monkeypatch):
        # With no face from the LP, the boundary fit keeps every parameter and
        # pushes the mass off the face below tol.
        for module in (fitting, baselines):
            monkeypatch.setattr(module, "interior_feasible", lambda *args: None)
        d, _ = synth_dataset(10, 60, 3000, seed=3)
        data = EmpiricalDistribution.from_dataset(d)
        model, report, domain = fit_tbm(d, 0.02, 3)
        assert report.removed_parameters == () and report.converged
        assert kl_divergence(data, model) <= 1e-5
        model, report = fit_full_bm(d, domain)
        assert report.removed_parameters == () and report.converged
        assert kl_divergence(data, model) <= 1e-4

    def test_boundary_cubes(self, lp_calls):
        domain = [p for p in enumerate_patterns(4) if 1 <= len(p) <= 3]
        for seed in range(8):
            d = TransactionDataset(
                entries=random_dataset(np.random.default_rng(seed), 4, 400, support_size=9),
                n_variables=4,
            )
            before = len(lp_calls)
            fit_full_bm(d, domain, FitConfig(tol=1e-10))
            assert len(lp_calls) - before <= 1
            before = len(lp_calls)
            fit(d, domain, FitConfig(tol=1e-10))
            assert len(lp_calls) - before <= 1

    def test_interior_fits_run_none(self, lp_calls, worked_dataset):
        fit(worked_dataset, [(1,), (2,)])
        # The benchmark's synthetic protocol at k=1.
        d, _ = synth_dataset(16, 1000, 20_000, seed=0)
        _, report, _ = fit_tbm(d, 0.1, 1)
        assert report.converged and lp_calls == []


class TestInstrumentation:
    def test_evaluations_bounded_per_sweep(self, worked_dataset):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            entries = random_dataset(rng, n, 200)
            d = TransactionDataset(entries=entries, n_variables=n)
            model, report, domain = fit_tbm(d, 0.1, 2)
            if report.iterations == 0:
                continue
            per_sweep = report.evaluations / report.iterations
            assert per_sweep <= 2 * (len(domain) + 1) * len(model.space)

    def test_iterations_capped(self, worked_dataset):
        # Newton steps match these moments exactly (a gap of 0.0) at the fourth
        # iteration, so the cap sits below that.
        cfg = FitConfig(tol=0.0, max_sweeps=3)
        _, report = fit(worked_dataset, [(1,), (2,)], cfg)
        assert report.iterations == 3


class TestReportMatchesModel:
    """A fit's report reads the returned model's own moment gap, bit for bit."""

    @staticmethod
    def assert_agrees(report, targets, etas, tol):
        gap = float(np.max(np.abs(targets - etas))) if len(etas) else 0.0
        assert report.final_gap == gap
        assert report.converged == (report.final_gap <= tol)

    @pytest.mark.parametrize(
        "cfg",
        [FitConfig(tol=0.0, max_sweeps=7), FitConfig(), TIGHT, FitConfig(tol=0.0, max_sweeps=3)],
        ids=["exact", "default", "tight", "capped"],
    )
    def test_fit(self, worked_dataset, cfg):
        model, report = fit(worked_dataset, [(1,), (2,)], cfg)
        targets = empirical_targets(worked_dataset, model.space, model.incidence)
        self.assert_agrees(report, targets, model.etas(), cfg.tol)

    def test_worked_moments_matched_exactly(self, worked_dataset):
        _, report = fit(worked_dataset, [(1,), (2,)], FitConfig(tol=0.0, max_sweeps=7))
        assert report.final_gap == 0.0 and report.converged

    @pytest.mark.parametrize("seed", range(4))
    def test_random_fits(self, seed):
        rng = np.random.default_rng(seed)
        d = TransactionDataset(entries=random_dataset(rng, 6, 300), n_variables=6)
        for cfg in (FitConfig(), TIGHT):
            model, report, _ = fit_tbm(d, 0.05, 2, cfg)
            targets = empirical_targets(d, model.space, model.incidence)
            self.assert_agrees(report, targets, model.etas(), cfg.tol)

    def test_fit_to_moments_after_up_front_removal(self):
        # A target of 1 on (1,) leaves (0,) and (0, 1) the same row, so they
        # share a target; (0,) aliases there, and (1,) is constant.
        space = SampleSpace.from_patterns([(), (0,), (1,), (0, 1)])
        given = {(0,): 0.25, (1,): 1.0, (0, 1): 0.25}
        model, report = fit_to_moments(space, list(given), [0.0, 0.0, 0.75, 0.25])
        assert report.removed_parameters == ((0,), (1,))
        targets = np.array([given[p] for p in model.domain])
        self.assert_agrees(report, targets, model.etas(), FitConfig().tol)
        assert moment_gap(given, model) <= FitConfig().tol

    def test_boundary_fit(self):
        d = TransactionDataset(entries={(): 6, (0, 1): 4}, n_variables=2)
        model, report = fit(d, [(0,), (0, 1)])
        assert len(report.removed_parameters) == 1
        targets = empirical_targets(d, model.space, model.incidence)
        self.assert_agrees(report, targets, model.etas(), FitConfig().tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_m_projection(self, tol):
        rng = np.random.default_rng(2)
        outcomes = [(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]
        weights = rng.random(len(outcomes)) + 0.1
        truth = dict(zip(outcomes, weights / weights.sum()))
        cfg = FitConfig(tol=tol, max_sweeps=50)
        model, report = m_projection(truth, [(0,), (1,), (2,), (0, 1)], cfg)
        pvec = np.array([truth[x] for x in model.space.outcomes])
        self.assert_agrees(report, model.incidence.dot(pvec), model.etas(), tol)

    @pytest.mark.parametrize(
        "entries, domain",
        [
            ({(): 2, (0,): 3, (1,): 1, (0, 1): 4}, [(0,), (1,)]),
            ({(): 6, (0, 1): 4}, [(0,), (0, 1)]),
            ({(0,): 6, (0, 1): 4}, [(0,), (1,)]),
        ],
        ids=["interior", "boundary", "up_front"],
    )
    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_fit_full_bm(self, entries, domain, tol):
        d = TransactionDataset(entries=entries, n_variables=2)
        cfg = FitConfig(tol=tol, max_sweeps=50)
        model, report = fit_full_bm(d, domain, cfg)
        targets = supports(d, model.domain) / d.n_samples
        self.assert_agrees(report, targets, model.etas(), tol)


class TestUpFrontFilter:
    def test_pattern_outside_space_removed_first(self):
        # No outcome contains item 3, so the row of (3,) in Z is empty and
        # constant.  (0,) and (0, 1) share a target of 0.4, which asks for
        # p((0,)) = 0, so the closure step drops that outcome first, and
        # (0,) aliases (0, 1) on the face.
        space = SampleSpace.from_patterns([(), (0,), (0, 1)])
        patterns = [(0,), (3,), (0, 1)]
        weights = [0.6, 0.0, 0.4]
        model, report = fit_to_moments(space, patterns, weights)
        assert report.removed_parameters == ((0,), (3,))
        assert report.converged and model.domain == ((0, 1),)
        assert moment_gap({(0,): 0.4, (0, 1): 0.4}, model) <= FitConfig().tol
        # Both go before the first iteration.
        _, report = fit_to_moments(space, patterns, weights, FitConfig(max_sweeps=0))
        assert report.removed_parameters == ((0,), (3,)) and report.iterations == 0

    def test_aliases_leave_before_constant_rows(self):
        # Item 0 is in every row, so the face drops the outcomes without it:
        # (1,) and (2,) alias (0, 1) and (0, 2) there, and (0,) is constant.
        # Each group keeps its own order.
        d = TransactionDataset({(0,): 2, (0, 1): 3, (0, 1, 2): 4, (0, 2): 1}, 3)
        domain = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        for model, report in (fit(d, domain), fit_full_bm(d, domain)):
            assert report.removed_parameters == ((1,), (2,), (0,))
            assert report.converged and model.domain == ((0, 1), (0, 2), (1, 2))

    def test_constant_rows_leave_with_no_face(self):
        # The rules rule no outcome out, so Z keeps its outcomes: (3,) holds
        # none and (0,) every one, and both leave.
        space = SampleSpace.from_patterns([(0,), (0, 1), (0, 2)])
        patterns = [(0,), (1,), (2,), (3,)]
        model, report = fit_to_moments(space, patterns, [0.3, 0.3, 0.4])
        assert report.removed_parameters == ((0,), (3,))
        assert model.space is space and model.domain == ((1,), (2,))
        assert report.converged

    def test_interior_fit_drops_only_the_empty_row(self, worked_dataset):
        space = build_sample_space([(1,), (2,)], worked_dataset)
        counts = multiplicities(space, worked_dataset)
        model, report = fit_to_moments(space, [(1,), (2,), (3,)], counts)
        assert report.removed_parameters == ((3,),)
        assert report.converged and model.domain == ((1,), (2,))


class TestValidation:
    def test_target_alignment(self):
        # The weights align with the space's outcomes, not with the patterns.
        space = SampleSpace.from_patterns([(), (1,)])
        with pytest.raises(ValueError, match="align"):
            fit_to_moments(space, [(1,)], [0.5])

    def test_nonfinite_targets(self):
        space = SampleSpace.from_patterns([(), (1,)])
        with pytest.raises(ValueError, match="finite"):
            fit_to_moments(space, [(1,)], [np.nan, 1.0])

    def test_prepared_normalizer_takes_no_patterns(self):
        space = SampleSpace.from_patterns([(), (1,)])
        prepared = fitting.ReducedSpace.over(space, [(1,)])
        with pytest.raises(ValueError, match="prepared"):
            fit_to_moments(prepared, [(1,)], [0.5, 0.5])
        with pytest.raises(ValueError, match="prepared"):
            fit_to_moments(prepared, None, [0.5, 0.5], None, prepared.incidence)

    @pytest.mark.parametrize("weights", [[-0.1, 1.1], [0.0, 0.0]], ids=["negative", "zero"])
    def test_weights_form_a_distribution(self, weights):
        space = SampleSpace.from_patterns([(), (1,)])
        with pytest.raises(ValueError, match="non-negative and not all zero"):
            fit_to_moments(space, [(1,)], weights)

    @pytest.mark.parametrize(
        "call",
        [
            lambda d: fit(d, [(1, 0)]),
            lambda d: fit_full_bm(d, [(0,), (1, 0)]),
            lambda d: fit_to_moments(SampleSpace.from_patterns([(), (0, 1)]), [(1, 0)], [0.6, 0.4]),
            lambda d: m_projection({(): 0.5, (0, 1): 0.25, (1, 0): 0.25}, [(0,)]),
            lambda d: SampleSpace.from_patterns([(), (1, 1)]),
        ],
        ids=["fit", "fit_full_bm", "fit_to_moments", "m_projection", "from_patterns"],
    )
    def test_non_canonical_patterns_refused(self, call):
        # (1, 0) would be a second outcome beside (0, 1), or the same bitmask
        # in a model file that the loader refuses.
        d = TransactionDataset({(): 2, (0,): 3, (1,): 1, (0, 1): 4}, 2)
        with pytest.raises(ValueError, match=r"pattern \(1, [01]\) is not strictly increasing"):
            call(d)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(max_sweeps=-1)
        with pytest.raises(ValueError, match="tol"):
            FitConfig(tol=-1e-9)
        assert FitConfig(tol=0.0).tol == 0.0


class TestPipeline:
    def test_fit_tbm_returns_domain(self, worked_dataset):
        model, report, domain = fit_tbm(worked_dataset, 0.45, 2)
        assert domain.patterns == ((1,), (2,))
        assert report.converged
        assert model.domain == ((1,), (2,))

    @pytest.mark.parametrize("face", [False, True])
    def test_fit_builds_no_tuple_view_of_the_space(self, monkeypatch, worked_dataset, face):
        # The fit works on the space's arrays: neither the outcome tuples nor
        # their index is built, before or after the closure face.
        built = []

        def recording(domain, dataset):
            built.append(build_sample_space(domain, dataset))
            return built[-1]

        monkeypatch.setattr(fitting, "build_sample_space", recording)
        if face:
            d = TestClosureFace.implication_dataset()
            model, report, _ = fit_tbm(d, 0.0, 2)
            assert report.removed_parameters and model.space is not built[0]
        else:
            model, report, _ = fit_tbm(worked_dataset, 0.45, 2)
            assert model.space is built[0]
        for space in (built[0], model.space):
            assert "outcomes" not in space.__dict__ and "index" not in space.__dict__
