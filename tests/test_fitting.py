"""Moment-matching gradient ascent: convergence, guards, instrumentation."""

import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from tbmlearn import (
    DomainSizeError,
    FitConfig,
    SampleSpace,
    TransactionDataset,
    fit,
    fit_tbm,
    fit_to_moments,
    mine_parameter_domain,
)
from tbmlearn import baselines, fit_full_bm, fitting
from tbmlearn.fitting import empirical_targets, fisher_matrix, interior_feasible
from tbmlearn.geometry import m_projection
from tbmlearn.model import GibbsModel, build_sample_space, incidence_matrix, supports
from tbmlearn.patterns import sort_key

from conftest import WORKED_PROBS, WORKED_PSI, WORKED_THETA1
from oracles import brute_eta, contains, enumerate_patterns, random_dataset

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
            model, _ = fit_to_moments(space, patterns, targets, cfg)
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
        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        model, report = fit_to_moments(space, [(1,), (1, 2)], [0.4, 0.4])
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

    def test_zero_support_pattern_removed(self):
        d = TransactionDataset(entries={(0,): 5, (0, 1): 5}, n_variables=3)
        domain = mine_parameter_domain(d, 0.0, 2)
        model, report = fit(d, domain)
        assert (2,) in report.removed_parameters
        assert report.converged
        assert np.all(np.isfinite(model.log_probs))

    def test_full_support_pattern_removed(self):
        d = TransactionDataset(entries={(0,): 6, (0, 1): 4}, n_variables=2)
        model, report = fit(d, [(0,), (1,)])
        assert report.removed_parameters == ((0,),)
        assert report.converged

    def test_all_parameters_removed_flags_report(self):
        d = TransactionDataset(entries={(0,): 10}, n_variables=1)
        model, report = fit(d, [(0,)])
        assert report.domain_emptied
        assert report.converged
        probs = np.exp(model.log_probs)
        np.testing.assert_allclose(probs, 1.0 / len(model.space), atol=1e-12)

    def test_theta_max_configurable(self, worked_dataset):
        cfg = FitConfig(theta_max=0.5, tol=1e-10, max_sweeps=20_000)
        model, report = fit(worked_dataset, [(1,), (2,)], cfg)
        assert (1,) in report.removed_parameters


def brute_support(dataset, pattern):
    return sum(c for x, c in dataset.entries.items() if contains(pattern, x))


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


def whole_domain_gap(dataset, domain, model):
    """Largest moment gap over every pattern of ``domain``, recounted by brute force."""
    probs = dict(zip(model.space.outcomes, np.exp(model.log_probs)))
    return max(
        abs(brute_support(dataset, p) / dataset.n_samples - brute_eta(probs, p))
        for p in domain
    )


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
    """Every configuration of n items, closed under planted child -> parent rules,
    with random multiplicities: the rules are the data's only boundary."""
    n = draw(st.integers(3, 6))
    items = st.integers(0, n - 1)
    rules = draw(
        st.lists(st.tuples(items, items).filter(lambda r: r[0] != r[1]), min_size=1, max_size=3)
    )
    entries = {}
    for x in enumerate_patterns(n):
        x = close_under(rules, x)
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

    def test_without_a_pair_inputs_come_back_untouched(self, worked_dataset):
        space = build_sample_space([(1,), (2,)], worked_dataset)
        z = incidence_matrix(space, [(1,), (2,)])
        targets = empirical_targets(worked_dataset, space, z)
        face = fitting.closure_face(space, [(1,), (2,)], z, targets)
        assert face[0] is space and face[2] is z and face[4] == []

    @settings(max_examples=30, deadline=None)
    @given(planted_implications())
    def test_planted_implications(self, data):
        d, k = data
        domain = list(mine_parameter_domain(d, 0.0, k))
        model, report = fit(d, domain)
        outcomes = set(model.space.outcomes)
        assert set(d.entries) <= outcomes and () in outcomes
        assert all(any(contains(p, x) for x in outcomes) for p in model.domain)
        assert model.log_partition == pytest.approx(-model.log_prob(()), abs=1e-12)
        assert report.converged
        assert whole_domain_gap(d, domain, model) <= FitConfig().tol


class TestInputOrder:
    """Pattern order and a precomputed incidence leave every output bit alone."""

    @staticmethod
    def fits(space, patterns, targets, cfg):
        rng = np.random.default_rng(4)
        order = sorted(range(len(patterns)), key=lambda j: sort_key(patterns[j]))
        shuffled = list(rng.permutation(len(patterns)))
        for perm in (order, shuffled):
            pats = [patterns[j] for j in perm]
            tgts = np.asarray(targets)[perm]
            yield fit_to_moments(space, pats, tgts, cfg)
            z = incidence_matrix(space, pats)
            yield fit_to_moments(space, pats, tgts, cfg, incidence=z)

    def assert_identical(self, space, patterns, targets, cfg):
        (model, report), *others = self.fits(space, patterns, targets, cfg)
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
            targets = empirical_targets(d, space, incidence_matrix(space, patterns))
            self.assert_identical(space, patterns, targets, TIGHT)

    def test_boundary_removal_path(self):
        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        report = self.assert_identical(
            space, [(1, 2), (2,), (1,)], [0.4, 0.5, 0.4], FitConfig()
        )
        assert len(report.removed_parameters) == 1


class TestFisherMatrix:
    """The row-blocked Fisher build equals the one-piece product, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 200),
        n=st.integers(1, 150),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=1, n=5, density=0.5, seed=0)
    @example(m=64, n=90, density=0.3, seed=1)
    @example(m=129, n=150, density=0.2, seed=2)
    def test_equals_serial_product(self, m, n, density, seed):
        rng = np.random.default_rng(seed)
        z = sparse.csr_matrix((rng.random((m, n)) < density).astype(np.float64))
        p = rng.dirichlet(np.ones(n))
        etas = z.dot(p)
        g = (z.multiply(p)).dot(z.T).toarray() - np.outer(etas, etas)
        expected = 0.5 * (g + g.T)
        got = fisher_matrix(z, z.T.tocsr(), p, etas)
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
        got = fitting.solve_fisher(g, residual)
        want = np.linalg.lstsq(expected, residual, rcond=None)[0]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


class TestFisherSteps:
    """Fits that take Fisher steps do not depend on the pool's worker count."""

    @staticmethod
    def counted_fit(monkeypatch, dataset, cfg):
        calls = []
        original = fitting.natural_direction

        def counting(*args):
            calls.append(args[0].shape[0])
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(fitting, "natural_direction", counting)
            model, report, _ = fit_tbm(dataset, 0.0, 2, cfg)
        return model, report, calls

    def fit_by_worker_count(self, monkeypatch, dataset, cfg):
        fits = []
        for workers in (1, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                monkeypatch.setattr(fitting, "_fisher_pool", pool)
                fits.append(self.counted_fit(monkeypatch, dataset, cfg))
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
        # Every transaction holds item 0 or item 4, so p(bottom) = 0: a
        # boundary no closure pair certifies, which the loop's LP removes a
        # parameter for.
        rng = np.random.default_rng(0)
        entries = {}
        for x, c in random_dataset(rng, 5, 500).items():
            if 0 not in x and 4 not in x:
                x = x + (4,)
            entries[x] = entries.get(x, 0) + c
        d = TransactionDataset(entries=entries, n_variables=5)
        report, calls = self.fit_by_worker_count(monkeypatch, d, FitConfig())
        assert len(report.removed_parameters) == 1
        assert sorted(set(calls)) == [14, 15]

    def test_one_block_fisher_steps_start_no_pool(self, monkeypatch, worked_dataset):
        monkeypatch.setattr(fitting, "_fisher_pool", None)
        before = threading.active_count()
        _, report, calls = self.counted_fit(monkeypatch, worked_dataset, TIGHT)
        assert report.converged and calls
        assert max(calls) <= fitting.FISHER_BLOCK_ROWS
        assert threading.active_count() == before
        assert fitting._fisher_pool is None

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
        targets = empirical_targets(d, space, incidence_matrix(space, patterns))
        monkeypatch.setattr(fitting, "FISHER_MAX_BYTES", 8 * len(patterns) ** 2 - 1)
        message = f"{len(patterns)} parameters need .* raise sigma or lower k"
        with pytest.raises(DomainSizeError, match=message):
            fit_to_moments(space, patterns, targets)
        with pytest.raises(DomainSizeError, match=message):
            fit_full_bm(d, patterns)

    def test_gate_counts_parameters_after_the_filter(self, monkeypatch, worked_dataset):
        # No outcome contains (3,), and item 0 never occurs: the up-front
        # filter drops each, and two parameters are left for the gate.
        space = build_sample_space([(1,), (2,)], worked_dataset)
        patterns, targets = [(1,), (2,), (3,)], [0.7, 0.5, 0.3]
        bm_patterns = [(0,), (1,), (2,)]
        monkeypatch.setattr(fitting, "FISHER_MAX_BYTES", 8 * 2**2)
        _, report = fit_to_moments(space, patterns, targets)
        _, bm_report = fit_full_bm(worked_dataset, bm_patterns)
        assert report.converged and report.removed_parameters == ((3,),)
        assert bm_report.converged and bm_report.removed_parameters == ((0,),)
        monkeypatch.setattr(fitting, "FISHER_MAX_BYTES", 8 * 2**2 - 1)
        with pytest.raises(DomainSizeError, match="^2 parameters"):
            fit_to_moments(space, patterns, targets)
        with pytest.raises(DomainSizeError, match="^2 parameters"):
            fit_full_bm(worked_dataset, bm_patterns)


class TestInteriorFeasibility:
    def test_degenerate_targets_infeasible(self):
        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        z = incidence_matrix(space, [(1,), (1, 2)])
        assert interior_feasible(z, np.array([0.4, 0.4])) is False

    def test_interior_targets_feasible(self):
        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        z = incidence_matrix(space, [(1,), (2,)])
        assert interior_feasible(z, np.array([0.7, 0.5])) is True

    def test_lp_capped_by_incidence_size(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("linprog called above the cap")

        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        reduced = fitting.ReducedSpace(incidence_matrix(space, [(1,), (1, 2)]))
        monkeypatch.setattr(fitting, "FEASIBILITY_CHECK_MAX_NNZ", reduced.incidence.nnz - 1)
        monkeypatch.setattr(fitting, "linprog", refuse)
        assert reduced.feasible(np.array([0.4, 0.4])) is None


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
        space = SampleSpace.from_patterns([(), (0,), (1,), (0, 1)])
        given = {(0,): 0.6, (1,): 1.0, (0, 1): 0.25}
        model, report = fit_to_moments(space, list(given), list(given.values()))
        assert report.removed_parameters == ((1,),)
        targets = np.array([given[p] for p in model.domain])
        self.assert_agrees(report, targets, model.etas(), FitConfig().tol)

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
        # No outcome contains item 3, so the row of (3,) in Z is empty and no
        # parameter reaches its interior target.  (0,) and (0, 1) ask for
        # p((0,)) = 0, a boundary the loop removes a parameter for later.
        space = SampleSpace.from_patterns([(), (0,), (0, 1)])
        patterns = [(0,), (3,), (0, 1)]
        targets = [0.4, 0.3, 0.4]
        model, report = fit_to_moments(space, patterns, targets)
        assert report.removed_parameters[0] == (3,)
        assert len(report.removed_parameters) == 2
        assert report.converged and len(model.domain) == 1
        # It goes before the first iteration, not through the theta_max layer.
        _, report = fit_to_moments(space, patterns, targets, FitConfig(max_sweeps=0))
        assert report.removed_parameters == ((3,),) and report.iterations == 0

    def test_interior_fit_drops_only_the_empty_row(self, worked_dataset):
        space = build_sample_space([(1,), (2,)], worked_dataset)
        model, report = fit_to_moments(space, [(1,), (2,), (3,)], [0.7, 0.5, 0.3])
        assert report.removed_parameters == ((3,),)
        assert report.converged and model.domain == ((1,), (2,))


class TestValidation:
    def test_target_alignment(self):
        space = SampleSpace.from_patterns([(), (1,)])
        with pytest.raises(ValueError):
            fit_to_moments(space, [(1,)], [0.5, 0.4])

    def test_nonfinite_targets(self):
        space = SampleSpace.from_patterns([(), (1,)])
        with pytest.raises(ValueError):
            fit_to_moments(space, [(1,)], [np.nan])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(max_sweeps=-1)
        with pytest.raises(ValueError, match="tol"):
            FitConfig(tol=-1e-9)
        for theta_max in (0.0, -1.0):
            with pytest.raises(ValueError, match="theta_max"):
                FitConfig(theta_max=theta_max)
        assert FitConfig(tol=0.0).tol == 0.0


class TestPipeline:
    def test_fit_tbm_returns_domain(self, worked_dataset):
        model, report, domain = fit_tbm(worked_dataset, 0.45, 2)
        assert domain.patterns == ((1,), (2,))
        assert report.converged
        assert model.domain == ((1,), (2,))
