"""Fisher information, projections, and the divergence decomposition."""

import numpy as np
import pytest

from tbmlearn import (
    EmpiricalDistribution,
    FitConfig,
    GibbsModel,
    SampleSpace,
    TransactionDataset,
    fisher_information,
    fit,
    m_projection,
    mine_parameter_domain,
    pythagorean_residual,
    variance_lower_bound,
)
from oracles import contains, pattern_union, random_dataset

TIGHT = FitConfig(tol=1e-10, max_sweeps=200_000)


def random_fitted_model(rng, n_low=2, n_high=6):
    n = int(rng.integers(n_low, n_high))
    entries = random_dataset(rng, n, int(rng.integers(50, 300)))
    d = TransactionDataset(entries=entries, n_variables=n)
    domain = mine_parameter_domain(d, 0.15, 2)
    model, report = fit(d, domain, TIGHT)
    return model, report


class TestFisherInformation:
    def test_diagonal_is_bernoulli_variance(self):
        rng = np.random.default_rng(0)
        model, _ = random_fitted_model(rng)
        g = fisher_information(model)
        for j, s in enumerate(model.domain):
            eta = model.eta(s)
            assert g[j, j] == pytest.approx(eta * (1 - eta), abs=1e-10)

    def test_uniform_two_bit_cross_entry_vanishes(self):
        space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
        model = GibbsModel(space, [(1,), (2,)], [0.0, 0.0])
        g = fisher_information(model)
        assert g[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_worked_mle_diagonal(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        g = fisher_information(model)
        j = model.domain.index((1,))
        assert g[j, j] == pytest.approx(0.21, abs=1e-8)

    def test_entries_equal_union_covariance(self):
        rng = np.random.default_rng(1)
        model, _ = random_fitted_model(rng)
        g = fisher_information(model)
        for a, s in enumerate(model.domain):
            for b, u in enumerate(model.domain):
                expected = model.eta(pattern_union(s, u)) - model.eta(s) * model.eta(u)
                assert g[a, b] == pytest.approx(expected, abs=1e-10)

    def test_matches_finite_differences_of_expectations(self):
        rng = np.random.default_rng(2)
        model, _ = random_fitted_model(rng)
        basis = list(model.domain)
        h = 1e-5
        g = fisher_information(model)
        for u_idx, u in enumerate(basis):
            up = np.array(model.theta, copy=True)
            dn = np.array(model.theta, copy=True)
            up[u_idx] += h
            dn[u_idx] -= h
            m_up = GibbsModel(model.space, basis, up)
            m_dn = GibbsModel(model.space, basis, dn)
            fd = (m_up.etas() - m_dn.etas()) / (2 * h)
            np.testing.assert_allclose(g[:, u_idx], fd, atol=1e-6)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            model, _ = random_fitted_model(rng)
            g = fisher_information(model)
            np.testing.assert_array_equal(g, g.T)
            assert np.linalg.eigvalsh(g).min() >= -1e-9


class TestMProjection:
    def test_member_is_fixed_point(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        projected, report = m_projection(
            model.probabilities, list(model.domain), TIGHT
        )
        assert report.converged
        kl = float(
            np.dot(
                np.exp(model.log_probs), model.log_probs - projected.log_probs
            )
        )
        assert abs(kl) <= 1e-10

    def test_empty_domain_projects_to_uniform(self):
        dist = {(): 0.4, (1,): 0.1, (2,): 0.5}
        projected, _ = m_projection(dist, [])
        np.testing.assert_allclose(np.exp(projected.log_probs), 1 / 3, atol=1e-12)

    def test_single_parameter_matches_scalar_root(self):
        # One parameter, so the optimum solves a monotone scalar equation:
        # bisect it independently and compare distributions.
        rng = np.random.default_rng(4)
        outcomes = [(), (1,), (2,), (1, 2)]
        for _ in range(10):
            w = rng.uniform(0.05, 1.0, size=4)
            w /= w.sum()
            dist = dict(zip(outcomes, w))
            target = w[1] + w[3]
            mask = np.array([contains((1,), x) for x in outcomes])

            def eta_of(theta):
                logits = np.where(mask, theta, 0.0)
                p = np.exp(logits - logits.max())
                p /= p.sum()
                return p[mask].sum()

            lo, hi = -40.0, 40.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if eta_of(mid) < target:
                    lo = mid
                else:
                    hi = mid
            theta_star = 0.5 * (lo + hi)

            projected, report = m_projection(dist, [(1,)], TIGHT)
            assert report.converged
            assert projected.theta[0] == pytest.approx(theta_star, abs=1e-7)

    def test_requires_bottom_and_positivity(self):
        with pytest.raises(ValueError):
            m_projection({(1,): 1.0}, [(1,)])
        with pytest.raises(ValueError):
            m_projection({(): 0.5, (1,): 0.0, (2,): 0.5}, [(1,)])


class TestPythagoreanIdentity:
    def test_fit_itself_gives_zero(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        p_hat = EmpiricalDistribution.from_dataset(worked_dataset)
        assert pythagorean_residual(p_hat.probs, model, model) <= 1e-12

    def test_uniform_reference(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        q = GibbsModel(model.space, model.domain, np.zeros(len(model.domain)))
        p_hat = EmpiricalDistribution.from_dataset(worked_dataset)
        assert pythagorean_residual(p_hat.probs, model, q) <= 1e-8

    def test_random_references(self, worked_dataset):
        rng = np.random.default_rng(5)
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        p_hat = EmpiricalDistribution.from_dataset(worked_dataset)
        for _ in range(20):
            theta = rng.uniform(-1.0, 1.0, size=len(model.domain))
            q = GibbsModel(model.space, model.domain, theta)
            assert pythagorean_residual(p_hat.probs, model, q) <= 1e-8

    def test_space_mismatch_rejected(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        other = GibbsModel(SampleSpace.from_patterns([(), (9,)]), (), ())
        with pytest.raises(ValueError):
            pythagorean_residual({(): 1.0}, model, other)


class TestVarianceLowerBound:
    def test_reported_scale(self):
        assert variance_lower_bound(305, 89897) == pytest.approx(
            1.696386e-3, rel=1e-6
        )

    def test_edge_values(self):
        assert variance_lower_bound(0, 10) == 0.0
        assert variance_lower_bound(20, 10) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            variance_lower_bound(-1, 10)
        with pytest.raises(ValueError):
            variance_lower_bound(3, 0)


class TestLegendreDuality:
    def test_expectations_are_partition_gradient(self):
        rng = np.random.default_rng(6)
        space = SampleSpace.from_patterns(
            [(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]
        )
        domain = [(0,), (1,), (2,), (0, 1)]
        h = 1e-5
        for _ in range(5):
            theta = rng.uniform(-1, 1, size=len(domain))
            model = GibbsModel(space, domain, theta)
            for j in range(len(domain)):
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd = (
                    GibbsModel(space, domain, up).log_partition
                    - GibbsModel(space, domain, dn).log_partition
                ) / (2 * h)
                assert model.etas()[j] == pytest.approx(fd, abs=1e-6)

    def test_parameters_are_entropy_gradient(self, worked_dataset):
        # Dual direction: perturb the expectation coordinates, solve the
        # triangular containment system back to probabilities, and take
        # finite differences of the negative entropy.
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        space = model.space
        plus = [x for x in space.outcomes if x]
        m = np.array(
            [[contains(x, s) for s in space.outcomes] for x in plus],
            dtype=float,
        )
        top = np.ones((1, len(space)))
        system = np.vstack([top, m])

        def phi_of(eta_vec):
            p = np.linalg.solve(system, np.concatenate([[1.0], eta_vec]))
            assert np.all(p > 0)
            return float(np.dot(p, np.log(p)))

        eta0 = np.array([model.eta(x) for x in plus])
        theta_by_pattern = dict(model.theta_map)
        h = 1e-6
        for j, x in enumerate(plus):
            up, dn = eta0.copy(), eta0.copy()
            up[j] += h
            dn[j] -= h
            fd = (phi_of(up) - phi_of(dn)) / (2 * h)
            assert fd == pytest.approx(theta_by_pattern.get(x, 0.0), abs=1e-4)
