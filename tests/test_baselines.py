"""Fully visible BM (exact) and PCD-1 RBM baselines."""

import numpy as np
import pytest

from tbmlearn import (
    FitConfig,
    GibbsModel,
    RBMConfig,
    RBMModel,
    SampleSpace,
    TransactionDataset,
    fit,
    fit_full_bm,
    fit_rbm_pcd1,
    fit_to_moments,
    incidence_matrix,
    matched_hidden_units,
    mine_parameter_domain,
)
from tbmlearn import baselines, fitting
from tbmlearn.baselines import FullCube, pattern_vector, subset_sums, superset_sums
from tbmlearn.fitting import empirical_targets

from oracles import enumerate_patterns, random_dataset, whole_domain_gap

TIGHT = FitConfig(tol=1e-10, max_sweeps=200_000)


class TestBitTransforms:
    def test_against_quadratic_reference(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 5):
            values = rng.normal(size=1 << n)
            sub = subset_sums(values, n)
            sup = superset_sums(values, n)
            for m in range(1 << n):
                expected_sub = sum(
                    values[s] for s in range(1 << n) if (s & m) == s
                )
                expected_sup = sum(
                    values[x] for x in range(1 << n) if (x & m) == m
                )
                assert sub[m] == pytest.approx(expected_sub, abs=1e-10)
                assert sup[m] == pytest.approx(expected_sup, abs=1e-10)

    def test_zero_bits(self):
        values = np.array([2.5])
        np.testing.assert_array_equal(subset_sums(values, 0), values)


class TestFullBM:
    def test_uniform_partition(self, worked_dataset01):
        model, report = fit_full_bm(worked_dataset01, [])
        assert model.log_partition == pytest.approx(2 * np.log(2), abs=1e-12)
        assert report.iterations == 0

    def test_worked_example_closed_form(self, worked_dataset01):
        model, report = fit_full_bm(worked_dataset01, [(0,), (1,)], TIGHT)
        assert report.converged
        assert model.theta[0] == pytest.approx(np.log(7 / 3), abs=1e-9)
        assert model.theta[1] == pytest.approx(0.0, abs=1e-9)
        assert model.prob(()) == pytest.approx(0.15, abs=1e-9)

    def test_agrees_with_transductive_fit_on_full_cube(self):
        # When the derived sample space covers the whole cube the two
        # learners solve the same problem.
        rng = np.random.default_rng(1)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            entries = random_dataset(rng, n, 200)
            for x in enumerate_patterns(n):
                entries.setdefault(x, 1)
            d = TransactionDataset(entries=entries, n_variables=n)
            domain = [(i,) for i in range(n)] + [(0, 1)]
            bm, bm_report = fit_full_bm(d, domain, TIGHT)
            tbm, tbm_report = fit(d, domain, TIGHT)
            assert bm_report.converged and tbm_report.converged
            np.testing.assert_allclose(bm.theta, tbm.theta, atol=1e-6)

        # Boundary inputs: a support of 9 of the 16 cells leaves some targets
        # unattainable by a positive distribution.  Both learners run the face
        # LP over the cube's Z at the same iteration and fit the same face,
        # with the same aliases, from there on.
        cube = SampleSpace.from_patterns(enumerate_patterns(4))
        domain = [p for p in enumerate_patterns(4) if 1 <= len(p) <= 3]
        cfg = FitConfig(tol=1e-10)
        for seed in range(8):
            d = TransactionDataset(
                entries=random_dataset(np.random.default_rng(seed), 4, 400, support_size=9),
                n_variables=4,
            )
            bm, bm_report = fit_full_bm(d, domain, cfg)
            incidence = incidence_matrix(cube, domain)
            targets = empirical_targets(d, cube, incidence)
            tbm, tbm_report = fit_to_moments(cube, domain, targets, cfg, incidence)
            assert bm_report.removed_parameters
            assert bm_report.removed_parameters == tbm_report.removed_parameters
            assert bm_report.iterations == tbm_report.iterations
            assert bm_report.converged and tbm_report.converged
            assert isinstance(bm, GibbsModel) and bm.space.outcomes == tbm.space.outcomes
            assert len(bm.space) < len(cube)
            for x in cube.outcomes:
                p = bm.prob(x) if x in bm.space else 0.0
                assert p == pytest.approx(tbm.prob(x) if x in tbm.space else 0.0, abs=1e-12)

    def test_fisher_matrix_symmetric_as_built(self, monkeypatch):
        handed = []

        def capture(g):
            handed.append(g.copy())
            return lambda residual: residual

        monkeypatch.setattr(baselines, "solve_fisher", capture)
        rng = np.random.default_rng(3)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            patterns = [p for p in enumerate_patterns(n) if 1 <= len(p) <= 3]
            cube = FullCube(n, patterns)
            log_probs, _ = cube.state(rng.normal(scale=2.0, size=len(patterns)))
            cube.fisher_solve(log_probs, cube.etas(log_probs))
        assert len(handed) == 8
        for g in handed:
            assert np.array_equal(g, g.T)

    def test_degenerate_pair_guarded_like_tbm(self):
        d = TransactionDataset(entries={(): 6, (0, 1): 4}, n_variables=2)
        model, report = fit_full_bm(d, [(0,), (0, 1)])
        assert len(report.removed_parameters) == 1
        assert report.converged
        assert np.all(np.isfinite(model.log_probs))

    def test_boundary_targets_removed_up_front(self):
        # Item 0 is in every transaction: the fit moves to the cube's face of
        # the outcomes that hold it, where (0,) is constant.
        d = TransactionDataset(entries={(0,): 6, (0, 1): 4}, n_variables=2)
        model, report = fit_full_bm(d, [(0,), (1,)])
        assert report.removed_parameters == ((0,),)
        assert report.converged
        assert isinstance(model, GibbsModel) and model.space.outcomes == ((0,), (0, 1))
        assert whole_domain_gap(d, [(0,), (1,)], model) <= FitConfig().tol

    def test_filter_then_face(self, monkeypatch):
        # Item 0 is in every transaction and the closure pairs rule out more
        # of the cube: the face is found up front, with no LP, and three
        # parameters alias there before the filter removes the constant (0,).
        def no_lp(*args):
            raise AssertionError("the feasibility LP ran")

        monkeypatch.setattr(baselines, "interior_feasible", no_lp)
        d = TransactionDataset.from_transactions(
            [[0, 1, 2], [0, 2], [0], [0, 1, 2], [0, 2], [0, 2]]
        )
        domain = mine_parameter_domain(d, 0.1, 2)
        cfg = FitConfig(tol=1e-9)
        model, report = fit_full_bm(d, domain, cfg)
        assert isinstance(model, GibbsModel) and model.domain == ((0, 2), (1, 2))
        assert report.removed_parameters == ((1,), (2,), (0, 1), (0,))
        assert report.converged and report.iterations <= 4
        assert whole_domain_gap(d, list(domain), model) <= cfg.tol

    def test_feasibility_lp_capped(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("linprog called above the cap")

        monkeypatch.setattr(fitting, "linprog", refuse)
        monkeypatch.setattr(baselines, "incidence_matrix", refuse)
        # The singletons of 13 variables alone hold 13 * 2^12 nonzeros.
        cube = FullCube(13, [(i,) for i in range(13)])
        assert cube.face(np.full(13, 0.5)) is None

    def test_refuses_large_universe(self):
        d = TransactionDataset(entries={(25,): 1}, n_variables=26)
        with pytest.raises(ValueError, match="transductive"):
            fit_full_bm(d, [(25,)])

    def test_energy_and_eta(self, worked_dataset01):
        model, _ = fit_full_bm(worked_dataset01, [(0,), (1,)], TIGHT)
        assert model.energy(()) == pytest.approx(0.0, abs=1e-12)
        assert model.eta((0,)) == pytest.approx(0.7, abs=1e-9)
        assert np.exp(model.log_probs).sum() == pytest.approx(1.0, abs=1e-8)


class TestRBMModel:
    def test_zero_parameter_free_energy(self):
        model = RBMModel(
            visible_bias=np.zeros(3),
            hidden_bias=np.zeros(4),
            weights=np.zeros((3, 4)),
        )
        for x in [(), (0,), (0, 2)]:
            assert model.free_energy(x) == pytest.approx(
                -4 * np.log(2), abs=1e-12
            )

    def test_visible_bias_only(self):
        b = np.array([0.5, -1.0])
        model = RBMModel(
            visible_bias=b, hidden_bias=np.zeros(3), weights=np.zeros((2, 3))
        )
        assert model.free_energy((0, 1)) == pytest.approx(
            -(b.sum()) - 3 * np.log(2), abs=1e-12
        )

    def test_single_unit_coupling(self):
        model = RBMModel(
            visible_bias=np.zeros(1),
            hidden_bias=np.zeros(1),
            weights=np.ones((1, 1)),
        )
        assert model.free_energy((0,)) == pytest.approx(
            -np.log(1 + np.e), abs=1e-12
        )

    def test_param_count(self):
        model = RBMModel(
            visible_bias=np.zeros(5),
            hidden_bias=np.zeros(3),
            weights=np.zeros((5, 3)),
        )
        assert model.param_count == 5 + 3 + 15

    def test_pattern_vector_bounds(self):
        with pytest.raises(ValueError):
            pattern_vector((4,), 3)


class TestMatchedHiddenUnits:
    @pytest.mark.parametrize(
        "domain_size,n,expected",
        [(23, 119, 1), (305, 41, 7), (372, 75, 4), (194, 41270, 1), (128, 16470, 1)],
    )
    def test_reported_budgets(self, domain_size, n, expected):
        assert matched_hidden_units(domain_size, n) == expected

    def test_budget_reproduces_param_counts(self):
        # mushroom-scale check: 119 visible, one hidden -> 239 parameters
        n, n_h = 119, matched_hidden_units(23, 119)
        assert n + n_h + n * n_h == 239

    def test_at_least_one(self):
        assert matched_hidden_units(0, 10) == 1


class TestPcdTraining:
    def test_deterministic_given_seed(self, worked_dataset01):
        cfg = RBMConfig(n_updates=50, n_chains=8, seed=123)
        a = fit_rbm_pcd1(worked_dataset01, 2, cfg)
        b = fit_rbm_pcd1(worked_dataset01, 2, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.visible_bias, b.visible_bias)
        c = fit_rbm_pcd1(worked_dataset01, 2, RBMConfig(n_updates=50, n_chains=8, seed=124))
        assert not np.array_equal(a.weights, c.weights)

    @pytest.mark.parametrize(
        "setting",
        [{"n_updates": -3}, {"n_chains": 0}, {"learning_rate": float("nan")},
         {"learning_rate": 0.0}, {"learning_rate": float("inf")}],
    )
    def test_invalid_config_refused(self, setting):
        with pytest.raises(ValueError, match="n_updates >= 0, n_chains >= 1, 0 < learning_rate"):
            RBMConfig(**setting)

    def test_needs_hidden_units(self, worked_dataset01):
        with pytest.raises(ValueError):
            fit_rbm_pcd1(worked_dataset01, 0)

    def test_huge_item_id_refused_before_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense visible vector allocated")

        monkeypatch.setattr(baselines, "pattern_vector", refuse)
        d = TransactionDataset(entries={(0,): 3, (1_000_000_000,): 2}, n_variables=1_000_000_001)
        with pytest.raises(ValueError, match="budget"):
            fit_rbm_pcd1(d, 1)

    def test_byte_budget_is_inclusive(self, monkeypatch, worked_dataset01):
        # 2 variables x (4 distinct transactions + 8 chains + 2 hidden units) x 8 bytes
        cfg = RBMConfig(n_updates=1, n_chains=8)
        monkeypatch.setattr(baselines, "RBM_MAX_BYTES", 2 * 14 * 8)
        fit_rbm_pcd1(worked_dataset01, 2, cfg)
        monkeypatch.setattr(baselines, "RBM_MAX_BYTES", 2 * 14 * 8 - 1)
        with pytest.raises(ValueError, match="budget"):
            fit_rbm_pcd1(worked_dataset01, 2, cfg)

    def test_hidden_activation_half_at_zero_weights(self):
        from scipy.special import expit

        model = RBMModel(
            visible_bias=np.zeros(2),
            hidden_bias=np.zeros(3),
            weights=np.zeros((2, 3)),
        )
        activation = expit(model.hidden_bias + pattern_vector((1,), 2) @ model.weights)
        np.testing.assert_allclose(activation, 0.5)

    def _exact_loglik(self, model, dataset):
        configs = [(), (0,), (1,), (0, 1)]
        free = np.array([model.free_energy(x) for x in configs])
        logz = np.log(np.exp(-free).sum())
        logp = {x: -f - logz for x, f in zip(configs, free)}
        return sum(m * logp[x] for x, m in dataset.entries.items())

    def test_training_approaches_grid_search_mle(self):
        # Two visible units, one hidden: the exact likelihood is computable
        # by enumeration, and a coarse parameter grid gives a floor that
        # converged PCD training should reach (averaged over seeds).
        d = TransactionDataset(entries={(): 5, (0,): 2, (0, 1): 3}, n_variables=2)

        grid = np.linspace(-2, 2, 9)
        best = -np.inf
        for b0 in grid:
            for b1 in grid:
                for c0 in grid:
                    for w0 in grid:
                        for w1 in grid:
                            model = RBMModel(
                                visible_bias=np.array([b0, b1]),
                                hidden_bias=np.array([c0]),
                                weights=np.array([[w0], [w1]]),
                            )
                            best = max(best, self._exact_loglik(model, d))

        logliks = []
        ranks_ok = []
        for seed in (0, 1, 2):
            cfg = RBMConfig(
                learning_rate=0.05, n_updates=4000, n_chains=50, seed=seed
            )
            model = fit_rbm_pcd1(d, 1, cfg)
            logliks.append(self._exact_loglik(model, d))
            observed = max(
                model.free_energy(x) for x in d.entries
            )
            unobserved = model.free_energy((1,))
            ranks_ok.append(unobserved > observed)
        assert np.mean(logliks) >= best - 0.5
        assert sum(ranks_ok) >= 2

    def test_chains_and_shapes(self, worked_dataset01):
        cfg = RBMConfig(n_updates=20, n_chains=7, seed=5)
        model = fit_rbm_pcd1(worked_dataset01, 3, cfg)
        assert model.weights.shape == (2, 3)
        assert model.visible_bias.shape == (2,)
        assert model.hidden_bias.shape == (3,)
        assert np.all(np.isfinite(model.weights))
