"""Synthetic data generation and the bias-variance harness."""

import numpy as np
import pytest

from tbmlearn import (
    BiasVarianceConfig,
    bias_variance_experiment,
    format_fimi,
    mine_parameter_domain,
    synth_dataset,
    tune_sigma,
)
from tbmlearn import experiments


class TestSynthDataset:
    def test_deterministic_for_seed(self):
        a, ta = synth_dataset(10, 40, 500, seed=9)
        b, tb = synth_dataset(10, 40, 500, seed=9)
        assert format_fimi(a) == format_fimi(b)
        assert ta.support == tb.support
        c, _ = synth_dataset(10, 40, 500, seed=10)
        assert format_fimi(a) != format_fimi(c)

    def test_counts_and_universe(self):
        d, truth = synth_dataset(8, 30, 1000, seed=0)
        assert d.n_samples == 1000
        assert d.n_variables == 8
        assert len(truth.support) == 30
        assert set(d.entries) <= set(truth.support)

    def test_uniform_truth(self):
        _, truth = synth_dataset(6, 10, 50, seed=1)
        assert all(p == 0.1 for p in truth.probs.values())
        assert sum(truth.probs.values()) == pytest.approx(1.0)

    def test_single_support_pattern(self):
        d, truth = synth_dataset(5, 1, 77, seed=2)
        assert len(d.entries) == 1
        assert d.n_samples == 77

    def test_infeasible_support_size(self):
        with pytest.raises(ValueError):
            synth_dataset(3, 9, 10, seed=0)
        with pytest.raises(ValueError):
            synth_dataset(3, 0, 10, seed=0)

    def test_large_universe_path(self):
        d, truth = synth_dataset(70, 15, 100, seed=3)
        assert len(truth.support) == 15
        assert d.n_variables == 70


class TestTuneSigma:
    def test_lands_in_range(self):
        d, _ = synth_dataset(12, 100, 5000, seed=4)
        sigma = tune_sigma(d, 2, 10, 40)
        size = len(mine_parameter_domain(d, sigma, 2))
        assert 10 <= size <= 40

    def test_unreachable_range(self):
        d, _ = synth_dataset(4, 4, 50, seed=5)
        with pytest.raises(ValueError):
            tune_sigma(d, 1, 500, 600)


@pytest.fixture(scope="module")
def report():
    cfg = BiasVarianceConfig(
        space_size=50,
        n_vars=12,
        k=2,
        n_samples=2000,
        trials=12,
        domain_size_range=(8, 30),
        seed=7,
    )
    return bias_variance_experiment(cfg)


class TestBiasVarianceExperiment:
    def test_report_consistency(self, report):
        assert report.trials == 12
        assert report.sample_space_size >= 50
        assert 8 <= report.domain_size <= 30
        assert report.lower_bound == pytest.approx(
            report.domain_size / (2 * 2000), abs=0
        )
        assert report.variance_stderr == pytest.approx(
            report.variance_std / np.sqrt(12), abs=1e-15
        )
        assert report.n_flagged_trials == 0

    def test_bias_nonnegative(self, report):
        assert report.bias >= -1e-12

    def test_per_trial_decomposition_is_exact(self, report):
        # The divergence from the truth splits through the projection for
        # every single trial, up to fitting tolerance.
        residual = np.abs(
            report.kl_true_to_fit - report.bias - report.kl_proj_to_fit
        )
        assert residual.max() <= 1e-6

    def test_variance_in_loose_band_of_bound(self, report):
        assert 0.2 * report.lower_bound <= report.variance_mean <= 5 * report.lower_bound

    def test_deterministic(self):
        cfg = BiasVarianceConfig(
            space_size=40,
            n_vars=10,
            k=2,
            n_samples=500,
            trials=4,
            sigma=0.35,
            seed=11,
        )
        a = bias_variance_experiment(cfg)
        b = bias_variance_experiment(cfg)
        np.testing.assert_array_equal(a.kl_proj_to_fit, b.kl_proj_to_fit)
        assert a.sigma == b.sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            BiasVarianceConfig(
                space_size=1, n_vars=5, k=2, n_samples=10, trials=5, sigma=0.1
            )
        with pytest.raises(ValueError):
            BiasVarianceConfig(
                space_size=10, n_vars=5, k=2, n_samples=10, trials=1, sigma=0.1
            )
        with pytest.raises(ValueError):
            BiasVarianceConfig(
                space_size=10, n_vars=5, k=2, n_samples=10, trials=5
            )

    def test_empty_domain_rejected(self):
        cfg = BiasVarianceConfig(
            space_size=20,
            n_vars=8,
            k=1,
            n_samples=100,
            trials=3,
            sigma=0.999,
            seed=0,
        )
        with pytest.raises(ValueError, match="support"):
            bias_variance_experiment(cfg)


class TestFaceTrials:
    """At a small N some trials' counts put their targets on a boundary, and
    their fits end on a face of the fixed space."""

    cfg = BiasVarianceConfig(
        space_size=25, n_vars=8, k=2, n_samples=500, trials=6, sigma=0.2, seed=1
    )

    def test_face_trials_are_infinite_and_left_out_of_the_means(self):
        report = bias_variance_experiment(self.cfg)
        on_face = np.isinf(report.kl_proj_to_fit)
        assert np.array_equal(on_face, np.isinf(report.kl_true_to_fit))
        assert 0 < report.n_face_trials == on_face.sum() < report.trials
        assert report.n_flagged_trials >= report.n_face_trials
        kept = report.kl_proj_to_fit[~on_face]
        assert report.variance_mean == float(np.mean(kept))
        assert report.variance_std == float(np.std(kept, ddof=1))
        assert report.variance_stderr == report.variance_std / np.sqrt(kept.size)

    def test_a_face_leaves_the_shared_incidence_intact(self, monkeypatch):
        fit_to_moments = experiments.fit_to_moments
        faces = []

        def checked(space, patterns, weights, config, incidence):
            before = [a.copy() for a in (incidence.indptr, incidence.indices, incidence.data)]
            model, report = fit_to_moments(space, patterns, weights, config, incidence=incidence)
            faces.append(model.space is not space)
            after = (incidence.indptr, incidence.indices, incidence.data)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            return model, report

        monkeypatch.setattr(experiments, "fit_to_moments", checked)
        report = bias_variance_experiment(self.cfg)
        assert len(faces) == self.cfg.trials and sum(faces) == report.n_face_trials > 0
