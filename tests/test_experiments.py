"""Synthetic data generation and the bias-variance harness."""

import sys

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
from tbmlearn import experiments, fitting
from tbmlearn.model import incidence_matrix


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

        def checked(prepared, patterns, weights, config):
            z = prepared.incidence
            before = [a.copy() for a in (z.indptr, z.indices, z.data)]
            model, report = fit_to_moments(prepared, patterns, weights, config)
            faces.append(model.space is not prepared.sample_space)
            after = (z.indptr, z.indices, z.data)
            assert prepared.incidence is z
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            return model, report

        monkeypatch.setattr(experiments, "fit_to_moments", checked)
        report = bias_variance_experiment(self.cfg)
        assert len(faces) == self.cfg.trials and sum(faces) == report.n_face_trials > 0


def _shared_arrays(prepared) -> dict[str, np.ndarray]:
    """Copies of every array the views of a prepared normalizer share."""
    z, zt = prepared.incidence, prepared._transposed
    arrays = {
        "z.indptr": z.indptr, "z.indices": z.indices, "z.data": z.data,
        "zt.indptr": zt.indptr, "zt.indices": zt.indices, "zt.data": zt.data,
    }
    rows_of = prepared._built.get("rows_of")
    if rows_of is not None:
        arrays["rows_of"] = rows_of if isinstance(rows_of, np.ndarray) else rows_of.toarray()
    if "pairs" in prepared._built:
        arrays["pairs.s"], arrays["pairs.u"] = prepared._built["pairs"]
    return {key: np.array(a, copy=True) for key, a in arrays.items()}


class TestPreparedTrials:
    """Trials that share one prepared normalizer fit as fresh fits do, bit for bit."""

    CRITERION_7 = BiasVarianceConfig(
        space_size=200, n_vars=20, k=2, n_samples=1_000, trials=20,
        domain_size_range=(20, 60), seed=2718,
    )

    @pytest.mark.parametrize("cfg", [TestFaceTrials.cfg, CRITERION_7], ids=["faces", "criterion_7"])
    def test_prepared_trials_equal_fresh_fits(self, monkeypatch, cfg):
        fit_to_moments = experiments.fit_to_moments
        seen = {"faces": 0, "shared": None, "prepared": None}

        def compared(prepared, patterns, weights, config):
            assert patterns is None
            if seen["prepared"] is None:
                seen["prepared"], seen["support"] = prepared, prepared.support
            assert prepared is seen["prepared"]
            model, report = fit_to_moments(prepared, None, weights, config)
            space, pats = prepared.sample_space, list(prepared.patterns)
            fresh, fresh_report = fit_to_moments(
                space, pats, weights, config, incidence_matrix(space, pats)
            )
            assert model.theta.tobytes() == fresh.theta.tobytes()
            assert model.log_probs.tobytes() == fresh.log_probs.tobytes()
            assert model.domain == fresh.domain
            for name in ("items", "indptr", "indices"):
                assert np.array_equal(getattr(model.space, name), getattr(fresh.space, name))
            assert report == fresh_report
            seen["faces"] += model.space is not space
            shared = _shared_arrays(prepared)
            for key, before in (seen["shared"] or {}).items():
                assert np.array_equal(shared[key], before), key
            seen["shared"] = shared
            return model, report

        monkeypatch.setattr(experiments, "fit_to_moments", compared)
        report = bias_variance_experiment(cfg)
        assert seen["faces"] == report.n_face_trials
        assert seen["prepared"].support is seen["support"] is None
        assert {"rows_of", "pairs.s", "pairs.u"} <= set(seen["shared"])
        if cfg is TestFaceTrials.cfg:
            assert report.n_face_trials > 0


class TestPerTrialCost:
    """What only the (space, domain) pair decides is prepared once per
    experiment, however many trials it runs: a count guard, not a clock."""

    @staticmethod
    def counts(monkeypatch, trials: int) -> dict[str, int]:
        calls = {"flatten_canonical": 0, "over": 0}
        transposes = []  # each dense Z^T a Fisher build used, kept so ids stay unique

        def counting(key, original):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            return wrapper

        def recording(incidence, rows_of, *args):
            if isinstance(rows_of, np.ndarray) and all(r is not rows_of for r in transposes):
                transposes.append(rows_of)
            return natural_direction(incidence, rows_of, *args)

        for name, module in list(sys.modules.items()):
            if name.startswith("tbmlearn") and hasattr(module, "flatten_canonical"):
                monkeypatch.setattr(
                    module, "flatten_canonical", counting("flatten_canonical", module.flatten_canonical)
                )
        natural_direction = fitting.natural_direction
        monkeypatch.setattr(fitting, "natural_direction", recording)
        monkeypatch.setattr(
            fitting.ReducedSpace, "over", staticmethod(counting("over", fitting.ReducedSpace.over))
        )
        cfg = BiasVarianceConfig(
            space_size=50, n_vars=12, k=2, n_samples=2000, trials=trials,
            domain_size_range=(8, 30), seed=7,
        )
        report = bias_variance_experiment(cfg)
        assert report.n_face_trials == 0
        monkeypatch.undo()
        return dict(calls, dense_transposes=len(transposes))

    def test_prepared_work_does_not_grow_with_trials(self, monkeypatch):
        few, many = self.counts(monkeypatch, 4), self.counts(monkeypatch, 12)
        assert few == many
        # The projection and the trials: one preparation and one dense
        # transpose each.
        assert few["over"] == 2 and few["dense_transposes"] == 2
