"""Divergence, entropy, and proxy reconstruction error."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbmlearn import (
    EmpiricalDistribution,
    FitConfig,
    TransactionDataset,
    entropy,
    evaluate_gibbs,
    fit,
    fit_full_bm,
    fit_to_moments,
    kl_divergence,
    mine_parameter_domain,
    reconstruction_error_proxy,
)
from tbmlearn.model import build_sample_space, incidence_matrix, multiplicities
from tbmlearn.patterns import parse_fimi

from conftest import WORKED_ENTROPY, WORKED_KL
from oracles import exact_scores, random_dataset

TIGHT = FitConfig(tol=1e-10, max_sweeps=200_000)


class TestKlDivergence:
    def test_identity_is_zero(self, worked_dataset):
        p_hat = EmpiricalDistribution.from_dataset(worked_dataset)
        assert kl_divergence(p_hat, dict(p_hat.probs)) == 0.0

    def test_worked_example(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        p_hat = EmpiricalDistribution.from_dataset(worked_dataset)
        assert kl_divergence(p_hat, model) == pytest.approx(WORKED_KL, abs=1e-9)

    def test_point_mass_against_uniform(self):
        p_hat = {(1,): 1.0}
        q = {x: 0.25 for x in [(), (1,), (2,), (1, 2)]}
        assert kl_divergence(p_hat, q) == pytest.approx(np.log(4), abs=1e-12)

    def test_zero_model_probability_names_pattern(self):
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            kl_divergence({(1, 2): 1.0}, {(1, 2): 0.0})
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            kl_divergence({(1, 2): 1.0}, {(): 1.0})

    def test_nonnegativity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            keys = [(i,) for i in range(6)]
            assert kl_divergence(dict(zip(keys, p)), dict(zip(keys, q))) >= 0.0


class TestEntropy:
    def test_point_mass(self):
        assert str(entropy({(1,): 1.0})) == "0.0"

    def test_uniform(self):
        p = {(i,): 0.2 for i in range(5)}
        assert entropy(p) == pytest.approx(np.log(5), abs=1e-12)

    def test_worked_empirical(self, worked_dataset):
        p_hat = EmpiricalDistribution.from_dataset(worked_dataset)
        assert entropy(p_hat) == pytest.approx(WORKED_ENTROPY, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            entropy({(1,): 0.4})

    def test_many_distinct_transactions_pass_the_sum_checks(self):
        # 2e5 distinct transactions seen once or twice: a plain float sum of
        # their frequencies drifts past the 1e-12 normalization tolerance.
        n_distinct = 200_000
        entries = {(i,): 1 + i % 2 for i in range(n_distinct)}
        dataset = TransactionDataset(entries=entries, n_variables=n_distinct)
        n = dataset.n_samples
        assert abs(sum(m / n for m in entries.values()) - 1.0) > 1e-12
        p_hat = EmpiricalDistribution.from_dataset(dataset)
        expected = np.log(n) - (n_distinct // 2) * 2 * np.log(2) / n
        assert entropy(p_hat) == pytest.approx(expected, rel=1e-12)


class TestReconstructionErrorProxy:
    def test_constant_energies_reduce_to_entropy_defect(self, worked_dataset):
        error = reconstruction_error_proxy(lambda x: 1.25, worked_dataset)
        expected = np.log(len(worked_dataset.entries)) - WORKED_ENTROPY
        assert error == pytest.approx(expected, abs=1e-12)

    def test_matches_exact_kl_for_transductive_model(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        p_hat = EmpiricalDistribution.from_dataset(worked_dataset)
        direct = kl_divergence(p_hat, model)
        proxy = reconstruction_error_proxy(model.energy, worked_dataset)
        assert proxy == pytest.approx(direct, abs=1e-10)

    def test_invariant_to_constant_energy_shift(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        shifted = lambda x: model.energy(x) + 17.0
        assert reconstruction_error_proxy(
            shifted, worked_dataset
        ) == pytest.approx(
            reconstruction_error_proxy(model.energy, worked_dataset), abs=1e-10
        )

    def test_nonfinite_energy_rejected(self, worked_dataset):
        with pytest.raises(ValueError):
            reconstruction_error_proxy(lambda x: np.inf, worked_dataset)


class TestLikelihoodRelation:
    def test_kl_equals_negative_loglik_rate_minus_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            entries = random_dataset(rng, n, int(rng.integers(40, 250)))
            d = TransactionDataset(entries=entries, n_variables=n)
            model, report = fit(d, mine_parameter_domain(d, 0.2, 2), TIGHT)
            p_hat = EmpiricalDistribution.from_dataset(d)
            kl = kl_divergence(p_hat, model)
            relation = -evaluate_gibbs(model, d).log_likelihood / d.n_samples - entropy(p_hat)
            assert kl == pytest.approx(relation, abs=1e-9)

    def test_evaluate_gibbs_fields(self, worked_dataset):
        model, _ = fit(worked_dataset, [(1,), (2,)], TIGHT)
        ev = evaluate_gibbs(model, worked_dataset)
        assert ev.kl == pytest.approx(WORKED_KL, abs=1e-9)
        assert ev.n_eval_patterns == 4
        assert ev.log_likelihood == pytest.approx(
            -worked_dataset.n_samples * (ev.kl + WORKED_ENTROPY), abs=1e-7
        )


class TestArrayScoring:
    """Every score is the correctly rounded sum of its terms, so it is bit for
    bit what exact arithmetic over the per-pattern terms rounds to, whatever
    the order of the patterns."""

    @pytest.mark.parametrize("learner", [fit, fit_full_bm])
    def test_bit_identical_to_per_pattern_loops(self, learner):
        rng = np.random.default_rng(11)
        for _ in range(6):
            n = int(rng.integers(2, 7))
            d = TransactionDataset(entries=random_dataset(rng, n, int(rng.integers(30, 400))),
                                   n_variables=n)
            model, _ = learner(d, mine_parameter_domain(d, 0.1, 2), TIGHT)
            want = exact_scores(model, d)
            ev = evaluate_gibbs(model, d)
            assert (ev.kl, ev.log_likelihood, ev.proxy_error) == (
                want["kl"], want["loglik"], want["proxy_error"])
            assert reconstruction_error_proxy(model.energy, d) == want["proxy_error"]
            p_hat = EmpiricalDistribution.from_dataset(d)
            assert kl_divergence(p_hat, model) == want["kl"]
            assert entropy(d) == entropy(p_hat) == want["entropy"]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 5).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.frozensets(st.integers(0, n - 1)), min_size=2, max_size=80),
        )),
        st.randoms(use_true_random=False),
    )
    def test_order_of_equal_data_changes_no_bit(self, drawn, rnd):
        # The same transactions, as entries in another order and as FIMI
        # lines read in another order, score the same bits.
        n, rows = drawn
        lines = [" ".join(map(str, sorted(r))) for r in rows] + [" ".join(map(str, range(n)))]
        d = parse_fimi("\n".join(lines) + "\n", empty_as_bottom=True)
        shuffled = list(d.entries.items())
        rnd.shuffle(shuffled)
        rnd.shuffle(lines)
        same = [TransactionDataset(entries=dict(shuffled), n_variables=d.n_variables),
                parse_fimi("\n".join(lines) + "\n", empty_as_bottom=True)]
        assert all(o.entries == d.entries for o in same)
        domain = mine_parameter_domain(d, 0.1, 2)
        for model, _ in (fit(d, domain), fit_full_bm(d, domain)):
            def scores(data):
                p_hat = EmpiricalDistribution.from_dataset(data)
                return (evaluate_gibbs(model, data), entropy(data), entropy(p_hat),
                        kl_divergence(p_hat, model),
                        reconstruction_error_proxy(model.energy, data))
            want = scores(d)
            for other in same:
                assert repr(scores(other)) == repr(want)


class TestNestedDomainMonotonicity:
    def test_larger_domain_never_fits_worse_on_same_space(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            entries = random_dataset(rng, n, int(rng.integers(60, 300)))
            d = TransactionDataset(entries=entries, n_variables=n)
            big = sorted(mine_parameter_domain(d, 0.1, 2))
            if len(big) < 2:
                continue
            small = [p for p in big if len(p) == 1]
            space = build_sample_space(big, d)
            counts = multiplicities(space, d)
            z_big = incidence_matrix(space, big)
            m_big, _ = fit_to_moments(space, big, counts, TIGHT, incidence=z_big)
            z_small = incidence_matrix(space, small)
            m_small, _ = fit_to_moments(space, small, counts, TIGHT, incidence=z_small)
            p_hat = EmpiricalDistribution.from_dataset(d)
            assert kl_divergence(p_hat, m_big) <= kl_divergence(p_hat, m_small) + 1e-8
