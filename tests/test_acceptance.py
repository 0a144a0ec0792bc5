"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
with the measured quantities (run ``pytest tests/test_acceptance.py -v -s``
to see the lines for passing criteria too).  Tolerances are pinned here and
nowhere else.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from tbmlearn import (
    BiasVarianceConfig,
    EmpiricalDistribution,
    FitConfig,
    GibbsModel,
    SampleSpace,
    TransactionDataset,
    bias_variance_experiment,
    fisher_information,
    fit,
    fit_full_bm,
    fit_tbm,
    fit_to_moments,
    mine_parameter_domain,
    parse_fimi,
    pythagorean_residual,
    reconstruction_error_proxy,
    synth_dataset,
)
from tbmlearn.fitting import empirical_targets
from tbmlearn.model import build_sample_space, incidence_matrix

from oracles import brute_force_domain, iterative_scaling_mle, random_dataset

TIGHT = FitConfig(tol=1e-10, max_sweeps=200_000)


def verdict(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d} ({name}): {detail}")
    return ok


def random_instance(rng, n_low=3, n_high=10, n_max_samples=1000):
    n = int(rng.integers(n_low, n_high + 1))
    n_samples = int(rng.integers(30, n_max_samples + 1))
    support = int(rng.integers(3, min(2**n, 60) + 1))
    entries = random_dataset(rng, n, n_samples, support_size=support)
    return TransactionDataset(entries=entries, n_variables=n)


def test_criterion_01_moment_matching():
    rng = np.random.default_rng(2024)
    sigmas = [0.0, 0.1, 0.3]
    orders = [1, 2, 3]
    worst = 0.0
    start = time.perf_counter()
    for i in range(100):
        dataset = random_instance(rng)
        sigma = sigmas[i % 3]
        k = orders[(i // 3) % 3]
        model, report, domain = fit_tbm(dataset, sigma, k)
        if len(model.domain):
            z = incidence_matrix(model.space, list(model.domain))
            target = empirical_targets(dataset, model.space, z)
            worst = max(worst, float(np.max(np.abs(target - model.etas()))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    assert verdict(
        1, "moment matching", ok,
        f"worst residual moment gap {worst:.2e} over 100 fits in {elapsed:.1f}s",
    )


def test_criterion_02_gradient_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    worst_rel = 0.0
    while checked < 20:
        dataset = random_instance(rng, n_low=3, n_high=6, n_max_samples=400)
        patterns = sorted(mine_parameter_domain(dataset, 0.15, 2))
        if not patterns:
            continue
        space = build_sample_space(patterns, dataset)
        z = incidence_matrix(space, patterns)
        targets = empirical_targets(dataset, space, z)
        n = dataset.n_samples
        theta = rng.uniform(-1.0, 1.0, size=len(patterns))
        model = GibbsModel(space, patterns, theta)
        analytic = n * (targets - model.etas())
        h = 1e-5
        for j in range(len(patterns)):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            lup = n * (float(targets @ up) - GibbsModel(space, patterns, up).log_partition)
            ldn = n * (float(targets @ dn) - GibbsModel(space, patterns, dn).log_partition)
            fd = (lup - ldn) / (2 * h)
            rel = abs(analytic[j] - fd) / max(abs(analytic[j]), abs(fd), 1e-3 * n)
            worst_rel = max(worst_rel, rel)
        checked += 1
    ok = worst_rel <= 1e-6
    assert verdict(
        2, "gradient oracle", ok,
        f"worst relative error {worst_rel:.2e} across {checked} random parameter points",
    )


def test_criterion_03_iterative_scaling_equivalence():
    rng = np.random.default_rng(12)
    done = 0
    attempts = 0
    worst_kl = 0.0
    while done < 50 and attempts < 400:
        attempts += 1
        dataset = random_instance(rng, n_low=2, n_high=4, n_max_samples=300)
        domain = mine_parameter_domain(dataset, 0.2, 2)
        if not len(domain):
            continue
        model, report = fit(dataset, domain, TIGHT)
        if report.removed_parameters or not report.converged:
            continue
        patterns = list(model.domain)
        z = incidence_matrix(model.space, patterns)
        targets = empirical_targets(dataset, model.space, z)
        try:
            oracle = iterative_scaling_mle(
                list(model.space.outcomes), patterns, targets, tol=1e-13
            )
        except RuntimeError:
            # the oracle cannot certify ill-conditioned instances
            continue
        p_fit = np.exp(model.log_probs)
        kl = float(np.dot(p_fit, np.log(p_fit) - np.log(oracle)))
        worst_kl = max(worst_kl, abs(kl))
        done += 1
    ok = done == 50 and worst_kl <= 1e-8
    assert verdict(
        3, "iterative-scaling equivalence", ok,
        f"{done} instances, worst |KL(fit, oracle)| {worst_kl:.2e}",
    )


def test_criterion_04_miner_equals_brute_force():
    rng = np.random.default_rng(33)
    mismatches = 0
    runs = 0
    for _ in range(50):
        n = int(rng.integers(3, 16))
        n_samples = int(rng.integers(20, 400))
        support = int(rng.integers(3, min(2**n, 60) + 1))
        entries = random_dataset(rng, n, n_samples, support_size=support)
        dataset = TransactionDataset(entries=entries, n_variables=n)
        for sigma in (0.0, 0.05, 0.1, 0.3, 0.6, 1.0):
            for k in (1, 2, 3):
                runs += 1
                fast = mine_parameter_domain(dataset, sigma, k)
                slow = brute_force_domain(dataset, sigma, k)
                if fast.patterns != slow.patterns:
                    mismatches += 1
    ok = mismatches == 0
    assert verdict(
        4, "miner correctness", ok,
        f"{runs} miner runs against exhaustive enumeration, {mismatches} mismatches",
    )


def test_criterion_05_degenerate_domain_guard():
    # A distribution with eta(1) = eta(1, 2) = 0.4: no mass on (1,) alone.
    space = SampleSpace.from_patterns([(), (1,), (2,), (1, 2)])
    model, report = fit_to_moments(space, [(1,), (1, 2)], [0.3, 0.0, 0.3, 0.4])
    finite = bool(
        np.all(np.isfinite(model.log_probs)) and np.all(np.isfinite(model.theta))
    )
    survivor_gap = (
        abs(model.eta(model.domain[0]) - 0.4) if model.domain else float("inf")
    )
    ok = (
        report.iterations < 10_000
        and len(report.removed_parameters) == 1
        and report.converged
        and finite
        and survivor_gap <= 1e-6
    )
    assert verdict(
        5, "degenerate-domain guard", ok,
        f"terminated after {report.iterations} sweeps, removed "
        f"{list(report.removed_parameters)}, survivor gap {survivor_gap:.2e}, "
        f"all values finite: {finite}",
    )


def test_criterion_06_pythagorean_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    cases = 0

    def check(dataset, domain):
        nonlocal worst, cases
        model, report = fit(dataset, domain, TIGHT)
        if report.removed_parameters or not report.converged:
            return False
        p_hat = EmpiricalDistribution.from_dataset(dataset)
        for _ in range(20):
            theta = rng.uniform(-1.0, 1.0, size=len(model.domain))
            q = GibbsModel(model.space, model.domain, theta)
            worst = max(worst, pythagorean_residual(p_hat.probs, model, q))
        cases += 1
        return True

    worked = TransactionDataset(
        entries={(): 2, (1,): 3, (2,): 1, (1, 2): 4}, n_variables=3
    )
    check(worked, [(1,), (2,)])
    while cases < 11:
        dataset = random_instance(rng, n_low=2, n_high=4, n_max_samples=300)
        domain = mine_parameter_domain(dataset, 0.2, 2)
        if len(domain):
            check(dataset, domain)
    ok = worst <= 1e-8
    assert verdict(
        6, "divergence decomposition", ok,
        f"{cases} instances x 20 reference models, worst residual {worst:.2e}",
    )


def test_criterion_07_bias_variance_bound():
    start = time.perf_counter()
    lines = []
    ok = True
    for n_samples in (1_000, 10_000, 100_000):
        cfg = BiasVarianceConfig(
            space_size=200,
            n_vars=20,
            k=2,
            n_samples=n_samples,
            trials=50,
            domain_size_range=(20, 60),
            seed=2718,
        )
        report = bias_variance_experiment(cfg)
        ratio = report.variance_mean / report.lower_bound
        diff = report.kl_true_to_fit - report.kl_proj_to_fit
        stderr = float(np.std(diff, ddof=1)) / np.sqrt(report.trials)
        decomposition_gap = abs(float(np.mean(diff)) - report.bias)
        in_band = 0.5 <= ratio <= 3.0
        decomposed = decomposition_gap <= 2 * stderr + 1e-9
        ok = ok and in_band and decomposed and 20 <= report.domain_size <= 60
        lines.append(
            f"N=1e{int(np.log10(n_samples))}: |B|={report.domain_size}, "
            f"var/bound={ratio:.2f}, decomposition gap {decomposition_gap:.2e} "
            f"(2se={2 * stderr:.2e})"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    assert verdict(
        7, "bias-variance bound", ok, "; ".join(lines) + f"; {elapsed:.0f}s"
    )


def random_weight_synth_dataset(n_vars, support_size, n_samples, seed):
    """I.i.d. draws from a random-weight truth on ``synth_dataset``'s support.

    The support is the one ``synth_dataset`` draws for ``seed``; the weights
    are uniform(0, 1), normalised, as in ``bias_variance_experiment``, and
    come from a stream spawned from the same seed.  Under ``synth_dataset``'s
    own uniform truth the order-1 model is already near exact on the observed
    transactions, so order 2 has no misfit to remove and only pays for the
    unobserved outcomes its larger sample space adds.
    """
    _, truth = synth_dataset(n_vars, support_size, n_samples, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    weights = rng.uniform(0.0, 1.0, size=support_size)
    counts = rng.multinomial(n_samples, weights / weights.sum())
    entries = {x: int(c) for x, c in zip(truth.support, counts) if c > 0}
    return TransactionDataset(entries=entries, n_variables=n_vars)


def test_criterion_08_synthetic_protocol_ordering():
    tbm_cfg = FitConfig(tol=1e-6, max_sweeps=10_000)
    bm_cfg = FitConfig(tol=1e-4, max_sweeps=3_000)
    errors = {1: [], 2: [], 3: [], "bm": []}
    unconverged = []
    for seed in range(5):
        dataset = random_weight_synth_dataset(
            n_vars=20, support_size=1_000, n_samples=100_000, seed=seed
        )
        domain_k2 = None
        for k in (1, 2, 3):
            model, report, domain = fit_tbm(dataset, 0.1, k, tbm_cfg)
            if not report.converged:
                unconverged.append(f"seed {seed} k{k}")
            errors[k].append(reconstruction_error_proxy(model.energy, dataset))
            if k == 2:
                domain_k2 = domain
        bm_model, bm_report = fit_full_bm(dataset, domain_k2, bm_cfg)
        if not bm_report.converged:
            unconverged.append(f"seed {seed} bm")
        errors["bm"].append(
            reconstruction_error_proxy(bm_model.energy, dataset)
        )
    means = {key: float(np.mean(vals)) for key, vals in errors.items()}
    order_32 = means[3] < means[2]
    order_21 = means[2] < means[1]
    order_2bm = means[2] < means["bm"]
    ok = order_32 and order_21 and order_2bm and not unconverged
    assert verdict(
        8, "synthetic ordering", ok,
        f"mean proxy errors k3={means[3]:.4f}, k2={means[2]:.4f}, "
        f"k1={means[1]:.4f}, bm={means['bm']:.4f}; "
        f"k3<k2 {order_32}, k2<k1 {order_21}, k2<bm {order_2bm}; "
        f"unconverged fits: {', '.join(unconverged) or 'none'}",
    )


MUSHROOM_PATHS = [
    Path(os.environ.get("TBMLEARN_MUSHROOM", "")),
    Path(__file__).parent.parent / "data" / "mushroom.dat",
]


def test_criterion_08_mushroom_bound():
    path = next((p for p in MUSHROOM_PATHS if p and p.is_file()), None)
    if path is None:
        pytest.skip(
            "mushroom benchmark file not available in this environment "
            "(set TBMLEARN_MUSHROOM to run)"
        )
    dataset = parse_fimi(path.read_text())
    model, report, domain = fit_tbm(dataset, 0.01, 2)
    error = reconstruction_error_proxy(model.energy, dataset)
    ok = len(domain) == 23 and error < 1e-4
    assert verdict(
        8, "mushroom transduction", ok,
        f"|B|={len(domain)} (expected 23), proxy error {error:.2e} (< 1e-4)",
    )


def test_criterion_09_transduction_complexity():
    dataset, _ = synth_dataset(n_vars=25, support_size=300, n_samples=5_000, seed=99)
    sigma, k = 0.05, 2
    cfg = FitConfig(tol=0.0, max_sweeps=400)

    domain = mine_parameter_domain(dataset, sigma, k)
    wide = dataset.with_universe(dataset.n_variables + 1000)
    domain_wide = mine_parameter_domain(wide, sigma, k)
    same_domain = domain.patterns == domain_wide.patterns

    # Time the two fits in back-to-back pairs, alternating which goes first,
    # and take the median of the 15 per-pair ratios: the two fits of a pair
    # share the machine's state, so a slow stretch slows both, and one
    # pair caught by a burst of load moves the median little.
    ratios, times = [], {"base": [], "wide": []}
    results = {}
    runs = [("base", dataset, domain), ("wide", wide, domain_wide)]
    for repeat in range(15):
        for name, d, dom in runs if repeat % 2 == 0 else runs[::-1]:
            t0 = time.perf_counter()
            results[name] = fit(d, dom, cfg)
            times[name].append(time.perf_counter() - t0)
        ratios.append(times["wide"][-1] / times["base"][-1])
    (model, report), (model_w, report_w) = results["base"], results["wide"]
    base_time, wide_time = np.median(times["base"]), np.median(times["wide"])

    per_sweep = report.evaluations / report.iterations
    budget = 2 * (len(domain) + 1) * len(model.space)
    ratio = float(np.median(ratios))
    same_work = (
        report.iterations == report_w.iterations
        and report.evaluations == report_w.evaluations
    )
    ok = (
        same_domain
        and per_sweep <= budget
        and same_work
        and abs(ratio - 1.0) < 0.10
    )
    assert verdict(
        9, "transduction complexity", ok,
        f"evaluations/sweep {per_sweep:.0f} <= budget {budget}, inert-variable "
        f"median time ratio {ratio:.3f} (medians {base_time * 1e3:.0f}ms vs "
        f"{wide_time * 1e3:.0f}ms), "
        f"identical work {same_work}",
    )


def test_criterion_10_fisher_matrix():
    rng = np.random.default_rng(55)
    checked = 0
    worst_fd = 0.0
    min_eig = np.inf
    symmetric = True
    while checked < 20:
        dataset = random_instance(rng, n_low=3, n_high=6, n_max_samples=400)
        domain = mine_parameter_domain(dataset, 0.2, 2)
        if not len(domain):
            continue
        model, report = fit(dataset, domain, TIGHT)
        if not report.converged:
            continue
        g = fisher_information(model)
        symmetric = symmetric and bool(np.array_equal(g, g.T))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(g).min()))
        basis = list(model.domain)
        h = 1e-5
        for u_idx in range(len(basis)):
            up = np.array(model.theta, copy=True)
            dn = np.array(model.theta, copy=True)
            up[u_idx] += h
            dn[u_idx] -= h
            fd = (
                GibbsModel(model.space, basis, up).etas()
                - GibbsModel(model.space, basis, dn).etas()
            ) / (2 * h)
            worst_fd = max(worst_fd, float(np.max(np.abs(g[:, u_idx] - fd))))
        checked += 1
    ok = worst_fd <= 1e-6 and symmetric and min_eig >= -1e-9
    assert verdict(
        10, "Fisher information", ok,
        f"{checked} fitted models, worst finite-difference error {worst_fd:.2e}, "
        f"symmetric {symmetric}, smallest eigenvalue {min_eig:.2e}",
    )
