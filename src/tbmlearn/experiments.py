"""Synthetic data generation and the bias-variance estimation harness.

The harness fixes a random sample space and a random true distribution over
it, mines a parameter domain from one pilot sample, projects the truth onto
the resulting model family, and then repeatedly samples datasets to estimate
the spread of the fitted models around the projection.  The spread is
compared against the closed-form lower bound of half the parameter count
over the sample size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import FitConfig, ReducedSpace, fit_to_moments
from .geometry import m_projection, variance_lower_bound
from .mining import mine_parameter_domain
from .model import SampleSpace, incidence_matrix, locate_rows, supports
from .patterns import Pattern, TransactionDataset, sort_key

BIAS_VARIANCE_FIT = FitConfig(tol=1e-10, max_sweeps=100_000)


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth behind a synthetic dataset: uniform over a support set."""

    support: tuple[Pattern, ...]
    probs: dict[Pattern, float]


def _random_distinct_patterns(
    rng: np.random.Generator, n_vars: int, count: int
) -> list[Pattern]:
    if n_vars < 0:
        raise ValueError("need a non-negative variable count")
    if n_vars > 62:
        chosen: set[Pattern] = set()
        while len(chosen) < count:
            bits = np.nonzero(rng.random(n_vars) < 0.5)[0]
            chosen.add(tuple(int(i) for i in bits))
        return sorted(chosen, key=sort_key)
    total = 1 << n_vars
    if count > total:
        raise ValueError(f"cannot draw {count} distinct patterns from {total}")
    masks = rng.choice(total, size=count, replace=False)
    return sorted(
        (tuple(i for i in range(n_vars) if int(m) >> i & 1) for m in masks),
        key=sort_key,
    )


def synth_dataset(
    n_vars: int, support_size: int, n_samples: int, seed: int = 0
) -> tuple[TransactionDataset, SyntheticTruth]:
    """Sample a dataset of i.i.d. draws from a uniform distribution over a
    randomly chosen set of distinct patterns."""
    if support_size < 1:
        raise ValueError("support must contain at least one pattern")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    support = _random_distinct_patterns(rng, n_vars, support_size)
    draws = rng.integers(0, support_size, size=n_samples)
    counts = np.bincount(draws, minlength=support_size)
    entries = {
        pattern: int(c) for pattern, c in zip(support, counts) if c > 0
    }
    dataset = TransactionDataset(entries=entries, n_variables=n_vars)
    truth = SyntheticTruth(
        support=tuple(support),
        probs={pattern: 1.0 / support_size for pattern in support},
    )
    return dataset, truth


def tune_sigma(
    dataset: TransactionDataset, k: int, min_size: int, max_size: int
) -> float:
    """Pick a support threshold whose mined domain size lands in a range.

    Enumerates every observed pattern up to order ``k`` once, then converts
    the integer count threshold with the desired yield back to a fraction.
    """
    n = dataset.n_samples
    seed_domain = mine_parameter_domain(dataset, 1.0 / (2 * n), k)
    counts = supports(dataset, seed_domain.patterns)
    if len(counts) < min_size:
        raise ValueError(
            f"only {len(counts)} observed patterns up to order {k}; "
            f"cannot reach a domain of {min_size}"
        )
    for threshold in np.unique(counts)[::-1]:
        size = np.count_nonzero(counts >= threshold)
        if min_size <= size <= max_size:
            return (float(threshold) - 0.5) / n
    raise ValueError(
        f"no support threshold yields between {min_size} and {max_size} patterns"
    )


@dataclass
class BiasVarianceConfig:
    space_size: int
    n_vars: int
    k: int
    n_samples: int
    trials: int
    sigma: float | None = None
    domain_size_range: tuple[int, int] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.space_size < 2:
            raise ValueError("space must contain at least two outcomes")
        if self.trials < 2:
            raise ValueError("need at least two trials")
        if self.sigma is None and self.domain_size_range is None:
            raise ValueError("give either sigma or a target domain size range")


@dataclass
class BiasVarianceReport:
    """Per-trial divergences plus the aggregate decomposition quantities."""

    bias: float
    variance_mean: float
    variance_std: float
    variance_stderr: float
    lower_bound: float
    trials: int
    n_samples: int
    sample_space_size: int
    domain_size: int
    sigma: float
    kl_true_to_fit: np.ndarray
    kl_proj_to_fit: np.ndarray
    n_flagged_trials: int
    n_face_trials: int  # flagged, infinite, and left out of the variance statistics


def bias_variance_experiment(cfg: BiasVarianceConfig) -> BiasVarianceReport:
    """Estimate estimation variance around the projected truth.

    Protocol: draw a random sample space and a random strictly positive true
    distribution on it; mine the parameter domain from one pilot sample of
    the trial size; with space and domain then held fixed, repeatedly sample
    datasets, fit, and record the divergence from the true distribution and
    from its projection to each fitted model.
    """
    seq = np.random.SeedSequence(cfg.seed)
    rng = np.random.default_rng(seq)

    outcomes = set(_random_distinct_patterns(rng, cfg.n_vars, cfg.space_size))
    outcomes.add(())
    space = SampleSpace.from_patterns(outcomes)
    weights = rng.uniform(0.0, 1.0, size=len(space))
    if np.any(weights <= 0.0):
        raise ValueError("degenerate true distribution drawn; use another seed")
    pvec = weights / weights.sum()

    pilot_counts = rng.multinomial(cfg.n_samples, pvec)
    pilot = TransactionDataset(
        entries={
            x: int(c)
            for x, c in zip(space.outcomes, pilot_counts)
            if c > 0
        },
        n_variables=cfg.n_vars,
    )
    if cfg.domain_size_range is not None:
        sigma = tune_sigma(pilot, cfg.k, *cfg.domain_size_range)
    else:
        sigma = cfg.sigma
    domain = mine_parameter_domain(pilot, sigma, cfg.k)
    if len(domain) == 0:
        raise ValueError(
            f"no pattern reaches support {sigma}; lower sigma or raise k"
        )
    patterns = list(domain)

    true_dist = {x: float(p) for x, p in zip(space.outcomes, pvec)}
    projection, proj_report = m_projection(true_dist, patterns, BIAS_VARIANCE_FIT)
    removed = set(proj_report.removed_parameters)
    patterns = [p for p in patterns if p not in removed]
    bias = float(np.dot(pvec, np.log(pvec) - projection.log_probs))
    p_proj = np.exp(projection.log_probs)

    prepared = ReducedSpace.over(space, patterns, incidence_matrix(space, patterns))
    kl_true = np.zeros(cfg.trials)
    kl_proj = np.zeros(cfg.trials)
    on_face = np.zeros(cfg.trials, dtype=bool)
    flagged = 0
    for trial, child in enumerate(seq.spawn(cfg.trials)):
        trial_rng = np.random.default_rng(child)
        counts = trial_rng.multinomial(cfg.n_samples, pvec)
        fitted, fit_report = fit_to_moments(prepared, None, counts, BIAS_VARIANCE_FIT)
        log_probs, face = fitted.log_probs, fitted.space
        on_face[trial] = face is not space
        if on_face[trial]:  # the outcomes off the face get no mass
            log_probs = np.full(len(space), -np.inf)
            log_probs[locate_rows(space, face.indptr, face.items[face.indices])] = fitted.log_probs
        if fit_report.removed_parameters or not fit_report.converged or on_face[trial]:
            flagged += 1
        kl_true[trial] = float(np.dot(pvec, np.log(pvec) - log_probs))
        kl_proj[trial] = float(np.dot(p_proj, projection.log_probs - log_probs))

    finite = kl_proj[~on_face]
    std = float(np.std(finite, ddof=1)) if finite.size > 1 else np.nan
    return BiasVarianceReport(
        bias=bias,
        variance_mean=float(np.mean(finite)) if finite.size else np.nan,
        variance_std=std,
        variance_stderr=std / np.sqrt(finite.size),
        lower_bound=variance_lower_bound(len(patterns), cfg.n_samples),
        trials=cfg.trials,
        n_samples=cfg.n_samples,
        sample_space_size=len(space),
        domain_size=len(patterns),
        sigma=float(sigma),
        kl_true_to_fit=kl_true,
        kl_proj_to_fit=kl_proj,
        n_flagged_trials=flagged,
        n_face_trials=int(on_face.sum()),
    )
