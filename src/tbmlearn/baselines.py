"""Comparison learners: exact fully visible Boltzmann machine and PCD-1 RBM.

The fully visible machine runs the same moment-matching ascent as the
transductive fitter but normalizes over the complete binary cube, using
fast subset/superset sum transforms, so it is limited to small variable
counts.  The RBM is trained with persistent contrastive divergence using a
single alternating Gibbs sweep per update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit

from .fitting import (
    ACCEPT_SLACK,
    DRIFT_GATE,
    STALL_RATIO,
    FitConfig,
    FitReport,
    interior_feasible,
)
from .mining import ParameterDomain
from .model import logsumexp
from .patterns import Pattern, TransactionDataset, sort_key, support_counts

FULL_BM_MAX_VARIABLES = 25
FEASIBILITY_CHECK_MAX_OUTCOMES = 1 << 16


def _cube_incidence(masks: np.ndarray, n_bits: int) -> sparse.csr_matrix:
    """Containment indicators of every cube configuration, one row per mask."""
    all_x = np.arange(1 << n_bits, dtype=np.int64)
    rows = [np.nonzero((all_x & m) == m)[0] for m in masks]
    indptr = np.zeros(len(masks) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([r.size for r in rows])
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(len(masks), 1 << n_bits)
    )


def pattern_bitmask(pattern: Pattern) -> int:
    return sum(1 << i for i in pattern)


def subset_sums(values: np.ndarray, n_bits: int) -> np.ndarray:
    """For each bitmask m, the sum of ``values`` over all submasks of m."""
    out = np.array(values, dtype=np.float64, copy=True)
    for i in range(n_bits):
        out = out.reshape(-1, 2, 1 << i)
        out[:, 1, :] += out[:, 0, :]
    return out.reshape(-1)


def superset_sums(values: np.ndarray, n_bits: int) -> np.ndarray:
    """For each bitmask m, the sum of ``values`` over all supermasks of m."""
    out = np.array(values, dtype=np.float64, copy=True)
    for i in range(n_bits):
        out = out.reshape(-1, 2, 1 << i)
        out[:, 0, :] += out[:, 1, :]
    return out.reshape(-1)


@dataclass
class FullBMModel:
    """Gibbs distribution over the full binary cube with parameters on a domain."""

    n_variables: int
    domain: tuple[Pattern, ...]
    theta: np.ndarray
    log_partition: float
    log_probs: np.ndarray

    def log_prob(self, x: Pattern) -> float:
        if x and x[-1] >= self.n_variables:
            raise ValueError(f"pattern {x} exceeds {self.n_variables} variables")
        return float(self.log_probs[pattern_bitmask(x)])

    def prob(self, x: Pattern) -> float:
        return float(np.exp(self.log_prob(x)))

    def energy(self, x: Pattern) -> float:
        return -(self.log_prob(x) + self.log_partition)

    def etas(self) -> np.ndarray:
        sup = superset_sums(np.exp(self.log_probs), self.n_variables)
        return np.array([sup[pattern_bitmask(p)] for p in self.domain])

    def eta(self, x: Pattern) -> float:
        sup = superset_sums(np.exp(self.log_probs), self.n_variables)
        return float(sup[pattern_bitmask(x)])


def fit_full_bm(
    dataset: TransactionDataset,
    domain: ParameterDomain | list[Pattern],
    config: FitConfig | None = None,
) -> tuple[FullBMModel, FitReport]:
    """Exact maximum-likelihood fit over all binary configurations.

    Moment matching and the divergence guard behave exactly as in the
    transductive fitter; only the normalization space differs.  Refuses more
    than 25 variables, where exact enumeration stops being practical; use
    the transductive model instead at that scale.
    """
    cfg = config or FitConfig()
    n = dataset.n_variables
    if n > FULL_BM_MAX_VARIABLES:
        raise ValueError(
            f"exact fitting over 2^{n} configurations is infeasible; "
            "use the transductive model for large variable counts"
        )
    pats = sorted(domain, key=sort_key)
    targets = support_counts(dataset, pats) / dataset.n_samples

    removed = [p for p, t in zip(pats, targets) if t <= 0.0 or t >= 1.0]
    keep = (targets > 0.0) & (targets < 1.0)
    pats = [p for p, ok in zip(pats, keep) if ok]
    targets = targets[keep]
    m = len(pats)
    started_nonempty = len(list(domain)) > 0
    masks = np.array([pattern_bitmask(p) for p in pats], dtype=np.int64)
    size = 1 << n

    def state_from(theta):
        dense = np.zeros(size)
        if len(theta):
            np.add.at(dense, masks[: len(theta)], theta)
        raw = subset_sums(dense, n)
        psi = logsumexp(raw)
        return raw - psi, psi

    def etas_of(log_probs):
        sup = superset_sums(np.exp(log_probs), n)
        return sup[masks[:m]] if m else np.zeros(0)

    def natural_dir(log_probs, etas, residual):
        sup = superset_sums(np.exp(log_probs), n)
        joint = sup[masks[:, None] | masks[None, :]]
        g = joint - np.outer(etas, etas)
        g = 0.5 * (g + g.T)
        g[np.diag_indices_from(g)] += 1e-12 * max(float(np.max(np.diag(g))), 1e-30)
        try:
            return np.linalg.solve(g, residual)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(g, residual, rcond=None)[0]

    theta = np.zeros(m)
    log_probs, psi = state_from(theta)
    etas = etas_of(log_probs)
    avg_loglik = float(targets @ theta) - psi
    gap = float(np.max(np.abs(targets - etas))) if m else 0.0
    err2 = float(np.sum((targets - etas) ** 2))

    step = cfg.step_size
    sweeps = 0
    evaluations = 0
    feasibility_settled = False
    accelerate = False
    cached_direction = None
    checkpoint_gap = gap
    next_check = cfg.stall_window

    def remove_parameter(j: int) -> None:
        nonlocal pats, targets, theta, masks, m, log_probs, psi, etas
        nonlocal avg_loglik, gap, err2, step, feasibility_settled
        nonlocal accelerate, cached_direction, checkpoint_gap
        removed.append(pats[j])
        pats.pop(j)
        targets = np.delete(targets, j)
        theta = np.delete(theta, j)
        masks = np.array([pattern_bitmask(p) for p in pats], dtype=np.int64)
        m -= 1
        log_probs, psi = state_from(theta)
        etas = etas_of(log_probs)
        avg_loglik = float(targets @ theta) - psi
        gap = float(np.max(np.abs(targets - etas))) if m else 0.0
        err2 = float(np.sum((targets - etas) ** 2))
        step = cfg.step_size
        feasibility_settled = False
        accelerate = False
        cached_direction = None
        checkpoint_gap = gap

    while m > 0 and gap > cfg.tol and sweeps < cfg.max_sweeps:
        sweeps += 1
        if accelerate:
            if cached_direction is None:
                cached_direction = natural_dir(log_probs, etas, targets - etas)
                evaluations += size
            direction = cached_direction
        else:
            direction = targets - etas
        theta_new = theta + step * direction
        log_new, psi_new = state_from(theta_new)
        loglik_new = float(targets @ theta_new) - psi_new
        etas_new = etas_of(log_new)
        residual = targets - etas_new
        gap_new = float(np.max(np.abs(residual)))
        err2_new = float(np.dot(residual, residual))
        evaluations += 4 * size

        # Same plateau rule as the transductive fitter: rounding-level
        # likelihood changes still count while the squared moment error shrinks.
        slack = ACCEPT_SLACK * (1.0 + abs(avg_loglik))
        improved = np.isfinite(loglik_new) and loglik_new > avg_loglik + slack
        plateau = (
            np.isfinite(loglik_new)
            and loglik_new >= avg_loglik - slack
            and err2_new < err2
        )
        if not (improved or plateau):
            step *= cfg.step_shrink
            if step < cfg.min_step_size:
                break
        else:
            theta, log_probs, psi = theta_new, log_new, psi_new
            avg_loglik, etas = max(avg_loglik, loglik_new), etas_new
            gap, err2 = gap_new, err2_new
            cached_direction = None
            if improved:
                step = min(step * cfg.step_growth, cfg.max_step_size)

            worst = int(np.argmax(np.abs(theta)))
            if abs(theta[worst]) > cfg.theta_max:
                remove_parameter(worst)
                continue

        if sweeps >= next_check:
            stalled = gap > cfg.tol and gap > 1e-10 and gap > STALL_RATIO * checkpoint_gap
            drifting = (
                m > 0
                and not feasibility_settled
                and size <= FEASIBILITY_CHECK_MAX_OUTCOMES
                and float(np.max(np.abs(theta))) > min(DRIFT_GATE, cfg.theta_max / 2)
            )
            removed_now = False
            if stalled and drifting:
                verdict = interior_feasible(_cube_incidence(masks, n), targets)
                while verdict is False and m > 0:
                    remove_parameter(int(np.argmax(np.abs(theta))))
                    removed_now = True
                    verdict = (
                        interior_feasible(_cube_incidence(masks, n), targets)
                        if m
                        else None
                    )
                if verdict is True:
                    feasibility_settled = True
            if stalled and not removed_now and not accelerate and m > 0:
                accelerate = True
                cached_direction = None
                step = 1.0
            checkpoint_gap = gap
            next_check = sweeps + cfg.stall_window

    log_probs, psi = state_from(theta)
    final_gap = float(np.max(np.abs(targets - etas_of(log_probs)))) if m else 0.0
    model = FullBMModel(
        n_variables=n,
        domain=tuple(pats),
        theta=theta,
        log_partition=psi,
        log_probs=log_probs,
    )
    report = FitReport(
        iterations=sweeps,
        final_gap=final_gap,
        removed_parameters=tuple(removed),
        converged=final_gap <= cfg.tol,
        domain_emptied=started_nonempty and m == 0,
        evaluations=evaluations,
    )
    return model, report


@dataclass
class RBMConfig:
    learning_rate: float = 0.01
    n_updates: int = 10_000
    n_chains: int = 100
    seed: int = 0
    init_scale: float = 0.01


@dataclass
class RBMModel:
    """Restricted Boltzmann machine parameters (dense, visible units 0..n-1)."""

    visible_bias: np.ndarray
    hidden_bias: np.ndarray
    weights: np.ndarray

    @property
    def n_visible(self) -> int:
        return len(self.visible_bias)

    @property
    def n_hidden(self) -> int:
        return len(self.hidden_bias)

    @property
    def param_count(self) -> int:
        return self.n_visible + self.n_hidden + self.n_visible * self.n_hidden

    def free_energy_vector(self, x: np.ndarray) -> float:
        act = self.hidden_bias + x @ self.weights
        return float(-(self.visible_bias @ x) - np.logaddexp(0.0, act).sum())

    def free_energy(self, x: Pattern) -> float:
        return self.free_energy_vector(pattern_vector(x, self.n_visible))


def pattern_vector(pattern: Pattern, n_variables: int) -> np.ndarray:
    if pattern and pattern[-1] >= n_variables:
        raise ValueError(f"pattern {pattern} exceeds {n_variables} variables")
    vec = np.zeros(n_variables)
    vec[list(pattern)] = 1.0
    return vec


def rbm_free_energy(model: RBMModel, x: Pattern) -> float:
    """Energy of a visible configuration with hidden units marginalized out."""
    return model.free_energy(x)


def matched_hidden_units(domain_size: int, n_variables: int) -> int:
    """Hidden-unit count that brings the RBM parameter count closest to
    ``domain_size`` from below the matching TBM/BM budget, at least one."""
    return max(1, math.ceil((domain_size - n_variables) / (n_variables + 1)))


def fit_rbm_pcd1(
    dataset: TransactionDataset,
    n_hidden: int,
    config: RBMConfig | None = None,
) -> RBMModel:
    """Train an RBM with persistent contrastive divergence (one Gibbs sweep).

    Full-batch gradients over the distinct transactions weighted by
    multiplicity; persistent fantasy chains advance by one alternating
    hidden/visible sweep per update.  Reproducible for a fixed seed.
    """
    cfg = config or RBMConfig()
    if n_hidden < 1:
        raise ValueError("need at least one hidden unit")
    rng = np.random.default_rng(cfg.seed)
    n = dataset.n_variables
    uniques = dataset.unique_patterns()
    X = np.stack([pattern_vector(t, n) for t in uniques])
    weights = np.array([dataset.entries[t] for t in uniques], dtype=np.float64)
    weights /= weights.sum()

    W = rng.normal(0.0, cfg.init_scale, size=(n, n_hidden))
    b = np.zeros(n)
    c = np.zeros(n_hidden)
    chains = (rng.random((cfg.n_chains, n)) < 0.5).astype(np.float64)

    lr = cfg.learning_rate
    for _ in range(cfg.n_updates):
        ph_data = expit(X @ W + c)
        pos_w = X.T @ (ph_data * weights[:, None])
        pos_b = weights @ X
        pos_c = weights @ ph_data

        h = (rng.random((cfg.n_chains, n_hidden)) < expit(chains @ W + c)).astype(
            np.float64
        )
        chains = (rng.random((cfg.n_chains, n)) < expit(h @ W.T + b)).astype(
            np.float64
        )
        ph_model = expit(chains @ W + c)
        neg_w = chains.T @ ph_model / cfg.n_chains
        neg_b = chains.mean(axis=0)
        neg_c = ph_model.mean(axis=0)

        W += lr * (pos_w - neg_w)
        b += lr * (pos_b - neg_b)
        c += lr * (pos_c - neg_c)

    return RBMModel(visible_bias=b, hidden_bias=c, weights=W)
