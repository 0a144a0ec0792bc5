"""Exact maximum-likelihood fitting by moment-matching gradient ascent.

Each sweep updates every parameter by ``step * (target - current expectation)``,
applies the matching multiplicative update to the outcome probabilities (an
additive update in log space), renormalizes once, and refreshes the
expectations.  The average log-likelihood is concave in the parameters, so a
sweep that lowers it is rolled back and retried with a smaller step, and
accepted sweeps grow the step again.

One sweep costs two sparse matrix-vector products (through the incidence
matrix and through its transpose, built once per fit), one exp and one
log-sum-exp over the sample space.  ``model.logsumexp`` matches scipy's bit for
bit, without the per-call dispatch that outweighs the products on small fits.

When the gap stalls in the interior, sweeps switch to Fisher-preconditioned
(natural-gradient) steps.  One such step costs one sparse product
``Z diag(p) Z^T``, built in blocks of rows on a thread pool with one worker per
usable core, plus one dense solve.  Every row of the Fisher matrix is the same
sum, in the same order, as in the serial product, so fits do not depend on the
core count.  The solve stays dense: implication-rule targets leave the
matrix nearly singular, and on the 12 Fisher systems of one fit of the bench's
``basket`` workload (|B| = 2048) matrix-free Jacobi-preconditioned conjugate
gradients took 163 to 2524 iterations and 44 s in all at rtol 1e-4, and 2411
to the 5000 cap and 244 s at rtol 1e-8, against 11-12 s for the dense builds
and solves.

Targets on the boundary of the achievable moment set have no maximizer: some
parameter drifts without bound while the moment gap only decays harmonically.
The guard handles this in three layers: targets of exactly 0 or 1 are removed
up front, a parameter whose magnitude crosses ``theta_max`` is removed
outright, and when the gap stagnates a linear-programming feasibility check
decides whether any strictly positive distribution can match the targets at
all; if not, the largest-magnitude parameter is removed and fitting resumes
from the current state.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .mining import ParameterDomain, mine_parameter_domain
from .model import (
    GibbsModel, SampleSpace, build_sample_space, incidence_matrix, logsumexp
)
from .patterns import Pattern, TransactionDataset, sort_key

STALL_RATIO = 0.5
LP_MIN_PROBABILITY = 1e-11
DRIFT_GATE = 5.0
ACCEPT_SLACK = 1e-14
FISHER_BLOCK_ROWS = 64

_fisher_pool: ThreadPoolExecutor | None = None
_fisher_pool_lock = threading.Lock()


def _forget_fisher_pool() -> None:
    global _fisher_pool, _fisher_pool_lock
    _fisher_pool = None
    _fisher_pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    # A forked child inherits the pool object but none of its threads.
    os.register_at_fork(after_in_child=_forget_fisher_pool)


def _fisher_executor() -> ThreadPoolExecutor:
    """The pool that builds Fisher matrices, created on first use."""
    global _fisher_pool
    with _fisher_pool_lock:
        if _fisher_pool is None:
            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:
                workers = os.cpu_count() or 1
            _fisher_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="tbmlearn-fisher"
            )
        return _fisher_pool


@dataclass
class FitConfig:
    """Gradient-ascent settings.

    ``theta_max`` bounds parameter magnitudes; exceeding it is treated as
    divergence and removes that parameter from the domain.  ``stall_window``
    controls how often gap stagnation is re-examined for boundary targets.
    """

    step_size: float = 1.0
    step_growth: float = 1.5
    step_shrink: float = 0.5
    max_step_size: float = 1e15
    min_step_size: float = 1e-16
    tol: float = 1e-6
    max_sweeps: int = 10_000
    theta_max: float = 30.0
    stall_window: int = 200

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be non-negative")


@dataclass(frozen=True)
class FitReport:
    """Outcome bookkeeping for one fitting run.

    ``iterations`` counts attempted sweeps (including rolled-back ones),
    ``final_gap`` is the largest remaining moment mismatch over the surviving
    domain, and ``evaluations`` counts probability-cell touches for
    complexity instrumentation.
    """

    iterations: int
    final_gap: float
    removed_parameters: tuple[Pattern, ...]
    converged: bool
    domain_emptied: bool = False
    evaluations: int = 0


def fisher_matrix(
    incidence: sparse.csr_matrix,
    rows_of: sparse.csr_matrix,
    p: np.ndarray,
    etas: np.ndarray,
) -> np.ndarray:
    """Covariance of the containment indicators under the probabilities ``p``.

    Entry (s, u) is ``sum_x Z[s, x] p[x] Z[u, x] - etas[s] etas[u]``, with
    ``rows_of`` the transpose of ``incidence`` in CSR form.  Blocks of
    ``FISHER_BLOCK_ROWS`` rows are filled concurrently; scipy's sparse product
    releases the interpreter lock.  Each row is the same sum, in the same
    order, as in the one-piece product, so the result does not depend on the
    number of workers.
    """
    scaled = sparse.csr_matrix(
        (incidence.data * p[incidence.indices], incidence.indices, incidence.indptr),
        shape=incidence.shape,
    )
    m = incidence.shape[0]
    g = np.empty((m, m))

    def fill(start: int) -> None:
        stop = min(start + FISHER_BLOCK_ROWS, m)
        (scaled[start:stop] @ rows_of).toarray(out=g[start:stop])
        g[start:stop] -= np.outer(etas[start:stop], etas)

    # Reading every result re-raises a worker's exception here.
    for _ in _fisher_executor().map(fill, range(0, m, FISHER_BLOCK_ROWS)):
        pass
    return 0.5 * (g + g.T)


def natural_direction(
    incidence: sparse.csr_matrix,
    rows_of: sparse.csr_matrix,
    log_probs: np.ndarray,
    etas: np.ndarray,
    residual: np.ndarray,
) -> np.ndarray:
    """Fisher-preconditioned ascent direction.

    Solves ``G d = residual`` with G the covariance of the containment
    indicators under the current distribution (see :func:`fisher_matrix`),
    lightly regularized so that collinear parameters cannot blow the solve up.
    """
    g = fisher_matrix(incidence, rows_of, np.exp(log_probs), etas)
    g[np.diag_indices_from(g)] += 1e-12 * max(float(np.max(np.diag(g))), 1e-30)
    try:
        return np.linalg.solve(g, residual)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(g, residual, rcond=None)[0]


def interior_feasible(incidence: sparse.csr_matrix, targets: np.ndarray) -> bool | None:
    """Whether some strictly positive distribution attains the target moments.

    Maximizes the smallest outcome probability subject to the moment
    constraints; a maximum below the positivity floor means the targets sit
    on (or outside) the boundary of the achievable set.  Returns ``None``
    when the solver fails to reach a verdict.
    """
    m, n_out = incidence.shape
    cost = np.zeros(n_out + 1)
    cost[-1] = -1.0
    a_eq = sparse.hstack(
        [
            sparse.vstack([incidence, np.ones((1, n_out))]),
            sparse.csr_matrix((m + 1, 1)),
        ],
        format="csr",
    )
    b_eq = np.append(targets, 1.0)
    a_ub = sparse.hstack(
        [-sparse.identity(n_out, format="csr"), np.ones((n_out, 1))], format="csr"
    )
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(n_out),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * n_out + [(0, 1)],
        method="highs",
    )
    if not result.success:
        return False if result.status == 2 else None
    return bool(result.x[-1] > LP_MIN_PROBABILITY)


def fit_to_moments(
    space: SampleSpace,
    patterns: Sequence[Pattern],
    targets: Sequence[float] | np.ndarray,
    config: FitConfig | None = None,
    incidence: sparse.csr_matrix | None = None,
) -> tuple[GibbsModel, FitReport]:
    """Fit parameters on ``patterns`` so model expectations match ``targets``.

    Runs the sweep scheme described in the module docstring.  If the guard
    removes every parameter, the uniform distribution over the space is
    returned and flagged in the report.
    """
    cfg = config or FitConfig()
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (len(patterns),):
        raise ValueError("targets must align with patterns")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")

    order = sorted(range(len(patterns)), key=lambda j: sort_key(patterns[j]))
    pats = [patterns[j] for j in order]
    targets = targets[order]
    if incidence is None:
        incidence = incidence_matrix(space, pats)
    else:
        incidence = incidence[np.array(order, dtype=np.intp)]

    removed: list[Pattern] = []
    row_sizes = np.diff(incidence.indptr)
    keep = (targets > 0.0) & (targets < 1.0) & (row_sizes > 0)
    removed.extend(p for p, ok in zip(pats, keep) if not ok)
    pats = [p for p, ok in zip(pats, keep) if ok]
    targets = targets[keep]
    incidence = incidence[keep]
    transposed = incidence.T
    rows_of = None  # transposed as CSR, built at the first Fisher step

    n_outcomes = len(space)
    m = len(pats)
    started_nonempty = len(patterns) > 0

    theta = np.zeros(m)
    log_probs = np.full(n_outcomes, -np.log(n_outcomes))
    psi = float(np.log(n_outcomes))
    etas = incidence.dot(np.exp(log_probs))
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
        nonlocal incidence, transposed, rows_of, pats, targets, theta, m
        nonlocal log_probs, psi, etas, avg_loglik, gap, err2, step, evaluations
        nonlocal feasibility_settled, accelerate, cached_direction, checkpoint_gap
        removed.append(pats[j])
        row = incidence.getrow(j)
        log_probs = log_probs.copy()
        log_probs[row.indices] -= theta[j]
        shift = logsumexp(log_probs)
        log_probs -= shift
        psi += shift
        mask = np.ones(m, dtype=bool)
        mask[j] = False
        incidence = incidence[mask]
        transposed = incidence.T
        rows_of = None
        pats = [p for p, ok in zip(pats, mask) if ok]
        targets = targets[mask]
        theta = theta[mask]
        m -= 1
        evaluations += row.nnz + n_outcomes + incidence.nnz
        etas = incidence.dot(np.exp(log_probs))
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
                if rows_of is None:
                    rows_of = transposed.tocsr()
                cached_direction = natural_direction(
                    incidence, rows_of, log_probs, etas, targets - etas
                )
                evaluations += incidence.nnz
            direction = cached_direction
        else:
            direction = targets - etas
        mu = step * direction
        theta_new = theta + mu
        log_new = log_probs + transposed.dot(mu)
        shift = logsumexp(log_new)
        log_new -= shift
        psi_new = psi + shift
        loglik_new = float(targets @ theta_new) - psi_new
        etas_new = incidence.dot(np.exp(log_new))
        residual = targets - etas_new
        gap_new = float(np.max(np.abs(residual)))
        err2_new = float(np.dot(residual, residual))
        evaluations += 2 * incidence.nnz + n_outcomes

        # Near the optimum the likelihood plateaus at float resolution, so a
        # sweep that keeps it within rounding slack still counts as progress
        # when it strictly shrinks the squared moment error (a Lyapunov
        # function of the ascent flow, unlike the max-norm gap).
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
                and float(np.max(np.abs(theta))) > min(DRIFT_GATE, cfg.theta_max / 2)
            )
            removed_now = False
            if stalled and drifting:
                verdict = interior_feasible(incidence, targets)
                while verdict is False and m > 0:
                    # Boundary targets: drop the worst drifter, then re-test
                    # so one stall event clears the whole degenerate set.
                    remove_parameter(int(np.argmax(np.abs(theta))))
                    removed_now = True
                    verdict = interior_feasible(incidence, targets) if m else None
                if verdict is True:
                    feasibility_settled = True
            if stalled and not removed_now and not accelerate and m > 0:
                # Interior but badly conditioned: precondition with the
                # Fisher matrix instead of crawling along the raw gradient.
                accelerate = True
                cached_direction = None
                step = 1.0
            checkpoint_gap = gap
            next_check = sweeps + cfg.stall_window

    model = GibbsModel(space, pats, theta, incidence=incidence)
    final_gap = float(np.max(np.abs(targets - model.etas()))) if m else 0.0
    report = FitReport(
        iterations=sweeps,
        final_gap=final_gap,
        removed_parameters=tuple(removed),
        converged=final_gap <= cfg.tol,
        domain_emptied=started_nonempty and m == 0,
        evaluations=evaluations,
    )
    return model, report


def empirical_targets(
    dataset: TransactionDataset,
    space: SampleSpace,
    incidence: sparse.csr_matrix,
) -> np.ndarray:
    """Empirical expectations for the incidence rows, exact up to one division."""
    counts = np.zeros(len(space))
    for t, mult in dataset.entries.items():
        counts[space.position(t)] = mult
    return incidence.dot(counts) / dataset.n_samples


def fit(
    dataset: TransactionDataset,
    domain: ParameterDomain | Sequence[Pattern],
    config: FitConfig | None = None,
) -> tuple[GibbsModel, FitReport]:
    """Maximum-likelihood fit of a transductive model on its derived sample space."""
    patterns = sorted(domain, key=sort_key)
    space = build_sample_space(patterns, dataset)
    incidence = incidence_matrix(space, patterns)
    targets = empirical_targets(dataset, space, incidence)
    return fit_to_moments(space, patterns, targets, config, incidence=incidence)


def fit_tbm(
    dataset: TransactionDataset,
    sigma: float,
    k: int,
    config: FitConfig | None = None,
    max_domain_size: int | None = None,
) -> tuple[GibbsModel, FitReport, ParameterDomain]:
    """Mine the parameter domain, then fit: the full transductive pipeline."""
    kwargs = {} if max_domain_size is None else {"max_domain_size": max_domain_size}
    domain = mine_parameter_domain(dataset, sigma, k, **kwargs)
    model, report = fit(dataset, domain, config)
    return model, report, domain
