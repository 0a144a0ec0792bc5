"""Exact maximum-likelihood fitting by moment matching.

One engine, :func:`ascend`, fits both the transductive model and the fully
visible Boltzmann machine: the same Gibbs family over two sample spaces.  It
reaches the space through a normalizer object.  :class:`ReducedSpace` (here)
covers the data-derived space through the incidence matrix Z;
``baselines.FullCube`` covers all 2^n configurations through subset/superset
sum transforms.  Both compute every trial state from θ as the fitted model
does, so :func:`ascend` reports the gap it stopped on, which is the model's.

The average log-likelihood is concave in the parameters, and its Hessian is
minus the Fisher matrix G, the covariance of the containment indicators.
So from θ = 0 every iteration takes a damped Newton step
``θ += t G^-1 (targets - η)``, natural-gradient ascent on the dually flat
manifold of the family (Amari 1998; Sugiyama, Nakahara & Tsuda, ICML 2017),
which converges quadratically to an interior maximizer.  The trial length t
starts at 1 and halves until the log-likelihood does not fall (backtracking
as in Nocedal & Wright, ch. 3).

One factored G can serve several steps: chord steps, with the refresh rule
of Kelley's ``nsold`` (*Solving Nonlinear Equations with Newton's Method*,
SIAM 2003).  After an accepted step the next direction comes from the same
factor only when all three of these hold, and each has its reason:

- the fit has more than ``FISHER_BLOCK_ROWS`` parameters.  Below that a
  build costs about as much as a trial step, so small fits (the
  bias-variance harness among them) build G at every step;
- the step moved no parameter by ``DRIFT_STEP`` or more.  That is the
  guard's drift signature (below), so a drifting boundary fit keeps its
  fresh Newton steps and its LP trigger.  Without this rule one such fit,
  which removes 51 parameters through ``theta_max`` in 365 iterations,
  removed 53 in 571;
- the residual norm fell to at most ``CHORD_RATIO`` (one half) of its
  value before the step, so a factor is kept only while it contracts.

A trial from a reused factor must raise the log-likelihood strictly;
otherwise G is built at the same point and the full step is tried from it,
since a stale factor near float resolution can make plateau steps forever.
On ``basket`` (seed 0) the factor built at θ = 0 serves all 6 steps of the
fit, where Newton built G for each of 3 steps; the traced fit takes 0.69 s
instead of 1.37 s.

Over the reduced space G is one sparse product ``Z diag(p) Z^T``, built in
blocks of rows on a thread pool with one worker per usable core, and
factored by Cholesky.  Every row of G is the same sum, in the same order, as
in the serial product, so G does not depend on the core count.  G is
symmetric bit for bit as built: Z's rows have sorted indices and 0/1 data,
so entries (s, u) and (u, s) add the same probabilities in the same order.
The Cholesky solve runs in the BLAS, whose threads split its sums
differently: the same fit's θ moved by up to 1e-9 between one and two
OpenBLAS threads, so fits (and ``fit-tbm`` files) are reproducible bit for
bit only at a fixed BLAS thread count.  The solve is dense.  Matrix-free
Jacobi-preconditioned conjugate gradients were measured when fits still ran
off the face (below), where implication-rule targets left G nearly singular:
on the 12 Fisher systems of one fit of the bench's ``basket`` workload
(|B| = 2048) they took 163 to 2524 iterations at rtol 1e-4 and up to the
5000 cap at rtol 1e-8, against 11-12 s for the dense builds and solves.  On
the face that cause is gone (one CG solve to rtol 1e-8 took 336 iterations
there, against 1726 off it), and Newton-CG took 1.8 s on the ``basket`` fit
against 1.65-2.0 s for dense Newton with one build per step.  That fit now
builds G once, so a matrix-free path must be measured against that.  A trial
state costs two sparse matrix-vector products over the reduced space
(through Z and through its transpose, built once per fit), one exp and one
``model.logsumexp``.

:func:`fit`, whose targets are integer counts over N, first fits on a face
of the space (:func:`closure_face`).  When domain patterns s ⊂ u, u one
item longer, have equal counts (s is not a closed itemset; Pasquier et al.,
ICDT 1999), every outcome that contains s but not u has probability 0 in
every distribution matching the targets.  No maximizer exists over the
space that keeps them: θ drifts, and Newton steps converge at a linear rate
toward the interior maximizer over the outcomes that remain (the facial set
of Geyer, EJS 2009, and of Fienberg & Rinaldo, Ann. Statist. 2012).  So
those outcomes are dropped, the rows of Z that then coincide are merged
into one parameter each, and the fit is interior: on ``basket``, 3 Newton
steps instead of 8 and max|θ| 0.33 instead of 7.7.  Data transactions and
bottom are never dropped, so log Z = -log p(bottom) still holds.  Targets
that are not counts (``m_projection``, the bias-variance harness) go
straight to :func:`fit_to_moments`, and the guard below handles every
boundary the pairs do not certify, p(bottom) = 0 among them, which no face
that keeps bottom expresses.

G takes ``8 |B|^2`` bytes.  A fit whose parameters, after the up-front
filter below, would need more than ``FISHER_MAX_BYTES`` (256 MiB, |B| up to
5792) is refused with :class:`~tbmlearn.mining.DomainSizeError` before any
iteration and before G is allocated; a larger sigma or a smaller k gives a
smaller domain.

Targets on the boundary of the achievable moment set have no maximizer: some
parameter drifts without bound.  Newton steps then keep moving the drifting
parameters by about 1 each, and the gap falls by a constant factor per step
instead of quadratically.  The guard handles this in three layers, all
inside :func:`ascend`: before the first step it removes the patterns whose
target is 0 or 1 or that no outcome contains (η = 0 under the uniform
start); a parameter whose magnitude crosses ``theta_max`` is removed
outright; and when a step reaches tol at that linear rate, moving some
parameter by at least ``DRIFT_STEP`` while the largest magnitude exceeds
``min(DRIFT_GATE, theta_max / 2)``, a linear-programming feasibility check
decides whether any strictly positive distribution can match the targets at
all.  If not, the largest-magnitude parameter is removed and fitting
restarts from θ = 0 on the survivors.  The LP runs only on incidence
matrices of at most ``FEASIBILITY_CHECK_MAX_NNZ`` nonzeros; above that it
gives no verdict, and a boundary fit that reaches tol keeps its drifted
parameters.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .mining import DomainSizeError, ParameterDomain, mine_parameter_domain
from .model import (
    GibbsModel, SampleSpace, build_sample_space, incidence_matrix, logsumexp, multiplicities
)
from .patterns import Pattern, TransactionDataset, compact, sort_key, take_rows

STEP_SHRINK = 0.5
MIN_STEP_SIZE = 1e-16
LP_MIN_PROBABILITY = 1e-11
FEASIBILITY_CHECK_MAX_NNZ = 1 << 15
DRIFT_GATE = 5.0
DRIFT_STEP = 0.5
ACCEPT_SLACK = 1e-14
FISHER_BLOCK_ROWS = 64
FISHER_MAX_BYTES = 256 << 20
CHORD_RATIO = 0.5


def _new_fisher_pool() -> None:
    """Make the Fisher pool: one worker per usable core, no thread before its first ``map``."""
    global _fisher_pool
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    _fisher_pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="tbmlearn-fisher")


_new_fisher_pool()
if hasattr(os, "register_at_fork"):
    # A forked child inherits the pool object but none of its threads.
    os.register_at_fork(after_in_child=_new_fisher_pool)


@dataclass
class FitConfig:
    """Ascent settings.

    ``max_sweeps`` caps the iterations, trial steps included.
    ``theta_max`` bounds parameter magnitudes; exceeding it is treated as
    divergence and removes that parameter from the domain.  A fit converges
    when its largest moment gap is at most ``tol``.
    """

    tol: float = 1e-6
    max_sweeps: int = 10_000
    theta_max: float = 30.0

    def __post_init__(self):
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be non-negative")
        if not self.tol >= 0:
            raise ValueError("tol must be non-negative")
        if not self.theta_max > 0:
            raise ValueError("theta_max must be positive")


@dataclass(frozen=True)
class FitReport:
    """Outcome bookkeeping for one fitting run.

    ``iterations`` counts trial steps, from a freshly built Fisher factor or
    from a reused one, including rejected ones that were retried shorter or
    from a fresh factor.  ``final_gap`` is the largest remaining moment
    mismatch over the surviving domain, and ``evaluations`` counts
    probability-cell touches for complexity instrumentation: one per nonzero
    of Z for every Fisher matrix, and the state, expectation and log-sum-exp
    work of every trial step.
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
    ``FISHER_BLOCK_ROWS`` rows are filled concurrently, the first in the
    calling thread and the rest on the pool; scipy's sparse product releases
    the interpreter lock.  Each row is the same sum, in the same order, as in
    the one-piece product, so the result does not depend on the number of
    workers; it is symmetric bit for bit when Z has sorted indices and 0/1 data.
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

    # A one-block matrix never touches the pool, whose hand-off costs more
    # than a small block; reading every result re-raises a worker's exception.
    rest = range(FISHER_BLOCK_ROWS, m, FISHER_BLOCK_ROWS)
    pending = _fisher_pool.map(fill, rest) if rest else ()
    fill(0)
    for _ in pending:
        pass
    return g


def solve_fisher(g: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factor a symmetric Fisher matrix ``g``, in place, and return its solve
    ``residual -> G^-1 residual``.

    The diagonal is lightly regularized so that collinear parameters cannot
    blow the solve up.  The Cholesky factor overwrites one triangle of ``g``;
    if rounding leaves the system not positive definite, ``g`` is rebuilt
    from the other, untouched triangle and solved by least squares.  The
    returned solve holds its own matrix, so it can be reused.
    """
    diag = np.diag(g) + 1e-12 * max(float(np.max(np.diag(g))), 1e-30)
    g[np.diag_indices_from(g)] = diag
    try:
        # g.T is in Fortran order, so LAPACK factors it where it lies, in
        # the lower triangle of g.
        factor = cho_factor(g.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        g = np.triu(g, 1)
        g += g.T
        g[np.diag_indices_from(g)] = diag
        return lambda residual: np.linalg.lstsq(g, residual, rcond=None)[0]
    return lambda residual: cho_solve(factor, residual, check_finite=False)


def natural_direction(
    incidence: sparse.csr_matrix,
    rows_of: sparse.csr_matrix,
    log_probs: np.ndarray,
    etas: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Fisher-preconditioned ascent over a reduced sample space.

    Builds G, the covariance of the containment indicators under the current
    distribution (see :func:`fisher_matrix`), and returns its factored solve,
    which maps a moment residual to the Newton direction.
    """
    g = fisher_matrix(incidence, rows_of, np.exp(log_probs), etas)
    return solve_fisher(g)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at its first call."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def interior_feasible(incidence: sparse.csr_matrix, targets: np.ndarray) -> bool | None:
    """Whether some strictly positive distribution attains the target moments.

    Maximizes the smallest outcome probability subject to the moment
    constraints; a maximum below the positivity floor means the targets sit
    on (or outside) the boundary of the achievable set.  Returns ``None``
    when the solver fails to reach a verdict.  The first call of a process
    imports ``scipy.optimize``, about 0.2 s, so that importing tbmlearn
    does not.
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


class ReducedSpace:
    """Normalizer over a reduced sample space, through its incidence matrix Z:
    log-probabilities are ``Z^T θ`` minus their log-sum-exp, as in
    :class:`GibbsModel`, and a removed parameter takes its row of Z with it."""

    def __init__(self, incidence: sparse.csr_matrix):
        self.incidence = incidence
        self._transposed = incidence.T
        self._rows_of = None  # the transpose as CSR, built at the first Fisher step

    @property
    def step_cost(self) -> int:
        return 2 * self.incidence.nnz + self.incidence.shape[1]

    @property
    def fisher_cost(self) -> int:
        return self.incidence.nnz

    def state(self, theta: np.ndarray) -> tuple[np.ndarray, float]:
        raw = self._transposed.dot(theta)
        psi = logsumexp(raw)
        return raw - psi, psi

    def etas(self, log_probs: np.ndarray) -> np.ndarray:
        return self.incidence.dot(np.exp(log_probs))

    def fisher_solve(self, log_probs, etas) -> Callable[[np.ndarray], np.ndarray]:
        if self._rows_of is None:
            self._rows_of = self._transposed.tocsr()
        return natural_direction(self.incidence, self._rows_of, log_probs, etas)

    def feasible(self, targets: np.ndarray) -> bool | None:
        # The LP's cost grows with the nonzeros of Z: one LP took 10 s at
        # 108032 (the bench's synth workload at k=3) and ran for minutes at
        # 1078322 (basket at k=2).  Beyond the cap it gives no verdict.
        if self.incidence.nnz > FEASIBILITY_CHECK_MAX_NNZ:
            return None
        return interior_feasible(self.incidence, targets)

    def drop(self, indices) -> None:
        self.incidence = self.incidence[np.delete(np.arange(self.incidence.shape[0]), indices)]
        self._transposed = self.incidence.T
        self._rows_of = None


@dataclass
class Ascent:
    """Where :func:`ascend` stopped: the surviving parameters and the report."""

    patterns: list[Pattern]
    theta: np.ndarray
    report: FitReport


def ascend(space, patterns: Sequence[Pattern], targets: np.ndarray, cfg: FitConfig) -> Ascent:
    """Moment-matching ascent from θ = 0 over the normalizer ``space``.

    Takes damped Newton and chord steps under the rules and the guard
    described in the module docstring, and reports the gap of the returned
    θ.  ``space`` is a :class:`ReducedSpace` or a ``baselines.FullCube``; its
    ``fisher_solve`` builds and factors G and returns the solve, and its
    ``drop`` removes parameters from it by index.  Raises :class:`DomainSizeError`, before any
    iteration, when the parameters left after the up-front filter need a
    Fisher matrix over ``FISHER_MAX_BYTES``.
    """
    pats = list(patterns)
    removed: list[Pattern] = []
    iterations = 0
    evaluations = 0

    def restart() -> None:
        nonlocal theta, log_probs, psi, etas, avg_loglik, gap, err2, step, direction, solve
        theta = np.zeros(len(pats))
        log_probs, psi = space.state(theta)
        etas = space.etas(log_probs)
        avg_loglik = float(targets @ theta) - psi
        gap = float(np.max(np.abs(targets - etas))) if theta.size else 0.0
        err2 = float(np.sum((targets - etas) ** 2))
        step = 1.0
        direction = solve = None

    def drop(indices) -> None:
        # θ keeps its other entries until the next restart, so repeated
        # removals still pick the worst drifter.
        nonlocal targets, theta, solve
        solve = None
        removed.extend(pats[j] for j in indices)
        for j in sorted(indices, reverse=True):
            del pats[j]
        space.drop(indices)
        targets = np.delete(targets, indices)
        theta = np.delete(theta, indices)

    def remove_parameter(j: int) -> None:
        nonlocal evaluations
        drop([j])
        evaluations += space.step_cost

    restart()
    # A target of 0 or 1, or a pattern no outcome contains (η = 0 under the
    # uniform start), has no finite parameter.
    unfit = np.flatnonzero((targets <= 0.0) | (targets >= 1.0) | (etas <= 0.0))
    if unfit.size:
        drop(unfit)
        restart()
    if 8 * len(pats) ** 2 > FISHER_MAX_BYTES:
        raise DomainSizeError(
            f"{len(pats)} parameters need a {8 * len(pats) ** 2 / 2**20:.0f} MiB Fisher "
            f"matrix, over its {FISHER_MAX_BYTES / 2**20:.0f} MiB budget; raise sigma or lower k"
        )

    while theta.size and gap > cfg.tol and iterations < cfg.max_sweeps:
        iterations += 1
        if direction is None:
            reused = solve is not None
            if not reused:
                solve = space.fisher_solve(log_probs, etas)
                evaluations += space.fisher_cost
            direction = solve(targets - etas)
        mu = step * direction
        theta_new = theta + mu
        log_new, psi_new = space.state(theta_new)
        loglik_new = float(targets @ theta_new) - psi_new
        etas_new = space.etas(log_new)
        residual = targets - etas_new
        gap_new = float(np.max(np.abs(residual)))
        err2_new = float(np.dot(residual, residual))
        evaluations += space.step_cost

        # Near the optimum the likelihood plateaus at float resolution, so a
        # step that keeps it within rounding slack still counts as progress
        # when it strictly shrinks the squared moment error (a Lyapunov
        # function of the ascent flow, unlike the max-norm gap).
        slack = ACCEPT_SLACK * (1.0 + abs(avg_loglik))
        improved = np.isfinite(loglik_new) and loglik_new > avg_loglik + slack
        plateau = (
            np.isfinite(loglik_new)
            and loglik_new >= avg_loglik - slack
            and err2_new < err2
        )
        if reused and not improved:
            # A reused factor must pay with a strict rise.  Otherwise G is
            # built at the same point and the full step is tried from it.
            direction = solve = None
            continue
        if not (improved or plateau):
            step *= STEP_SHRINK
            if step < MIN_STEP_SIZE:
                break
            continue
        moved = float(np.max(np.abs(mu)))
        # Chord steps: the factor serves the next step only under the three
        # rules of the module docstring.
        if not (
            theta.size > FISHER_BLOCK_ROWS
            and moved < DRIFT_STEP
            and err2_new <= CHORD_RATIO**2 * err2
        ):
            solve = None
        theta, log_probs, psi = theta_new, log_new, psi_new
        avg_loglik, etas = max(avg_loglik, loglik_new), etas_new
        gap, err2 = gap_new, err2_new
        step, direction = 1.0, None

        worst = int(np.argmax(np.abs(theta)))
        if abs(theta[worst]) > cfg.theta_max:
            remove_parameter(worst)
            restart()
            continue

        # Newton steps converge quadratically to an interior maximizer, and
        # chord steps linearly but fast, so the last steps are short.  On
        # boundary targets each full step still moves the drifting parameters
        # by about 1 when the gap reaches tol; such a step never keeps its
        # factor, so a drifting fit takes fresh Newton steps.
        if (
            gap <= cfg.tol
            and moved >= DRIFT_STEP
            and abs(theta[worst]) > min(DRIFT_GATE, cfg.theta_max / 2)
        ):
            verdict = space.feasible(targets)
            removed_any = verdict is False
            while verdict is False and theta.size:
                # Boundary targets: drop the worst drifter, then re-test
                # so one boundary event clears the whole degenerate set.
                remove_parameter(int(np.argmax(np.abs(theta))))
                verdict = space.feasible(targets) if theta.size else None
            if removed_any:
                restart()

    report = FitReport(
        iterations=iterations,
        final_gap=gap,
        removed_parameters=tuple(removed),
        converged=gap <= cfg.tol,
        domain_emptied=bool(removed) and not pats,
        evaluations=evaluations,
    )
    return Ascent(pats, theta, report)


def fit_to_moments(
    space: SampleSpace,
    patterns: Sequence[Pattern],
    targets: Sequence[float] | np.ndarray,
    config: FitConfig | None = None,
    incidence: sparse.csr_matrix | None = None,
) -> tuple[GibbsModel, FitReport]:
    """Fit parameters on ``patterns`` so model expectations match ``targets``.

    Runs :func:`ascend` over the reduced space.  If the guard removes every
    parameter, the uniform distribution over the space is returned and
    flagged in the report.  A given ``incidence`` is copied only to put its
    rows in canonical order.
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
    elif order != list(range(len(order))):
        incidence = incidence[np.array(order, dtype=np.intp)]
    reduced = ReducedSpace(incidence)
    run = ascend(reduced, pats, targets, cfg)
    model = GibbsModel(space, run.patterns, run.theta, incidence=reduced.incidence)
    return model, run.report


def empirical_targets(
    dataset: TransactionDataset,
    space: SampleSpace,
    incidence: sparse.csr_matrix,
) -> np.ndarray:
    """Empirical expectations for the incidence rows, exact up to one division."""
    return incidence.dot(multiplicities(space, dataset)) / dataset.n_samples


def closure_face(
    space: SampleSpace,
    patterns: list[Pattern],
    incidence: sparse.csr_matrix,
    targets: np.ndarray,
) -> tuple[SampleSpace, list[Pattern], sparse.csr_matrix, np.ndarray, list[Pattern]]:
    """The face the closure pairs certify, and the parameters that alias on it.

    A closure pair is s ⊂ u in ``patterns`` with u one item longer and the
    same target: every outcome that contains s but not u then has
    probability 0 in every distribution that matches the targets, so those
    outcomes are dropped.  No data transaction lies among them, and neither
    does bottom.  Rows of Z that become identical are aliases, and each
    class keeps its last member in canonical order (for a pair, u).  Z is
    compacted in place, rows and columns in one pass, so it must not be used
    after this call; without a pair everything is returned as given.
    Returns the face's space, the kept patterns, their Z and targets, and
    the aliases in canonical order.
    """
    row = {p: j for j, p in enumerate(patterns)}
    # The targets of ``fit`` are integer counts divided by one N, so equal
    # floats are equal counts.
    pairs = [
        (row[s], j)
        for j, u in enumerate(patterns)
        if len(u) > 1
        for s in (u[:i] + u[i + 1:] for i in range(len(u)))
        if s in row and targets[row[s]] == targets[j]
    ]
    if not pairs:
        return space, patterns, incidence, targets, []
    indptr, indices = incidence.indptr, incidence.indices
    m, n_out = incidence.shape

    def cols(j: int) -> np.ndarray:
        return indices[indptr[j]:indptr[j + 1]]

    keep = np.ones(n_out, dtype=bool)
    for s, u in pairs:
        keep[np.setdiff1d(cols(s), cols(u), assume_unique=True)] = False

    # Identical rows on the face, found from the last row back so that the
    # first member seen is the one kept.  Rows are keyed by the hash of their
    # kept columns, not by the columns, so no second copy of Z is held.
    seen: dict[int, list[int]] = {}
    alias = np.zeros(m, dtype=bool)
    for j in range(m - 1, -1, -1):
        c = cols(j)
        c = c[keep[c]]
        bucket = seen.setdefault(hash(c.tobytes()), [])
        if any(np.array_equal(c, cols(r)[keep[cols(r)]]) for r in bucket):
            alias[j] = True
        else:
            bucket.append(j)

    new_col = np.cumsum(keep, dtype=indices.dtype) - 1
    kept_rows = np.flatnonzero(~alias)
    new_indptr = np.zeros(kept_rows.size + 1, dtype=indptr.dtype)
    end = 0
    for i, j in enumerate(kept_rows):
        c = cols(j)
        c = new_col[c[keep[c]]]
        indices[end:end + c.size] = c
        end += c.size
        new_indptr[i + 1] = end
    # Z's data are all ones, so any prefix of them is the face's.
    face = sparse.csr_matrix(
        (incidence.data[:end], indices[:end], new_indptr), shape=(kept_rows.size, int(keep.sum()))
    )
    # The kept rows, over the columns of the items they still hold.
    kept_indptr, kept_cols = take_rows(space.indptr, space.indices, np.flatnonzero(keep))
    held, kept_cols = compact(kept_cols)
    face_space = SampleSpace(space.items[held], kept_indptr, kept_cols.astype(np.int32))
    aliases = [patterns[j] for j in np.flatnonzero(alias)]
    return face_space, [patterns[j] for j in kept_rows], face, targets[kept_rows], aliases


def fit(
    dataset: TransactionDataset,
    domain: ParameterDomain | Sequence[Pattern],
    config: FitConfig | None = None,
) -> tuple[GibbsModel, FitReport]:
    """Maximum-likelihood fit of a transductive model on the face of its
    derived sample space (see :func:`closure_face`); the aliases lead
    ``removed_parameters``."""
    patterns = sorted(domain, key=sort_key)
    space = build_sample_space(patterns, dataset)
    incidence = incidence_matrix(space, patterns)
    targets = empirical_targets(dataset, space, incidence)
    space, patterns, incidence, targets, aliases = closure_face(space, patterns, incidence, targets)
    model, report = fit_to_moments(space, patterns, targets, config, incidence=incidence)
    if aliases:
        report = replace(report, removed_parameters=tuple(aliases) + report.removed_parameters)
    return model, report


def fit_tbm(
    dataset: TransactionDataset,
    sigma: float,
    k: int,
    config: FitConfig | None = None,
) -> tuple[GibbsModel, FitReport, ParameterDomain]:
    """Mine the parameter domain, then fit: the full transductive pipeline."""
    domain = mine_parameter_domain(dataset, sigma, k)
    model, report = fit(dataset, domain, config)
    return model, report, domain
