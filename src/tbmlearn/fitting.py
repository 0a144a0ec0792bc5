"""Exact maximum-likelihood fitting by moment matching.

One engine, :func:`ascend`, fits both the transductive model and the fully
visible Boltzmann machine: the same Gibbs family over two sample spaces,
each reached through a normalizer that holds the parameters' patterns and
builds the fitted model.  :class:`ReducedSpace` (here) covers the
data-derived space through the incidence matrix Z; ``baselines.FullCube``
covers all 2^n configurations through subset/superset sum transforms.  Both
compute every trial state from θ as the model does, so :func:`ascend`
reports the gap it stopped on, which is the model's.

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
- the step moved no parameter by ``DRIFT_STEP`` or more, the drift
  signature of a boundary (below), which keeps such a fit's Newton steps
  fresh until its LP trigger;
- the residual norm fell to at most ``CHORD_RATIO`` (one half) of its
  value before the step, so a factor is kept only while it contracts.

A trial from a reused factor must raise the log-likelihood strictly;
otherwise G is built at the same point and the full step is tried from it,
since a stale factor near float resolution can make plateau steps forever.

Over the reduced space G is ``Z diag(p) Z^T``, built from a transpose of Z
that :class:`ReducedSpace` makes at its first Fisher step.  While the
dense ``n_outcomes x |B|`` transpose needs at most ``FISHER_DENSE_BYTES``
(256 KiB; a bias-variance trial's needs 32 KB), it is kept dense and G is
one product ``Z @ (p[:, None] * Z^T)`` in the calling thread, so a small
build costs its arithmetic rather than a sparse product's set-up.  Above
the limit a dense transpose of a sparse Z costs more than it saves, so
Z^T is kept in CSR form and G is one sparse product, built in blocks of
rows on a thread pool with one worker per usable core.  Either way each
entry of G adds the same terms p_x, over the outcomes x that both rows
hold, in ascending x, as the serial sparse product does; the dense form
only adds exact zeros besides (Z's rows have sorted indices and 0/1 data).
So G has the same bits in either form and at any core count, and it is
symmetric bit for bit as built.  LAPACK's Cholesky (``dpotrf``) factors
it.  The solve runs in the BLAS, whose threads split its sums
differently, so fits (and ``fit-tbm`` files) are reproducible bit for bit
only at a fixed BLAS thread count.  G takes ``8 |B|^2`` bytes: parameters
that, after the up-front face below, would need more than
``FISHER_MAX_BYTES`` (256 MiB, |B| up to 5792) are refused with
:class:`~tbmlearn.mining.DomainSizeError` before any iteration.  scipy is
imported where it runs, at the first call of each function that needs it:
the sparse products of G and of the face step, the Cholesky and pivoted
Cholesky factors, and the face LP.  So importing the package, or scoring a
model, loads none of it.

A fit matches the moments of a distribution over the space (the data's
multiplicities, or a truth), whose support the normalizer holds.  Where
that support leaves outcomes out, the moments may have no maximizer over the
whole space: every matching distribution gives some outcomes no mass, and
the maximizer lies on the face of the others, the support's facial set
(Geyer, EJS 2009; Fienberg & Rinaldo, Ann. Statist. 2012).  Off the face θ
drifts, each Newton step moves it by about 1, and the gap falls by a
constant factor per step instead of quadratically.  :func:`ascend` finds the
face in two places, and the face step drops the outcomes off it and merges
the rows of Z that then coincide.  Only a face removes a parameter: an
alias there, or a row constant there, which no outcome or every one holds:

- up front, for every fit, the normalizer's ``closure`` by three rules: a
  target of 0 rules out the outcomes that hold its pattern, a target of 1
  those that lack it (bottom among them), and a closure pair, patterns
  s ⊂ u, u one item longer, with equal targets (s is not a closed itemset;
  Pasquier et al., ICDT 1999), those that hold s but not u.  The constant
  rows (every target of 0 or 1 among them) leave after the aliases.  No
  rule rules out an outcome of the support.  On ``basket`` the fit is interior;
- at the first drift signal, a step that reaches tol moving some parameter
  by at least ``DRIFT_STEP`` while the largest magnitude exceeds
  ``DRIFT_GATE``, or a parameter crossing ``LP_THETA``,
  :func:`interior_feasible` runs once, on Z and the support alone.  The fit
  restarts from θ = 0 on the face it finds, where the rows that other rows
  span, found by pivoted Cholesky of the face's G, alias too.

Bottom stays on an LP face even where no matching distribution gives it
mass (data without the empty transaction, at a k that pins p(bottom) to 0),
so log Z = -log p(bottom) holds for every fitted model but those that a
target of 1 takes bottom from.  Bottom's mass then falls by a constant factor
per step, and the fit stops when the gap, which that mass bounds, reaches
tol.  On ``tbmlearn synth --n-vars 10 --support-size 60 --n 3000 --seed 3`` at
σ = 0.02, k = 3, 60 of the 175 parameters stay and the fit takes 23
iterations to a KL of 7.3e-7 to the data.  With no face (a full BM cube
too large to build Z for, or no solver verdict) the fit keeps its
parameters, and the mass off the face falls the same way: the same fit
without a face takes 14 iterations to a KL of 1.1e-6.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .mining import DomainSizeError, ParameterDomain, mine_parameter_domain
from .model import (
    GibbsModel, SampleSpace, build_sample_space, incidence_matrix, logsumexp, multiplicities
)
from .patterns import (
    Pattern, TransactionDataset, compact, flatten_canonical, sort_key, take_rows
)

if TYPE_CHECKING:
    from scipy import sparse

STEP_SHRINK = 0.5
MIN_STEP_SIZE = 1e-16
DRIFT_GATE = 5.0
DRIFT_STEP = 0.5
LP_THETA = 30.0
ACCEPT_SLACK = 1e-14
FISHER_BLOCK_ROWS = 64
FISHER_MAX_BYTES = 256 << 20
FISHER_DENSE_BYTES = 256 << 10
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

    ``max_sweeps`` caps the iterations, trial steps included.  A fit
    converges when its largest moment gap is at most ``tol``.  No setting
    bounds the parameters: a fit that finds no face keeps them all and runs
    to ``tol`` or ``max_sweeps``.
    """

    tol: float = 1e-6
    max_sweeps: int = 10_000

    def __post_init__(self):
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be non-negative")
        if not self.tol >= 0:
            raise ValueError("tol must be non-negative")


@dataclass(frozen=True)
class FitReport:
    """Outcome bookkeeping for one fitting run.

    ``iterations`` counts trial steps, rejected ones included.  ``final_gap``
    is the largest moment mismatch over the surviving domain, and
    ``evaluations`` counts probability-cell touches for complexity
    instrumentation: one per nonzero of Z for every Fisher matrix, and the
    state, expectation and log-sum-exp work of every trial step.
    """

    iterations: int
    final_gap: float
    removed_parameters: tuple[Pattern, ...]
    converged: bool
    domain_emptied: bool = False
    evaluations: int = 0


def fisher_matrix(
    incidence: sparse.csr_matrix,
    rows_of: sparse.csr_matrix | np.ndarray,
    p: np.ndarray,
    etas: np.ndarray,
) -> np.ndarray:
    """Covariance of the containment indicators under the probabilities ``p``.

    Entry (s, u) is ``sum_x Z[s, x] p[x] Z[u, x] - etas[s] etas[u]``, with
    ``rows_of`` the transpose of ``incidence``, dense or in CSR form.  A
    dense transpose makes G one product ``Z @ (p[:, None] * Z^T)`` in the
    calling thread.  Otherwise blocks of ``FISHER_BLOCK_ROWS`` rows are
    filled concurrently, the first in the calling thread and the rest on
    the pool; scipy's sparse product releases the interpreter lock.  Both
    forms add the same terms in the same order as the one-piece sparse
    product, so the result depends on neither the form nor the workers.
    """
    if isinstance(rows_of, np.ndarray):
        return incidence @ (p[:, None] * rows_of) - np.outer(etas, etas)
    from scipy import sparse
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
    blow the solve up.  LAPACK's ``dpotrf`` and ``dpotrs``, the routines
    behind scipy's ``cho_factor`` and ``cho_solve``, are called directly:
    the Cholesky factor overwrites one triangle of ``g``, and if rounding
    leaves it not positive definite, ``g`` is rebuilt from the other and
    solved by least squares.  Either solve keeps its own matrix.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs
    diag = np.diag(g) + 1e-12 * max(float(np.max(np.diag(g))), 1e-30)
    g.flat[::len(g) + 1] = diag
    # g.T is in Fortran order, so LAPACK factors it where it lies, in the
    # lower triangle of g.
    factor, info = dpotrf(g.T, lower=0, overwrite_a=1, clean=0)
    if info:
        g = np.triu(g, 1)
        g += g.T
        g.flat[::len(g) + 1] = diag
        return lambda residual: np.linalg.lstsq(g, residual, rcond=None)[0]
    return lambda residual: dpotrs(factor, residual, lower=0)[0]


def natural_direction(
    incidence: sparse.csr_matrix,
    rows_of: sparse.csr_matrix | np.ndarray,
    log_probs: np.ndarray,
    etas: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Builds G under the current distribution (:func:`fisher_matrix`) and
    returns its factored solve, which maps a moment residual to the Newton
    direction."""
    g = fisher_matrix(incidence, rows_of, np.exp(log_probs), etas)
    return solve_fisher(g)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at its first call."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def _pivots(incidence: sparse.csr_matrix) -> tuple[np.ndarray, int]:
    """Pivoted Cholesky of G at the uniform distribution over Z's columns: its
    0-based pivots and rank, the count of rows independent up to a constant."""
    from scipy.linalg.lapack import dpstrf
    p = np.full(incidence.shape[1], 1.0 / incidence.shape[1])
    g = fisher_matrix(incidence, incidence.T.tocsr(), p, incidence.dot(p))
    _, pivots, rank, _ = dpstrf(g, tol=1e-9 * max(float(np.max(np.diag(g))), 1e-30))
    return pivots - 1, rank


def interior_feasible(incidence: sparse.csr_matrix, support: np.ndarray) -> np.ndarray | None:
    """The face of a distribution with this support: a mask of the outcomes that
    some distribution with its moments gives mass, the support among them;
    ``None`` when that is every outcome, or when the LP reaches no verdict.

    With A = Z over a row of ones, an outcome x off the support D is on the
    face exactly when some p >= 0 off D with p_x > 0 has ``A p`` in the span
    of A's columns on D.  If Z's rows are independent up to a constant over
    D (the rank of :func:`_pivots`), that span is everything, and no LP runs.
    Otherwise one homogeneous LP over p >= 0 off D, free λ on D and
    0 <= s <= 1, with ``A p = A_D λ`` and ``s <= p``, maximizes the sum of s:
    sums of solutions are solutions, so one marks the whole face with s = 1.
    Of the forms measured, dual simplex without presolve, on devex pricing,
    was the fastest.  The first call imports ``scipy.optimize`` (0.2 s).
    """
    from scipy import sparse
    m, n_out = incidence.shape
    if support.all() or _pivots(incidence[:, support])[1] == m:
        return None
    a = sparse.vstack([incidence, np.ones((1, n_out))], format="csc")
    k, off = n_out - int(support.sum()), ~support
    eye = sparse.identity(k)
    result = linprog(  # columns: p, λ, s
        np.concatenate([np.zeros(n_out), -np.ones(k)]),
        A_ub=sparse.hstack([-eye, sparse.csr_matrix((k, n_out - k)), eye]),
        b_ub=np.zeros(k),
        A_eq=sparse.hstack([a[:, off], -a[:, support], sparse.csr_matrix((m + 1, k))]),
        b_eq=np.zeros(m + 1),
        bounds=[(0, None)] * k + [(None, None)] * (n_out - k) + [(0, 1)] * k,
        method="highs-ds",
        options={"presolve": False, "simplex_dual_edge_weight_strategy": "devex"},
    )
    if not result.success:
        return None
    keep = support.copy()
    keep[off] = result.x[n_out:] > 0.5
    return keep


class ReducedSpace:
    """Normalizer over a reduced sample space, through the incidence matrix Z
    of ``patterns``: log-probabilities are ``Z^T θ`` minus their log-sum-exp.
    ``support`` marks the outcomes the fitted distribution gives mass, and
    every face keeps them."""

    def __init__(self, sample_space: SampleSpace, patterns, incidence: sparse.csr_matrix, support):
        self.sample_space = sample_space
        self.patterns = list(patterns)
        self.incidence = incidence
        self.support = support
        self._transposed = incidence.T
        self._rows_of = None  # the transpose, dense or CSR, built at the first Fisher step
        self.step_cost = 2 * incidence.nnz + incidence.shape[1]
        self.fisher_cost = incidence.nnz

    def state(self, theta: np.ndarray) -> tuple[np.ndarray, float]:
        raw = self._transposed.dot(theta)
        psi = logsumexp(raw)
        return raw - psi, psi

    def etas(self, log_probs: np.ndarray) -> np.ndarray:
        return self.incidence.dot(np.exp(log_probs))

    def fisher_solve(self, log_probs, etas) -> Callable[[np.ndarray], np.ndarray]:
        if self._rows_of is None:
            m, n_out = self.incidence.shape
            dense = 8 * m * n_out <= FISHER_DENSE_BYTES
            self._rows_of = self._transposed.toarray() if dense else self._transposed.tocsr()
        return natural_direction(self.incidence, self._rows_of, log_probs, etas)

    def closure(self, targets: np.ndarray) -> tuple["ReducedSpace", np.ndarray] | None:
        """The up-front face, by the rules of the module docstring, and the
        indices of the parameters that leave there, aliases then constant
        rows; ``None`` when nothing changes.  Z is copied only when
        something changes."""
        row = {p: j for j, p in enumerate(self.patterns)}
        cols = _row_of(self.incidence)
        keep = np.ones(self.incidence.shape[1], dtype=bool)
        targets = targets.tolist()  # floats compare faster than numpy scalars
        for j, u in enumerate(self.patterns):
            if targets[j] <= 0.0:
                keep[cols(j)] = False
            elif targets[j] >= 1.0:
                keep[np.setdiff1d(np.arange(keep.size), cols(j), assume_unique=True)] = False
            for s in (u[:i] + u[i + 1:] for i in range(len(u))):
                if s in row and targets[row[s]] == targets[j]:
                    keep[np.setdiff1d(cols(row[s]), cols(j), assume_unique=True)] = False
        keep |= self.support  # outcomes of the support stay, whatever rounding does
        space, face, rows = self.sample_space, self.incidence, np.arange(len(self.patterns))
        if not keep.all():
            space, face, rows = _face(space, face, keep)
        sizes = np.diff(face.indptr)
        constant = (sizes == 0) | (sizes == face.shape[1])
        if constant.any():
            face = face[np.flatnonzero(~constant)]
        elif face is self.incidence:
            return None
        leave = np.concatenate([np.setdiff1d(np.arange(len(self.patterns)), rows), rows[constant]])
        pats = [self.patterns[j] for j in rows[~constant]]
        return ReducedSpace(space, pats, face, self.support[keep]), leave

    def face(self) -> tuple["ReducedSpace", np.ndarray] | None:
        return self.restrict(interior_feasible(self.incidence, self.support))

    def restrict(self, keep) -> tuple["ReducedSpace", np.ndarray] | None:
        """The normalizer over the outcomes the mask ``keep`` marks (and bottom),
        and the indices of the parameters that alias there; ``None`` for no
        mask or no proper face.

        Past the face step's merge, the rank of G at the uniform distribution
        over the face, from pivoted Cholesky, counts the identifiable
        parameters, and its pivots are the basis kept.
        """
        if keep is None:
            return None
        keep[0] |= self.sample_space.indptr[1] == 0  # bottom, if an outcome, stays
        if keep.all():
            return None
        space, face, rows = _face(self.sample_space, self.incidence, keep)
        pivots, rank = _pivots(face)
        if rank < rows.size:
            basis = np.sort(pivots[:rank])
            face, rows = face[basis], rows[basis]
        reduced = ReducedSpace(space, [self.patterns[j] for j in rows], face, self.support[keep])
        return reduced, np.setdiff1d(np.arange(len(self.patterns)), rows)

    def model(self, theta: np.ndarray) -> GibbsModel:
        return GibbsModel(self.sample_space, self.patterns, theta, self.incidence)


def ascend(space, targets: np.ndarray, cfg: FitConfig) -> tuple[object, FitReport]:
    """Moment-matching ascent from θ = 0 over the normalizer ``space``, whose
    ``patterns`` the ``targets`` align with, to ``(model, report)``.

    Takes damped Newton and chord steps under the rules of the module
    docstring.  ``space`` is a :class:`ReducedSpace` or a
    ``baselines.FullCube``: ``fisher_solve`` factors G and returns its solve,
    ``closure`` and ``face`` the :class:`ReducedSpace` of the up-front or the
    support's face and the parameters that leave there, or ``None``, and
    ``model`` builds the fitted model from θ.  Raises
    :class:`DomainSizeError`, before any iteration, when the parameters left
    after the up-front face need G over the budget.
    """
    removed: list[Pattern] = []
    iterations = 0
    evaluations = 0
    lp_ran = False

    def move(face, leave) -> None:
        # Moves to a face without the parameters that leave there, and
        # restarts from θ = 0.
        nonlocal space, targets, theta, log_probs, psi, etas, avg_loglik, gap, err2
        nonlocal step, direction, solve
        removed.extend(space.patterns[j] for j in leave)
        space, targets = face, np.delete(targets, leave)
        theta = np.zeros(len(space.patterns))
        log_probs, psi = space.state(theta)
        etas = space.etas(log_probs)
        avg_loglik = float(targets @ theta) - psi
        gap = float(np.max(np.abs(targets - etas))) if theta.size else 0.0
        err2 = float(np.sum((targets - etas) ** 2))
        step = 1.0
        direction = solve = None

    move(*(space.closure(targets) or (space, [])))
    if 8 * theta.size ** 2 > FISHER_MAX_BYTES:
        raise DomainSizeError(
            f"{theta.size} parameters need a {8 * theta.size ** 2 / 2**20:.0f} MiB Fisher "
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

        # The face LP runs at most once, at the first drift signal: interior
        # fits end on short steps, while on boundary targets each full step
        # still moves the drifting parameters by about 1 at tol.
        largest = float(np.max(np.abs(theta)))
        if not lp_ran and (
            largest > LP_THETA
            or (gap <= cfg.tol and moved >= DRIFT_STEP and largest > DRIFT_GATE)
        ):
            lp_ran = True
            found = space.face()
            if found is not None:
                move(*found)

    report = FitReport(
        iterations=iterations,
        final_gap=gap,
        removed_parameters=tuple(removed),
        converged=gap <= cfg.tol,
        domain_emptied=bool(removed) and not theta.size,
        evaluations=evaluations,
    )
    return space.model(theta), report


def fit_to_moments(
    space: SampleSpace,
    patterns: Sequence[Pattern],
    weights: Sequence[float] | np.ndarray,
    config: FitConfig | None = None,
    incidence: sparse.csr_matrix | None = None,
) -> tuple[GibbsModel, FitReport]:
    """Fit parameters on ``patterns`` so that model expectations match those of
    ``weights``, non-negative masses (counts or probabilities) over the
    outcomes of ``space`` in space order: the targets ``Z w / sum(w)``.

    Runs :func:`ascend` over the reduced space of ``patterns`` in canonical
    order and the support ``w > 0``, and returns its model over the space, or
    the face, it ended on, which holds the support (uniform, and flagged in
    the report, if every parameter was removed).  A given ``incidence`` is
    copied only to put its rows in canonical order.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(space),):
        raise ValueError("weights must align with the space's outcomes")
    if not (np.all(weights >= 0) and 0 < weights.sum() < np.inf):
        raise ValueError("weights must be finite, non-negative and not all zero")
    flatten_canonical(patterns, "domain")

    order = sorted(range(len(patterns)), key=lambda j: sort_key(patterns[j]))
    pats = [patterns[j] for j in order]
    if incidence is None:
        incidence = incidence_matrix(space, pats)
    elif order != list(range(len(order))):
        incidence = incidence[np.array(order, dtype=np.intp)]
    targets = incidence.dot(weights) / weights.sum()
    return ascend(ReducedSpace(space, pats, incidence, weights > 0), targets, config or FitConfig())


def empirical_targets(
    dataset: TransactionDataset,
    space: SampleSpace,
    incidence: sparse.csr_matrix,
) -> np.ndarray:
    """Empirical expectations for the incidence rows, exact up to one division."""
    return incidence.dot(multiplicities(space, dataset)) / dataset.n_samples


def _row_of(z: sparse.csr_matrix) -> Callable[[int], np.ndarray]:
    """Row j of Z's index array, as a view."""
    return lambda j: z.indices[z.indptr[j]:z.indptr[j + 1]]


def _face(
    space: SampleSpace, incidence: sparse.csr_matrix, keep: np.ndarray
) -> tuple[SampleSpace, sparse.csr_matrix, np.ndarray]:
    """The face step: the outcomes ``keep`` marks, as a space, Z over them,
    and the rows kept when each class of rows that coincide there keeps its
    last member.  The face's Z has its own index array and shares Z's data."""
    from scipy import sparse
    indptr, indices = incidence.indptr, incidence.indices
    m = incidence.shape[0]
    cols = _row_of(incidence)
    # Identical rows on the face, found from the last row back so that the
    # first member seen is the one kept.  Rows are keyed by the hash of their
    # kept columns, not by the columns, so no second copy of Z is held.
    seen: dict[int, list[int]] = {}
    alias = np.zeros(m, dtype=bool)
    sizes = np.zeros(m, dtype=indptr.dtype)
    for j in range(m - 1, -1, -1):
        c = cols(j)
        c = c[keep[c]]
        sizes[j] = c.size
        bucket = seen.setdefault(hash(c.tobytes()), [])
        if any(np.array_equal(c, cols(r)[keep[cols(r)]]) for r in bucket):
            alias[j] = True
        else:
            bucket.append(j)

    new_col = np.cumsum(keep, dtype=indices.dtype) - 1
    kept_rows = np.flatnonzero(~alias)
    new_indptr = np.zeros(kept_rows.size + 1, dtype=indptr.dtype)
    np.cumsum(sizes[kept_rows], out=new_indptr[1:])
    new_indices = np.empty(new_indptr[-1], dtype=indices.dtype)
    for i, j in enumerate(kept_rows):
        c = cols(j)
        new_indices[new_indptr[i]:new_indptr[i + 1]] = new_col[c[keep[c]]]
    # Z's data are all ones, so any prefix of them is the face's.
    face = sparse.csr_matrix(
        (incidence.data[:new_indptr[-1]], new_indices, new_indptr),
        shape=(kept_rows.size, int(keep.sum())),
    )
    # The kept rows, over the columns of the items they still hold.
    kept_indptr, kept_cols = take_rows(space.indptr, space.indices, np.flatnonzero(keep))
    held, kept_cols = compact(kept_cols)
    face_space = SampleSpace(space.items[held], kept_indptr, kept_cols.astype(np.int32))
    return face_space, face, kept_rows


def fit(
    dataset: TransactionDataset,
    domain: ParameterDomain | Sequence[Pattern],
    config: FitConfig | None = None,
) -> tuple[GibbsModel, FitReport]:
    """Maximum-likelihood fit of a transductive model on its derived sample space or a face."""
    patterns = sorted(domain, key=sort_key)
    space = build_sample_space(patterns, dataset)
    incidence = incidence_matrix(space, patterns)
    return fit_to_moments(space, patterns, multiplicities(space, dataset), config, incidence)


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
