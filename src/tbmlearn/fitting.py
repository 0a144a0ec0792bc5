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

Over the reduced space G is one sparse product ``Z diag(p) Z^T``, built in
blocks of rows on a thread pool with one worker per usable core, and
factored by Cholesky.  Every row of G is the same sum, in the same order, as
in the serial product, so G does not depend on the core count, and it is
symmetric bit for bit as built (Z's rows have sorted indices and 0/1 data).
The Cholesky solve runs in the BLAS, whose threads split its sums
differently, so fits (and ``fit-tbm`` files) are reproducible bit for bit
only at a fixed BLAS thread count.  G takes ``8 |B|^2`` bytes: parameters
that, after the up-front face step and filter below, would need more than
``FISHER_MAX_BYTES`` (256 MiB, |B| up to 5792) are refused with
:class:`~tbmlearn.mining.DomainSizeError` before any iteration.

Targets on the boundary of what the parameters can match have no maximizer
over the whole space: every matching distribution gives some outcomes no
mass, and the maximizer lies on the face of the others (the facial set of
Geyer, EJS 2009, and of Fienberg & Rinaldo, Ann. Statist. 2012).  Off the
face θ drifts, each Newton step moves it by about 1, and the gap falls by a
constant factor per step instead of quadratically.  :func:`ascend` finds the
face in two places, and the face step drops the outcomes off it and merges
the rows of Z that then coincide:

- up front, for every fit, the normalizer's ``closure`` by three rules: a
  target of 0 rules out the outcomes that hold its pattern, a target of 1
  those that lack it (bottom among them), and a closure pair, patterns
  s ⊂ u, u one item longer, with equal targets (s is not a closed itemset;
  Pasquier et al., ICDT 1999), those that hold s but not u.  The filter
  after it (targets of 0 or 1, and patterns no outcome holds) then removes
  rows constant on the face, exactly.  On ``basket`` the fit is interior;
- at the first drift signal, a step that reaches tol moving some parameter
  by at least ``DRIFT_STEP`` while the largest magnitude exceeds
  ``min(DRIFT_GATE, theta_max / 2)``, or a parameter crossing ``theta_max``,
  the LP :func:`interior_feasible` runs once.  The fit restarts from θ = 0 on
  the face it finds, where the rows that other rows span, found by pivoted
  Cholesky of the face's G, alias too.

Bottom stays on an LP face even where no matching distribution gives it
mass (data without the empty transaction, at a k that pins p(bottom) to 0),
so log Z = -log p(bottom) holds for every fitted model but those that a
target of 1 takes bottom from.  That boundary is then one direction, rows
that sum to a constant on the face, along which bottom's mass falls by a
constant factor per step while the rest converges, and the fit stops when
the gap, which that mass bounds, reaches tol.  On
``tbmlearn synth --n-vars 10 --support-size 60 --n 3000 --seed 3`` at
σ = 0.02, k = 3, 60 of the 175 parameters stay and the fit takes 23
iterations to a KL of 7.3e-7 to the data.  A parameter that crosses
``theta_max`` after the LP has run, or where it gives no proper face (see
:func:`interior_feasible` for its cap), is removed as the last resort.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpstrf

from .mining import DomainSizeError, ParameterDomain, mine_parameter_domain
from .model import (
    GibbsModel, SampleSpace, build_sample_space, incidence_matrix, logsumexp, multiplicities
)
from .patterns import Pattern, TransactionDataset, compact, sort_key, take_rows

STEP_SHRINK = 0.5
MIN_STEP_SIZE = 1e-16
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
    ``theta_max`` bounds parameter magnitudes: the first crossing runs the
    face LP, and a crossing after it, or with no face found, removes that
    parameter from the domain.  A fit converges when its largest moment gap
    is at most ``tol``.
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
    the one-piece product, so the result does not depend on the workers.
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
    if rounding leaves it not positive definite, ``g`` is rebuilt from the
    other and solved by least squares.  Either solve keeps its own matrix.
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
    """Builds G under the current distribution (:func:`fisher_matrix`) and
    returns its factored solve, which maps a moment residual to the Newton
    direction."""
    g = fisher_matrix(incidence, rows_of, np.exp(log_probs), etas)
    return solve_fisher(g)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at its first call."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def interior_feasible(incidence: sparse.csr_matrix, targets: np.ndarray) -> np.ndarray | None:
    """The face on which the targets are attained: a mask of the outcomes that
    some distribution matching them gives mass, empty when none matches.

    One homogeneous LP over p >= 0, tau >= 0 and 0 <= s <= 1, with
    ``Z p = tau targets``, ``1^T p = tau`` and ``s <= p``, maximizes the sum
    of s: scaling a solution scales p, so one solution marks the whole face
    with s = 1.  ``None`` when Z has more than ``FEASIBILITY_CHECK_MAX_NNZ``
    nonzeros, or when the solver reaches no verdict.  The first call of a
    process imports ``scipy.optimize`` (about 0.2 s).
    """
    if incidence.nnz > FEASIBILITY_CHECK_MAX_NNZ:
        return None
    m, n_out = incidence.shape
    zeros = sparse.csr_matrix((m + 1, n_out))
    # Columns: p, tau, s.
    a_eq = sparse.hstack([sparse.vstack([incidence, np.ones((1, n_out))]),
                          -np.append(targets, 1.0)[:, None], zeros], format="csr")
    eye = sparse.identity(n_out, format="csr")
    a_ub = sparse.hstack([-eye, sparse.csr_matrix((n_out, 1)), eye], format="csr")
    result = linprog(
        np.concatenate([np.zeros(n_out + 1), -np.ones(n_out)]),
        A_ub=a_ub,
        b_ub=np.zeros(n_out),
        A_eq=a_eq,
        b_eq=np.zeros(m + 1),
        bounds=[(0, None)] * (n_out + 1) + [(0, 1)] * n_out,
        method="highs",
    )
    if not result.success:
        return None
    return result.x[n_out + 1:] > 0.5


class ReducedSpace:
    """Normalizer over a reduced sample space, through the incidence matrix Z
    of ``patterns``: log-probabilities are ``Z^T θ`` minus their log-sum-exp."""

    def __init__(self, sample_space: SampleSpace, patterns, incidence: sparse.csr_matrix):
        self.sample_space = sample_space
        self.patterns = list(patterns)
        self.incidence = incidence
        self._transposed = incidence.T
        self._rows_of = None  # the transpose as CSR, built at the first Fisher step
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
            self._rows_of = self._transposed.tocsr()
        return natural_direction(self.incidence, self._rows_of, log_probs, etas)

    def closure(self, targets: np.ndarray) -> tuple["ReducedSpace", np.ndarray] | None:
        """The up-front face, by the three rules of the module docstring, and
        the indices of the parameters that alias there; ``None`` when the
        rules rule no outcome out, or every one."""
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
        if keep.all() or not keep.any():
            return None
        space, face, rows = _face(self.sample_space, self.incidence, keep)
        aliases = np.setdiff1d(np.arange(len(self.patterns)), rows)
        return ReducedSpace(space, [self.patterns[j] for j in rows], face), aliases

    def face(self, targets: np.ndarray) -> tuple["ReducedSpace", np.ndarray] | None:
        return self.restrict(interior_feasible(self.incidence, targets))

    def restrict(self, keep: np.ndarray | None) -> tuple["ReducedSpace", np.ndarray] | None:
        """The normalizer over the outcomes ``keep`` marks (and bottom), and the
        indices of the parameters that alias there; ``None`` for no proper face.

        Past the face step's merge, the rank of G at the uniform distribution
        over the face, from pivoted Cholesky, counts the identifiable
        parameters, and its pivots are the basis kept.
        """
        if keep is None or not keep.any():
            return None
        keep[0] |= self.sample_space.indptr[1] == 0  # bottom, if an outcome, stays
        if keep.all():
            return None
        space, face, rows = _face(self.sample_space, self.incidence, keep)
        p = np.full(face.shape[1], 1.0 / face.shape[1])
        g = fisher_matrix(face, face.T.tocsr(), p, face.dot(p))
        _, pivots, rank, _ = dpstrf(g, tol=1e-9 * max(float(np.max(np.diag(g))), 1e-30))
        if rank < rows.size:
            basis = np.sort(pivots[:rank] - 1)
            face, rows = face[basis], rows[basis]
        aliases = np.setdiff1d(np.arange(len(self.patterns)), rows)
        return ReducedSpace(space, [self.patterns[j] for j in rows], face), aliases

    def drop(self, indices) -> "ReducedSpace":
        rows = np.delete(np.arange(len(self.patterns)), indices)
        return ReducedSpace(
            self.sample_space, [self.patterns[j] for j in rows], self.incidence[rows]
        )

    def model(self, theta: np.ndarray) -> GibbsModel:
        return GibbsModel(self.sample_space, self.patterns, theta, self.incidence)


def ascend(space, targets: np.ndarray, cfg: FitConfig) -> tuple[object, FitReport]:
    """Moment-matching ascent from θ = 0 over the normalizer ``space``, whose
    ``patterns`` the ``targets`` align with, to ``(model, report)``.

    Takes damped Newton and chord steps under the rules and the guard of the
    module docstring.  ``space`` is a :class:`ReducedSpace` or a
    ``baselines.FullCube``: ``fisher_solve`` factors G and returns its solve,
    ``drop`` returns the normalizer without some parameters, ``closure`` and
    ``face`` the :class:`ReducedSpace` of the up-front or the LP's face and
    the aliases there, or ``None``, and ``model`` builds the fitted model
    from θ.  Raises :class:`DomainSizeError`, before any iteration, when the
    parameters left after the face step and filter need G over the budget.
    """
    removed: list[Pattern] = []
    iterations = 0
    evaluations = 0
    lp_ran = False

    def restart() -> None:
        nonlocal theta, log_probs, psi, etas, avg_loglik, gap, err2, step, direction, solve
        theta = np.zeros(len(space.patterns))
        log_probs, psi = space.state(theta)
        etas = space.etas(log_probs)
        avg_loglik = float(targets @ theta) - psi
        gap = float(np.max(np.abs(targets - etas))) if theta.size else 0.0
        err2 = float(np.sum((targets - etas) ** 2))
        step = 1.0
        direction = solve = None

    def drop(indices, face=None) -> None:
        # Removes parameters, from the normalizer or with it, and restarts.
        nonlocal space, targets
        removed.extend(space.patterns[j] for j in indices)
        targets = np.delete(targets, indices)
        space = space.drop(indices) if face is None else face
        restart()

    def to_face() -> bool:
        # The face LP runs at most once per fit.
        nonlocal lp_ran
        found = None if lp_ran else space.face(targets)
        lp_ran = True
        if found is not None:
            drop(found[1], face=found[0])
        return found is not None

    found = space.closure(targets)
    if found is not None:
        drop(found[1], face=found[0])
    else:
        restart()
    # A target of 0 or 1, or a pattern no outcome contains (η = 0 under the
    # uniform start), has no finite parameter.
    unfit = np.flatnonzero((targets <= 0.0) | (targets >= 1.0) | (etas <= 0.0))
    if unfit.size:
        drop(unfit)
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

        worst = int(np.argmax(np.abs(theta)))
        if abs(theta[worst]) > cfg.theta_max:
            if not to_face():  # the last resort: no LP face to move to
                drop([worst])
                evaluations += space.step_cost
            continue

        # Interior fits end on short steps; on boundary targets each full
        # step still moves the drifting parameters by about 1 at tol.
        drifting = moved >= DRIFT_STEP and abs(theta[worst]) > min(DRIFT_GATE, cfg.theta_max / 2)
        if gap <= cfg.tol and drifting:
            to_face()

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
    targets: Sequence[float] | np.ndarray,
    config: FitConfig | None = None,
    incidence: sparse.csr_matrix | None = None,
) -> tuple[GibbsModel, FitReport]:
    """Fit parameters on ``patterns`` so model expectations match ``targets``.

    Runs :func:`ascend` over the reduced space of ``patterns`` in canonical
    order, and returns its model over the space, or the face, it ended on
    (uniform, and flagged in the report, if every parameter was removed).
    A given ``incidence`` is copied only to put its rows in canonical order.
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
    return ascend(ReducedSpace(space, pats, incidence), targets, cfg)


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
    targets = empirical_targets(dataset, space, incidence)
    return fit_to_moments(space, patterns, targets, config, incidence=incidence)


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
