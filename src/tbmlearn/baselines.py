"""Comparison learners: exact fully visible Boltzmann machine and PCD-1 RBM.

The fully visible machine runs the transductive fitter's engine,
``fitting.ascend``, over :class:`FullCube`: a normalizer over the complete
binary cube, through fast subset/superset sum transforms, so it is limited
to small variable counts.  Only the normalizer differs, so the guard and the
Newton steps behave the same in both learners by construction; the fit
returns the :class:`FullBMModel` of the cube or, where a face over the
cube's Z moved it to a ``fitting.ReducedSpace``, the Gibbs model there.
The RBM is trained with persistent contrastive divergence using a single
alternating Gibbs sweep per update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .fitting import FitConfig, FitReport, ReducedSpace, ascend, interior_feasible, solve_fisher
from .mining import ParameterDomain
from .model import GibbsModel, SampleSpace, incidence_matrix, logsumexp, multiplicities, supports
from .patterns import (
    Pattern, TransactionDataset, flatten, flatten_canonical, is_canonical, row_pattern,
    rows_are_canonical, sort_key,
)

FULL_BM_MAX_VARIABLES = 25
CUBE_MAX_NNZ = 1 << 15
RBM_INIT_SCALE = 0.01
RBM_MAX_BYTES = 1 << 30


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

    def _masks(self, indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """The bitmask of each CSR row ``(indptr, ids)``: the difference of the
        running sum of ``1 << id`` across its bounds.  ``ValueError`` names the
        first row that is not a canonical pattern over the machine's variables."""
        if not (rows_are_canonical(indptr, ids) and ids.max(initial=-1) < self.n_variables):
            for row in range(len(indptr) - 1):
                x = row_pattern(indptr, ids, row)
                if not is_canonical(x):
                    raise ValueError(f"non-canonical pattern {x}")
                if x and x[-1] >= self.n_variables:
                    raise ValueError(f"pattern {x} exceeds {self.n_variables} variables")
        running = np.cumsum(np.append(0, np.left_shift(1, ids.astype(np.int64))))
        return running[indptr[1:]] - running[indptr[:-1]]

    def log_prob(self, x: Pattern) -> float:
        return float(self.log_probs_of_rows(*flatten([x]))[0])

    def log_probs_of_rows(self, indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """:meth:`log_prob` of each CSR row ``(indptr, ids)``, through the rows' bitmasks."""
        return self.log_probs[self._masks(indptr, ids)]

    def prob(self, x: Pattern) -> float:
        return float(np.exp(self.log_prob(x)))

    def energy(self, x: Pattern) -> float:
        return -(self.log_prob(x) + self.log_partition)

    def etas(self) -> np.ndarray:
        return FullCube(self.n_variables, self.domain).etas(self.log_probs)

    def eta(self, x: Pattern) -> float:
        sup = superset_sums(np.exp(self.log_probs), self.n_variables)
        return float(sup[self._masks(*flatten([x]))[0]])


class FullCube:
    """Normalizer over all ``2^n`` configurations, for :func:`fitting.ascend`.

    The log-probabilities are recomputed from θ at every step: subset sums
    give the energies and superset sums the expectations.  Faces are found
    over the cube's Z, one nonzero per pattern and superset, and the support
    of ``dataset``.  That Z is built only up to ``CUBE_MAX_NNZ`` nonzeros,
    which the singletons alone exceed from 13 variables on; above it the
    cube has no face, so no parameter leaves.
    """

    def __init__(self, n_variables: int, patterns, dataset: TransactionDataset | None = None):
        self.n_variables = n_variables
        self.patterns = list(patterns)
        self.dataset = dataset
        self.masks = np.array([pattern_bitmask(p) for p in patterns], dtype=np.int64)
        self.step_cost = 4 << n_variables
        self.fisher_cost = 1 << n_variables

    def state(self, theta: np.ndarray) -> tuple[np.ndarray, float]:
        dense = np.zeros(1 << self.n_variables)
        np.add.at(dense, self.masks, theta)
        raw = subset_sums(dense, self.n_variables)
        psi = logsumexp(raw)
        return raw - psi, psi

    def etas(self, log_probs: np.ndarray) -> np.ndarray:
        return superset_sums(np.exp(log_probs), self.n_variables)[self.masks]

    def fisher_solve(self, log_probs, etas) -> Callable[[np.ndarray], np.ndarray]:
        sup = superset_sums(np.exp(log_probs), self.n_variables)
        g = sup[self.masks[:, None] | self.masks[None, :]] - np.outer(etas, etas)
        return solve_fisher(g)

    def _reduced(self) -> ReducedSpace | None:
        """The cube as a :class:`fitting.ReducedSpace`, or ``None`` above ``CUBE_MAX_NNZ``."""
        n = self.n_variables
        if sum(1 << (n - len(p)) for p in self.patterns) > CUBE_MAX_NNZ:
            return None
        cube = SampleSpace.from_patterns(c for r in range(n + 1) for c in combinations(range(n), r))
        support = multiplicities(cube, self.dataset) > 0
        return ReducedSpace(cube, self.patterns, incidence_matrix(cube, self.patterns), support)

    def closure(self, targets: np.ndarray) -> tuple[ReducedSpace, np.ndarray] | None:
        cube = self._reduced()
        return None if cube is None else cube.closure(targets)

    def face(self) -> tuple[ReducedSpace, np.ndarray] | None:
        cube = self._reduced()
        if cube is None:
            return None
        return cube.restrict(interior_feasible(cube.incidence, cube.support))

    def model(self, theta: np.ndarray) -> FullBMModel:
        log_probs, psi = self.state(theta)
        return FullBMModel(self.n_variables, tuple(self.patterns), theta, psi, log_probs)


def fit_full_bm(
    dataset: TransactionDataset,
    domain: ParameterDomain | list[Pattern],
    config: FitConfig | None = None,
) -> tuple[FullBMModel | GibbsModel, FitReport]:
    """Exact maximum-likelihood fit over all binary configurations.

    Runs :func:`fitting.ascend` over the full cube, so moment matching and
    the boundary guard behave exactly as in the transductive fitter; a fit
    that moves to a face returns a :class:`GibbsModel` over it, and one
    above ``CUBE_MAX_NNZ`` keeps every parameter.
    Refuses more than 25 variables, where exact enumeration stops being
    practical; use the transductive model instead at that scale.
    """
    cfg = config or FitConfig()
    n = dataset.n_variables
    if n > FULL_BM_MAX_VARIABLES:
        raise ValueError(
            f"exact fitting over 2^{n} configurations is infeasible; "
            "use the transductive model for large variable counts"
        )
    pats = sorted(domain, key=sort_key)
    flatten_canonical(pats, "domain")
    return ascend(FullCube(n, pats, dataset), supports(dataset, pats) / dataset.n_samples, cfg)


@dataclass
class RBMConfig:
    learning_rate: float = 0.01
    n_updates: int = 10_000
    n_chains: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (self.n_updates >= 0 and self.n_chains >= 1 and 0 < self.learning_rate < math.inf):
            raise ValueError("need n_updates >= 0, n_chains >= 1, 0 < learning_rate < inf")


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


def matched_hidden_units(domain_size: int, n_variables: int) -> int:
    """Hidden-unit count that brings the RBM parameter count closest to
    ``domain_size`` from below the matching TBM/BM budget, at least one."""
    return max(1, math.ceil((domain_size - n_variables) / (n_variables + 1)))


def _check_rbm_budget(
    dataset: TransactionDataset, n_hidden: int, config: RBMConfig
) -> None:
    """Refuse (``ValueError``) an RBM whose dense data, chains and weights
    need more than ``RBM_MAX_BYTES``; it depends on no fitted value."""
    n = dataset.n_variables
    dense_bytes = 8 * n * (len(dataset.csr[2]) + config.n_chains + n_hidden)
    if dense_bytes > RBM_MAX_BYTES:
        raise ValueError(
            f"the RBM needs {dense_bytes} bytes of dense arrays for {n} variables, "
            f"over its {RBM_MAX_BYTES}-byte budget; number the items densely"
        )


def fit_rbm_pcd1(
    dataset: TransactionDataset,
    n_hidden: int,
    config: RBMConfig | None = None,
) -> RBMModel:
    """Train an RBM with persistent contrastive divergence (one Gibbs sweep).

    Full-batch gradients over the distinct transactions weighted by
    multiplicity; persistent fantasy chains advance by one alternating
    hidden/visible sweep per update.  Reproducible for a fixed seed.
    Visible vectors are dense, so data, chains and weights above
    ``RBM_MAX_BYTES`` (1 GiB) are refused before anything is allocated.
    """
    from scipy.special import expit  # imported here so that importing tbmlearn does not load it

    cfg = config or RBMConfig()
    if n_hidden < 1:
        raise ValueError("need at least one hidden unit")
    _check_rbm_budget(dataset, n_hidden, cfg)
    n = dataset.n_variables
    uniques = dataset.unique_patterns()
    rng = np.random.default_rng(cfg.seed)
    X = np.stack([pattern_vector(t, n) for t in uniques])
    weights = np.array([dataset.entries[t] for t in uniques], dtype=np.float64)
    weights /= weights.sum()

    W = rng.normal(0.0, RBM_INIT_SCALE, size=(n, n_hidden))
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
