"""Information-geometric quantities of fitted models.

The expectation and parameter coordinates form a dual pair connected by the
log-partition function; the Fisher information is simultaneously the
covariance of the containment indicators and the Jacobian of expectations
with respect to parameters.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .fitting import FitConfig, FitReport, fisher_matrix, fit_to_moments
from .metrics import _prob_items, kl_divergence
from .model import GibbsModel, SampleSpace, incidence_matrix
from .patterns import BOTTOM, Pattern, sort_key


def fisher_information(model: GibbsModel) -> np.ndarray:
    """Fisher information of a model at its current parameters, the
    |B| x |B| array over ``model.domain`` in that order.

    Entry (s, u) is ``eta(s | u) - eta(s) eta(u)`` where the joint term uses
    that an outcome contains both patterns exactly when it contains their
    union.
    """
    z = model.incidence
    return fisher_matrix(z, z.T.tocsr(), np.exp(model.log_probs), model.etas())


def m_projection(
    true_dist: Mapping[Pattern, float],
    domain: Sequence[Pattern],
    config: FitConfig | None = None,
) -> tuple[GibbsModel, FitReport]:
    """Project a distribution onto the model family with the given domain.

    Runs the same moment-matching ascent as data fitting, on ``true_dist``
    instead of a sample's multiplicities.  The distribution must be strictly
    positive on its outcomes and must include the empty pattern.
    """
    if BOTTOM not in true_dist:
        raise ValueError("the distribution must cover the empty pattern")
    space = SampleSpace.from_patterns(true_dist)
    pvec = np.array([true_dist[x] for x in space.outcomes])
    if np.any(pvec <= 0):
        raise ValueError("the distribution must be strictly positive on its outcomes")
    if abs(pvec.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {pvec.sum()}, expected 1")
    patterns = sorted(domain, key=sort_key)
    incidence = incidence_matrix(space, patterns)
    return fit_to_moments(space, patterns, pvec, config, incidence=incidence)


def pythagorean_residual(
    p_hat: Mapping[Pattern, float],
    p_mle: GibbsModel,
    q: GibbsModel,
) -> float:
    """Defect of the divergence decomposition through the fitted model.

    For ``q`` in the same family as ``p_mle`` (same space, parameters on the
    same domain), the divergence from the data to ``q`` splits exactly into
    data-to-fit plus fit-to-``q``; the returned residual is the absolute
    deviation from that identity.
    """
    if p_mle.space.outcomes != q.space.outcomes:
        raise ValueError("models must share one sample space")
    ref = _prob_items(p_hat)
    for x in ref:
        if x not in p_mle.space:
            raise ValueError(f"pattern {x} is outside the shared sample space")
    kl_data_q = kl_divergence(ref, q)
    kl_data_fit = kl_divergence(ref, p_mle)
    kl_fit_q = math.fsum((np.exp(p_mle.log_probs) * (p_mle.log_probs - q.log_probs)).tolist())
    return abs(kl_data_q - kl_data_fit - kl_fit_q)


def variance_lower_bound(b_size: int, n_samples: int) -> float:
    """Asymptotic lower bound on the estimation variance: half the
    parameter count over the sample size."""
    if b_size < 0:
        raise ValueError("domain size must be non-negative")
    if n_samples <= 0:
        raise ValueError("sample size must be positive")
    return b_size / (2.0 * n_samples)
