"""Divergences and the proxy-normalized reconstruction error.

All quantities are in nats.  The reconstruction error shared by every
learner renormalizes the learned energies over the distinct observed
transactions only, which sidesteps partition functions that are intractable
for inductive models.  For a transductive model it equals the exact
divergence plus log P(D), the log of the mass the model puts on the observed
transactions D.  That shift is one number for a fitted model, but it differs
between models: the sample space (the domain B, the distinct transactions
and the empty pattern) grows with the interaction order k, and with it the
mass held outside D, so proxies at different k are not the exact
divergences shifted by one constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .model import GibbsModel, logsumexp
from .patterns import EmpiricalDistribution, Pattern, TransactionDataset


@dataclass(frozen=True)
class Evaluation:
    kl: float
    log_likelihood: float
    n_eval_patterns: int


def _prob_items(p: Mapping[Pattern, float] | EmpiricalDistribution):
    if isinstance(p, EmpiricalDistribution):
        return p.probs
    return p


def kl_divergence(
    p_hat: Mapping[Pattern, float] | EmpiricalDistribution,
    p: Mapping[Pattern, float] | GibbsModel,
) -> float:
    """Divergence from ``p_hat`` to ``p`` over the support of ``p_hat``."""
    ref = _prob_items(p_hat)
    if isinstance(p, GibbsModel):
        model = p
        total = 0.0
        for x, w in ref.items():
            if w == 0.0:
                continue
            total += w * (np.log(w) - model.log_prob(x))
        return float(total)
    total = 0.0
    for x, w in ref.items():
        if w == 0.0:
            continue
        q = p.get(x, 0.0)
        if q <= 0.0:
            raise ValueError(f"model assigns zero probability to observed pattern {x}")
        total += w * np.log(w / q)
    return float(total)


def entropy(p: Mapping[Pattern, float] | EmpiricalDistribution) -> float:
    """Shannon entropy in nats, with 0 log 0 taken as 0."""
    values = np.array(list(_prob_items(p).values()), dtype=np.float64)
    total = math.fsum(values)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    nonzero = values[values > 0]
    return float(-np.dot(nonzero, np.log(nonzero)))


def reconstruction_error_proxy(
    model_energy: Callable[[Pattern], float], dataset: TransactionDataset
) -> float:
    """Divergence from the data frequencies to proxy-normalized model probabilities.

    The model energies of the distinct observed transactions are normalized
    among themselves, so the same procedure applies whether or not the
    model's true partition function is computable.
    """
    uniques = sorted(dataset.entries)
    energies = np.array([model_energy(x) for x in uniques], dtype=np.float64)
    if not np.all(np.isfinite(energies)):
        raise ValueError("model energies must be finite on the observed patterns")
    log_proxy = -energies - logsumexp(-energies)
    weights = np.array([dataset.entries[x] for x in uniques], dtype=np.float64)
    weights /= dataset.n_samples
    return float(np.dot(weights, np.log(weights) - log_proxy))


def evaluate_gibbs(model: GibbsModel, dataset: TransactionDataset) -> Evaluation:
    """Exact divergence and log-likelihood of a fitted transductive model."""
    p_hat = EmpiricalDistribution.from_dataset(dataset)
    return Evaluation(
        kl=kl_divergence(p_hat, model),
        log_likelihood=model.log_likelihood(dataset),
        n_eval_patterns=len(p_hat.support),
    )
