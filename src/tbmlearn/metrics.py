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

Every score is an exactly rounded sum of its terms, ``math.fsum``
(Shewchuk, Discrete Comput. Geom. 1997), and each term is computed from
its own pattern alone, so a score depends on neither the order of the
patterns, as a dataset read from its lines in another order has them, nor
the BLAS threads.  A Gibbs model, transductive or full BM, is scored on one
array path: its ``log_probs_of_rows`` gives the log-probabilities of a
dataset's distinct CSR rows, and the divergence, log-likelihood and proxy
take their terms from those, in log space.  The proxy normalizes by an
exact log-sum-exp: the largest term plus the log of the ``fsum`` of the
shifted exponentials.  :func:`reconstruction_error_proxy` scores a
per-pattern energy function, as an RBM's free energy, one pattern at a time;
a Gibbs model's proxy is :func:`evaluate_gibbs`'s ``proxy_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .baselines import FullBMModel
from .model import GibbsModel
from .patterns import EmpiricalDistribution, Pattern, TransactionDataset, flatten


@dataclass(frozen=True)
class Evaluation:
    kl: float
    log_likelihood: float
    n_eval_patterns: int
    proxy_error: float


def _prob_items(p: Mapping[Pattern, float] | EmpiricalDistribution):
    if isinstance(p, EmpiricalDistribution):
        return p.probs
    return p


def _frequencies(dataset: TransactionDataset) -> np.ndarray:
    """Relative frequency of each distinct transaction, in ``entries`` order."""
    return dataset.csr[2].astype(np.float64) / dataset.n_samples


def _divergence(w: np.ndarray, log_q: np.ndarray) -> float:
    """The sum of ``w (log w - log_q)``."""
    return math.fsum((w * (np.log(w) - log_q)).tolist())


def kl_divergence(
    p_hat: Mapping[Pattern, float] | EmpiricalDistribution,
    p: Mapping[Pattern, float] | GibbsModel | FullBMModel,
) -> float:
    """Divergence from ``p_hat`` to ``p`` over the support of ``p_hat``."""
    ref = _prob_items(p_hat)
    support = [x for x, w in ref.items() if w != 0.0]
    w = np.array([ref[x] for x in support], dtype=np.float64)
    if not isinstance(p, Mapping):
        return _divergence(w, p.log_probs_of_rows(*flatten(support)))
    q = np.array([p.get(x, 0.0) for x in support], dtype=np.float64)
    zero = np.flatnonzero(q <= 0.0)
    if zero.size:
        raise ValueError(f"model assigns zero probability to observed pattern {support[zero[0]]}")
    return _divergence(w, np.log(q))


def entropy(p: Mapping[Pattern, float] | EmpiricalDistribution | TransactionDataset) -> float:
    """Shannon entropy in nats, with 0 log 0 taken as 0; a dataset's is
    that of its frequencies."""
    if isinstance(p, TransactionDataset):
        values = _frequencies(p)
    else:
        values = np.array(list(_prob_items(p).values()), dtype=np.float64)
    total = math.fsum(values.tolist())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    nonzero = values[values > 0]
    # From 0.0, so that a point mass reads 0.0, not -0.0.
    return 0.0 - math.fsum((nonzero * np.log(nonzero)).tolist())


def _proxy(energies: np.ndarray, dataset: TransactionDataset) -> float:
    """:func:`reconstruction_error_proxy` of the energies of the distinct
    transactions, given in ``entries`` order."""
    if not np.all(np.isfinite(energies)):
        raise ValueError("model energies must be finite on the observed patterns")
    log_weights = -energies
    top = log_weights.max()
    log_norm = top + math.log(math.fsum(np.exp(log_weights - top).tolist()))
    return _divergence(_frequencies(dataset), log_weights - log_norm)


def reconstruction_error_proxy(
    model_energy: Callable[[Pattern], float], dataset: TransactionDataset
) -> float:
    """Divergence from the data frequencies to proxy-normalized model probabilities.

    The energies ``model_energy(x)`` of the distinct observed transactions
    are normalized among themselves, so the same procedure applies whether
    or not the model's true partition function is computable.  A Gibbs
    model's proxy is also ``evaluate_gibbs(model, dataset).proxy_error``,
    which reads the energies for all transactions at once.
    """
    energies = np.array([model_energy(x) for x in dataset.entries], dtype=np.float64)
    return _proxy(energies, dataset)


def evaluate_gibbs(model: GibbsModel | FullBMModel, dataset: TransactionDataset) -> Evaluation:
    """Exact divergence, log-likelihood and proxy error of a fitted Gibbs
    model, transductive or full BM, from one lookup of the data's rows."""
    indptr, ids, counts = dataset.csr
    log_probs = model.log_probs_of_rows(indptr, ids)
    return Evaluation(
        kl=_divergence(_frequencies(dataset), log_probs),
        log_likelihood=math.fsum((counts * log_probs).tolist()),
        n_eval_patterns=len(counts),
        proxy_error=_proxy(-(log_probs + model.log_partition), dataset),
    )
