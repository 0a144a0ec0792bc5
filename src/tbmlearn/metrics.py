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

A Gibbs model, transductive or full BM, is scored on one array path: its
``log_probs_of_rows`` gives the log-probabilities of a dataset's distinct
CSR rows, in ``entries`` order, and the divergence, log-likelihood and proxy
sum terms of those arrays.  The sums run left to right
(:func:`model.left_sum`), term by term as a loop over patterns adds them, so
the results do not depend on whether a value was looked up once per pattern
or for all rows at once.  :func:`reconstruction_error_proxy` scores a
per-pattern energy function, as an RBM's free energy, one pattern at a time;
a Gibbs model's proxy is :func:`evaluate_gibbs`'s ``proxy_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .baselines import FullBMModel
from .model import GibbsModel, left_sum, logsumexp
from .patterns import EmpiricalDistribution, Pattern, TransactionDataset, flatten, row_pattern


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


def _ratio_divergence(w: np.ndarray, q: np.ndarray, pattern: Callable[[int], Pattern]) -> float:
    """The sum of ``w log(w / q)``; ``pattern(i)`` names term i if its ``q`` is not positive."""
    zero = np.flatnonzero(q <= 0.0)
    if zero.size:
        raise ValueError(f"model assigns zero probability to observed pattern {pattern(zero[0])}")
    return left_sum(w * np.log(w / q))


def _model_divergence(
    model: GibbsModel | FullBMModel,
    w: np.ndarray,
    log_q: np.ndarray,
    pattern: Callable[[int], Pattern],
) -> float:
    """Divergence from weights ``w`` to a model whose log-probabilities there
    are ``log_q``: in log space for a transductive model, as a ratio of
    probabilities for the full BM."""
    if isinstance(model, GibbsModel):
        return left_sum(w * (np.log(w) - log_q))
    return _ratio_divergence(w, np.exp(log_q), pattern)


def kl_divergence(
    p_hat: Mapping[Pattern, float] | EmpiricalDistribution,
    p: Mapping[Pattern, float] | GibbsModel | FullBMModel,
) -> float:
    """Divergence from ``p_hat`` to ``p`` over the support of ``p_hat``."""
    ref = _prob_items(p_hat)
    support = [x for x, w in ref.items() if w != 0.0]
    w = np.array([ref[x] for x in support], dtype=np.float64)
    if isinstance(p, Mapping):
        q = np.array([p.get(x, 0.0) for x in support], dtype=np.float64)
        return _ratio_divergence(w, q, support.__getitem__)
    return _model_divergence(p, w, p.log_probs_of_rows(*flatten(support)), support.__getitem__)


def entropy(p: Mapping[Pattern, float] | EmpiricalDistribution | TransactionDataset) -> float:
    """Shannon entropy in nats, with 0 log 0 taken as 0; a dataset's is
    that of its frequencies, in ``entries`` order."""
    if isinstance(p, TransactionDataset):
        values = _frequencies(p)
    else:
        values = np.array(list(_prob_items(p).values()), dtype=np.float64)
    total = math.fsum(values)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    nonzero = values[values > 0]
    return float(-np.dot(nonzero, np.log(nonzero)))


def _tuple_order(indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The order in which ``sorted`` puts distinct CSR rows made tuples: a
    stable sort by each column c, last to first, of the rows longer than c,
    behind which the rows of length c + 1 join, since an ended row sorts first."""
    lengths = np.diff(indptr)
    by_length = np.argsort(lengths, kind="stable")
    starts = np.searchsorted(lengths[by_length], np.arange(lengths.max(initial=0) + 2))
    order = by_length[:0]
    for c in range(len(starts) - 3, -1, -1):
        order = np.concatenate([by_length[starts[c + 1]:starts[c + 2]], order])
        order = order[np.argsort(ids[indptr[order] + c], kind="stable")]
    return np.concatenate([by_length[:starts[1]], order])


def _proxy(energies: np.ndarray, dataset: TransactionDataset) -> float:
    """:func:`reconstruction_error_proxy` of the energies of the distinct
    transactions, given in ``entries`` order; the terms are taken in the
    transactions' sorted order."""
    indptr, ids, _ = dataset.csr
    order = _tuple_order(indptr, ids)
    energies = energies[order]
    if not np.all(np.isfinite(energies)):
        raise ValueError("model energies must be finite on the observed patterns")
    log_proxy = -energies - logsumexp(-energies)
    weights = _frequencies(dataset)[order]
    return float(np.dot(weights, np.log(weights) - log_proxy))


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
        kl=_model_divergence(
            model, _frequencies(dataset), log_probs, partial(row_pattern, indptr, ids)
        ),
        log_likelihood=left_sum(counts * log_probs),
        n_eval_patterns=len(counts),
        proxy_error=_proxy(-(log_probs + model.log_partition), dataset),
    )
