"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against plain sets and dense numpy
arrays, sharing no code path with the package internals it validates.  The
exceptions are the brute-force domain, which takes the miner's support
threshold and result type so that the two enumerations compare directly,
the model file's dict, which reads the models' own fields, and the
pattern-loop closure, which ends in the package's own face step so that
the two closures compare on their rules alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from tbmlearn import (
    FullBMModel,
    GibbsModel,
    ParameterDomain,
    RBMModel,
    TransactionDataset,
    support_threshold,
)
from tbmlearn.fitting import ReducedSpace, _face
from tbmlearn.patterns import Pattern, sort_key
from tbmlearn.serialize import SCHEMA_VERSION


def contains(s, x) -> bool:
    return set(s) <= set(x)


def pattern_union(a, b) -> tuple:
    return tuple(sorted(set(a) | set(b)))


def enumerate_patterns(n_vars: int):
    """All subsets of the variable universe, as canonical tuples."""
    for mask in range(1 << n_vars):
        yield tuple(i for i in range(n_vars) if mask >> i & 1)


def brute_eta(probs: dict, x) -> float:
    """Expectation of the containment indicator under an explicit distribution."""
    return sum(p for s, p in probs.items() if contains(x, s))


def brute_support(dataset, pattern) -> int:
    return sum(c for x, c in dataset.entries.items() if contains(pattern, x))


def moment_gap(targets: dict, model) -> float:
    """Largest gap between ``targets`` and a Gibbs model's expectations of
    their patterns, each recounted over the model's outcomes by brute force."""
    probs = dict(zip(model.space.outcomes, np.exp(model.log_probs)))
    return max(abs(t - brute_eta(probs, p)) for p, t in targets.items())


def whole_domain_gap(dataset, domain, model) -> float:
    """Largest moment gap over every pattern of ``domain``, recounted by brute force."""
    return moment_gap({p: brute_support(dataset, p) / dataset.n_samples for p in domain}, model)


def dense_kl(p: dict, q: dict) -> float:
    total = 0.0
    for x, w in p.items():
        if w > 0:
            total += w * np.log(w / q[x])
    return total


def exact_sum(terms) -> float:
    """The correctly rounded sum of the floats ``terms``, added as exact fractions."""
    return float(sum(map(Fraction, terms), Fraction(0)))


def exact_proxy(energy, dataset) -> float:
    """The proxy error of the per-pattern ``energy`` on ``dataset``, one pattern
    at a time, normalized by an exact log-sum-exp and summed exactly."""
    n = dataset.n_samples
    log_weights = {x: -energy(x) for x in dataset.entries}
    top = max(log_weights.values())
    log_norm = top + math.log(exact_sum(np.exp(v - top) for v in log_weights.values()))
    return exact_sum(mult / n * (np.log(mult / n) - (log_weights[x] - log_norm))
                     for x, mult in dataset.entries.items())


def exact_scores(model, dataset) -> dict[str, float]:
    """``eval``'s scores of a Gibbs model, one pattern at a time, each the
    correctly rounded sum of its terms; the divergence's are
    ``w (log w - log q)`` for data frequency w and model probability q."""
    n = dataset.n_samples
    w = {x: mult / n for x, mult in dataset.entries.items()}
    log_q = {x: model.log_prob(x) for x in w}
    return {
        "kl": exact_sum(w[x] * (np.log(w[x]) - log_q[x]) for x in w),
        "loglik": exact_sum(mult * log_q[x] for x, mult in dataset.entries.items()),
        "entropy": -exact_sum(w[x] * np.log(w[x]) for x in w),
        "proxy_error": exact_proxy(model.energy, dataset),
    }


def iterative_scaling_mle(
    outcomes: list,
    patterns: list,
    targets: np.ndarray,
    tol: float = 1e-13,
    max_cycles: int = 200_000,
) -> np.ndarray:
    """Exponential-family MLE by cyclic iterative proportional fitting.

    Each step rescales the probabilities so one containment expectation
    matches its target exactly; cycling converges to the maximum-likelihood
    distribution when the targets are attainable by a positive distribution.
    Whether one is, an LP checks first: the largest smallest probability of
    a distribution matching the targets.  At most 1e-9 raises
    ``RuntimeError`` at once, where the cycles would only creep toward the
    boundary until ``max_cycles``.
    """
    outcome_sets = [set(x) for x in outcomes]
    masks = [
        np.array([set(b) <= xs for xs in outcome_sets], dtype=bool) for b in patterns
    ]
    for mask, t in zip(masks, targets):
        if not 0.0 < t < 1.0 or not mask.any() or mask.all():
            raise ValueError("targets must be attainable by a positive distribution")
    n = len(outcomes)
    # Variables (p, m): maximize m subject to Z p = targets, sum p = 1, p >= m.
    lp = linprog(
        np.append(np.zeros(n), -1.0),
        A_ub=np.hstack([-np.eye(n), np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.hstack([np.vstack(masks + [np.ones(n)]), np.zeros((len(masks) + 1, 1))]),
        b_eq=np.append(targets, 1.0),
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
    )
    if not lp.success or -lp.fun <= 1e-9:
        raise RuntimeError("no strictly positive distribution attains the targets")
    p = np.full(n, 1.0 / n)
    for _ in range(max_cycles):
        for mask, t in zip(masks, targets):
            current = p[mask].sum()
            p[mask] *= t / current
            p[~mask] *= (1.0 - t) / (1.0 - current)
        gap = max(abs(p[mask].sum() - t) for mask, t in zip(masks, targets))
        if gap <= tol:
            return p
    raise RuntimeError(f"iterative scaling did not reach {tol}, gap {gap}")


def random_dataset(rng: np.random.Generator, n_vars: int, n_samples: int,
                   support_size: int | None = None):
    """Counts dict for a dataset drawn from a random positive distribution."""
    universe = list(enumerate_patterns(n_vars))
    if support_size is not None and support_size < len(universe):
        idx = rng.choice(len(universe), size=support_size, replace=False)
        universe = [universe[i] for i in sorted(idx)]
    weights = rng.dirichlet(np.ones(len(universe)))
    counts = rng.multinomial(n_samples, weights)
    return {x: int(c) for x, c in zip(universe, counts) if c > 0}


def brute_force_domain(
    dataset: TransactionDataset, sigma: float, k: int
) -> ParameterDomain:
    """Reference enumeration over the full power set; for small universes only."""
    n = dataset.n_variables
    if n > 20:
        raise ValueError(f"brute force limited to 20 variables, got {n}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    threshold = support_threshold(sigma, dataset.n_samples)

    uniques = dataset.unique_patterns()
    weights = np.array([dataset.entries[t] for t in uniques], dtype=np.int64)
    trans_masks = np.array(
        [sum(1 << i for i in t) for t in uniques], dtype=np.int64
    )

    found: list[Pattern] = []
    candidates = np.arange(1, 1 << n, dtype=np.int64)
    sizes = np.array([int(m).bit_count() for m in candidates])
    candidates = candidates[sizes <= k]
    for lo in range(0, len(candidates), 1 << 14):
        block = candidates[lo : lo + (1 << 14)]
        contained = (block[:, None] & trans_masks[None, :]) == block[:, None]
        supports = contained @ weights
        for mask, supp in zip(block, supports):
            if supp >= threshold:
                found.append(tuple(i for i in range(n) if mask >> i & 1))

    return ParameterDomain(
        patterns=tuple(sorted(found, key=sort_key)), sigma=sigma, k=k
    )


def model_to_dict(model, report=None, meta=None) -> dict:
    """The object a model file holds; ``json.dumps(..., indent=2,
    sort_keys=True)`` of it plus a line feed is the file's text."""
    out = {"schema": SCHEMA_VERSION, "meta": meta or {}}
    if isinstance(model, GibbsModel):
        space = model.space
        bounds = space.indptr.tolist()
        out["kind"] = "tbm"
        out["sample_space"] = [space.items[space.indices[a:z]].tolist()
                               for a, z in zip(bounds, bounds[1:])]
    elif isinstance(model, FullBMModel):
        out["kind"] = "bm"
        out["n_variables"] = model.n_variables
    elif isinstance(model, RBMModel):
        out["kind"] = "rbm"
        out["n_variables"] = model.n_visible
        out["n_hidden"] = model.n_hidden
        out["visible_bias"] = model.visible_bias.tolist()
        out["hidden_bias"] = model.hidden_bias.tolist()
        out["weights"] = model.weights.tolist()
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    if not isinstance(model, RBMModel):
        out["domain"] = [list(p) for p in model.domain]
        out["theta"] = [float(v) for v in model.theta]
        out["log_partition"] = model.log_partition
    out["fit_report"] = None
    if report is not None:
        out["fit_report"] = asdict(report)
        out["fit_report"]["removed_parameters"] = [list(p) for p in report.removed_parameters]
    return out


def closure_by_pattern(normalizer: ReducedSpace, targets: np.ndarray):
    """``normalizer.closure(targets)`` by a loop over the patterns: each
    pattern's own rules (a target of 0 or 1), then each of its one-shorter
    subsets in the domain with an equal target, each rule ruling outcomes
    out in turn.  The face step and the constant rows after the rules are
    the package's."""
    patterns, z = normalizer.patterns, normalizer.incidence
    row = {p: j for j, p in enumerate(patterns)}

    def cols(j):
        return z.indices[z.indptr[j]:z.indptr[j + 1]]

    keep = np.ones(z.shape[1], dtype=bool)
    targets = targets.tolist()
    for j, u in enumerate(patterns):
        if targets[j] <= 0.0:
            keep[cols(j)] = False
        elif targets[j] >= 1.0:
            keep[np.setdiff1d(np.arange(keep.size), cols(j), assume_unique=True)] = False
        for s in (u[:i] + u[i + 1:] for i in range(len(u))):
            if s in row and targets[row[s]] == targets[j]:
                keep[np.setdiff1d(cols(row[s]), cols(j), assume_unique=True)] = False
    keep |= normalizer.support
    space, face, rows = normalizer.sample_space, z, np.arange(len(patterns))
    if not keep.all():
        space, face, rows = _face(space, face, keep)
    sizes = np.diff(face.indptr)
    constant = (sizes == 0) | (sizes == face.shape[1])
    if constant.any():
        face = face[np.flatnonzero(~constant)]
    elif face is z:
        return None
    leave = np.concatenate([np.setdiff1d(np.arange(len(patterns)), rows), rows[constant]])
    kept = [patterns[j] for j in rows[~constant]]
    return ReducedSpace(space, kept, face, normalizer.support[keep]), leave
