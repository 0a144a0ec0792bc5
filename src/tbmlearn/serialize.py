"""Versioned JSON persistence for fitted models."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from .baselines import FULL_BM_MAX_VARIABLES, FullBMModel, RBMModel
from .fitting import FitReport
from .model import GibbsModel, SampleSpace
from .patterns import is_canonical

SCHEMA_VERSION = 1
_REQUIRED_KEYS = {
    "tbm": ("sample_space", "domain", "theta"),
    "bm": ("n_variables", "domain", "theta"),
    "rbm": ("visible_bias", "hidden_bias", "weights"),
}


def _report_dict(report: FitReport | None) -> dict | None:
    if report is None:
        return None
    out = asdict(report)
    out["removed_parameters"] = [list(p) for p in report.removed_parameters]
    return out


def _report_from(obj: dict | None) -> FitReport | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ValueError(f"fit_report must be a JSON object, not {type(obj).__name__}")
    kwargs = dict(obj)
    try:
        kwargs["removed_parameters"] = tuple(
            tuple(p) for p in kwargs["removed_parameters"]
        )
        return FitReport(**kwargs)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed fit_report: {exc!r}") from None


def _floats(obj: dict, field: str) -> np.ndarray:
    """The numbers under ``field`` as a float array."""
    try:
        return np.array(obj[field], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{field} must hold numbers only") from None


def _pattern_list(obj: dict, field: str) -> list[tuple]:
    """The patterns under ``field``, which must be a list of lists."""
    if not isinstance(obj[field], list) or not all(isinstance(p, list) for p in obj[field]):
        raise ValueError(f"{field} must be a list of item lists")
    return [tuple(p) for p in obj[field]]


def _canonical(patterns, field: str) -> None:
    """Reject a pattern that is not strictly increasing non-negative integers:
    a repeated or unsorted item would land on another outcome."""
    for p in patterns:
        if not (all(type(i) is int for i in p) and is_canonical(p)):
            raise ValueError(
                f"{field} pattern {p} is not strictly increasing non-negative integers"
            )


def model_to_dict(
    model: GibbsModel | FullBMModel | RBMModel,
    report: FitReport | None = None,
    meta: dict[str, Any] | None = None,
) -> dict:
    out: dict[str, Any] = {"schema": SCHEMA_VERSION, "meta": meta or {}}
    if isinstance(model, GibbsModel):
        out["kind"] = "tbm"
        out["sample_space"] = [list(x) for x in model.space.outcomes]
        out["domain"] = [list(p) for p in model.domain]
        out["theta"] = [float(v) for v in model.theta]
        out["log_partition"] = model.log_partition
    elif isinstance(model, FullBMModel):
        out["kind"] = "bm"
        out["n_variables"] = model.n_variables
        out["domain"] = [list(p) for p in model.domain]
        out["theta"] = [float(v) for v in model.theta]
        out["log_partition"] = model.log_partition
    elif isinstance(model, RBMModel):
        out["kind"] = "rbm"
        out["n_variables"] = model.n_visible
        out["n_hidden"] = model.n_hidden
        out["visible_bias"] = model.visible_bias.tolist()
        out["hidden_bias"] = model.hidden_bias.tolist()
        out["weights"] = model.weights.tolist()
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    out["fit_report"] = _report_dict(report)
    return out


def model_from_dict(obj: dict) -> tuple[Any, FitReport | None, dict]:
    """Rebuild a model, raising ``ValueError`` on any schema violation."""
    if not isinstance(obj, dict):
        raise ValueError(f"a model must be a JSON object, not {type(obj).__name__}")
    if obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema {obj.get('schema')!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _REQUIRED_KEYS:
        raise ValueError(f"unknown model kind {kind!r}")
    missing = [key for key in _REQUIRED_KEYS[kind] if key not in obj]
    if missing:
        raise ValueError(f"{kind} model lacks {', '.join(missing)}")
    report = _report_from(obj.get("fit_report"))
    meta = obj.get("meta", {})
    if kind == "rbm":
        visible, hidden, weights = (_floats(obj, key) for key in _REQUIRED_KEYS["rbm"])
        if visible.ndim != 1 or hidden.ndim != 1:
            raise ValueError("visible_bias and hidden_bias must be lists of numbers")
        if weights.shape == (0,):
            # JSON writes a matrix with no visible units as [].
            weights = weights.reshape(0, hidden.size)
        if weights.shape != (visible.size, hidden.size):
            raise ValueError(
                f"weights must be {visible.size} x {hidden.size}, got shape {weights.shape}"
            )
        if not all(np.all(np.isfinite(a)) for a in (visible, hidden, weights)):
            raise ValueError("rbm values must be finite")
        return RBMModel(visible, hidden, weights), report, meta
    domain = tuple(_pattern_list(obj, "domain"))
    theta = _floats(obj, "theta")
    if theta.shape != (len(domain),):
        raise ValueError(f"theta has {theta.size} values for {len(domain)} patterns")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta values must be finite")
    if kind == "tbm":
        outcomes = _pattern_list(obj, "sample_space")
        _canonical(outcomes, "sample_space")
        _canonical(domain, "domain")
        # A fit on a face keeps patterns that are not outcomes themselves,
        # but each one lies in some outcome: its row of Z is not empty.
        model = GibbsModel(SampleSpace.from_patterns(outcomes), domain, theta)
        empty = np.flatnonzero(np.diff(model.incidence.indptr) == 0)
        if empty.size:
            raise ValueError(f"domain pattern {domain[empty[0]]} lies in no outcome")
        return model, report, meta
    n = obj["n_variables"]
    if not isinstance(n, int) or not 0 <= n <= FULL_BM_MAX_VARIABLES:
        raise ValueError(
            f"n_variables must be an integer in 0..{FULL_BM_MAX_VARIABLES}, got {n!r}"
        )
    outside = [p for p in domain if not all(isinstance(i, int) and 0 <= i < n for i in p)]
    if outside:
        raise ValueError(f"domain pattern {outside[0]} has an item outside 0..{n - 1}")
    _canonical(domain, "domain")
    return FullBMModel.from_theta(n, domain, theta), report, meta


def dumps_model(model, report=None, meta=None) -> str:
    return json.dumps(model_to_dict(model, report, meta), indent=2, sort_keys=True) + "\n"


def save_model(path: str | Path, model, report=None, meta=None) -> None:
    Path(path).write_text(dumps_model(model, report, meta))


def load_model(path: str | Path) -> tuple[Any, FitReport | None, dict]:
    return model_from_dict(json.loads(Path(path).read_text()))
