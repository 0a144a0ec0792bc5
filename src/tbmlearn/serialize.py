"""Versioned JSON persistence for fitted models.

A model file is one JSON object as ``json.dumps(obj, indent=2,
sort_keys=True)`` lays it out, plus a line feed.  It holds ``schema``,
``kind``, ``meta`` and ``fit_report``, and then ``sample_space`` (outcomes
as item lists), ``domain``, ``theta`` and ``log_partition`` for a tbm;
``n_variables``, ``domain``, ``theta`` and ``log_partition`` for a bm;
``n_variables``, ``n_hidden``, ``visible_bias``, ``hidden_bias`` and
``weights`` (a row per visible unit) for an rbm.  :func:`dumps_model` writes
that layout itself, straight from the model's arrays, so no list per
outcome is built and Python's pure-Python indenting encoder never runs.
Numbers are written by ``json``'s own compact encoder (floats as
``float.__repr__``, ints as ``int.__repr__``, non-finite floats as ``NaN``
and ``Infinity``) and strings, ``meta`` and the fit report by ``json.dumps``
itself, re-indented to their depth.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from .baselines import FULL_BM_MAX_VARIABLES, FullBMModel, FullCube, RBMModel
from .fitting import FitReport
from .model import GibbsModel, SampleSpace
from .patterns import flatten, flatten_canonical

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


def _pattern_list(obj: dict, field: str) -> list[list]:
    """The patterns under ``field``, which must be a list of lists."""
    if not isinstance(obj[field], list) or not all(isinstance(p, list) for p in obj[field]):
        raise ValueError(f"{field} must be a list of item lists")
    return obj[field]


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
    domain = tuple(map(tuple, _pattern_list(obj, "domain")))
    theta = _floats(obj, "theta")
    if theta.shape != (len(domain),):
        raise ValueError(f"theta has {theta.size} values for {len(domain)} patterns")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta values must be finite")
    if kind == "tbm":
        outcomes = _pattern_list(obj, "sample_space")
        space = SampleSpace.from_patterns(outcomes)
        flatten_canonical(domain, "domain")
        # A fit on a face keeps patterns that are not outcomes themselves,
        # but each one lies in some outcome: its row of Z is not empty.
        model = GibbsModel(space, domain, theta)
        empty = np.flatnonzero(np.diff(model.incidence_rows[0]) == 0)
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
    flatten_canonical(domain, "domain")
    return FullCube(n, domain).model(theta), report, meta


def _json(value: Any) -> str:
    """``value`` laid out by ``json.dumps(indent=2, sort_keys=True)`` as a
    top-level field of a model file."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def _block(parts: list[str], depth: int, brackets: str = "[]") -> str:
    """An array (or object) of already laid out ``parts`` at nesting ``depth``,
    one part per line, as ``json.dumps(indent=2)`` writes it."""
    if not parts:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(parts) + "\n" + "  " * depth + brackets[1]


def _numbers(values: list) -> list[str]:
    """Each number as ``json`` writes it, through its compact encoder."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _rows(cells: list[str], indptr: np.ndarray) -> str:
    """The CSR rows of written identifiers as the array of arrays of a field.
    Each row is ``_block(row, 2)`` written out, as this runs once per outcome."""
    bounds = indptr.tolist()
    inner = ",\n      "
    return _block([f"[\n      {inner.join(cells[a:z])}\n    ]" if z > a else "[]"
                   for a, z in zip(bounds, bounds[1:])], 1)


def dumps_model(model, report=None, meta=None) -> str:
    """The model file of ``model``, in the layout of the module docstring."""
    fields = {"schema": _json(SCHEMA_VERSION), "meta": _json(meta or {}),
              "fit_report": _json(_report_dict(report))}
    if isinstance(model, (GibbsModel, FullBMModel)):
        domain_indptr, domain_ids = flatten(model.domain)
        fields["domain"] = _rows(_numbers(domain_ids.tolist()), domain_indptr)
        fields["theta"] = _block(_numbers(model.theta.tolist()), 1)
        fields["log_partition"] = _json(model.log_partition)
    if isinstance(model, GibbsModel):
        space = model.space
        items = np.array(_numbers(space.items.tolist()), dtype=object)
        fields["kind"] = _json("tbm")
        fields["sample_space"] = _rows(items[space.indices].tolist(), space.indptr)
    elif isinstance(model, FullBMModel):
        fields["kind"] = _json("bm")
        fields["n_variables"] = _json(model.n_variables)
    elif isinstance(model, RBMModel):
        fields["kind"] = _json("rbm")
        fields["n_variables"] = _json(model.n_visible)
        fields["n_hidden"] = _json(model.n_hidden)
        fields["visible_bias"] = _block(_numbers(model.visible_bias.tolist()), 1)
        fields["hidden_bias"] = _block(_numbers(model.hidden_bias.tolist()), 1)
        fields["weights"] = _block([_block(_numbers(row), 2) for row in model.weights.tolist()], 1)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    lines = [f"{json.dumps(key)}: {text}" for key, text in sorted(fields.items())]
    return _block(lines, 0, "{}") + "\n"


def save_model(path: str | Path, model, report=None, meta=None) -> None:
    Path(path).write_text(dumps_model(model, report, meta))


def load_model(path: str | Path) -> tuple[Any, FitReport | None, dict]:
    return model_from_dict(json.loads(Path(path).read_text()))
