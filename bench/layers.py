"""Per-layer metrics of the traced run, computed from the spans of one operation.

Layers are the ``tbmlearn`` modules.  Times are the summed span durations of
one operation, counts are summed over every call in it, and gaps take the
largest value.  The ``.k1`` to ``.k3`` metrics restrict a fitting metric to
the spans under the benchmark's own ``fit_tbm(k=...)`` call, so on ``synth``
each of the three fits reports on its own.
"""

from __future__ import annotations

from collections import defaultdict


def _set(**fields):
    return lambda span, result: span.attrs.update(
        {key: get(result) for key, get in fields.items()}
    )


_report = _set(
    sweeps=lambda r: r[1].iterations,
    evaluations=lambda r: r[1].evaluations,
    removed=lambda r: len(r[1].removed_parameters),
    final_gap=lambda r: r[1].final_gap,
)

# Copies counts from a call's result into its span, keyed by span name.
ON_RESULT = {
    "patterns.parse": _set(distinct=lambda r: len(r.entries)),
    "mining.mine": _set(size=len),
    "model.space": _set(size=len),
    "model.incidence": _set(nnz=lambda r: r.nnz),
    "fitting.fit": _report,
    "baselines.bm": _report,
    "experiments.experiment": _set(flagged=lambda r: r.n_flagged_trials),
}

# Calls made inside the package, wrapped under the name each caller looks up.
WRAPS = [
    ("tbmlearn.fitting.mine_parameter_domain", "mining.mine"),
    ("tbmlearn.experiments.mine_parameter_domain", "mining.mine"),
    ("tbmlearn.fitting.build_sample_space", "model.space"),
    ("tbmlearn.fitting.incidence_matrix", "model.incidence"),
    ("tbmlearn.experiments.incidence_matrix", "model.incidence"),
    ("tbmlearn.geometry.incidence_matrix", "model.incidence"),
    ("tbmlearn.fitting.empirical_targets", "fitting.targets"),
    ("tbmlearn.fitting.fit_to_moments", "fitting.fit"),
    ("tbmlearn.geometry.fit_to_moments", "fitting.fit"),
    ("tbmlearn.experiments.fit_to_moments", "fitting.fit"),
    ("tbmlearn.fitting.natural_direction", "fitting.fisher"),
    ("tbmlearn.fitting.interior_feasible", "fitting.lp"),
    ("tbmlearn.baselines.interior_feasible", "fitting.lp"),
    ("tbmlearn.experiments.m_projection", "geometry.m_projection"),
    ("tbmlearn.experiments.tune_sigma", "experiments.tune_sigma"),
]

K_VALUES = (1, 2, 3)
PER_K = [
    ("fitting.fit_s", "s"),
    ("fitting.sweeps", "count"),
    ("fitting.evaluations", "count"),
    ("fitting.removed", "count"),
    ("fitting.final_gap", "prob"),
    ("fitting.fisher_calls", "count"),
    ("fitting.fisher_s", "s"),
    ("fitting.lp_calls", "count"),
    ("mining.domain_size", "count"),
    ("model.nnz", "count"),
]

PER_LAYER = [
    ("patterns.parse_s", "s"),
    ("patterns.distinct", "count"),
    ("mining.mine_s", "s"),
    ("mining.domain_size", "count"),
    ("model.space_s", "s"),
    ("model.incidence_s", "s"),
    ("model.space_size", "count"),
    ("model.nnz", "count"),
    ("fitting.targets_s", "s"),
    ("fitting.fit_s", "s"),
    ("fitting.fits", "count"),
    ("fitting.sweeps", "count"),
    ("fitting.evaluations", "count"),
    ("fitting.removed", "count"),
    ("fitting.final_gap", "prob"),
    ("fitting.fisher_calls", "count"),
    ("fitting.fisher_s", "s"),
    ("fitting.lp_calls", "count"),
    ("fitting.lp_s", "s"),
    ("fitting.sweep_self_us", "us"),
    *[(f"{name}.k{k}", unit) for k in K_VALUES for name, unit in PER_K],
    ("baselines.baseline_s", "s"),
    ("baselines.bm_s", "s"),
    ("baselines.bm_sweeps", "count"),
    ("baselines.bm_evaluations", "count"),
    ("baselines.rbm_s", "s"),
    ("metrics.eval_s", "s"),
    ("metrics.proxy_s", "s"),
    ("metrics.entropy_s", "s"),
    ("geometry.m_projection_s", "s"),
    ("experiments.experiment_s", "s"),
    ("experiments.tune_sigma_s", "s"),
    ("experiments.trial_fits", "count"),
    ("experiments.flagged_trials", "count"),
    ("serialize.dumps_s", "s"),
    ("serialize.load_s", "s"),
    ("serialize.model_bytes", "bytes"),
    ("cli.fit_tbm_s", "s"),
    ("cli.eval_s", "s"),
    ("cli.import_s", "s"),
    ("cli.peak_rss_mb", "MB"),
    ("cli.exit_code", "code"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.missing_wraps", "count"),
]

# Layer metrics read straight from the timed legs of the operation.
LEG_METRICS = {
    "baselines.baseline_s": "baseline",
    "experiments.experiment_s": "experiment",
    "cli.fit_tbm_s": "cli_fit",
    "cli.eval_s": "cli_eval",
}


def span_metrics(tracer, op: int) -> dict[str, float]:
    """Every span-derived layer metric of operation ``op``."""
    spans = tracer.spans
    ids = [i for i, s in enumerate(spans) if s.op == op]
    covered: dict[int, float] = defaultdict(float)
    k_of: dict[int, int | None] = {}
    for i in ids:
        span = spans[i]
        if span.parent is not None:
            covered[span.parent] += span.duration
        if span.name == "fitting.fit_tbm":
            k_of[i] = span.attrs["k"]
        else:
            k_of[i] = k_of.get(span.parent)

    def sel(name, k=None):
        return [i for i in ids if spans[i].name == name and (k is None or k_of[i] == k)]

    def dur(sel_ids):
        return sum(spans[i].duration for i in sel_ids)

    def total(sel_ids, key):
        return sum(spans[i].attrs.get(key, 0) for i in sel_ids)

    def largest(sel_ids, key):
        return max((spans[i].attrs.get(key, 0) for i in sel_ids), default=0)

    def fitting(out, suffix="", k=None):
        fits = sel("fitting.fit", k)
        fisher = sel("fitting.fisher", k)
        out[f"fitting.fit_s{suffix}"] = dur(fits)
        out[f"fitting.sweeps{suffix}"] = total(fits, "sweeps")
        out[f"fitting.evaluations{suffix}"] = total(fits, "evaluations")
        out[f"fitting.removed{suffix}"] = total(fits, "removed")
        out[f"fitting.final_gap{suffix}"] = largest(fits, "final_gap")
        out[f"fitting.fisher_calls{suffix}"] = len(fisher)
        out[f"fitting.fisher_s{suffix}"] = dur(fisher)
        out[f"fitting.lp_calls{suffix}"] = len(sel("fitting.lp", k))
        out[f"mining.domain_size{suffix}"] = total(sel("mining.mine", k), "size")
        out[f"model.nnz{suffix}"] = total(sel("model.incidence", k), "nnz")
        return fits

    out: dict[str, float] = {}
    fits = fitting(out)
    for k in K_VALUES:
        fitting(out, f".k{k}", k)
    sweeps = out["fitting.sweeps"]
    fit_self = sum(spans[i].duration - covered[i] for i in fits)
    bm = sel("baselines.bm")
    out.update({
        "patterns.parse_s": dur(sel("patterns.parse")),
        "patterns.distinct": largest(sel("patterns.parse"), "distinct"),
        "mining.mine_s": dur(sel("mining.mine")),
        "model.space_s": dur(sel("model.space")),
        "model.incidence_s": dur(sel("model.incidence")),
        "model.space_size": total(sel("model.space"), "size"),
        "fitting.targets_s": dur(sel("fitting.targets")),
        "fitting.fits": len(fits),
        "fitting.lp_s": dur(sel("fitting.lp")),
        "fitting.sweep_self_us": 1e6 * fit_self / sweeps if sweeps else 0.0,
        "baselines.bm_s": dur(bm),
        "baselines.bm_sweeps": total(bm, "sweeps"),
        "baselines.bm_evaluations": total(bm, "evaluations"),
        "baselines.rbm_s": dur(sel("baselines.rbm")),
        "metrics.eval_s": dur(sel("metrics.eval")),
        "metrics.proxy_s": dur(sel("metrics.proxy")),
        "metrics.entropy_s": dur(sel("metrics.entropy")),
        "geometry.m_projection_s": dur(sel("geometry.m_projection")),
        "experiments.tune_sigma_s": dur(sel("experiments.tune_sigma")),
        "experiments.trial_fits": sum(
            1 for i in fits if spans[i].attrs.get("site") == "tbmlearn.experiments.fit_to_moments"
        ),
        "experiments.flagged_trials": total(sel("experiments.experiment"), "flagged"),
        "serialize.dumps_s": dur(sel("serialize.dumps")),
        "serialize.load_s": dur(sel("serialize.load")),
        "trace.spans": len(ids),
        "trace.missing_wraps": len(tracer.missing),
    })
    return out
