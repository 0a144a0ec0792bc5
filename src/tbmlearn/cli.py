"""Command-line interface: mining, fitting, evaluation, and experiments.

Exit codes: 0 success, 2 usage error, 3 data or resource error, 4 the fit
removed every parameter (each empty or constant on the face it ended on, or
an alias there) and wrote the uniform model.  Only a face removes a
parameter, so a fit with no face (a full BM over the cube's bound on Z, or
no LP verdict) keeps them all and exits 0, with a warning if it stopped
unconverged.  Every stochastic subcommand takes a seed and produces
identical primary output for identical inputs; measured wall-clock columns
are the one exception.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from pathlib import Path

from .baselines import (
    FULL_BM_MAX_VARIABLES,
    RBMConfig,
    RBMModel,
    _check_rbm_budget,
    fit_full_bm,
    fit_rbm_pcd1,
    matched_hidden_units,
)
from .experiments import BiasVarianceConfig, bias_variance_experiment, synth_dataset
from .fitting import FitConfig, fit, fit_tbm
from .metrics import entropy, evaluate_gibbs, reconstruction_error_proxy
from .mining import DomainSizeError, mine_parameter_domain
from .patterns import TransactionDataset, format_fimi, parse_fimi
from . import __version__
from .serialize import dumps_model, load_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _read_dataset(args) -> TransactionDataset:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.input).read_text()
    return parse_fimi(text, empty_as_bottom=args.empty_transactions == "bottom")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _fit_config(args) -> FitConfig:
    return FitConfig(tol=args.tol, max_sweeps=args.max_iters)


def _add_input_options(parser) -> None:
    parser.add_argument("--input", required=True, help="FIMI transaction file, or - for stdin")
    parser.add_argument(
        "--empty-transactions",
        choices=("skip", "bottom"),
        default="skip",
        help="treat empty lines as observations of the empty pattern",
    )


def _checked(convert, holds, words: str):
    """An argparse type that converts, then requires ``holds(value)``."""

    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {words}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


_non_negative_float = _checked(float, lambda v: v >= 0, "non-negative")
_non_negative_int = _checked(int, lambda v: v >= 0, "non-negative")
_positive_int = _checked(int, lambda v: v > 0, "positive")
_positive_finite_float = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")


def _add_fit_options(parser) -> None:
    parser.add_argument(
        "--tol", type=_non_negative_float, default=1e-6, help="moment-gap tolerance"
    )
    parser.add_argument(
        "--max-iters", type=_non_negative_int, default=10_000, help="iteration budget"
    )


def cmd_mine(args) -> int:
    dataset = _read_dataset(args)
    domain = mine_parameter_domain(
        dataset, args.sigma, args.k, max_domain_size=args.max_domain_size
    )
    header = json.dumps(
        {
            "sigma": args.sigma,
            "k": args.k,
            "n": dataset.n_variables,
            "N": dataset.n_samples,
            "size": len(domain),
        },
        sort_keys=True,
    )
    lines = [header]
    lines.extend(" ".join(str(i) for i in p) for p in sorted(domain.patterns))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _write_fit(args, model, report, meta) -> int:
    """Write a fitted model; warn on stderr when the fit did not converge."""
    _write_text(args.out, dumps_model(model, report, meta))
    if report.domain_emptied:
        print("warning: the fit removed every parameter", file=sys.stderr)
        return EXIT_NUMERIC
    if not report.converged:
        print(f"warning: fit stopped unconverged after {report.iterations} iterations: "
              f"moment gap {report.final_gap:.3g} above tol {args.tol:g}", file=sys.stderr)
    return EXIT_OK


def cmd_fit_tbm(args) -> int:
    dataset = _read_dataset(args)
    model, report, domain = fit_tbm(dataset, args.sigma, args.k, _fit_config(args))
    meta = {
        "sigma": args.sigma,
        "k": args.k,
        "n_variables": dataset.n_variables,
        "n_samples": dataset.n_samples,
        "mined_domain_size": len(domain),
    }
    return _write_fit(args, model, report, meta)


def cmd_fit_bm(args) -> int:
    dataset = _read_dataset(args)
    domain = mine_parameter_domain(dataset, args.sigma, args.k)
    model, report = fit_full_bm(dataset, domain, _fit_config(args))
    meta = {
        "sigma": args.sigma,
        "k": args.k,
        "n_variables": dataset.n_variables,
        "n_samples": dataset.n_samples,
    }
    return _write_fit(args, model, report, meta)


def cmd_fit_rbm(args) -> int:
    dataset = _read_dataset(args)
    if args.hidden is not None:
        n_hidden = args.hidden
    else:
        n_hidden = matched_hidden_units(args.match_params, dataset.n_variables)
    config = RBMConfig(
        learning_rate=args.lr,
        n_updates=args.updates,
        n_chains=args.chains,
        seed=args.seed,
    )
    model = fit_rbm_pcd1(dataset, n_hidden, config)
    meta = {
        "n_variables": dataset.n_variables,
        "n_samples": dataset.n_samples,
        "seed": args.seed,
        "learning_rate": args.lr,
        "n_updates": args.updates,
        "n_chains": args.chains,
    }
    _write_text(args.out, dumps_model(model, None, meta))
    return EXIT_OK


def _score(model, dataset: TransactionDataset) -> tuple[float | None, float | None, float]:
    """``(kl, loglik, proxy)`` of a model on a dataset; an RBM has no exact
    divergence or likelihood, and its proxy scores its free energy."""
    if isinstance(model, RBMModel):
        return None, None, reconstruction_error_proxy(model.free_energy, dataset)
    evaluation = evaluate_gibbs(model, dataset)
    return evaluation.kl, evaluation.log_likelihood, evaluation.proxy_error


def cmd_eval(args) -> int:
    model, _, _ = load_model(args.model)
    dataset = _read_dataset(args)
    kl, loglik, proxy = _score(model, dataset)
    result = {"kl": kl, "loglik": loglik, "entropy": entropy(dataset), "proxy_error": proxy}
    _write_text(args.out, json.dumps(result, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_synth(args) -> int:
    dataset, truth = synth_dataset(
        args.n_vars, args.support_size, args.n, seed=args.seed
    )
    _write_text(args.out, format_fimi(dataset))
    truth_obj = {
        "schema": 1,
        "n_variables": args.n_vars,
        "support": [list(p) for p in truth.support],
        "probs": [truth.probs[p] for p in truth.support],
        "seed": args.seed,
    }
    _write_text(args.truth_out, json.dumps(truth_obj, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_biasvar(args) -> int:
    if (args.min_domain is None) != (args.max_domain is None):
        raise ValueError("--min-domain and --max-domain must be given together")
    cfg = BiasVarianceConfig(
        space_size=args.space_size,
        n_vars=args.n_vars,
        k=args.k,
        n_samples=args.n,
        trials=args.trials,
        sigma=args.sigma,
        domain_size_range=(
            (args.min_domain, args.max_domain)
            if args.min_domain is not None
            else None
        ),
        seed=args.seed,
    )
    report = bias_variance_experiment(cfg)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["trial", "kl_true_to_fit", "kl_proj_to_fit", "bound"])
    for i in range(report.trials):
        writer.writerow(
            [
                i,
                repr(float(report.kl_true_to_fit[i])),
                repr(float(report.kl_proj_to_fit[i])),
                repr(float(report.lower_bound)),
            ]
        )
    _write_text(args.out, buffer.getvalue())
    summary = {
        "bias": report.bias,
        "variance_mean": report.variance_mean,
        "variance_std": report.variance_std,
        "variance_stderr": report.variance_stderr,
        "lower_bound": report.lower_bound,
        "trials": report.trials,
        "N": report.n_samples,
        "sample_space_size": report.sample_space_size,
        "domain_size": report.domain_size,
        "sigma": report.sigma,
        "flagged_trials": report.n_flagged_trials,
        "face_trials": report.n_face_trials,
    }
    stream = sys.stderr if args.out == "-" else sys.stdout
    print(json.dumps(summary, indent=2, sort_keys=True), file=stream)
    return EXIT_OK


def cmd_compare(args) -> int:
    dataset = _read_dataset(args)
    rbm_config = RBMConfig(
        learning_rate=args.rbm_lr,
        n_updates=args.rbm_updates,
        n_chains=args.rbm_chains,
        seed=args.seed,
    )

    # Fits import scipy at first use; imported here, no learner's clock pays for it.
    import scipy.linalg, scipy.sparse  # noqa: E401, F401

    start = time.perf_counter()
    domain = mine_parameter_domain(dataset, args.sigma, args.k)
    # The RBM's size follows from the domain alone: refuse it before any fit.
    n_hidden = matched_hidden_units(len(domain), dataset.n_variables)
    _check_rbm_budget(dataset, n_hidden, rbm_config)
    learners = (
        ("tbm", lambda: fit(dataset, domain, _fit_config(args))[0]),
        ("bm", lambda: fit_full_bm(dataset, domain, _fit_config(args))[0]),
        ("rbm", lambda: fit_rbm_pcd1(dataset, n_hidden, rbm_config)),
    )
    rows = []
    for method, learn in learners:
        row = {"method": method, "param_count": len(domain), "status": "ok"}
        if method == "bm" and dataset.n_variables > FULL_BM_MAX_VARIABLES:
            row["proxy_error"] = row["wall_time_sec"] = None
            row["status"] = f"infeasible: {dataset.n_variables} variables need 2^n enumeration"
        else:
            # Each clock starts after the previous learner's proxy; the tbm's
            # takes in the mining.
            model = learn()
            row["wall_time_sec"] = time.perf_counter() - start
            if isinstance(model, RBMModel):
                row["param_count"] = model.param_count
            row["proxy_error"] = _score(model, dataset)[2]
            start = time.perf_counter()
        rows.append(row)

    if args.format == "json":
        _write_text(args.out, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["method", "param_count", "proxy_error", "wall_time_sec", "status"])
        for row in rows:
            writer.writerow(
                [
                    row["method"],
                    row["param_count"],
                    "" if row["proxy_error"] is None else repr(row["proxy_error"]),
                    "" if row["wall_time_sec"] is None else f"{row['wall_time_sec']:.3f}",
                    row["status"],
                ]
            )
        _write_text(args.out, buffer.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbmlearn",
        description="Transductive Boltzmann machines: exact Gibbs-distribution "
        "learning on data-derived sample spaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="enumerate the parameter domain")
    _add_input_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-domain-size", type=_non_negative_int, default=10_000_000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("fit-tbm", help="mine a domain and fit the transductive model")
    _add_input_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_fit_options(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fit_tbm)

    p = sub.add_parser("fit-bm", help="fit the exact fully visible Boltzmann machine")
    _add_input_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_fit_options(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fit_bm)

    p = sub.add_parser("fit-rbm", help="train an RBM with persistent CD-1")
    _add_input_options(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hidden", type=_positive_int, help="number of hidden units")
    group.add_argument(
        "--match-params",
        type=_positive_int,
        help="choose hidden units to match this parameter budget",
    )
    p.add_argument("--lr", type=_positive_finite_float, default=0.01)
    p.add_argument("--updates", type=_non_negative_int, default=10_000)
    p.add_argument("--chains", type=_positive_int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fit_rbm)

    p = sub.add_parser("eval", help="evaluate a saved model against a dataset")
    p.add_argument("--model", required=True)
    _add_input_options(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset plus ground truth")
    p.add_argument("--n-vars", type=int, required=True)
    p.add_argument("--support-size", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True, help="FIMI output path")
    p.add_argument("--truth-out", required=True, help="truth JSON output path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("biasvar", help="run the bias-variance estimation harness")
    p.add_argument("--space-size", type=int, required=True)
    p.add_argument("--n-vars", type=int, required=True)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="sample size per trial")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--min-domain", type=int, default=None)
    p.add_argument("--max-domain", type=int, default=None)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default="-", help="per-trial CSV output")
    p.set_defaults(func=cmd_biasvar)

    p = sub.add_parser("compare", help="fit TBM, BM, and RBM on one dataset")
    _add_input_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_fit_options(p)
    p.add_argument("--rbm-lr", type=_positive_finite_float, default=0.01)
    p.add_argument("--rbm-updates", type=_non_negative_int, default=10_000)
    p.add_argument("--rbm-chains", type=_positive_int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (DomainSizeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
