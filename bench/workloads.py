"""The three benchmark workloads: their inputs, timed legs and output checks.

Each workload is a closed loop with one caller: one operation runs its legs
in order, and the next operation starts only after the previous one
returned.  A leg is a timed block of calls into ``tbmlearn``; the checks run
after the legs, outside the timed region.  Every leg and every check is one
attempted operation in the :class:`Ledger`.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tbmlearn import (
    BiasVarianceConfig,
    EmpiricalDistribution,
    FitConfig,
    RBMConfig,
    bias_variance_experiment,
    dumps_model,
    entropy,
    evaluate_gibbs,
    fit_full_bm,
    fit_rbm_pcd1,
    fit_tbm,
    load_model,
    matched_hidden_units,
    mine_parameter_domain,
    parse_fimi,
    reconstruction_error_proxy,
)

from generators import STRUCTURE_SEED, basket_fimi, synth_fimi
from layers import ON_RESULT

CLI_TIMEOUT_S = 150
CHECK_TOL = 1e-9
# Moment checks look at this many random domain patterns plus the ones with
# the largest parameters, which sit closest to the boundary.
GAP_SAMPLE = 64
GAP_EXTREMES = 8


class Ledger:
    """Attempted and failed operations, with the cause of every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, cause: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(cause)

    def run(self, what: str, fn) -> bool:
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # a failed leg is reported, the run goes on
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return False
        return True

    def check(self, what: str, fn) -> None:
        """``fn`` returns ``None`` when the output is right, else a reason."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(f"check {what}: {problem}")


def _postings(patterns) -> dict[int, np.ndarray]:
    lists: dict[int, list[int]] = {}
    for i, pattern in enumerate(patterns):
        for item in pattern:
            lists.setdefault(item, []).append(i)
    return {item: np.array(ix, dtype=np.int64) for item, ix in lists.items()}


def _containing(postings, n: int, pattern) -> np.ndarray:
    rows = np.arange(n, dtype=np.int64)
    for item in pattern:
        rows = np.intersect1d(rows, postings.get(item, rows[:0]), assume_unique=True)
    return rows


def _rel_close(a: float, b: float, tol: float = CHECK_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Workload:
    """Shared plumbing: spans around library calls, CLI runs, TBM checks."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path, root: Path, ledger: Ledger):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.root = root
        self.ledger = ledger
        self.tracer = None
        self.op_index = 0
        self.out: dict = {}

    def prepare(self) -> None:
        """Untimed work before each operation's legs."""

    def call(self, span: str, fn, *args, **attrs):
        """Call into the package, inside a span when the run is traced."""
        if self.tracer is None:
            return fn(*args)
        with self.tracer.span(span, **attrs) as record:
            result = fn(*args)
        if span in ON_RESULT:
            ON_RESULT[span](record, result)
        return result

    def cli(self, *args: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "tbmlearn", *args],
            cwd=self.root,
            env=env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        self.out["cli_exit_code"] = max(self.out.get("cli_exit_code", 0), proc.returncode)
        if proc.returncode != 0:
            raise RuntimeError(
                f"tbmlearn {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            )

    def check_tbm(self, tag: str, dataset, model, report, tol: float) -> None:
        """Every output check on one fitted transductive model."""
        checks = {
            "converged": lambda: None if report.converged and report.final_gap <= tol
            else f"converged={report.converged} final_gap={report.final_gap}",
            "moment gap": lambda: self._independent_gap(dataset, model, tol),
            "probabilities sum to 1": lambda: _probabilities_sum_to_one(model),
            "log_partition": lambda: _log_partition_is_bottom(model),
            "kl identity": lambda: self._kl_identity(tag, dataset, model),
            "proxy finite": lambda: self._proxy_finite(tag, model.energy, dataset),
            "save/load": lambda: self._round_trip(tag, model, report),
        }
        for what, check in checks.items():
            self.ledger.check(f"{tag} {what}", check)

    def _independent_gap(self, dataset, model, tol: float) -> str | None:
        """Moment gap recounted from the data, not from ``empirical_targets``."""
        m = len(model.domain)
        if m == 0:
            return "empty domain"
        rng = np.random.default_rng(self.seed)
        picked = set(rng.choice(m, size=min(GAP_SAMPLE, m), replace=False).tolist())
        picked.update(np.argsort(-np.abs(model.theta))[:GAP_EXTREMES].tolist())
        transactions = list(dataset.entries)
        counts = np.array([dataset.entries[t] for t in transactions], dtype=np.int64)
        data_post = _postings(transactions)
        space_post = _postings(model.space.outcomes)
        probs = np.exp(model.log_probs)
        worst = 0.0
        for j in sorted(picked):
            pattern = model.domain[j]
            support = int(counts[_containing(data_post, len(transactions), pattern)].sum())
            eta_model = float(probs[_containing(space_post, len(probs), pattern)].sum())
            worst = max(worst, abs(support / dataset.n_samples - eta_model))
        return None if worst <= tol else f"recounted gap {worst:.3e} > {tol}"

    def _kl_identity(self, tag: str, dataset, model) -> str | None:
        evaluation = self.call("metrics.eval", evaluate_gibbs, model, dataset)
        p_hat = EmpiricalDistribution.from_dataset(dataset)
        h = self.call("metrics.entropy", entropy, p_hat)
        counts = np.array(list(dataset.entries.values()), dtype=np.float64)
        freq = counts / dataset.n_samples
        h_counts = float(-np.dot(freq, np.log(freq)))
        self.out.setdefault("evals", {})[tag] = {
            "kl": evaluation.kl, "loglik": evaluation.log_likelihood, "entropy": h,
        }
        if not _rel_close(h, h_counts):
            return f"entropy {h} != {h_counts} from counts"
        expected = -h - evaluation.log_likelihood / dataset.n_samples
        if not _rel_close(evaluation.kl, expected):
            return f"kl {evaluation.kl} != -H - loglik/N = {expected}"
        return None

    def _proxy_finite(self, tag: str, energy, dataset) -> str | None:
        value = self.call("metrics.proxy", reconstruction_error_proxy, energy, dataset)
        self.out.setdefault("proxies", {})[tag] = value
        return None if math.isfinite(value) else f"proxy error {value}"

    def _round_trip(self, tag: str, model, report) -> str | None:
        text = self.call("serialize.dumps", dumps_model, model, report, {"tag": tag})
        self.out["model_bytes"] = self.out.get("model_bytes", 0) + len(text.encode())
        path = self.workdir / f"roundtrip-{tag}.json"
        path.write_text(text)
        loaded, _, _ = self.call("serialize.load", load_model, path)
        return _same_model(model, loaded)


def _probabilities_sum_to_one(model) -> str | None:
    total = float(np.exp(model.log_probs).sum())
    return None if abs(total - 1.0) <= CHECK_TOL else f"probabilities sum to {total}"


def _log_partition_is_bottom(model) -> str | None:
    bottom = -model.log_prob(())
    if _rel_close(model.log_partition, bottom):
        return None
    return f"log_partition {model.log_partition} != -log p(bottom) = {bottom}"


def _same_model(expected, got) -> str | None:
    if tuple(got.domain) != tuple(expected.domain):
        return "domain differs"
    if got.space.outcomes != expected.space.outcomes:
        return "sample space differs"
    diff = float(np.max(np.abs(got.log_probs - expected.log_probs)))
    return None if diff <= 1e-12 else f"log_probs differ by {diff:.3e}"


class Basket(Workload):
    """Zipf basket, in-process fit, then ``fit-tbm`` and ``eval`` on the CLI."""

    name = "basket"
    FULL = dict(n_items=500, n_transactions=50_000, mean_length=8.0,
                zipf_exponent=1.0, n_rules=10)
    SMOKE = dict(n_items=60, n_transactions=1_500, mean_length=5.0,
                 zipf_exponent=1.0, n_rules=3)
    SIGMA = 0.005
    SMOKE_SIGMA = 0.02
    K = 3

    def generate(self) -> None:
        self.sigma = self.SMOKE_SIGMA if self.smoke else self.SIGMA
        self.text = basket_fimi(self.seed, **(self.SMOKE if self.smoke else self.FULL))
        self.fimi = self.workdir / "basket.fimi"
        self.fimi.write_text(self.text)

    def prepare(self) -> None:
        for name in ("model.json", "eval.json"):
            (self.workdir / name).unlink(missing_ok=True)

    def legs(self):
        return [("fit", True, self.fit), ("cli_fit", False, self.cli_fit),
                ("cli_eval", False, self.cli_eval)]

    def fit(self) -> None:
        dataset = self.call("patterns.parse", parse_fimi, self.text)
        model, report, _ = self.call(
            "fitting.fit_tbm", fit_tbm, dataset, self.sigma, self.K, k=self.K)
        self.out.update(dataset=dataset, model=model, report=report)

    def cli_fit(self) -> None:
        self.cli("fit-tbm", "--input", str(self.fimi), "--sigma", str(self.sigma),
                 "--k", str(self.K), "--out", str(self.workdir / "model.json"))

    def cli_eval(self) -> None:
        self.cli("eval", "--model", str(self.workdir / "model.json"),
                 "--input", str(self.fimi), "--out", str(self.workdir / "eval.json"))

    def check(self) -> None:
        if "model" in self.out:
            self.check_tbm("k3", self.out["dataset"], self.out["model"],
                           self.out["report"], FitConfig().tol)
        self.ledger.check("cli model equals in-process model", self._cli_model)
        self.ledger.check("cli eval equals in-process values", self._cli_eval)

    def _cli_model(self) -> str | None:
        if "model" not in self.out:
            return "no in-process model"
        loaded, _, _ = self.call("serialize.load", load_model, self.workdir / "model.json")
        return _same_model(self.out["model"], loaded)

    def _cli_eval(self) -> str | None:
        got = json.loads((self.workdir / "eval.json").read_text())
        want = dict(self.out["evals"]["k3"], proxy_error=self.out["proxies"]["k3"])
        bad = [key for key in want if not _rel_close(got[key], want[key])]
        return f"differs on {bad}: {got} vs {want}" if bad else None


class Synth(Workload):
    """The paper's synthetic protocol: TBM at k=1..3, full BM and RBM."""

    name = "synth"
    FULL = dict(n_vars=16, support_size=1000, n_samples=100_000)
    SMOKE = dict(n_vars=10, support_size=100, n_samples=5_000)
    SIGMA = 0.1
    RBM_UPDATES = 3000
    SMOKE_RBM_UPDATES = 200

    def generate(self) -> None:
        size = self.SMOKE if self.smoke else self.FULL
        self.texts = {0: synth_fimi([self.seed, 0], **size)}
        self.baseline_text = synth_fimi(STRUCTURE_SEED, **size)
        self.baseline_input = None

    def prepare(self) -> None:
        # Each operation fits the TBM on a dataset of its own, drawn from the
        # run's seed.  The baselines run on one fixed dataset: where the BM's
        # stall window falls swings its sweep count between 601 and 1201-1472
        # from one random draw to the next, which would make baseline time
        # bimodal across seeds.  A change to that count still shows in
        # ``baselines.bm_sweeps``.
        if self.op_index not in self.texts:
            size = self.SMOKE if self.smoke else self.FULL
            self.texts = {self.op_index: synth_fimi([self.seed, self.op_index], **size)}
        if self.baseline_input is None:
            dataset = parse_fimi(self.baseline_text)
            domain = mine_parameter_domain(dataset, self.SIGMA, 2)
            self.baseline_input = dataset, domain

    def legs(self):
        return [("fit", True, self.fit), ("baseline", True, self.baseline)]

    def fit(self) -> None:
        dataset = self.call("patterns.parse", parse_fimi, self.texts[self.op_index])
        self.out["dataset"] = dataset
        for k in (1, 2, 3):
            self.out[k] = self.call(
                "fitting.fit_tbm", fit_tbm, dataset, self.SIGMA, k, k=k)

    def baseline(self) -> None:
        dataset, domain = self.baseline_input
        self.out["bm"] = self.call("baselines.bm", fit_full_bm, dataset, domain)
        updates = self.SMOKE_RBM_UPDATES if self.smoke else self.RBM_UPDATES
        config = RBMConfig(n_updates=updates, seed=self.seed)
        hidden = matched_hidden_units(len(domain), dataset.n_variables)
        self.out["rbm"] = self.call("baselines.rbm", fit_rbm_pcd1, dataset, hidden, config)

    def check(self) -> None:
        tol = FitConfig().tol
        dataset = self.out.get("dataset")
        for k in (1, 2, 3):
            if k in self.out:
                model, report, _ = self.out[k]
                self.check_tbm(f"k{k}", dataset, model, report, tol)
        baseline_data = self.baseline_input[0]
        if "bm" in self.out:
            bm, bm_report = self.out["bm"]
            self.ledger.check("bm converged", lambda: None if bm_report.converged
                              else f"final_gap={bm_report.final_gap}")
            self.ledger.check("bm proxy finite",
                              lambda: self._proxy_finite("bm", bm.energy, baseline_data))
        if "rbm" in self.out:
            rbm = self.out["rbm"]
            self.ledger.check("rbm proxy finite",
                              lambda: self._proxy_finite("rbm", rbm.free_energy, baseline_data))


class Biasvar(Workload):
    """``bias_variance_experiment`` at the scale of acceptance criterion 7.

    Fit cost swings several-fold from one random truth to the next, so the
    truth (space, true distribution) is structure drawn from the fixed
    ``STRUCTURE_SEED``, as the basket rules and the synthetic support are.
    The run's seed draws each sample size within 5 % of 10^3, 10^4 and
    10^5, which changes every sampled dataset while the truth stays.
    """

    name = "biasvar"
    FULL = dict(space_size=200, n_vars=20, k=2, trials=200,
                domain_size_range=(20, 60))
    SMOKE = dict(space_size=40, n_vars=10, k=2, trials=5,
                 domain_size_range=(5, 15))
    SIZES = (1_000, 10_000, 100_000)
    SMOKE_SIZES = (100, 1_000)
    SIZE_JITTER = 0.05

    def generate(self) -> None:
        base = self.SMOKE if self.smoke else self.FULL
        sizes = np.array(self.SMOKE_SIZES if self.smoke else self.SIZES)
        jitter = np.random.default_rng(self.seed).uniform(-1, 1, size=len(sizes))
        sizes = np.rint(sizes * (1 + self.SIZE_JITTER * jitter)).astype(int)
        self.configs = [
            BiasVarianceConfig(n_samples=int(n), seed=STRUCTURE_SEED, **base)
            for n in sizes
        ]

    def legs(self):
        return [("experiment", True, self.experiment)]

    def experiment(self) -> None:
        self.out["reports"] = [
            self.call("experiments.experiment", bias_variance_experiment, cfg,
                      n=cfg.n_samples)
            for cfg in self.configs
        ]

    def check(self) -> None:
        for cfg, report in zip(self.configs, self.out.get("reports", [])):
            self.ledger.check(f"N={cfg.n_samples} report",
                              lambda cfg=cfg, r=report: _check_biasvar(cfg, r))
            # Each trial fit counts as one operation; a flagged trial removed
            # a parameter or did not converge.
            self.ledger.attempted += report.trials
            if report.n_flagged_trials:
                self.ledger.fail(
                    f"N={cfg.n_samples}: {report.n_flagged_trials} flagged trial fits",
                    report.n_flagged_trials,
                )


def _check_biasvar(cfg, report) -> str | None:
    lo, hi = cfg.domain_size_range
    if not lo <= report.domain_size <= hi:
        return f"domain size {report.domain_size} outside {lo}..{hi}"
    for name in ("kl_true_to_fit", "kl_proj_to_fit"):
        values = getattr(report, name)
        if values.shape != (cfg.trials,) or not np.all(np.isfinite(values)):
            return f"{name} is not {cfg.trials} finite values"
        if float(values.min()) < -CHECK_TOL:
            return f"{name} has a negative divergence {values.min()}"
    if not _rel_close(report.lower_bound, report.domain_size / (2 * cfg.n_samples)):
        return f"lower bound {report.lower_bound} != |B|/2N"
    if not (math.isfinite(report.bias) and report.bias >= -CHECK_TOL):
        return f"bias {report.bias}"
    return None


WORKLOADS = {w.name: w for w in (Basket, Synth, Biasvar)}
