"""Layer-by-layer benchmark of tbmlearn.

Usage, from the root of a checkout:

    python3 bench/run.py --workload basket --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1
    python3 bench/run.py --workload synth --smoke

Each workload runs in a process of its own as a closed loop with one
caller.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  A readable summary and the machine
record go to standard error, and the full record, spans included, to
``bench/out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()

# Pinned before numpy loads so every leg, the CLI subprocesses and both
# sides of any comparison run with the same BLAS thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("basket", "synth", "biasvar")
# A run stops starting operations once the next one would end past this.
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("fit_s", "s"),
    ("peak_rss_mb", "MB"),
]
# The timed leg that ``fit_s`` reads on each workload.
FIT_LEG = {"basket": "fit", "synth": "fit", "biasvar": "experiment"}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tbmlearn; "
    "print(time.perf_counter() - t)"
)


def import_tbmlearn() -> float:
    """Import the package from this checkout's ``src``; returns the seconds taken."""
    if not (SRC / "tbmlearn" / "__init__.py").is_file():
        raise ImportError(f"no tbmlearn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tbmlearn

    elapsed = time.perf_counter() - start
    if SRC.resolve() not in Path(tbmlearn.__file__).resolve().parents:
        raise ImportError(f"tbmlearn was imported from {tbmlearn.__file__}, not {SRC}")
    return elapsed


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_import_s() -> float:
    """Import time of tbmlearn in a new interpreter, as the CLI pays it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip())


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "memory_gb": round(memory / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(args) -> dict:
    import_s = import_tbmlearn()
    from layers import LEG_METRICS, ON_RESULT, PER_LAYER, WRAPS, span_metrics
    from tracing import Tracer
    from workloads import WORKLOADS, Ledger

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir, ROOT, ledger)
    tracer = Tracer() if args.trace else None
    try:
        # Set-up: the first sample runs from process start through the
        # in-process import; the others import in a fresh interpreter.
        # Each generates the inputs again.
        setup, imports = [], [import_s]
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.generate()
            generate_s = time.perf_counter() - start
            if repeat == 0:
                setup.append(start - PROCESS_START + generate_s)
            else:
                imports.append(fresh_import_s())
                setup.append(imports[-1] + generate_s)

        def run_legs(op_index, in_process_only=False):
            workload.out = {}
            workload.op_index = op_index
            workload.prepare()
            gc.collect()
            times = {}
            for leg, in_process, fn in workload.legs():
                if in_process_only and not in_process:
                    continue
                start = time.perf_counter()
                if tracer is not None:
                    with tracer.span(f"leg.{leg}"):
                        ok = ledger.run(leg, fn)
                else:
                    ok = ledger.run(leg, fn)
                times[leg] = time.perf_counter() - start
                if not ok:
                    times.pop(leg)
            return times

        untraced_lib_s = None
        if tracer is not None:
            # Reference for the tracing overhead: the in-process legs of the
            # first operation once untraced, before any function is wrapped.
            untraced_lib_s = sum(run_legs(0, in_process_only=True).values())
            for target, name in WRAPS:
                tracer.wrap(target, name, ON_RESULT.get(name))
            workload.tracer = tracer

        ops = []
        loop_start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.op = len(ops)
            op_start = time.perf_counter()
            times = run_legs(len(ops))
            workload.check()
            record = {"legs": times, "complete": len(times) == len(workload.legs())}
            record["cli_exit_code"] = workload.out.get("cli_exit_code", 0)
            record["model_bytes"] = workload.out.get("model_bytes", 0)
            if tracer is not None:
                record["layers"] = span_metrics(tracer, tracer.op)
            ops.append(record)
            now = time.perf_counter()
            if now - loop_start >= args.seconds:
                break
            if now - PROCESS_START + (now - op_start) > RUN_LIMIT_S:
                break

        complete = [op for op in ops if op["complete"]] or ops
        # Median of each leg: fit_s, cli_fit_s, cli_eval_s, baseline_s or
        # experiment_s, depending on the workload.
        stages = {f"{leg}_s": median([op["legs"][leg] for op in complete if leg in op["legs"]])
                  for leg, _, _ in workload.legs()}
        if tracer is None:
            metrics = {
                "setup_s": median(setup),
                "op_s": median([sum(op["legs"].values()) for op in complete]),
                "fit_s": median([op["legs"].get(FIT_LEG[args.workload], 0.0) for op in complete]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
        else:
            lib_legs = [leg for leg, in_process, _ in workload.legs() if in_process]
            traced_lib_s = sum(ops[0]["legs"].get(leg, 0.0) for leg in lib_legs)
            layer_rows = [dict(op["layers"]) for op in complete]
            for op, row in zip(complete, layer_rows):
                for name, leg in LEG_METRICS.items():
                    row[name] = op["legs"].get(leg, 0.0)
                row["serialize.model_bytes"] = op["model_bytes"]
                row["cli.exit_code"] = op["cli_exit_code"]
            metrics = {name: median([row[name] for row in layer_rows])
                       for name in layer_rows[0]}
            metrics.update({
                "cli.import_s": median(imports[1:]),
                "cli.peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                "trace.overhead_pct": 100.0 * (traced_lib_s / untraced_lib_s - 1.0)
                if untraced_lib_s else 0.0,
            })
            units = dict(PER_LAYER)

        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "environment": environment(),
            "result": result, "stages": stages, "failures": ledger.failures,
            "setup_samples": setup,
            "import_samples": imports, "operations": ops,
            "missing_wraps": tracer.missing if tracer else [],
            "spans": [[s.name, s.op, s.parent, s.start, s.end, s.attrs]
                      for s in tracer.spans] if tracer else [],
        }
        name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
        if args.smoke:
            name += "_smoke"
        (OUT / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))
        report(record)
        return result
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)


def report(record: dict) -> None:
    """Readable summary on standard error."""
    result = record["result"]
    err = sys.stderr
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"operations={len(record['operations'])}", file=err)
    for name, value in record["environment"].items():
        print(f"   {name}: {value}", file=err)
    for name, metric in result["metrics"].items():
        print(f"   {name:32s} {metric['value']:>16.6g} {metric['unit']}", file=err)
    for name, value in record["stages"].items():
        print(f"   stage {name:26s} {value:>16.6g} s", file=err)
    ratio = result["failed"] / result["attempted"]
    print(f"   fail_ratio {ratio:.6g} ({result['failed']}/{result['attempted']})", file=err)
    for cause in record["failures"]:
        print(f"   FAILED {cause}", file=err)
    for target in record["missing_wraps"]:
        print(f"   MISSING wrapped function {target}: counted as 0 calls", file=err)


def run_all(args) -> dict:
    """Every workload, each in a process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting operations until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs that run every leg and check in seconds")
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except Exception as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
