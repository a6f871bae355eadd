#!/usr/bin/env python3
"""rosenmu benchmark: one seeded workload per invocation, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One client issues each task after the previous one finished, in this
process, with BLAS pinned to one thread.  The run builds a fixed task set
from ``--seed``, repeats it in passes until ``--seconds`` is used up, and
checks every output outside the timed calls.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes one pass without tracing, then
traced passes, and reports the per-layer metrics.  The last line of
standard output is the JSON result; a record with the environment is
written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the loop is a single client and the matrices are small.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

# The keys of workloads.WORKLOADS; that module imports rosenmu, so it is
# loaded only after the check that src/ is there.
WORKLOAD_NAMES = ("sweep", "mu-scalar", "oracle", "grid")
SETUP_REPEATS = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 120

# Gated metrics: every workload reports them and none is ever 0.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bracket_ratio_mean", "1"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


def build(args, work_dir: Path):
    import numpy as np

    from workloads import WORKLOADS

    work_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]
    return wl, wl.build(np.random.default_rng(args.seed), wl.n_tasks(args.seconds), str(work_dir))


def setup_only(args) -> int:
    """Child process of :func:`time_setup`: imports plus inputs, then 'ready'."""
    work_dir = Path(args.setup_only)
    build(args, work_dir)
    print("ready", flush=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def time_setup(args) -> list[float]:
    """Process start to inputs ready, in fresh interpreters."""
    times = []
    for i in range(SETUP_REPEATS):
        work_dir = OUT / f"setup-{os.getpid()}-{i}"
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only", str(work_dir),
        ]
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        shutil.rmtree(work_dir, ignore_errors=True)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------


def digest_of(wl, out, error) -> str:
    if error:
        text = f"error {error}"
    else:
        try:
            text = "\n".join(wl.digest(out))
        except Exception as exc:  # unreadable output: a failed task, not a crash
            text = f"digest error {type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(wl, tasks, tracer=None, keep_outputs=False) -> dict:
    times, outs, errors = [], [], []
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        error = None
        start = perf_counter()
        try:
            out = wl.run(task)
        except Exception as exc:  # a task that raises is a failed task, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - start)
        if tracer is not None:
            tracer.task = None
        outs.append(out)
        errors.append(error)
    digests = [digest_of(wl, o, e) for o, e in zip(outs, errors)]
    return {"times": times, "outs": outs if keep_outputs else None, "errors": errors, "digests": digests}


def run_passes(wl, tasks, seconds: float, min_passes: int, tracer=None) -> list[dict]:
    """Whole passes while the next one is expected to end within ``seconds``."""
    passes, start = [], perf_counter()
    while True:
        if tracer is not None:
            tracer.reset_pass()
        # only the first pass's outputs are checked; later ones are compared by digest
        p = run_pass(wl, tasks, tracer, keep_outputs=not passes)
        if tracer is not None:
            p["counts"] = dict(tracer.counts)
            p["self_s"] = dict(tracer.self_times())
            p["svd_s"] = tracer.svd_s
        passes.append(p)
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def per_task_times(passes) -> list[float]:
    return [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]


def quality(summaries) -> dict:
    ratios = [r for s in summaries for r in s.ratios]
    gaps = [g for s in summaries for g in s.gaps]
    oracle = [s.oracle_ratio for s in summaries if s.oracle_ratio is not None]
    return {
        "bracket_ratio_mean": statistics.fmean(ratios) if ratios else 1.0,
        "brackets": len(gaps),
        "gap_rel_mean": statistics.fmean(gaps) if gaps else 0.0,
        "tight_share": sum(g == 0.0 for g in gaps) / len(gaps) if gaps else 0.0,
        "oracle_ratio_mean": statistics.fmean(oracle) if oracle else 0.0,
    }


def per_layer(traced, untraced_wall: float, q: dict) -> dict:
    """Per-layer metrics: counts of one traced pass, median self times."""
    counts = traced[0]["counts"]

    def c(key):
        return counts.get(key, 0)

    def t(name):
        return statistics.median(p["self_s"].get(name, 0.0) for p in traced)

    traced_wall = statistics.median(sum(p["times"]) for p in traced)
    nm_calls = c("mu.upper.nm.calls")
    return {
        "mu.upper.bfgs_s": (t("mu.upper.bfgs"), "s"),
        "mu.upper.bfgs_nfev": (c("mu.upper.bfgs.nfev"), "count"),
        "mu.upper.bfgs_nit": (c("mu.upper.bfgs.nit"), "count"),
        "mu.upper.nm_s": (t("mu.upper.nm"), "s"),
        "mu.upper.nm_nfev": (c("mu.upper.nm.nfev"), "count"),
        "mu.upper.nm_improved_share": (c("mu.upper.nm_improved") / nm_calls if nm_calls else 0.0, "1"),
        "mu.mu_upper.calls": (c("mu.mu_upper.calls"), "count"),
        "mu.mu_upper.self_s": (t("mu.mu_upper"), "s"),
        "mu.mu_lower.self_s": (t("mu.mu_lower"), "s"),
        "mu.lower.kernel_s": (t("mu.lower.kernel"), "s"),
        "mu.lower.kernel_nfev": (c("mu.lower.kernel.nfev"), "count"),
        "mu.lower.refine_rounds": (c("mu.lower.refine_rounds"), "count"),
        "mu.certificate_to_delta.s": (t("mu.certificate_to_delta"), "s"),
        "mu.mu_bracket.calls": (c("mu.mu_bracket.calls"), "count"),
        "mu.mu_bracket.self_s": (t("mu.mu_bracket"), "s"),
        "mu.brackets": (q["brackets"], "count"),
        "mu.gap_rel_mean": (q["gap_rel_mean"], "1"),
        "mu.tight_share": (q["tight_share"], "1"),
        "oracle.sample_s": (t("oracle.brute_force_mu"), "s"),
        "oracle.samples": (c("oracle.samples"), "count"),
        "oracle.refine_s": (t("oracle.refine"), "s"),
        "oracle.refine_nfev": (c("oracle.refine.nfev"), "count"),
        "oracle.ratio_mean": (q["oracle_ratio_mean"], "1"),
        "reduction.reduce.calls": (c("reduction.reduce.calls"), "count"),
        "reduction.reduce.s": (t("reduction.reduce"), "s"),
        "reduction.assemble_perturbation.calls": (c("reduction.assemble_perturbation.calls"), "count"),
        "reduction.assemble_perturbation.s": (t("reduction.assemble_perturbation"), "s"),
        "rosenbrock.evaluate.calls": (c("rosenbrock.evaluate.calls"), "count"),
        "rosenbrock.evaluate.s": (t("rosenbrock.evaluate"), "s"),
        "rosenbrock.is_eigenvalue.calls": (c("rosenbrock.is_eigenvalue.calls"), "count"),
        "rosenbrock.is_eigenvalue.s": (t("rosenbrock.is_eigenvalue"), "s"),
        "rosenbrock.system_from_json.s": (t("rosenbrock.system_from_json"), "s"),
        "backward_error.backward_error.calls": (c("backward_error.backward_error.calls"), "count"),
        "backward_error.self_s": (t("backward_error.backward_error"), "s"),
        "backward_error.scenario_sweep.self_s": (t("backward_error.scenario_sweep"), "s"),
        "cli.main.self_s": (t("cli.main"), "s"),
        "cli.dumps_report.s": (t("cli.dumps_report"), "s"),
        "cli.report_bytes": (c("cli.report_bytes"), "B"),
        "linalg.svd_uv_calls": (c("linalg.svd_uv_calls"), "count"),
        "linalg.svd_values_calls": (c("linalg.svd_values_calls"), "count"),
        "linalg.svd_s": (statistics.median(p["svd_s"] for p in traced), "s"),
        "linalg.eig_calls": (c("linalg.eig_calls"), "count"),
        "linalg.eigvals_calls": (c("linalg.eigvals_calls"), "count"),
        "linalg.norm2_calls": (c("linalg.norm2_calls"), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_share": (traced_wall / untraced_wall - 1.0, "1"),
    }


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return res.stdout.strip() or "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (SRC / "rosenmu" / "__init__.py").is_file():
        print(f"error: no rosenmu sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_only:
        return setup_only(args)

    work_dir = OUT / f"run-{os.getpid()}"
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, work_dir: Path) -> int:
    wl, tasks = build(args, work_dir)
    setup_times = time_setup(args)

    import workloads

    checks = {"golden 5x5": workloads.golden_problems()}

    tracer = None
    if args.trace:
        from tracing import Tracer

        untraced = run_passes(wl, tasks, 0, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, tasks, args.seconds - sum(untraced[0]["times"]), MIN_TRACED_PASSES, tracer)
        finally:
            tracer.uninstall()
        first = traced[0]["counts"]
        checks["counts identical across traced passes"] = [
            f"pass {i} counts differ" for i, p in enumerate(traced) if p["counts"] != first
        ]
        all_passes = untraced + traced
    else:
        untraced = run_passes(wl, tasks, args.seconds, 1)
        all_passes = untraced

    # Correctness gate: checks on the first pass, digests for the others.
    reference = untraced[0]
    summaries, task_problems = [], []
    for task, out, error in zip(tasks, reference["outs"], reference["errors"]):
        if not error:
            try:
                s = wl.summarize(task, out)
            except Exception as exc:  # a check that cannot read the output fails the task
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            s = workloads.Summary(problems=[error])
        summaries.append(s)
        task_problems.append(s.problems)
    failed = 0
    for p in all_passes:
        for i, (error, digest) in enumerate(zip(p["errors"], p["digests"])):
            if error or task_problems[i] or digest != reference["digests"][i]:
                failed += 1
    attempted = len(tasks) * len(all_passes) + len(checks)
    failed += sum(bool(v) for v in checks.values())

    times = per_task_times(untraced)
    q = quality(summaries)
    workload_digest = hashlib.sha256("".join(reference["digests"]).encode()).hexdigest()
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bracket_ratio_mean": q["bracket_ratio_mean"],
    }
    info = {
        "tasks": len(tasks),
        "passes_timed": len(untraced),
        "task_p50_s": statistics.median(times),
        "task_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
        "gap_rel_mean": q["gap_rel_mean"],
        "tight_share": q["tight_share"],
        "brackets": q["brackets"],
        "oracle_ratio_mean": q["oracle_ratio_mean"] if args.workload == "oracle" else None,
        "failed_share": failed / attempted,
        "setup_samples_s": setup_times,
        "digest": workload_digest,
    }
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"{name:<22} {value:.6g} {units[name]}")
    for name, value in info.items():
        if isinstance(value, float):
            print(f"{name:<22} {value:.6g}")
        elif value is not None and not isinstance(value, list):
            print(f"{name:<22} {value}")

    layers = None
    if args.trace:
        layers = per_layer(traced, sum(reference["times"]), q)
        digest_ok = all(p["digests"] == reference["digests"] for p in traced)
        print(f"traced digest equals untraced: {digest_ok}")
        for name, (value, unit) in layers.items():
            print(f"{name:<40} {value:.6g} {unit}")

    problems = {k: v for k, v in checks.items() if v}
    problems.update({f"task {i}": p for i, p in enumerate(task_problems) if p})
    for where, msgs in problems.items():
        print(f"FAILED {where}: {'; '.join(map(str, msgs))[:500]}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args),
        "end_to_end": e2e,
        "info": info,
        "per_layer": {k: v[0] for k, v in layers.items()} if layers else None,
        "counts": traced[0]["counts"] if args.trace else None,
        "task_times_s": times,
        "problems": problems,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{tag}.tsv")

    metrics = (
        {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        if layers
        else {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
