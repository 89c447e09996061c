"""Benchmark of the entrosteer package: load generator and result printer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is taken from ./src.
With --trace 0 a run starts workload processes one at a time, closed loop,
until --seconds have passed, with a set-up process (a fresh interpreter doing
the workload's set-up) before each, and reports the end-to-end metrics; each
timing is the fastest repetition (see README.md for why). With --trace 1 it
starts one process that runs the workload in-process, alternating untraced
and traced runs, and reports the per-layer metrics. Every output is checked;
the last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. The exit status is 1 when an output is
wrong and 2 when the checkout holds no package.
With --workload all (the default) every workload runs with tracing off and
then on, and the metrics are keyed "<workload>.<metric>".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7      # fewest set-up repetitions in a run
PROCESS_TIMEOUT_S = 120
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10   # samples a reported tail percentile must have beyond it


class CheckoutError(Exception):
    """The current directory is not a source checkout of the package."""


# ---------------------------------------------------------------------------
# statistics

def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of TAIL_PERCENTILES with at least TAIL_BEYOND of n samples
    beyond it; None when even the 75th has fewer."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    return None


def latency_summary(samples_us: list[float]) -> dict:
    """Median and tail of a latency sample. Without enough samples for a
    tail percentile the tail is the maximum, and `tail_p` says so."""
    ordered = sorted(samples_us)
    p = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 50.0),
        "tail": ordered[-1] if p is None else percentile(ordered, p),
        "tail_p": "max" if p is None else p,
    }


# ---------------------------------------------------------------------------
# environment

def package_env(root: str) -> dict:
    """The caller's environment with ./src first on PYTHONPATH. Thread-pool
    variables are passed through untouched, as a user would have them."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_checkout(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "entrosteer", "cli.py")):
        raise CheckoutError(f"{root} holds no src/entrosteer package to benchmark")


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "entrosteer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _blas_facts() -> dict:
    import ctypes

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {"name": deps.get("name"), "version": deps.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    if os.path.isdir(libs):
        for lib in sorted(os.listdir(libs)):
            if "openblas" not in lib:
                continue
            handle = ctypes.CDLL(os.path.join(libs, lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    facts["threads"] = fn()
                    break
    return facts


def machine_facts(root: str) -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_facts(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "commit": commit,
        "source_sha256": source_digest(root),
    }


# ---------------------------------------------------------------------------
# process launching

@dataclass(frozen=True)
class Finished:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def launch(argv: list[str], root: str, scratch: str) -> Finished:
    """Run one process to completion; wall time, CPU time and peak RSS come
    from wait4 on that process alone."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=package_env(root), stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,   # kilobytes on Linux
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def _report_failure(what: str, done: Finished, problems=()) -> None:
    print(f"FAILED {what}: exit {done.status}", file=sys.stderr)
    for p in problems:
        print(f"  {p}", file=sys.stderr)
    if done.status != 0:
        print(done.stderr[-2000:], file=sys.stderr)


def _worker(*args) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]


def setup_argv(name: str, seed: int) -> list[str]:
    """A fresh interpreter doing the workload's set-up."""
    if name == "single-state":
        return _worker("setup-single-state", seed)
    return [sys.executable, "-m", "entrosteer", "--version"]


# ---------------------------------------------------------------------------
# runs

@dataclass(frozen=True)
class Operations:
    """What one workload process did: its distinct operations' wall and CPU
    times, the items they cover, and the items attempted and failed."""

    done: Finished
    items: int
    wall_ns: list[int]
    cpu_ns: list[int]
    attempted: int
    failed: int
    problems: list[str]


def _cli_process(name: str, seed: int, root: str, scratch: str) -> Operations:
    wl = workloads.CLI_WORKLOADS[name]
    out = os.path.join(scratch, f"{name}.out")
    done = launch([sys.executable, "-m", "entrosteer", *wl.argv(seed, out)], root, scratch)
    problems = []
    if done.status == 0:
        with open(out, "rb") as fh:
            problems = wl.check(fh.read(), seed)
    return Operations(done, wl.items, [int(done.wall_s * 1e9)], [int(done.cpu_s * 1e9)],
                      wl.items, wl.items if done.status or problems else 0, problems)


def _single_state_process(seed: int, root: str, scratch: str) -> Operations:
    done = launch(_worker("single-state", seed), root, scratch)
    if done.status != 0:
        return Operations(done, 0, [], [], 1, 1, [])
    r = json.loads(done.stdout.splitlines()[-1])
    return Operations(done, len(r["best_ns"]), r["best_ns"], r["best_cpu_ns"],
                      r["evals"], r["failed"], r["problems"])


def run_untraced(name: str, seed: int, seconds: float, root: str, scratch: str) -> dict:
    """Closed loop of workload processes. Each process runs the workload's
    distinct operations (one CLI invocation, or the 1050 single-state calls)
    and reports each one's wall and CPU time; the run keeps each operation's
    fastest repetition, and the metrics describe one pass at those times."""
    setups, procs = [], []
    items, wall_ns, cpu_ns = 0, [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not procs or time.perf_counter() < deadline:
        # set-up repetitions are spread over the run, so that the fastest
        # one comes from the same stretch of machine time as the workload's
        setups.append(launch(setup_argv(name, seed), root, scratch))
        if name == "single-state":
            ops = _single_state_process(seed, root, scratch)
        else:
            ops = _cli_process(name, seed, root, scratch)
        attempted += ops.attempted
        failed += ops.failed
        if ops.wall_ns:
            items = ops.items
            wall_ns = list(map(min, wall_ns or ops.wall_ns, ops.wall_ns))
            cpu_ns = list(map(min, cpu_ns or ops.cpu_ns, ops.cpu_ns))
        if ops.done.status != 0 or ops.problems:
            _report_failure(f"{name} process {len(procs)}", ops.done, ops.problems)
        procs.append(ops.done)
    while len(setups) < SETUP_REPEATS:
        setups.append(launch(setup_argv(name, seed), root, scratch))
    setup_failed = 0
    for done in setups:
        if done.status != 0:
            setup_failed += 1
            _report_failure("set-up", done)
    pass_s = sum(wall_ns) / 1e9
    lat = latency_summary([ns / 1000.0 for ns in wall_ns or [0]])
    metrics = {
        "items_per_s": (items / pass_s if pass_s else 0.0, "1/s"),
        "eval_p50_us": (lat["p50"], "us"),
        "eval_p99_us": (lat["tail"], "us"),
        "cpu_s": (sum(cpu_ns) / 1e9, "s"),
        "peak_rss_mb": (statistics.median(done.rss_mb for done in procs), "MB"),
        "setup_s": (min(done.wall_s for done in setups), "s"),
    }
    notes = {
        "processes": len(procs),
        "distinct_operations": lat["n"],
        "eval_p99_us_percentile": lat["tail_p"],
        "error_rate": failed / attempted,
        "setup_runs": len(setups),
        "setup_failures": setup_failed,
    }
    return {
        "correct": failed == 0 and setup_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def run_traced(name: str, seed: int, seconds: float, root: str, scratch: str) -> dict:
    out_dir = os.path.join(scratch, "out")
    os.makedirs(out_dir)
    done = launch(_worker("traced", name, seed, seconds, out_dir), root, scratch)
    if done.status != 0:
        _report_failure(f"{name} traced pass", done)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "notes": {}}
    result = json.loads(done.stdout.splitlines()[-1])
    if result["failed"]:
        _report_failure(f"{name} traced pass", done, result["problems"])
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: (result["metrics"][k], unit) for k, (unit, _) in tracing.METRICS.items()},
        "notes": {"traced_passes": result["passes"]},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    base = os.path.join(root, ".perfbench_run")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    try:
        run = run_traced if trace else run_untraced
        return run(name, seed, seconds, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not os.listdir(base):
            os.rmdir(base)


def _json_metrics(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _print_run(name: str, trace: bool, result: dict) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {name}: {kind}; attempted {result['attempted']}, failed {result['failed']}")
    for k, (v, u) in result["metrics"].items():
        print(f"   {k:34s} {v:>16.6g} {u}")
    for k, v in result["notes"].items():
        print(f"   {k:34s} {v}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        check_checkout(root)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_facts(root), sort_keys=True))

    if args.workload != "all":
        trace = bool(args.trace)
        result = run_one(args.workload, args.seed, args.seconds, trace, root)
        _print_run(args.workload, trace, result)
        summary = {k: result[k] for k in ("correct", "attempted", "failed")}
        summary["metrics"] = _json_metrics(result["metrics"])
    else:
        traces = [False, True] if args.trace is None else [bool(args.trace)]
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in workloads.WORKLOADS:
            for trace in traces:
                result = run_one(name, args.seed, args.seconds, trace, root)
                _print_run(name, trace, result)
                summary["correct"] &= result["correct"]
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                for k, vu in _json_metrics(result["metrics"]).items():
                    summary["metrics"][f"{name}.{k}"] = vu
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
