"""Record the benchmark of the working tree in one BENCH_<n>.json file.

    python3 scripts/record_bench.py --out BENCH_30.json

Run from the root of a checkout. For each of the seeds 900-904, every workload
of perfbench/workloads.py runs once for 50 s through `bench_pairs.run_once`
(`perfbench/run.py --trace 0`). The file keeps each end-to-end metric's values
in seed order, with their median and quartiles: under "gated" for the
workloads BENCHMARK.json lists, under "ungated" for the rest. Then each
command-line path of ROADMAP's baseline table runs 5 times with `--out`, and
the file keeps its best wall time and the largest peak RSS that `wait4`
reports. The machine facts (CPU count, Python and numpy versions, the
BLAS thread and bytecode settings, the commit, whether src/ differs from it,
and the load average before and after) tell a reader which files compare: the
host may be shared. Seeds, seconds and repeats are fixed, so that every file of
the trajectory compares with the one before. A file claims nothing by itself;
a later one quotes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

from bench_pairs import benchmark, run_once, summary

SCHEMA = 1
SEEDS = range(900, 905)
SECONDS = 50.0
REPEATS = 5   # runs per command-line path
# the command-line paths of ROADMAP's baseline table
CLI_PATHS = (
    ("fig1", "--n", "10000"),
    ("separable-audit", "--n", "10000"),
    ("fig2", "--n", "250", "--trials", "500", "--threads", "2"),
    ("sweep", "--n", "20000", "--werner", "0.7"),
    ("werner-threshold", "--settings", "3"),
)


def record(runs: dict, cli: list, machine: dict, gated: list, units: dict) -> dict:
    """The file's content: `runs` maps each workload to its `run_once` results
    in seed order, `cli` holds the `cli_path` entries."""
    metrics = {name: {metric: summary([r[metric] for r in results]) for metric in results[0]}
               for name, results in runs.items()}
    return {
        "schema": SCHEMA,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine,
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "units": units,
        "gated": {name: m for name, m in metrics.items() if name in gated},
        "ungated": {name: m for name, m in metrics.items() if name not in gated},
        "cli": cli,
    }


def cli_path(root: str, argv: tuple, scratch: str) -> dict:
    """Best wall time and largest peak RSS of REPEATS runs of one command."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    walls, rss = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "entrosteer", *argv, "--out",
                                 os.path.join(scratch, "out")], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        walls.append(time.perf_counter() - start)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            sys.exit(f"{' '.join(argv)} exited {proc.returncode}")
        rss.append(usage.ru_maxrss / 1024)   # KiB on Linux
    return {"argv": list(argv), "repeats": REPEATS, "best_wall_s": min(walls),
            "peak_rss_mb": max(rss)}


def machine_facts(root: str) -> dict:
    import numpy

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "commit": git("rev-parse", "HEAD").strip() or None,
        "src_differs": bool(git("status", "--porcelain", "--", "src")),
    }


def write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    args = parser.parse_args(argv)
    root = os.getcwd()
    workloads, bench = benchmark(root)
    load_before = os.getloadavg()
    runs = {name: [] for name in workloads}
    for seed in SEEDS:
        for name in workloads:
            runs[name].append(run_once(root, name, seed, SECONDS))
        print(f"seed {seed} done", file=sys.stderr)
    with tempfile.TemporaryDirectory() as scratch:
        cli = [cli_path(root, path, scratch) for path in CLI_PATHS]
    machine = dict(machine_facts(root), loadavg_before=load_before,
                   loadavg_after=os.getloadavg())
    write(args.out, record(runs, cli, machine, [w["name"] for w in bench["workloads"]],
                           {m["name"]: m["unit"] for m in bench["end_to_end"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
