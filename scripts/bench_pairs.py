"""Paired benchmark runs of a base commit against the working tree.

    python3 scripts/bench_pairs.py --workload scatter --pairs 10 --seed 900 \
        --seconds 50 [--base HEAD]

Run from the root of a checkout. The base ref is checked out in a temporary
git worktree; then, for N pairs on consecutive seeds, `perfbench/run.py
--workload W --seed S --seconds T --trace 0` runs once on the base and once on
the working tree, alternating which side runs first. For each end-to-end
metric it prints each side's median and quartiles and how many pairs the
change won (the direction of each metric comes from BENCHMARK.json). A claimed
gain needs at least 9 wins in 10 pairs and a gap between the medians larger
than the base's interquartile range; a closing line names the metrics for which
that rule holds. `--workload` takes the names in perfbench/workloads.py, so a
typo fails before any worktree is made. Exit status 1 when the base ref cannot
be checked out (git's message on one line), or a run fails or reports a wrong
output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def benchmark(root: str) -> tuple[tuple, dict]:
    """perfbench/workloads.py's workload names and BENCHMARK.json, in the checkout `root`."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    from workloads import WORKLOADS

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return tuple(WORKLOADS), json.load(fh)


def summary(values: list[float]) -> dict:
    """The median and quartiles of `values`: the one rule that the claims and files use."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"{checkout}: seed {seed} failed (exit {done.returncode})\n{done.stderr[-2000:]}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def compare(base: str, change: str, workload: str, pairs: int, seed: int, seconds: float,
            better: dict) -> list[str]:
    """Run the pairs on the checkouts `base` and `change`; return the report lines."""
    runs = {"base": [], "change": []}
    for k in range(pairs):
        order = [("base", base), ("change", change)]
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            runs[side].append(run_once(checkout, workload, seed + k, seconds))
        print(f"pair {k + 1}/{pairs} (seed {seed + k}) done", file=sys.stderr)
    lines, holds = [], {True: [], False: []}
    for name in runs["base"][0]:
        lower = better.get(name, "lower") == "lower"
        stats = {side: summary([r[name] for r in rs]) for side, rs in runs.items()}
        wins = sum((c[name] < b[name]) if lower else (c[name] > b[name])
                   for b, c in zip(runs["base"], runs["change"]))
        b, c = stats["base"], stats["change"]
        gain = b["median"] - c["median"] if lower else c["median"] - b["median"]
        holds[wins >= 0.9 * pairs and gain > b["q3"] - b["q1"]].append(name)
        lines.append(f"  {name:14s} base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]  "
                     f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                     f"({'lower' if lower else 'higher'} is better) change wins {wins}/{pairs}")
    lines.append(f"  claim rule (>= 9/10 wins, median gain > base IQR) holds for: "
                 f"{', '.join(holds[True]) or 'none'}; not for: {', '.join(holds[False]) or 'none'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    root = os.getcwd()
    workloads, bench = benchmark(root)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="scatter", choices=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=900, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--base", default="HEAD", help="git ref to compare against")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    base = tempfile.mkdtemp(prefix="bench-base-")
    added = subprocess.run(["git", "worktree", "add", "--detach", base, args.base],
                           cwd=root, capture_output=True, text=True)
    if added.returncode:   # one line: the ref and git's message
        shutil.rmtree(base, ignore_errors=True)
        sys.exit(f"cannot check out --base {args.base}: "
                 f"{'; '.join(added.stderr.strip().splitlines())}")
    try:
        lines = compare(base, root, args.workload, args.pairs, args.seed, args.seconds, better)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base], cwd=root)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1},"
          f" base {args.base} against the working tree")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
