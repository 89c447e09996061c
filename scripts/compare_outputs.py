"""Byte-for-byte comparison of command-line outputs between a base commit and
the working tree.

    python3 scripts/compare_outputs.py [--base HEAD]

Run from the root of a checkout. The base ref is checked out in a temporary
git worktree. One fixed list of runs then runs on both sides, one run at a
time, each in its own empty directory. Most are `python -m entrosteer` runs:
the surveys in both formats, sweeps over Werner and seeded d = 2, 3, 5 state
files, `eval` of every witness in both directions, and of the MUB and modular
witnesses on seeded d = 5 and 7 states, the thresholds (also bisected to
1e-15, which takes a scalar witness call per step), `cv-scan`, the audit,
every `--help` text, the `--verbose` lines, a numerical failure (exit 1) and the
configuration errors. One `python -c` run prints
every `eval` report on four of those state files in hex, and the smeared-POVM
pair-conditional (both directions) and modular reports on each, so the
scalar witnesses and `povm_omega` are compared bit for bit. A case differs
when its stdout, its stderr, its exit code, its `--out` data file or its run
manifest differs; a manifest is compared without its `timestamp` and
`wall_time_s`. Each side's directory name in its output is replaced by `<dir>`
first. A run still going after TIMEOUT seconds is stopped, and its exit code
reads as a time-out. Every differing case is printed. Exit status 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

import numpy as np

WITNESSES = ["pair-conditional", "pair-symmetric-mi", "mub-conditional", "mub-mi",
             "sumdiff-discrete"]
# run as `python -c REPORT_BITS STATE_FILE...`: the scalar witness path bit for bit,
# with the smeared first and last MUB bases (X and Z for qubits) as POVMs on both sides,
# whose bound takes `povm_omega`; the later calls on a set reuse its cached constants
REPORT_BITS = f"""
import os, sys
import numpy as np
from entrosteer import Povm, mub_set, pair_conditional, sumdiff_discrete
from entrosteer.cli import _eval_report, load_state

def smeared(basis, eta=0.2):   # elements (1 - eta) P_i + eta I / d
    mixed = eta * np.eye(basis.dim, dtype=complex) / basis.dim
    return Povm(basis.dim, tuple((1 - eta) * np.outer(v, v.conj()) + mixed
                                 for v in basis.vectors))

for path in sys.argv[1:]:
    rho = load_state(path)
    reports = [(w, d, _eval_report(rho, w, d)) for w in {WITNESSES!r} for d in ("AtoB", "BtoA")]
    bases = mub_set(rho.dims[0])
    r, s = smeared(bases[0]), smeared(bases[-1])
    reports += [("povm-pair-conditional", d, pair_conditional(rho, r, s, r, s, direction=d))
                for d in ("AtoB", "BtoA")]
    reports.append(("povm-sumdiff-discrete", "symmetric", sumdiff_discrete(rho, r, s, r, s)))
    for witness, direction, rep in reports:
        print(os.path.basename(path), witness, direction, float.hex(rep.lhs_bits),
              float.hex(rep.bound_bits), float.hex(rep.violation_bits))
"""
TIMEOUT = 120   # seconds; the longest case takes a few
COMMANDS = ["fig1", "fig2", "sweep", "werner-threshold", "cv-scan", "eval", "separable-audit"]


def _random_state(rng: np.random.Generator, d_a: int, d_b: int, rank: int) -> dict:
    n = d_a * d_b
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    w = g @ g.conj().T
    w /= np.trace(w).real
    return {"dims": [d_a, d_b], "matrix": [[[e.real, e.imag] for e in row] for row in w]}


def _werner(p: float) -> dict:
    s = np.zeros(4)
    s[1], s[2] = 2**-0.5, -(2**-0.5)
    w = p * np.outer(s, s) + (1 - p) * np.eye(4) / 4
    return {"dims": [2, 2], "matrix": [[[e, 0.0] for e in row] for row in w.tolist()]}


def state_files(directory: str) -> dict[str, str]:
    """Write the input state files, the same bytes for both sides; returns
    name -> path."""
    rng = np.random.default_rng(2024)
    states = {
        "werner": _werner(0.8),
        "q2": _random_state(rng, 2, 2, 3),
        "q3": _random_state(rng, 3, 3, 4),
        "q5": _random_state(rng, 5, 5, 6),
        "q2x3": _random_state(rng, 2, 3, 6),
        "q6": _random_state(rng, 6, 6, 2),
        "q7": _random_state(rng, 7, 7, 3),
    }
    paths = {}
    for name, data in states.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    paths["broken"] = os.path.join(directory, "broken.json")
    with open(paths["broken"], "w", encoding="utf-8") as fh:
        fh.write('{"dims": [2, 2], "matrix": ')
    return paths


def cases(states: dict[str, str]) -> list[tuple[str, list[str], dict[str, str]]]:
    """(name, argv, extra environment) of every run. "OUT." in an argument
    becomes the case's name, so each data file is named after its case."""
    runs = []

    def add(name, *argv, env=None):
        runs.append((name, list(argv), env or {}))

    for ensemble in ("pure", "mixed"):
        for fmt, ext in (("csv", "csv"), ("json", "json")):
            add(f"fig1-{ensemble}-{fmt}", "fig1", "--ensemble", ensemble, "--n", "3000",
                "--seed", "11", "--format", fmt, "--out", f"OUT.{ext}")
            add(f"fig2-{ensemble}-{fmt}", "fig2", "--ensemble", ensemble, "--n", "24",
                "--trials", "150", "--seed", "11", "--threads", "2", "--format", fmt,
                "--out", f"OUT.{ext}")
    add("fig1-stdout", "fig1", "--n", "50", "--seed", "3")
    add("fig1-pure-json-stdout", "fig1", "--ensemble", "pure", "--n", "1100", "--seed", "3",
        "--format", "json")
    add("fig1-two-threads", "fig1", "--n", "9000", "--seed", "12", "--threads", "2",
        "--out", "OUT.csv")
    # fig1 and the audit run block by block (1024 states): one state past the
    # first block, in each ensemble and format, and a JSON file of nine blocks
    add("fig1-block-1025", "fig1", "--n", "1025", "--seed", "13", "--out", "OUT.csv")
    add("fig1-pure-block-1025", "fig1", "--ensemble", "pure", "--n", "1025", "--seed", "13",
        "--out", "OUT.csv")
    add("fig1-block-1025-json", "fig1", "--n", "1025", "--seed", "13", "--format", "json",
        "--out", "OUT.json")
    add("fig1-nine-blocks-json", "fig1", "--n", "9000", "--seed", "14", "--format", "json",
        "--out", "OUT.json")
    # last blocks of 2, 11, 12 and 13 states: the joints' einsum path changes at
    # 2 and at 12 states, so a path or constant kept across block sizes shows here
    for n in ("1026", "1035", "1036", "1037"):
        add(f"fig1-block-{n}", "fig1", "--n", n, "--seed", "15", "--out", "OUT.csv")
    add("separable-audit-block-1035", "separable-audit", "--n", "1035", "--k-max", "12",
        "--seed", "15", "--out", "OUT.json")
    add("separable-audit-stdout", "separable-audit", "--n", "1100", "--seed", "16")
    # four whole blocks and one state past them (the fifth block is one state,
    # whose loader call the seeding guard checks at its first and last item)
    add("fig1-one-block", "fig1", "--n", "4096", "--seed", "13", "--out", "OUT.csv")
    add("fig1-block-edge", "fig1", "--n", "4097", "--seed", "13", "--out", "OUT.csv")
    add("fig1-block-edge-stdout", "fig1", "--n", "4097", "--seed", "13")
    add("fig1-block-edge-json", "fig1", "--n", "4097", "--seed", "13", "--format", "json",
        "--out", "OUT.json")
    add("fig1-pure-block-edge", "fig1", "--ensemble", "pure", "--n", "4097", "--seed", "13",
        "--out", "OUT.csv")
    add("fig2-one-thread", "fig2", "--n", "10", "--trials", "600", "--seed", "4",
        "--out", "OUT.csv")
    # fig2 loads all its states in one loader call: 4097 items, of which the
    # guard checks the first and the last
    add("fig2-block-edge", "fig2", "--ensemble", "mixed", "--n", "4097", "--trials", "2",
        "--seed", "13", "--threads", "2", "--out", "OUT.csv")
    add("fig2-pure-block-edge", "fig2", "--ensemble", "pure", "--n", "4097", "--trials", "2",
        "--seed", "13", "--threads", "2", "--out", "OUT.csv")
    for p in ("0.3", "0.7", "0.9"):
        add(f"sweep-werner-{p}", "sweep", "--werner", p, "--n", "1500", "--seed", "5",
            "--out", "OUT.csv")
    add("sweep-werner-json", "sweep", "--werner", "0.8", "--n", "200", "--seed", "5",
        "--format", "json", "--out", "OUT.json")
    for name in ("werner", "q2", "q3", "q5"):
        add(f"sweep-{name}", "sweep", "--state-file", states[name], "--n", "1500",
            "--seed", "6", "--out", "OUT.csv")
    for name in ("werner", "q2", "q3", "q2x3"):
        for witness in WITNESSES:
            for direction in ("AtoB", "BtoA"):
                add(f"eval-{name}-{witness}-{direction}", "eval", "--state-file", states[name],
                    "--witness", witness, "--direction", direction)
    # q7's full-MUB sum has 8 terms, added left to right
    for name, witness in [("q5", "mub-conditional"), ("q5", "mub-mi"),
                          ("q5", "sumdiff-discrete"), ("q7", "mub-conditional")]:
        for direction in ("AtoB", "BtoA"):
            add(f"eval-{name}-{witness}-{direction}", "eval", "--state-file", states[name],
                "--witness", witness, "--direction", direction)
    # every report `eval` can give, in hex: `eval` prints 12 significant digits
    add("eval-report-bits", "-c", REPORT_BITS,
        *(states[name] for name in ("werner", "q2", "q3", "q5")))
    for settings in ("2", "3"):
        add(f"werner-threshold-{settings}", "werner-threshold", "--settings", settings,
            "--out", "OUT.json")
        # about 50 bisection steps, each a scalar witness call on a new state
        add(f"werner-threshold-{settings}-fine", "werner-threshold", "--settings", settings,
            "--tol", "1e-15", "--out", "OUT.json")
    add("werner-threshold-coarse", "werner-threshold", "--tol", "1e-3", "--lo", "0.4")
    add("werner-threshold-no-bracket", "werner-threshold", "--lo", "0.9", "--hi", "0.95")
    add("werner-threshold-no-bracket-0.99", "werner-threshold", "--lo", "0.9", "--hi", "0.99")
    # the INFO lines on standard error
    add("fig1-verbose", "fig1", "--n", "50", "--seed", "3", "--verbose", "--out", "OUT.csv")
    add("separable-audit-verbose", "separable-audit", "--n", "300", "--seed", "3", "--verbose",
        "--out", "OUT.json")
    add("cv-scan", "cv-scan", "--out", "OUT.csv")
    add("cv-scan-json", "cv-scan", "--r-min", "0.5", "--r-max", "6", "--steps", "23",
        "--format", "json", "--out", "OUT.json")
    add("cv-scan-past-range", "cv-scan", "--r-max", "179", "--steps", "2")
    for k_max in ("1", "7", "12"):
        add(f"separable-audit-k{k_max}", "separable-audit", "--n", "2000", "--k-max", k_max,
            "--seed", "8", "--threads", "2", "--out", "OUT.json")
    add("separable-audit-one-thread", "separable-audit", "--n", "5000", "--seed", "9",
        "--threads", "1", "--out", "OUT.json")
    # seed 7 draws more product terms than the expected n * (k_max + 1) / 2
    add("separable-audit-many-terms", "separable-audit", "--n", "10000", "--seed", "7",
        "--out", "OUT.json")
    # five blocks, the last of one state, with many product terms per state
    add("separable-audit-block-edge", "separable-audit", "--n", "4097", "--k-max", "12",
        "--seed", "13", "--out", "OUT.json")
    add("separable-audit-block-1025", "separable-audit", "--n", "1025", "--k-max", "12",
        "--seed", "13", "--out", "OUT.json")
    add("version", "--version")
    add("help", "--help")
    for command in COMMANDS:
        add(f"help-{command}", command, "--help")
    # configuration errors, exit 2
    add("error-negative-seed", "fig1", "--n", "5", "--seed", "-3")
    add("error-negative-env-seed", "fig1", "--n", "5", env={"ENTROSTEER_SEED": "-3"})
    add("error-out-directory-missing", "fig1", "--n", "5", "--out", "missing/OUT.csv")
    add("error-out-is-a-directory", "fig1", "--n", "5", "--out", ".")
    add("error-nan-tolerance", "werner-threshold", "--tol", "nan")
    add("error-werner-range", "sweep", "--werner", "1.5")
    add("error-bracket-order", "werner-threshold", "--lo", "0.9", "--hi", "0.2")
    add("error-cv-steps", "cv-scan", "--steps", "0")
    add("error-cv-infinite", "cv-scan", "--r-max", "inf")
    for k_max in ("0", "-2"):
        add(f"error-k-max-{k_max}", "separable-audit", "--n", "3", "--k-max", k_max,
            "--out", "OUT.json")
    add("error-zero-states", "fig1", "--n", "0")
    add("error-zero-threads", "fig1", "--n", "5", "--threads", "0")
    add("error-zero-trials", "fig2", "--trials", "0")
    add("error-negative-threads", "fig1", "--threads", "-1")
    add("error-zero-sweep", "sweep", "--n", "0")
    add("error-absurd-count", "fig1", "--n", str(10**15))
    # --n * --trials one state past its time bound (4 * 10**9), within memory
    add("error-fig2-time-bound", "fig2", "--n", "4001", "--trials", str(10**6), "--out", "OUT.csv")
    if os.path.exists("/dev/full"):   # a write that fails: exit 2 with one error line
        add("error-out-full-device", "fig1", "--n", "5", "--out", "/dev/full")
    add("error-threshold-csv", "werner-threshold", "--format", "csv")
    add("error-eval-missing-file", "eval", "--state-file", "missing.json", "--witness",
        "mub-mi")
    add("error-eval-broken-file", "eval", "--state-file", states["broken"], "--witness",
        "mub-mi")
    add("error-eval-not-applicable", "eval", "--state-file", states["q6"], "--witness",
        "mub-mi")
    add("error-sweep-unequal-dims", "sweep", "--state-file", states["q2x3"], "--n", "5")
    add("error-sweep-cannot-search", "sweep", "--state-file", states["q6"], "--n", "5")
    add("error-sweep-empty-state-file", "sweep", "--state-file", "", "--n", "5",
        "--out", "OUT.csv")
    add("error-eval-required", "eval", "--witness", "mub-mi")
    add("error-bad-choice", "fig1", "--ensemble", "bell")
    add("error-bad-int", "fig2", "--trials", "x")
    add("error-unknown-command", "fig3")
    return runs


def run_case(checkout: str, workdir: str, name: str, argv: list[str], env: dict) -> dict:
    """Run one case from an empty directory; returns what is compared."""
    rundir = os.path.join(workdir, name)
    os.makedirs(rundir)
    environ = {k: v for k, v in os.environ.items()
               if k not in ("ENTROSTEER_SEED", "OPENBLAS_NUM_THREADS")}
    environ.update(env, PYTHONPATH=os.path.join(checkout, "src"))
    program = [] if argv[0] == "-c" else ["-m", "entrosteer"]   # a `-c` case runs its own script
    argv = [sys.executable, *program, *(a.replace("OUT.", name + ".") for a in argv)]
    try:
        done = subprocess.run(argv, cwd=rundir, env=environ, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        done = subprocess.CompletedProcess(argv, f"timed out after {TIMEOUT} s", "", "")
    data, manifests = {}, {}
    for entry in sorted(os.listdir(rundir)):
        with open(os.path.join(rundir, entry), "rb") as fh:
            content = fh.read()
        if entry.endswith(".manifest.json"):
            manifests[entry] = json.loads(content)
            del manifests[entry]["timestamp"], manifests[entry]["wall_time_s"]
        else:
            data[entry] = content
    return {
        "exit code": done.returncode,
        "stdout": done.stdout.replace(rundir, "<dir>"),
        "stderr": done.stderr.replace(rundir, "<dir>"),
        "data file": data,
        "manifest": manifests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against")
    args = parser.parse_args(argv)
    root = os.getcwd()
    scratch = os.path.realpath(tempfile.mkdtemp(prefix="compare-outputs-"))
    base = os.path.join(scratch, "base")
    added = subprocess.run(["git", "worktree", "add", "--detach", base, args.base],
                           cwd=root, capture_output=True, text=True)
    if added.returncode:
        shutil.rmtree(scratch)
        sys.exit(f"cannot check out {args.base}: {added.stderr.strip()}")
    try:
        inputs = os.path.join(scratch, "inputs")
        os.makedirs(inputs)
        runs = cases(state_files(inputs))
        differ = []
        for name, case_argv, env in runs:
            sides = [run_case(checkout, os.path.join(scratch, side), name, case_argv, env)
                     for side, checkout in (("base-runs", base), ("change-runs", root))]
            parts = [key for key in sides[0] if sides[0][key] != sides[1][key]]
            if parts:
                differ.append(name)
                print(f"DIFFERS {name}: {', '.join(parts)}")
                print(f"  argv: {shlex.join(case_argv)}")
                for key in parts:
                    if key != "data file":
                        print(f"  base {key}: {sides[0][key]!r:.300}")
                        print(f"  change {key}: {sides[1][key]!r:.300}")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base], cwd=root,
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(runs)} cases, base {args.base} against the working tree: "
          f"{len(differ)} differ{': ' + ', '.join(differ) if differ else ''}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
