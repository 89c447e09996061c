"""Workload processes the load generator (run.py) starts, one at a time.

    python3 perfbench/worker.py setup-single-state SEED
        Set-up of the single-state workload in a fresh interpreter: import
        entrosteer.cli, build its parser, build the states and bases.
    python3 perfbench/worker.py single-state SEED
        Set-up, then PASSES passes over the single-state calls; reports each
        call's fastest wall time and fastest process CPU time.
    python3 perfbench/worker.py traced WORKLOAD SEED SECONDS OUT_DIR
        The traced pass, in-process: alternate untraced and traced runs of
        the workload for SECONDS, then report per-layer numbers.

Each prints one JSON object as its last line of standard output. The package
comes from src/ of the current directory, put on the path by run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import time

import singlestate
import tracing
import workloads

PASSES = 3          # passes over the single-state calls per workload process
CHECK_STRIDE = 5    # every 5th call of a pass is re-checked against its reference


def _build_parser(cli) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["--version"])
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise


def _setup_single_state(seed: int):
    import entrosteer
    import entrosteer.cli

    _build_parser(entrosteer.cli)
    return entrosteer, singlestate.build_calls(entrosteer, seed)


def _one_pass(api, calls, best: list[list[int]] | None = None) -> list[float]:
    """Evaluate every call once. With `best`, lower each call's entry
    [wall ns, process CPU ns] to this pass's where that is smaller."""
    values = []
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    for i, call in enumerate(calls):
        fn = getattr(api, call.witness)
        c0 = cpu_clock()
        t0 = clock()
        report = fn(*call.args, **call.kwargs)
        t1 = clock()
        c1 = cpu_clock()
        if best is not None:
            entry = best[i]
            entry[0] = min(entry[0], t1 - t0)
            entry[1] = min(entry[1], c1 - c0)
        values.append(report.violation_bits)
    return values


def single_state(seed: int) -> dict:
    api, calls = _setup_single_state(seed)
    best = [[2**62, 2**62] for _ in calls]
    passes = [_one_pass(api, calls, best) for _ in range(PASSES)]
    problems = [f"pass {i} differs from pass 0" for i, v in enumerate(passes) if v != passes[0]]
    problems += singlestate.check_subsample(calls, passes[0], CHECK_STRIDE)
    evals = len(calls) * PASSES
    return {
        "evals": evals,
        "best_ns": [wall for wall, _ in best],
        "best_cpu_ns": [cpu for _, cpu in best],
        "failed": evals if problems else 0,
        "problems": problems[:5],
    }


def _traced_cli(name: str, seed: int, seconds: float, out_dir: str) -> dict:
    import entrosteer
    import entrosteer.cli

    wl = workloads.CLI_WORKLOADS[name]
    out = os.path.join(out_dir, "data.out")
    argv = wl.argv(seed, out)

    def run_once(tracer):
        if tracer is not None:
            tracer.install(entrosteer)
        try:
            t0 = time.perf_counter()
            status = entrosteer.cli.main(argv)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        with open(out, "rb") as fh:
            data = fh.read()
        bytes_out = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        return status, wall, data, bytes_out

    run_once(None)   # warm-up: lazy imports and first-call costs stay out of the pairs
    reps, walls_u, walls_t, problems = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        status_u, wall_u, data_u, _ = run_once(None)
        tracer = tracing.Tracer()
        status_t, wall_t, data_t, bytes_out = run_once(tracer)
        walls_u.append(wall_u)
        walls_t.append(wall_t)
        if status_u != 0 or status_t != 0:
            problems.append(f"exit status {status_u} untraced, {status_t} traced")
        if data_t != data_u:
            problems.append(
                f"traced sha256 {hashlib.sha256(data_t).hexdigest()} differs from untraced "
                f"{hashlib.sha256(data_u).hexdigest()}"
            )
        problems += wl.check(data_u, seed)
        metrics = tracing.layer_metrics(tracer.finished(), tracer.root_thread, wl.items, wall_t)
        metrics["cli.bytes_out"] = bytes_out
        reps.append(metrics)
    return _traced_result(reps, walls_u, walls_t, wl.items, problems)


def _traced_single_state(seed: int, seconds: float) -> dict:
    api, calls = _setup_single_state(seed)
    expected = _one_pass(api, calls)   # warm-up, and the untraced values
    problems = singlestate.check_subsample(calls, expected, CHECK_STRIDE)
    reps, walls_u, walls_t = [], [], []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        values_u = _one_pass(api, calls)
        walls_u.append(time.perf_counter() - t0)
        tracer = tracing.Tracer()
        tracer.install(api)
        try:
            t0 = time.perf_counter()
            values_t = _one_pass(api, calls)
            wall_t = time.perf_counter() - t0
        finally:
            tracer.restore()
        walls_t.append(wall_t)
        if values_u != expected or values_t != expected:
            problems.append("a pass gave other values than the first")
        metrics = tracing.layer_metrics(tracer.finished(), tracer.root_thread, len(calls), wall_t)
        metrics["cli.bytes_out"] = 0
        reps.append(metrics)
    return _traced_result(reps, walls_u, walls_t, len(calls), problems)


def _traced_result(reps, walls_u, walls_t, items, problems) -> dict:
    metrics = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    metrics["trace.overhead_s"] = min(walls_t) - min(walls_u)
    attempted = items * len(reps)
    return {
        "passes": len(reps),
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "problems": problems[:5],
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup-single-state":
        _setup_single_state(int(argv[1]))
        return 0
    if mode == "single-state":
        result = single_state(int(argv[1]))
    elif mode == "traced":
        name, seed, seconds, out_dir = argv[1], int(argv[2]), float(argv[3]), argv[4]
        if name == "single-state":
            result = _traced_single_state(seed, seconds)
        else:
            result = _traced_cli(name, seed, seconds, out_dir)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
