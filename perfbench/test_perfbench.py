"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q     (from the root of a checkout)
"""

import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import entrosteer  # noqa: E402
import entrosteer.cli  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
import singlestate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# ---------------------------------------------------------------------------
# self time

def test_self_time_subtracts_union_of_children():
    spans = [
        Span("cli.main", 0, 100, 1, None),
        Span("montecarlo.a", 10, 40, 1, 0),
        Span("qmat.b", 20, 30, 1, 1),
        Span("montecarlo.c", 35, 60, 2, 0),   # overlaps a, in another thread
    ]
    assert tracing.self_times_ns(spans) == [50, 20, 10, 25]


def test_self_time_clips_children_to_the_parent_interval():
    spans = [Span("cli.main", 0, 10, 1, None), Span("qmat.x", 5, 20, 2, 0)]
    assert tracing.self_times_ns(spans) == [5, 15]


def test_tracer_nests_spans_across_threads():
    tracer = tracing.Tracer()
    inner = tracer.wrap("qmat.inner", lambda: sum(range(1000)))

    def work(_):
        return inner()

    def survey():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(work, range(8)))

    tracer.wrap("montecarlo.survey", survey)()
    spans = tracer.finished()
    root = [i for i, s in enumerate(spans) if s.name == "montecarlo.survey"]
    assert len(root) == 1
    assert all(s.parent == root[0] for s in spans if s.name == "qmat.inner")
    selfs = tracing.self_times_ns(spans)
    assert all(v >= 0 for v in selfs)
    metrics = tracing.layer_metrics(spans, tracer.root_thread, items=8, wall_s=1.0)
    assert 1 <= metrics["montecarlo.threads_used"] <= 2


# ---------------------------------------------------------------------------
# percentile rule

@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
     (99, 75.0), (40, 75.0), (39, None), (5, None)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    p = run.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert n - math.ceil(p / 100.0 * n) >= run.TAIL_BEYOND


def test_latency_summary_falls_back_to_the_maximum():
    few = run.latency_summary([3.0, 1.0, 2.0, 5.0, 4.0])
    assert few == {"n": 5, "p50": 3.0, "tail": 5.0, "tail_p": "max"}
    many = run.latency_summary([float(i) for i in range(1, 1001)])
    assert many["p50"] == 500.0
    assert many["tail"] == 990.0 and many["tail_p"] == 99.0


# ---------------------------------------------------------------------------
# correctness gate

def _fig1_csv(rows):
    lines = ["state_id,v_conditional_AtoB,v_symmetric,purity"]
    lines += [",".join(map(str, r)) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def test_csv_gate_accepts_valid_and_rejects_corrupted_tables():
    check = workloads.CLI_WORKLOADS["scatter"].problems
    good = [[0, -0.5, -1.0, 0.25], [1, 0.1, 0.2, 1]]
    assert check(_fig1_csv(good), 2) == []
    assert check(_fig1_csv(good), 3)                                      # row count
    assert check(_fig1_csv([[0, "nan", -1.0, 0.25], good[1]]), 2)          # not finite
    assert check(_fig1_csv([good[0], [1, 0.1, 0.2, 1.5]]), 2)             # purity
    assert check(_fig1_csv([good[1], good[0]]), 2)                        # ids out of order
    assert check(b"state_id,x\n0,1\n1,2\n", 2)                            # header


def test_audit_gate_rejects_unsound_summaries():
    check = workloads.CLI_WORKLOADS["audit"].problems
    doc = {"n": 4, "k_max": 4, "ppt_min_eigenvalue": 1e-3, "sound": True,
           "tolerance": 1e-9, "max_violation": {"mub_mi": -0.5}}
    assert check(json.dumps(doc).encode(), 4) == []
    for change in ({"sound": False}, {"ppt_min_eigenvalue": -1e-9}, {"n": 3},
                   {"max_violation": {"mub_mi": 0.1}}):
        assert check(json.dumps({**doc, **change}).encode(), 4)
    assert check(b'{"n": 4', 4)


def test_gate_rejects_a_corrupted_data_file(tmp_path):
    wl = workloads.CLI_WORKLOADS["search"]
    out = str(tmp_path / "search.csv")
    assert entrosteer.cli.main(wl.argv(workloads.DEFAULT_SEED, out)) == 0
    with open(out, "rb") as fh:
        data = fh.read()
    assert wl.check(data, workloads.DEFAULT_SEED) == []
    # last digit of one violation changed: the invariants hold, the digest does not
    lines = data.split(b"\n")
    fields = lines[2].split(b",")
    fields[1] = fields[1][:-1] + (b"1" if fields[1][-1:] != b"1" else b"2")
    lines[2] = b",".join(fields)
    bad = b"\n".join(lines)
    assert wl.problems(bad, wl.items) == []
    problems = wl.check(bad, workloads.DEFAULT_SEED)
    assert len(problems) == 1 and hashlib.sha256(bad).hexdigest() in problems[0]


def test_single_state_reference_agrees_and_catches_a_wrong_value():
    calls = singlestate.build_calls(entrosteer, seed=3)
    values = [getattr(entrosteer, c.witness)(*c.args, **c.kwargs).violation_bits for c in calls]
    assert {c.witness for c in calls[::5]} == {
        "pair_conditional", "pair_symmetric_mi", "sumdiff_discrete", "mub_conditional", "mub_mi"
    }
    assert singlestate.check_subsample(calls, values, stride=1) == []
    values[10] += 1e-6
    assert len(singlestate.check_subsample(calls, values, stride=1)) == 1


# ---------------------------------------------------------------------------
# wrappers

def _snapshot():
    mods = [entrosteer] + [getattr(entrosteer, layer) for layer in tracing.LAYERS]
    state = {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}
    for layer, cls in tracing.VALIDATED:
        state[(layer, cls)] = id(vars(getattr(entrosteer, cls))["__post_init__"])
    return state


def test_wrappers_leave_the_package_unchanged_after_a_traced_run(tmp_path):
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install(entrosteer)
    try:
        assert entrosteer.cli.main(
            ["fig1", "--n", "40", "--threads", "2", "--out", str(tmp_path / "f.csv")]
        ) == 0
        x, y, z = entrosteer.pauli_bases()
        entrosteer.mub_conditional(entrosteer.werner_state(0.8), [x, y, z], [x, y, z])
    finally:
        tracer.restore()
    assert _snapshot() == before
    names = {s.name for s in tracer.finished()}
    assert {"cli.main", "montecarlo.survey_fig1", "montecarlo.sample_ensemble",
            "qmat.random_mixed_state", "qmat.DensityMatrix", "measure.ProjectiveBasis",
            "witness.mub_conditional", "measure.joint_distribution",
            "infotheory.conditional_entropy"} <= names
    # the untraced package still runs, and records nothing more
    count = len(tracer.spans)
    entrosteer.survey_fig1(5, "mixed", np.random.default_rng(0))
    assert len(tracer.spans) == count


def test_layer_metrics_account_for_a_serial_traced_pass(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(entrosteer)
    try:
        entrosteer.cli.main(["separable-audit", "--n", "30", "--out", str(tmp_path / "a.json")])
    finally:
        tracer.restore()
    spans = tracer.finished()
    root = next(s for s in spans if s.name == "cli.main")
    wall = (root.end - root.start) / 1e9
    m = tracing.layer_metrics(spans, tracer.root_thread, items=30, wall_s=wall)
    assert m["trace.accounted_share"] == pytest.approx(1.0, abs=1e-6)
    assert m["montecarlo.kernel_calls"] == 2          # audit and PPT check
    assert 3 <= m["qmat.validations_per_item"] <= 9   # 2k + 1 for k in 1..4


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "scatter", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
