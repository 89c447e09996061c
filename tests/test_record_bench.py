"""The BENCH_<n>.json writer of scripts/record_bench.py, on canned benchmark runs,
and the base checkout of scripts/bench_pairs.py."""

import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_pairs  # noqa: E402
import record_bench  # noqa: E402

METRICS = ("items_per_s", "eval_p50_us", "eval_p99_us", "cpu_s", "peak_rss_mb", "setup_s")


def _runs(workload_index: int) -> list[dict]:
    """Canned `run_once` results of one workload over five seeds."""
    return [{m: 10.0 * workload_index + k + j for j, m in enumerate(METRICS)} for k in range(5)]


def test_the_file_pins_its_schema(tmp_path):
    names = ("scatter", "audit", "search", "single-state")
    runs = {name: _runs(i) for i, name in enumerate(names)}
    cli = [{"argv": ["fig1", "--n", "10000"], "repeats": 3, "best_wall_s": 0.2,
            "peak_rss_mb": 39.0}]
    machine = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "OPENBLAS_NUM_THREADS": None,
               "PYTHONDONTWRITEBYTECODE": "1", "commit": "0" * 40, "src_differs": False,
               "loadavg_before": [0.5, 0.5, 0.5], "loadavg_after": [1.0, 0.5, 0.5]}
    data = record_bench.record(runs, cli, machine, ["scatter", "single-state"],
                               {m: "u" for m in METRICS})
    path = tmp_path / "BENCH_0.json"
    record_bench.write(str(path), data)
    back = json.loads(path.read_text(encoding="utf-8"))
    assert back == data
    assert set(back) == {"schema", "recorded", "machine", "seeds", "seconds", "units", "gated",
                         "ungated", "cli"}
    assert (back["schema"], back["seeds"], back["seconds"]) == (1, [900, 901, 902, 903, 904], 50.0)
    assert (set(back["gated"]), set(back["ungated"])) == ({"scatter", "single-state"},
                                                          {"audit", "search"})
    assert back["machine"] == machine and back["cli"] == cli
    scatter_cpu = back["gated"]["scatter"]["cpu_s"]
    assert scatter_cpu == {"median": 5.0, "q1": 4.0, "q3": 6.0,
                           "values": [3.0, 4.0, 5.0, 6.0, 7.0]}
    assert all(set(metrics) == set(METRICS) for group in ("gated", "ungated")
               for metrics in back[group].values())


def test_a_base_ref_git_cannot_check_out_exits_1_and_leaves_no_directory(tmp_path, monkeypatch):
    # the temporary worktree directory goes, and git's message is the one line
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "benchmark", lambda root: (("scatter",), {"end_to_end": []}))
    monkeypatch.setattr(bench_pairs, "compare", lambda *a: pytest.fail("a pair ran"))
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    with pytest.raises(SystemExit) as stop:   # a message exits with status 1
        bench_pairs.main(["--base", "no-such-ref-xyz", "--pairs", "2"])
    assert stop.value.code.startswith("cannot check out --base no-such-ref-xyz: fatal: ")
    assert "\n" not in stop.value.code and list(tmp_path.iterdir()) == []
