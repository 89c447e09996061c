import argparse
import errno
import json
import os
import pickle
import re
import shlex
import stat
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import random_density, run_python

from entrosteer import (
    basis_sweep,
    entropic_sumdiff_cv,
    reid_sumdiff_cv,
    singlet_state,
    tmsv,
    walborn_cv,
    werner_state,
)
from entrosteer import cli, montecarlo
from entrosteer.cli import RunConfig, load_state, main, save_state


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main([*argv, "--out", str(out)])
    return code, out


def run_config(**fields) -> RunConfig:
    """A one-state fig1 run record, built with every field as `_config_from_args`
    builds it: `fields` replace the values of a run on standard output."""
    values = {"command": "fig1", "seed": 0, "options": cli.Fig1Options(n=1, ensemble="mixed"),
              "out_path": None, "format": "csv", "threads": 1, "verbose": False}
    return RunConfig(**{**values, **fields})


class TestCsvText:
    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(1.7976931348623157e308)
    @example(1e300)
    @example(float("inf"))
    @example(float("-inf"))
    @example(float("nan"))
    def test_float_format_is_fmt(self, x):
        assert "%.12g" % x == cli._fmt(x)

    def test_rows_match_per_cell_formatting(self, monkeypatch, capsys):
        # each tabular command's fixed row format against its actual rows,
        # formatted one cell at a time: `_fmt` for floats, str() for ints
        tables = []
        csv_text = cli._csv_text

        def spy(header, blocks, row_format):
            rows = [row for block in blocks for row in block]
            tables.append((header, rows))
            return csv_text(header, [rows], row_format)

        monkeypatch.setattr(cli, "_csv_text", spy)
        for argv in (["fig1", "--n", "30", "--ensemble", "pure"], ["fig1", "--n", "30"],
                     ["fig2", "--n", "3", "--trials", "20"], ["sweep", "--n", "30"],
                     ["cv-scan", "--steps", "7"]):
            tables.clear()
            assert main(argv) == 0
            [(header, rows)] = tables
            assert rows and all(type(v) in (int, float) for row in rows for v in row), argv
            expected = ",".join(header) + "\n" + "".join(
                ",".join(cli._fmt(v) if type(v) is float else str(v) for v in row) + "\n"
                for row in rows
            )
            assert capsys.readouterr().out == expected, argv

    def test_fixed_row_format_matches_per_row_dispatch(self):
        # fig1's row format over range ints and tolist() floats, edge values
        # included, against a reference that dispatches on each cell's type
        floats = [1 / 3, -0.0, float("nan"), float("inf"), -1e-310, 1e300, 0.1 + 0.2]
        cols = [floats, floats[::-1], floats[3:] + floats[:3]]
        rows = list(zip(range(len(floats)), *cols))
        header = ["state_id", "a", "b", "c"]
        expected = "state_id,a,b,c\n" + "".join(
            ",".join(cli._fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows
        )
        assert "".join(cli._csv_text(header, [rows], "%d,%.12g,%.12g,%.12g\n")) == expected


class TestJsonText:
    # a table's JSON text, made a block at a time, against `json.dumps` of
    # the whole list of row objects with each float rounded by `_fmt`
    _FLOAT = st.floats(allow_nan=True, allow_infinity=True)
    _ROWS = st.lists(st.tuples(st.integers(-5, 10**6), _FLOAT, _FLOAT), max_size=12)

    @staticmethod
    def expected(header, rows):
        objects = [{k: float(cli._fmt(v)) if isinstance(v, float) else v
                    for k, v in zip(header, row)} for row in rows]
        return json.dumps(objects, indent=2, sort_keys=True) + "\n"

    @given(rows=_ROWS, cuts=st.lists(st.integers(0, 12), max_size=3))
    @example(rows=[], cuts=[])
    @example(rows=[(0, 1e11, -0.0)], cuts=[])
    @example(rows=[(3, float("nan"), float("-inf"))], cuts=[0, 0, 1])
    def test_blocks_join_to_the_whole_table(self, rows, cuts):
        # the header is out of key order, and empty blocks are allowed
        header = ["state_id", "v_b", "purity"]
        edges = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
        blocks = [rows[lo:hi] for lo, hi in zip(edges, edges[1:])]
        assert "".join(cli._json_table_text(header, blocks)) == self.expected(header, rows)

    def test_each_block_is_one_chunk(self):
        rows = [(i, i / 7, -i / 3) for i in range(5)]
        chunks = list(cli._json_table_text(["a", "c", "b"], [rows[:2], [], rows[2:]]))
        assert len(chunks) == 3 and chunks[-1] == "\n]\n"


def _state_doc(dims, n):
    # the maximally mixed n x n state under the given "dims" value
    return {"dims": dims, "matrix": [[[1.0 / n if i == j else 0.0, 0.0] for j in range(n)]
                                     for i in range(n)]}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dims", "matrix", "x"]), inner, max_size=3),
    max_leaves=20,
)
_NUMBER = (st.integers(-2, 4) | st.floats(allow_nan=True, allow_infinity=True)
           | st.booleans() | st.just(10**400))


@st.composite
def _state_files(draw):
    """Text of a state file: well-formed, malformed, extreme or not JSON."""
    n = draw(st.integers(0, 4))
    entry = st.lists(_NUMBER, min_size=2, max_size=2) | _JSON
    doc = {
        "dims": draw(st.lists(_NUMBER, max_size=3) | _JSON),
        "matrix": draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n,
                                max_size=n)),
    }
    valid = _state_doc(*draw(st.sampled_from([([2, 2], 4), ([1, 3], 3), ([2, 1], 2)])))
    text = json.dumps(draw(st.sampled_from([doc, valid, draw(_JSON)])))
    depth = draw(st.integers(0, 3)) * 1000
    return draw(st.sampled_from([
        text,
        text[: draw(st.integers(0, len(text)))],
        "[" * depth + text + "]" * depth,
    ]))


class TestStateFiles:
    """A state file either loads as documented or is a configuration error."""

    def test_round_trip_exact(self, tmp_path, rng):
        rho = random_density(rng, 2, 3)
        path = tmp_path / "state.json"
        save_state(str(path), rho)
        back = load_state(str(path))
        assert back.dims == (2, 3)
        assert np.array_equal(back.mat, rho.mat)

    def test_layout(self, tmp_path):
        path = tmp_path / "w.json"
        save_state(str(path), werner_state(0.8))
        data = json.loads(path.read_text())
        assert data["dims"] == [2, 2]
        assert len(data["matrix"]) == 4
        re, im = data["matrix"][0][0]
        assert abs(re - 0.05) < 1e-15 and im == 0.0

    def test_load_errors_are_config_errors(self, tmp_path):
        from entrosteer.cli import ConfigError

        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2, 2]}')
        with pytest.raises(ConfigError):
            load_state(str(bad))
        with pytest.raises(ConfigError):
            load_state(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize(
        "dims,n",
        [("22", 4), ([2.7, 1], 2), ([2.0, 2], 4), ([True, 2], 2), ([2, 2, 1], 4), ([0, 4], 4)],
        ids=["string", "fraction", "float", "bool", "three", "zero"],
    )
    def test_dims_must_be_two_integers(self, tmp_path, dims, n):
        # each matrix fits the dims an int() coercion would make of the value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_state_doc(dims, n)))
        with pytest.raises(cli.ConfigError, match='"dims" must be a list of two integers'):
            load_state(str(path))

    @pytest.mark.parametrize(
        "entry", [[1.0, 0.0, 5.0], [True, False], [1.0], [1.0, True], [1.0, "0"], [], 0.5,
                  {"re": 1.0, "im": 0.0}],
        ids=["three-numbers", "booleans", "one-number", "one-boolean", "string", "empty",
             "bare-number", "object"])
    def test_each_entry_must_be_two_real_numbers(self, tmp_path, entry):
        # the entry at row 1, column 0 of the maximally mixed qubit pair; every
        # other entry is valid
        doc = _state_doc([2, 2], 4)
        doc["matrix"][1][0] = entry
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.ConfigError, match="matrix entry at row 1, column 0 is not"):
            load_state(str(path))
        code = main(["eval", "--state-file", str(path), "--witness", "mub-mi"])
        assert code == 2

    def test_a_one_by_one_boolean_state_is_refused(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"dims": [1, 1], "matrix": [[[true, false]]]}')
        with pytest.raises(cli.ConfigError, match="row 0, column 0"):
            load_state(str(path))

    def test_integer_entries_load(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"dims": [1, 1], "matrix": [[[1, 0]]]}')
        assert load_state(str(path)).mat.tolist() == [[1 + 0j]]

    def test_deep_nesting_exits_2_with_one_error_line(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        proc = run_python("-m", "entrosteer", "eval", "--state-file", str(path),
                          "--witness", "mub-mi")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot load state file")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        text=_state_files(),
        witness=st.sampled_from(["pair-conditional", "pair-symmetric-mi", "mub-conditional",
                                 "mub-mi", "sumdiff-discrete"]),
        direction=st.sampled_from(["AtoB", "BtoA"]),
    )
    def test_any_state_file_exits_cleanly(self, tmp_path, text, witness, direction):
        path = tmp_path / "fuzz.json"
        path.write_text(text)
        code, _ = run(tmp_path, "eval", "--state-file", str(path), "--witness", witness,
                      "--direction", direction)
        assert code in (0, 1, 2)


class TestFig1Command:
    def test_csv_shape(self, tmp_path):
        code, out = run(tmp_path, "fig1", "--n", "40", "--seed", "7")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "state_id,v_conditional_AtoB,v_symmetric,purity"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[0] == "0"
        assert all(np.isfinite(float(v)) for v in first[1:])

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        args = ["fig1", "--n", "150", "--seed", "11"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        assert main([*args, "--threads", "1", "--out", str(a)]) == 0
        assert main([*args, "--threads", "1", "--out", str(b)]) == 0
        assert main([*args, "--threads", "4", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        _, a = run(tmp_path, "fig1", "--n", "20", "--seed", "1")
        text_a = a.read_text()
        _, b = run(tmp_path, "fig1", "--n", "20", "--seed", "2")
        assert text_a != b.read_text()

    def test_json_format_matches_csv(self, tmp_path):
        code, out = run(tmp_path, "fig1", "--n", "10", "--seed", "3",
                        "--format", "json")
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 10
        assert set(rows[0]) == {"state_id", "v_conditional_AtoB", "v_symmetric",
                                "purity"}

    def test_stdout_when_no_out(self, capsys):
        assert main(["fig1", "--n", "5", "--seed", "4"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("state_id,")
        assert len(captured.splitlines()) == 6


class TestManifest:
    def test_written_next_to_out(self, tmp_path):
        out = tmp_path / "survey.csv"
        assert main(["fig1", "--n", "8", "--seed", "5", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "survey.manifest.json").read_text())
        assert manifest["command"] == "fig1"
        assert manifest["seed"] == 5
        assert manifest["parameters"] == {"n": 8, "ensemble": "mixed"}
        assert (manifest["format"], manifest["threads"]) == ("csv", 1)
        assert set(manifest["versions"]) == {"entrosteer", "numpy", "python"}
        assert manifest["wall_time_s"] >= 0

    @pytest.mark.parametrize("blas,defaulted", [("3", False), (None, False), ("1", True)])
    def test_records_blas_threads(self, tmp_path, monkeypatch, blas, defaulted):
        if blas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        out = tmp_path / "survey.csv"
        assert main(["fig1", "--n", "4", "--out", str(out)],
                    blas_threads_defaulted=defaulted) == 0
        manifest = json.loads((tmp_path / "survey.manifest.json").read_text())
        assert set(manifest) == {"blas_threads", "command", "format", "parameters", "seed",
                                 "threads", "timestamp", "versions", "wall_time_s"}
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": blas,
                                            "defaulted_by_cli": defaulted}

    @pytest.mark.parametrize("argv", [
        ["fig1", "--n", "3"],
        ["fig2", "--n", "2", "--trials", "5"],
        ["sweep", "--n", "3", "--werner", "0.7"],
        ["werner-threshold", "--tol", "1e-3"],
        ["cv-scan", "--steps", "2"],
        ["eval", "--state-file", "STATE", "--witness", "mub-mi"],
        ["separable-audit", "--n", "3", "--k-max", "2"],
    ], ids=lambda argv: argv[0])
    def test_parameters_are_the_commands_own_options(self, tmp_path, argv):
        state = tmp_path / "w.json"
        save_state(str(state), werner_state(0.8))
        argv = [str(state) if a == "STATE" else a for a in argv]
        out = tmp_path / "run.dat"
        assert main([*argv, "--out", str(out)]) == 0
        parameters = json.loads((tmp_path / "run.manifest.json").read_text())["parameters"]
        args = cli._build_parser().parse_args(argv)
        options_cls = cli._COMMANDS[argv[0]][0]
        assert parameters == {name: getattr(args, name) for name in options_cls.FIELDS}

    @pytest.mark.parametrize("argv,threads", [
        (["fig1", "--n", "4"], 1),
        (["separable-audit", "--n", "4"], 1),
        (["fig2", "--n", "1", "--trials", "5"], 1),
        (["fig2", "--n", "4", "--trials", "5"], min(2, os.cpu_count() or 2)),
    ], ids=["fig1", "separable-audit", "fig2-one-state", "fig2"])
    def test_records_the_threads_used(self, tmp_path, argv, threads):
        # not the --threads cap: fig1 and the audit run on one thread, and
        # fig2 starts no more threads than it has states or the machine CPUs
        assert main([*argv, "--threads", "2", "--out", str(tmp_path / "run.dat")]) == 0
        assert json.loads((tmp_path / "run.manifest.json").read_text())["threads"] == threads

    def test_not_written_for_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig1", "--n", "5"]) == 0
        assert list(tmp_path.glob("*.manifest.json")) == []

    def test_not_written_on_failure(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(["werner-threshold", "--lo", "0.9", "--hi", "0.95",
                     "--out", str(out)])
        assert code == 1
        assert not (tmp_path / "t.manifest.json").exists()


class TestAtomicWrites:
    """A write that fails leaves no partial file, and a file already at the
    path keeps its old bytes."""

    OLD = b"old bytes\n"

    @staticmethod
    def config(out):
        return run_config(out_path=str(out))

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_data_write(self, tmp_path, existing):
        out = tmp_path / "out.csv"
        if existing:
            out.write_bytes(self.OLD)
        config = self.config(out)
        # a lone surrogate cannot be encoded, so the write raises partway
        with pytest.raises(UnicodeEncodeError):
            cli._emit(config, "state_id\n0\n" * 1000 + "\ud800\n")
        assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if existing else [])
        if existing:
            assert out.read_bytes() == self.OLD

    def test_failed_rename_removes_temporary(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        out.write_bytes(self.OLD)

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            cli._emit(self.config(out), "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert out.read_bytes() == self.OLD

    @pytest.mark.parametrize("device", [True, False], ids=["dev-full", "full-disk"])
    def test_unwritable_output_exits_2(self, tmp_path, monkeypatch, capsys, device):
        # one error line naming the output, no traceback, and no file left
        if device and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        out = "/dev/full" if device else str(tmp_path / "out.csv")

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        if not device:   # a device is written in place, not renamed over
            monkeypatch.setattr(cli.os, "replace", disk_full)
        assert main(["fig1", "--n", "5", "--out", out]) == 2
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert list(tmp_path.iterdir()) == []
        assert not os.path.exists(cli._manifest_path(out))

    def test_failed_manifest_write_names_the_manifest(self, tmp_path, monkeypatch, capsys):
        # the data file was written in full: the error names the manifest
        out = tmp_path / "out.csv"
        write = cli._write_atomic

        def manifest_disk_full(path, chunks):
            if path.endswith(".manifest.json"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write(path, chunks)

        monkeypatch.setattr(cli, "_write_atomic", manifest_disk_full)
        assert main(["fig1", "--n", "5", "--out", str(out)]) == 2
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        manifest = cli._manifest_path(str(out))
        assert capsys.readouterr().err == f"error: cannot write {manifest}: {reason}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        monkeypatch.undo()
        again = tmp_path / "again.csv"
        assert main(["fig1", "--n", "5", "--out", str(again)]) == 0
        assert out.read_bytes() == again.read_bytes()

    def test_failed_manifest_keeps_old_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        manifest = tmp_path / "out.manifest.json"
        manifest.write_bytes(self.OLD)
        config = self.config(out)

        def refuse(*args, **kwargs):
            raise TypeError("not serialisable")

        monkeypatch.setattr(cli.json, "dumps", refuse)
        with pytest.raises(TypeError, match="not serialisable"):
            cli._write_manifest(config, 1.0)
        assert [p.name for p in tmp_path.iterdir()] == ["out.manifest.json"]
        assert manifest.read_bytes() == self.OLD

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o755])
    def test_replacing_keeps_the_permission_bits(self, tmp_path, mode):
        out = tmp_path / "out.csv"
        out.write_bytes(self.OLD)
        out.chmod(mode)
        config = self.config(out)
        cli._emit(config, "new\n")
        cli._write_manifest(config, 1.0)
        assert out.read_bytes() == b"new\n"
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_symlink_keeps_pointing_at_its_target(self, tmp_path):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "out.csv"
        target.write_bytes(self.OLD)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        cli._emit(self.config(link), "new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["out.csv"]

    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        cli._emit(self.config(fifo), "new\n")
        reader.join(timeout=10)
        assert got == [b"new\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_rerun_replaces_file(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(self.OLD)
        assert main(["fig1", "--n", "5", "--seed", "1", "--out", str(out)]) == 0
        assert out.read_text().startswith("state_id,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.manifest.json"]


class TestFig2Command:
    def test_csv_shape(self, tmp_path):
        code, out = run(tmp_path, "fig2", "--n", "4", "--trials", "40",
                        "--seed", "9")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "state_id,best_v_AtoB,best_v_BtoA,purity"
        assert len(lines) == 5

    def test_threads_do_not_change_bytes(self, tmp_path):
        args = ["fig2", "--n", "6", "--trials", "30", "--seed", "10"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([*args, "--threads", "1", "--out", str(a)]) == 0
        assert main([*args, "--threads", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommand:
    def test_default_werner(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--n", "25", "--seed", "12")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial_id,v_AtoB,v_BtoA"
        assert len(lines) == 26
        for line in lines[1:]:
            _, v_ab, v_ba = line.split(",")
            assert abs(float(v_ab) - float(v_ba)) < 1e-9

    def test_matches_library_sweep(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--n", "20", "--seed", "13",
                        "--werner", "0.8")
        assert code == 0
        want = basis_sweep(werner_state(0.8), 20, np.random.default_rng(13))
        lines = out.read_text().splitlines()[1:]
        for line, (v_ab, v_ba) in zip(lines, want):
            _, got_ab, got_ba = line.split(",")
            assert abs(float(got_ab) - v_ab) < 1e-9
            assert abs(float(got_ba) - v_ba) < 1e-9

    def test_state_file_input(self, tmp_path):
        path = tmp_path / "singlet.json"
        save_state(str(path), singlet_state().to_density())
        code, out = run(tmp_path, "sweep", "--n", "30", "--seed", "14",
                        "--state-file", str(path))
        assert code == 0
        best = max(float(l.split(",")[1]) for l in out.read_text().splitlines()[1:])
        assert best > 0.5

    def test_bad_werner_parameter(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--n", "5", "--werner", "1.5")
        assert code == 2

    @pytest.mark.parametrize("dims", [(2, 3), (4, 4), (1, 1)], ids=["unequal", "no-mub", "one"])
    def test_state_it_cannot_search_is_a_configuration_error(self, tmp_path, monkeypatch,
                                                             capsys, dims):
        # once reported as a numerical failure with exit 1
        path = tmp_path / "state.json"
        save_state(str(path), random_density(np.random.default_rng(2), *dims))
        monkeypatch.setattr(cli, "basis_sweep", lambda *a: pytest.fail("the search started"))
        code, out = run(tmp_path, "sweep", "--n", "5", "--state-file", str(path))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: sweep "), lines
        assert not out.exists()


class TestWernerThresholdCommand:
    def test_two_settings(self, tmp_path):
        code, out = run(tmp_path, "werner-threshold", "--settings", "2",
                        "--tol", "1e-7")
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["p_star"] - 0.7799442711232785) < 1e-5
        assert data["settings"] == 2
        assert data["witness"] == "pair-conditional"

    def test_three_settings(self, tmp_path):
        code, out = run(tmp_path, "werner-threshold", "--settings", "3",
                        "--tol", "1e-7")
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["p_star"] - 0.6520953371812113) < 1e-5
        assert data["witness"] == "mub-conditional"

    def test_no_bracket_exits_one(self, tmp_path):
        code, _ = run(tmp_path, "werner-threshold", "--lo", "0.9", "--hi", "0.95")
        assert code == 1

    def test_rejects_csv_format(self, tmp_path):
        code, _ = run(tmp_path, "werner-threshold", "--format", "csv")
        assert code == 2

    def test_rejects_zero_tolerance(self, tmp_path, capsys):
        code, _ = run(tmp_path, "werner-threshold", "--tol", "0")
        assert code == 2
        assert capsys.readouterr().err == "error: tolerance must be positive\n"


    def test_tolerance_below_float_spacing_terminates(self):
        proc = run_python("-m", "entrosteer", "werner-threshold", "--tol", "1e-300")
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["p_star"] - 0.7799442711232785) < 1e-9


class TestCvScanCommand:
    def test_rows_match_library(self, tmp_path):
        code, out = run(tmp_path, "cv-scan", "--r-min", "0", "--r-max", "2",
                        "--steps", "5")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,v_walborn,v_reid,v_entropic_sumdiff"
        assert len(lines) == 6
        for line in lines[1:]:
            r, vw, vr, ve = (float(v) for v in line.split(","))
            state = tmsv(r)
            assert abs(vw - walborn_cv(state).violation_bits) < 1e-9
            assert abs(vr - reid_sumdiff_cv(state).violation_bits) < 1e-9
            assert abs(ve - entropic_sumdiff_cv(state).violation_bits) < 1e-9

    def test_rejects_bad_range(self, tmp_path):
        code, _ = run(tmp_path, "cv-scan", "--r-min", "2", "--r-max", "1")
        assert code == 2

    @pytest.mark.parametrize("r_min,r_max", [("nan", "1"), ("0", "nan"), ("0", "inf")])
    def test_rejects_non_finite_range(self, tmp_path, r_min, r_max):
        code, _ = run(tmp_path, "cv-scan", "--r-min", r_min, "--r-max", r_max)
        assert code == 2

    def test_squeezing_past_the_usable_range_exits_1(self, tmp_path):
        out = tmp_path / "cv.csv"
        proc = run_python("-m", "entrosteer", "cv-scan", "--r-min", "0", "--r-max", "10",
                          "--steps", "3", "--out", str(out))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR "), proc.stderr
        assert lines[0].endswith("usable for 0 <= r <= 6.2")
        assert not out.exists()

    def test_physical_state_past_the_range_reports_the_range(self, tmp_path):
        # tmsv(8) once failed its own physicality check instead
        proc = run_python("-m", "entrosteer", "cv-scan", "--r-min", "8", "--r-max", "8",
                          "--steps", "1")
        assert proc.returncode == 1
        assert proc.stderr.rstrip("\n").endswith("usable for 0 <= r <= 6.2"), proc.stderr
        assert "uncertainty" not in proc.stderr


class TestEvalCommand:
    def test_werner_mub_conditional(self, tmp_path):
        path = tmp_path / "w08.json"
        save_state(str(path), werner_state(0.8))
        code, out = run(tmp_path, "eval", "--state-file", str(path),
                        "--witness", "mub-conditional")
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["violation_bits"] - 0.5930132192321567) < 1e-9
        assert data["name"] == "mub_conditional"
        assert data["direction"] == "AtoB"

    def test_all_witnesses_run_on_singlet(self, tmp_path):
        path = tmp_path / "singlet.json"
        save_state(str(path), singlet_state().to_density())
        for witness, violation in [
            ("pair-conditional", 1.0),
            ("pair-symmetric-mi", 1.0),
            ("mub-conditional", 2.0),
            ("mub-mi", 2.0),
            ("sumdiff-discrete", 1.0),
        ]:
            code, out = run(tmp_path, "eval", "--state-file", str(path),
                            "--witness", witness)
            assert code == 0
            data = json.loads(out.read_text())
            assert abs(data["violation_bits"] - violation) < 1e-9, witness

    def test_missing_state_file(self, tmp_path):
        code, _ = run(tmp_path, "eval", "--state-file",
                      str(tmp_path / "nope.json"), "--witness", "mub-mi")
        assert code == 2

    def test_witness_not_applicable(self, tmp_path, rng):
        path = tmp_path / "rect.json"
        save_state(str(path), random_density(rng, 2, 3))
        code, _ = run(tmp_path, "eval", "--state-file", str(path),
                      "--witness", "pair-symmetric-mi")
        assert code == 2


class TestSeparableAuditCommand:
    def test_small_audit_is_sound(self, tmp_path):
        code, out = run(tmp_path, "separable-audit", "--n", "200", "--seed", "17")
        assert code == 0
        data = json.loads(out.read_text())
        assert data["sound"] is True
        assert data["ppt_min_eigenvalue"] >= -1e-12
        assert len(data["max_violation"]) == 9
        assert all(v <= 1e-9 for v in data["max_violation"].values())

    def test_violation_exits_1(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(montecarlo, "_soundness_audit",
                            lambda mats: {"pair_conditional_AtoB": 1e-6, "mub_mi": -1.0})
        code, out = run(tmp_path, "separable-audit", "--n", "20")
        assert code == 1
        assert "soundness audit found a violation above 1e-09" in caplog.messages
        assert json.loads(out.read_text())["sound"] is False


class TestBlockPipeline:
    """fig1 and separable-audit sample, check and evaluate one block of states
    (`montecarlo._BLOCK`, 1024) at a time, each from seeds drawn when its
    block is reached."""

    @staticmethod
    def spy_sampler(monkeypatch, sampler, bad=-1):
        # records each block's size; the state at global index `bad` gets trace 1.1
        sample, sizes = getattr(montecarlo, sampler), []

        def spied(*args):
            mats = sample(*args)
            lo = sum(sizes)
            sizes.append(len(mats))
            if lo <= bad < lo + len(mats):
                mats[bad - lo] *= 1.1
            return mats

        monkeypatch.setattr(montecarlo, sampler, spied)
        return sizes

    @pytest.mark.parametrize("argv,sampler,bad,sizes", [
        (["fig1", "--n", "2000", "--out", "OUT"], "_ensemble_stack", 1030, [1024, 976]),
        (["fig1", "--n", "2000", "--out", "OLD"], "_ensemble_stack", 1030, [1024, 976]),
        (["fig1", "--n", "2000", "--format", "json", "--out", "OLD"], "_ensemble_stack", 1030,
         [1024, 976]),
        (["fig1", "--n", "2000"], "_ensemble_stack", 1030, [1024, 976]),
        (["separable-audit", "--n", "1025", "--out", "OUT"], "_separable_stack", 1024,
         [1024, 1]),
    ], ids=["fig1-file", "fig1-old-file", "fig1-json-old-file", "fig1-stdout",
            "separable-audit"])
    def test_failure_in_a_later_block(self, tmp_path, monkeypatch, capsys, caplog, argv,
                                      sampler, bad, sizes):
        # the error names the index in the whole stack, even in a block of one;
        # the first block's rows are neither left in a file nor shown
        old = tmp_path / "OLD"
        old.write_bytes(b"old bytes\n")
        argv = [str(tmp_path / a) if a in ("OUT", "OLD") else a for a in argv]
        seen = self.spy_sampler(monkeypatch, sampler, bad)
        assert main(argv) == 1
        assert seen == sizes
        assert re.search(rf"differs from 1 beyond 1e-10 \(stack index {bad}\)$", caplog.text)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["OLD"]
        assert old.read_bytes() == b"old bytes\n"
        assert capsys.readouterr().out == ""

    def test_blocks_are_the_fixed_partition(self, monkeypatch, capsys):
        sizes = self.spy_sampler(monkeypatch, "_ensemble_stack")
        assert main(["fig1", "--n", "9000"]) == 0
        assert sizes == [1024] * 8 + [808]
        assert len(capsys.readouterr().out.splitlines()) == 9001

    def test_first_block_rows_do_not_depend_on_n(self, tmp_path):
        _, a = run(tmp_path, "fig1", "--n", "1024", "--seed", "6")
        rows = a.read_text().splitlines()
        _, b = run(tmp_path, "fig1", "--n", "1025", "--seed", "6")
        longer = b.read_text().splitlines()
        assert len(longer) == 1026 and longer[:1025] == rows

    def test_audit_folds_to_the_library_audit(self, tmp_path):
        # the PPT minimum and the per-witness maxima over three blocks equal
        # the library's over the same states, to the 12 digits the file keeps,
        # and those of the streamed library audit the command runs
        from entrosteer import DensityMatrix, separable_audit, soundness_audit
        from entrosteer.streams import _derived_seeds

        code, out = run(tmp_path, "separable-audit", "--n", "8200", "--k-max", "2",
                        "--seed", "4")
        assert code == 0
        data = json.loads(out.read_text())
        seeds = _derived_seeds(np.random.default_rng(4), 8200)
        states = [DensityMatrix((2, 2), m) for m in montecarlo._separable_stack(seeds, 2)]
        for ppt_min, maxima in (soundness_audit(states),
                                separable_audit(8200, 2, np.random.default_rng(4))):
            assert data["ppt_min_eigenvalue"] == float(cli._fmt(ppt_min))
            assert data["max_violation"] == {k: float(cli._fmt(v)) for k, v in maxima.items()}

    @pytest.mark.parametrize("argv", [["fig1"], ["fig1", "--format", "json"],
                                      ["separable-audit", "--k-max", "12"]],
                             ids=["fig1", "fig1-json", "separable-audit"])
    def test_peak_memory_is_one_block(self, tmp_path, argv):
        # traced peaks of a file run do not grow with n: ten times the states
        # (three blocks against thirty) peak within 10%
        out = ["--out", str(tmp_path / "out.dat")]
        assert main([*argv, "--n", "20", *out]) == 0   # one-time allocations first
        peaks = []
        for size in ("3000", "30000"):
            tracemalloc.start()
            try:
                assert main([*argv, "--n", size, *out]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.1 * min(peaks)


class TestSeedResolution:
    def test_env_seed_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTROSTEER_SEED", "11")
        _, a = run(tmp_path, "fig1", "--n", "15")
        text_env = a.read_text()
        monkeypatch.delenv("ENTROSTEER_SEED")
        _, b = run(tmp_path, "fig1", "--n", "15", "--seed", "11")
        assert text_env == b.read_text()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTROSTEER_SEED", "99")
        _, a = run(tmp_path, "fig1", "--n", "15", "--seed", "11")
        text_flag = a.read_text()
        monkeypatch.delenv("ENTROSTEER_SEED")
        _, b = run(tmp_path, "fig1", "--n", "15", "--seed", "11")
        assert text_flag == b.read_text()

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTROSTEER_SEED", "eleven")
        code, _ = run(tmp_path, "fig1", "--n", "5")
        assert code == 2

    def test_default_seed_is_zero(self, tmp_path):
        _, a = run(tmp_path, "fig1", "--n", "10")
        text_default = a.read_text()
        _, b = run(tmp_path, "fig1", "--n", "10", "--seed", "0")
        assert text_default == b.read_text()


class TestValidation:
    def test_zero_states_rejected(self, tmp_path):
        code, _ = run(tmp_path, "fig1", "--n", "0")
        assert code == 2

    def test_zero_threads_rejected(self, tmp_path):
        code, _ = run(tmp_path, "fig1", "--n", "5", "--threads", "0")
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["fig1", "--n", "0"], "--n must be >= 1, got 0"),
        (["fig1", "--n", "5", "--threads", "0"], "--threads must be >= 1, got 0"),
        (["fig1", "--n", "5", "--threads", "-1"], "--threads must be >= 1, got -1"),
        (["fig2", "--n", "2", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["sweep", "--n", "-3"], "--n must be >= 1, got -3"),
        (["separable-audit", "--n", "3", "--k-max", "0"], "--k-max must be >= 1, got 0"),
        (["cv-scan", "--steps", "0"], "--steps must be >= 1, got 0"),
    ], ids=["n", "threads-zero", "threads-negative", "trials", "sweep-n", "k-max", "steps"])
    def test_count_errors_name_the_flag(self, monkeypatch, capsys, argv, message):
        # every count said "counts must be >= 1" for --n, --trials and --threads
        monkeypatch.setattr(cli, "dispatch", lambda *a, **k: pytest.fail("the run started"))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value,kind", [(2.0, "float"), (True, "bool")])
    def test_records_refuse_a_count_that_is_no_integer(self, value, kind):
        with pytest.raises(cli.ConfigError, match=f"^--n must be an integer, got {kind}$"):
            cli.Fig1Options(n=value, ensemble="mixed")
        with pytest.raises(cli.ConfigError, match=f"^--threads must be an integer, got {kind}$"):
            run_config(threads=value)

    def test_records_are_read_only_and_take_their_own_fields_only(self):
        options = cli.Fig1Options(n=3, ensemble="mixed")
        config = run_config(options=options)
        for record, name in ((options, "n"), (options, "other"), (config, "seed")):
            with pytest.raises(AttributeError, match="is read-only"):
                setattr(record, name, 4)
            with pytest.raises(AttributeError, match="is read-only"):
                delattr(record, name)
        assert (vars(options), config.seed) == ({"n": 3, "ensemble": "mixed"}, 0)
        with pytest.raises(TypeError, match=r"^Fig1Options takes the fields \('n', 'ensemble'\)"):
            cli.Fig1Options(n=3, ensemble="mixed", m=1, k_max=2)
        # the defaults are the parser's: a record takes every field
        with pytest.raises(TypeError, match=r"^EvalOptions takes the fields"):
            cli.EvalOptions(state_file="w.json", witness="mub-mi")

    def test_a_run_record_round_trips_through_pickle(self, tmp_path):
        config = run_config(options=cli.SeparableAuditOptions(n=3, k_max=2),
                            command="separable-audit", out_path=str(tmp_path / "a.json"),
                            format="json")
        back = pickle.loads(pickle.dumps(config))
        assert back is not config and repr(back) == repr(config)
        assert type(back.options) is cli.SeparableAuditOptions
        assert vars(back.options) == {"n": 3, "k_max": 2}
        # rebuilt through the constructor, so its checks run again
        vars(config)["threads"] = 0
        with pytest.raises(cli.ConfigError, match="^--threads must be >= 1, got 0$"):
            pickle.loads(pickle.dumps(config))

    def test_no_record_has_its_own_constructor_or_repr(self):
        # every record gets its fields through `_Record.__init__` alone, which
        # pickle and copy reach through `_Record.__reduce__`
        records, todo = [], [cli._Record]
        while todo:
            records.append(todo.pop())
            todo.extend(records[-1].__subclasses__())
        own = [cls.__name__ for cls in records[1:] if {"__init__", "__repr__"} & vars(cls).keys()]
        assert own == [] and len([cls for cls in records if cls.FIELDS]) == 15


class TestWorkBudget:
    """A run whose estimated memory exceeds physical memory is a
    configuration error, raised before anything is allocated."""

    HUGE = str(10**15)
    MAX = str(10**9)   # cli._MAX_COUNT

    @staticmethod
    def estimate(argv):
        config = cli._config_from_args(cli._build_parser().parse_args(argv))
        return config.options.peak_bytes(config)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--n", "6000"],
            ["fig1", "--n", "20000"],
            ["fig1", "--n", "20000", "--format", "json"],
            ["sweep", "--n", "6000", "--format", "json"],
            ["separable-audit", "--n", "500", "--k-max", "12"],
            ["separable-audit", "--n", "2000", "--k-max", "1"],
            ["separable-audit", "--n", "10000", "--k-max", "4"],
            ["fig2", "--n", "2", "--trials", "30000", "--threads", "2"],
            ["cv-scan", "--steps", "1500", "--format", "json"],
        ],
        ids=["fig1", "fig1-20000", "fig1-20000-json", "sweep-json", "separable-audit",
             "separable-audit-k1", "separable-audit-k4", "fig2", "cv-scan-json"],
    )
    def test_estimate_covers_the_traced_peak(self, tmp_path, argv):
        # every array and Python object of the run is traced; the estimate
        # must cover the peak without being far above it
        argv = [*argv, "--out", str(tmp_path / "out.dat")]
        estimate = self.estimate(argv)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= estimate <= 2 * peak

    def test_estimate_scales_with_every_count(self):
        # fig1 holds one block for a file, whatever --n, and the whole text
        # for standard output
        for fmt in ("csv", "json"):
            file = ["--format", fmt, "--out", "f"]
            block = self.estimate(["fig1", "--n", "2000", *file])
            assert block == self.estimate(["fig1", "--n", "2048", *file])
            assert block == self.estimate(["fig1", "--n", "1000000", *file])
        base = self.estimate(["fig1", "--n", "3000"])
        assert self.estimate(["fig1", "--n", "6000"]) > base
        assert self.estimate(["fig1", "--n", "3000", "--format", "json"]) > base
        assert (self.estimate(["separable-audit", "--n", "10", "--k-max", "9"])
                > self.estimate(["separable-audit", "--n", "10", "--k-max", "3"]))
        fig2 = self.estimate(["fig2", "--n", "4", "--trials", "1000"])
        assert self.estimate(["fig2", "--n", "4", "--trials", "2000"]) > fig2
        assert self.estimate(["cv-scan", "--steps", "20"]) == 2 * self.estimate(
            ["cv-scan", "--steps", "10"])
        assert self.estimate(["werner-threshold"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--n", HUGE],
            ["sweep", "--n", HUGE],
            ["separable-audit", "--n", HUGE],
            ["separable-audit", "--k-max", HUGE],
            ["fig2", "--trials", HUGE],
            ["cv-scan", "--steps", HUGE],
            ["fig1", "--n", str(10**9 + 1), "--out", "F"],
            ["separable-audit", "--n", str(10**9 + 1)],
        ],
        ids=["fig1-n", "sweep-n", "audit-n", "audit-k-max", "fig2-trials", "cv-scan-steps",
             "fig1-file-past-ceiling", "audit-n-past-ceiling"],
    )
    def test_absurd_count_exits_2_before_the_run(self, monkeypatch, capsys, argv):
        # a count above the ceiling is refused whatever memory it would take
        # (a fig1 file or an audit holds one block for any n), before any run
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", 64 * 2**30)
        monkeypatch.setattr(cli, "dispatch", lambda *a, **k: pytest.fail("the run started"))
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: {argv[1]} must be <= 1000000000, "
                                           f"got {argv[2]}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--n", MAX],
            ["sweep", "--n", MAX],
            ["fig2", "--n", MAX],
            ["cv-scan", "--steps", MAX],
            ["separable-audit", "--k-max", MAX],
        ],
        ids=["fig1-stdout-n", "sweep-n", "fig2-n", "cv-scan-steps", "audit-k-max"],
    )
    def test_counts_at_the_ceiling_still_meet_the_budget(self, monkeypatch, capsys, argv):
        # a fixed budget, and no run can start if the check ever passed
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", 64 * 2**30)
        monkeypatch.setattr(cli, "dispatch", lambda *a, **k: pytest.fail("the run started"))
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {argv[0]} would need about ")
        assert lines[0].endswith("more than the 64 GiB this machine has")

    @pytest.mark.parametrize(
        "argv",
        [
            ["separable-audit", "--n", MAX, "--k-max", "5"],
            ["separable-audit", "--n", "400001", "--k-max", "10000"],
            ["separable-audit", "--n", "4000001", "--k-max", "1000", "--out", "F"],
        ],
        ids=["n-at-ceiling-k5", "k-max-10000", "file-k-max-1000"],
    )
    def test_audit_past_its_time_bound_exits_2_before_the_run(self, monkeypatch, capsys, argv):
        # each count is under the ceiling and the memory fits, but the audit's
        # time grows with --n * --k-max: refused past 4 * _MAX_COUNT term slots
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", 64 * 2**30)
        monkeypatch.setattr(cli, "separable_audit", lambda *a: pytest.fail("the audit started"))
        assert main(argv) == 2
        work = int(argv[2]) * int(argv[4])
        assert capsys.readouterr() == ("", f"error: --n * --k-max must be <= 4000000000, "
                                           f"got {work}\n")
        assert not os.path.exists("F")

    @pytest.mark.parametrize("argv", [
        ["fig2", "--n", "1000000", "--trials", "1000000"],
        ["fig2", "--n", "4001", "--trials", "1000000", "--out", "F"],
    ], ids=["both-10**6", "file-one-state-past"])
    def test_fig2_past_its_time_bound_exits_2_before_the_run(self, monkeypatch, capsys, argv):
        # 10**12 trials fit the count ceiling and the memory (about 1.94 GiB),
        # but at 6-8 us a trial would take weeks: refused past 4 * _MAX_COUNT trials
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", 64 * 2**30)
        monkeypatch.setattr(cli, "survey_fig2", lambda *a, **k: pytest.fail("the survey started"))
        assert main(argv) == 2
        work = int(argv[2]) * int(argv[4])
        assert capsys.readouterr() == ("", f"error: --n * --trials must be <= 4000000000, "
                                           f"got {work}\n")
        assert not os.path.exists("F")

    def test_fig2_at_its_time_bound_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", 64 * 2**30)
        ran = []
        monkeypatch.setattr(cli, "survey_fig2", lambda *a, **k: ran.append(a[:3]) or [])
        assert main(["fig2", "--n", "4000", "--trials", str(10**6)]) == 0
        assert ran == [(4000, "mixed", 10**6)] and 4000 * 10**6 == cli._MAX_TRIALS
        assert capsys.readouterr().out == "state_id,best_v_AtoB,best_v_BtoA,purity\n"

    @pytest.mark.parametrize("n,k_max", [(10**9, 4), (10**8, 40), (4 * 10**5, 10**4)])
    def test_audit_at_its_time_bound_runs(self, monkeypatch, capsys, n, k_max):
        # 10**9 states at the default --k-max 4 take the longest of any audit
        # allowed; a block at --k-max 10**4 holds about 5 GB, within the budget
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", 64 * 2**30)
        ran = []
        monkeypatch.setattr(cli, "separable_audit", lambda *a: ran.append(a[:2]) or (0.0, {}))
        assert main(["separable-audit", "--n", str(n), "--k-max", str(k_max)]) == 0
        assert ran == [(n, k_max)] and n * k_max == cli._MAX_TERMS == 4 * cli._MAX_COUNT
        assert json.loads(capsys.readouterr().out)["sound"]

    def test_budget_is_physical_memory(self):
        assert cli._MEMORY_BUDGET == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


_COUNT = st.integers(-2, 30).map(str) | st.sampled_from(["0", "-0", "+3", "1_0", "x", ""])
_FLOAT = (st.floats(allow_nan=True, allow_infinity=True).map(repr)
          | st.sampled_from(["0", "1", "0.5", "-1", "1e400", "-0.0", "x"]))
_FLAGS = {
    "--seed": st.integers(-2, 2**70).map(str) | st.just("x"),
    "--threads": st.integers(-1, 2).map(str),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--n": _COUNT, "--trials": _COUNT, "--k-max": _COUNT, "--steps": _COUNT,
    "--ensemble": st.sampled_from(["pure", "mixed", "other"]),
    "--werner": _FLOAT, "--tol": _FLOAT, "--lo": _FLOAT, "--hi": _FLOAT,
    "--r-min": _FLOAT, "--r-max": _FLOAT,
    "--settings": st.sampled_from(["2", "3", "4"]),
    "--state-file": st.sampled_from(["QUBITS", "QUTRITS", "MISSING"]),
    "--witness": st.sampled_from(["pair-conditional", "pair-symmetric-mi", "mub-conditional",
                                  "mub-mi", "sumdiff-discrete", "none"]),
    "--direction": st.sampled_from(["AtoB", "BtoA", "up"]),
    "--out": st.sampled_from(["FILE", "DIR", "MISSING/out.dat"]),
    "--verbose": st.none(),
}
_COMMON = ["--seed", "--threads", "--format", "--out", "--verbose"]
# each subcommand's own flags, read from its options record as the parser is
_COMMANDS = {command: ["--" + name.replace("_", "-") for name in options_cls.FIELDS]
             for command, (options_cls, *_) in cli._COMMANDS.items()}
# given every time: eval needs them, and the other defaults are large runs
_ALWAYS = {"fig1": ["--n"], "fig2": ["--n", "--trials"], "sweep": ["--n"],
           "separable-audit": ["--n"], "eval": ["--state-file", "--witness"]}


@st.composite
def _argvs(draw):
    """A command and a few of its flags, each with a small, odd or malformed
    value; now and then a flag of another command."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    pool = st.sampled_from(_COMMON + _COMMANDS[command])
    if draw(st.integers(0, 3)) == 0:
        pool = st.sampled_from(sorted(_FLAGS))
    flags = draw(st.lists(pool, max_size=5, unique=True))
    always = _ALWAYS.get(command, [])
    flags = always + [f for f in flags if f not in always]
    argv = [command]
    for flag in flags:
        value = draw(_FLAGS[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


class TestArgvFuzz:
    def test_every_parser_option_has_a_value_strategy(self):
        # a new option cannot go unfuzzed
        parser = cli._build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for command, subparser in sub.choices.items():
            flags = {flag for a in subparser._actions for flag in a.option_strings
                     if flag.startswith("--") and flag != "--help"}
            assert flags == set(_COMMON + _COMMANDS[command]), command
            assert flags <= set(_FLAGS), command

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argvs())
    @example(argv=["cv-scan", "--r-max", "inf", "--steps", "3"])
    @example(argv=["cv-scan", "--r-max", "179", "--steps", "2"])   # overflow warning
    @example(argv=["cv-scan", "--r-max", "356", "--steps", "2"])   # math.cosh overflow
    @example(argv=["separable-audit", "--n", "3", "--k-max", "0"])
    @example(argv=["eval", "--state-file", "QUTRITS", "--witness", "sumdiff-discrete"])
    def test_any_argv_exits_cleanly(self, tmp_path, capsys, argv):
        qubits, qutrits = tmp_path / "q2.json", tmp_path / "q3.json"
        save_state(str(qubits), werner_state(0.8))
        save_state(str(qutrits), random_density(np.random.default_rng(1), 3, 3))
        paths = {"QUBITS": qubits, "QUTRITS": qutrits, "MISSING": tmp_path / "missing.json",
                 "FILE": tmp_path / "out.dat", "DIR": tmp_path,
                 "MISSING/out.dat": tmp_path / "missing" / "out.dat"}
        argv = [str(paths[a]) if a in paths else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: usage errors exit 2
            code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err


class TestConfigurationErrors:
    """Bad configuration exits 2 with one error line, before any work."""

    def fails_cleanly(self, *argv):
        proc = run_python("-m", "entrosteer", *argv)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_negative_seed_flag(self):
        self.fails_cleanly("fig1", "--n", "5", "--seed", "-3")

    def test_negative_env_seed(self, monkeypatch):
        monkeypatch.setenv("ENTROSTEER_SEED", "-3")
        self.fails_cleanly("fig1", "--n", "5")

    def test_out_directory_missing(self, tmp_path):
        out = tmp_path / "missing" / "fig1.csv"
        self.fails_cleanly("fig1", "--n", "5", "--out", str(out))
        assert not out.parent.exists()

    def test_out_is_a_directory(self, tmp_path):
        self.fails_cleanly("fig1", "--n", "5", "--out", str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_out_empty(self):
        # an empty --out was read as no --out: the data went to standard output
        self.fails_cleanly("fig1", "--n", "2", "--out", "")

    def test_nan_tolerance(self):
        # an infinite tolerance returned the bracket's midpoint and wrote
        # "tol": Infinity, which is not JSON
        for tol in ("nan", "inf"):
            self.fails_cleanly("werner-threshold", "--tol", tol)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--werner", "1.5"],
        ["werner-threshold", "--lo", "0.9", "--hi", "0.2"],
        ["cv-scan", "--steps", "0"],
        ["separable-audit", "--k-max", "0"],
    ], ids=lambda argv: argv[0])
    def test_option_ranges_are_checked_before_the_run(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "dispatch", lambda *a, **k: pytest.fail("the run started"))
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @pytest.mark.parametrize("spare", [-1, 5], ids=["data-temporary", "manifest-temporary"])
    def test_out_name_too_long_for_its_temporaries(self, tmp_path, monkeypatch, capsys, spare):
        # the data file's temporary name leaves `spare` bytes under the limit;
        # the manifest's is 10 bytes longer (".manifest.json" for ".csv")
        suffix = len(f".{os.getpid()}.tmp")
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        out = tmp_path / ("x" * (limit - suffix - spare - 4) + ".csv")
        monkeypatch.setattr(cli, "dispatch", lambda *a, **k: pytest.fail("the run started"))
        assert main(["fig1", "--n", "5", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --out name too long"), lines
        assert list(tmp_path.iterdir()) == []

    def test_out_name_at_the_limit_runs(self, tmp_path):
        # the manifest's temporary name is exactly as long as allowed
        suffix = len(f".{os.getpid()}.tmp")
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        out = tmp_path / ("x" * (limit - suffix - len(".manifest.json")) + ".csv")
        assert main(["fig1", "--n", "3", "--out", str(out)]) == 0
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".json"]

    def test_empty_sweep_state_file(self, tmp_path):
        # an empty path is a state file that cannot be read, not "no state file"
        out = tmp_path / "sweep.csv"
        self.fails_cleanly("sweep", "--n", "5", "--state-file", "", "--out", str(out))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("k_max", ["0", "-2"])
    def test_k_max_below_one(self, tmp_path, k_max):
        # once reported as a numerical failure with exit 1
        out = tmp_path / "audit.json"
        self.fails_cleanly("separable-audit", "--n", "3", "--k-max", k_max, "--out", str(out))
        assert not out.exists()


class TestCommandTable:
    COMMON = {"help", "seed", "threads", "out", "format", "verbose"}

    def test_options_fields_are_each_subcommands_own_dests(self):
        # an argument missing from its record would be parsed and dropped
        parser = cli._build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(cli._COMMANDS)
        for command, subparser in sub.choices.items():
            dests = {a.dest for a in subparser._actions}
            assert self.COMMON <= dests, command
            assert dests - self.COMMON == set(cli._COMMANDS[command][0].FIELDS)


class TestReproduceScript:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.sh"

    def test_every_run_line_parses_into_a_config(self, tmp_path):
        # parsed and checked as the script would run them, but not run
        text = self.SCRIPT.read_text().replace("\\\n", " ")
        values = {}
        for name, count in re.findall(r"\b([A-Z][A-Z0-9_]*)=(\d+)", text):
            values.setdefault(name, count)   # the desk-scale counts come first
        values.update(SEED="7", THREADS="2", OUTDIR=str(tmp_path))
        commands = []
        for line in text.splitlines():
            if line.startswith("$RUN "):
                line = re.sub(r"\$\{?(\w+)\}?", lambda m: values[m[1]], line[len("$RUN "):])
                args = cli._build_parser().parse_args(shlex.split(line))
                commands.append(cli._config_from_args(args).command)
        assert len(commands) == 9
        assert set(commands) == set(cli._COMMANDS) - {"eval"}


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = run_python("-m", "entrosteer", "fig1", "--n", "5", "--seed", "2", "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text().startswith("state_id,")

    def test_a_file_run_leaves_its_file_and_manifest_only(self, tmp_path):
        # a relative --out, run from another working directory: no temporary
        # file is left beside the two it writes
        proc = run_python("-m", "entrosteer", "fig1", "--n", "5", "--out", "f.csv",
                          cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "f.manifest.json"]
