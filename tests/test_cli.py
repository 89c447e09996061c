import json
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from conftest import random_density

from entrosteer import (
    basis_sweep,
    entropic_sumdiff_cv,
    reid_sumdiff_cv,
    singlet_state,
    tmsv,
    walborn_cv,
    werner_state,
)
from entrosteer import cli
from entrosteer.cli import RunConfig, load_state, main, save_state


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main([*argv, "--out", str(out)])
    return code, out


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

    def test_rows_match_per_cell_formatting(self):
        rows = [
            [0, 1 / 3, -0.0, float("nan")],
            [np.int64(7), np.float64(1e-310), 2**70, float("-inf")],
            ["label", True, 3, -2**0.5 * 1e100],
        ]
        expected = "a,b,c,d\n" + "".join(
            ",".join(cli._fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows
        )
        assert cli._csv_text(["a", "b", "c", "d"], rows) == expected


class TestStateFiles:
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
        assert manifest["parameters"]["n_states"] == 8
        assert set(manifest["versions"]) == {"entrosteer", "numpy", "python"}
        assert manifest["wall_time_s"] >= 0

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

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_data_write(self, tmp_path, existing):
        out = tmp_path / "out.csv"
        if existing:
            out.write_bytes(self.OLD)
        config = RunConfig(command="fig1", seed=0, out_path=str(out))
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
            cli._emit(RunConfig(command="fig1", seed=0, out_path=str(out)), "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert out.read_bytes() == self.OLD

    def test_failed_manifest_keeps_old_manifest(self, tmp_path):
        out = tmp_path / "out.csv"
        manifest = tmp_path / "out.manifest.json"
        manifest.write_bytes(self.OLD)
        config = RunConfig(command="fig1", seed=0, out_path=str(out), extra={"x": object()})
        with pytest.raises(TypeError):
            cli._write_manifest(config, 1.0)
        assert [p.name for p in tmp_path.iterdir()] == ["out.manifest.json"]
        assert manifest.read_bytes() == self.OLD

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o755])
    def test_replacing_keeps_the_permission_bits(self, tmp_path, mode):
        out = tmp_path / "out.csv"
        out.write_bytes(self.OLD)
        out.chmod(mode)
        config = RunConfig(command="fig1", seed=0, out_path=str(out))
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
        cli._emit(RunConfig(command="fig1", seed=0, out_path=str(link)), "new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["out.csv"]

    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        cli._emit(RunConfig(command="fig1", seed=0, out_path=str(fifo)), "new\n")
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


    def test_tolerance_below_float_spacing_terminates(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entrosteer", "werner-threshold", "--tol", "1e-300"],
            capture_output=True, text=True, timeout=120,
        )
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

    def test_squeezing_past_the_usable_range_exits_1(self, tmp_path):
        out = tmp_path / "cv.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "entrosteer", "cv-scan", "--r-min", "0",
             "--r-max", "10", "--steps", "3", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR "), proc.stderr
        assert lines[0].endswith("usable for 0 <= r <= 6.2")
        assert not out.exists()

    def test_physical_state_past_the_range_reports_the_range(self, tmp_path):
        # tmsv(8) once failed its own physicality check instead
        proc = subprocess.run(
            [sys.executable, "-m", "entrosteer", "cv-scan", "--r-min", "8",
             "--r-max", "8", "--steps", "1"],
            capture_output=True, text=True, timeout=120,
        )
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


class TestConfigurationErrors:
    """Bad configuration exits 2 with one error line, before any work."""

    def fails_cleanly(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "entrosteer", *argv],
            capture_output=True, text=True, timeout=120,
        )
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

    def test_nan_tolerance(self):
        self.fails_cleanly("werner-threshold", "--tol", "nan")


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "entrosteer", "fig1", "--n", "5",
             "--seed", "2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.read_text().startswith("state_id,")
