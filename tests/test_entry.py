"""The lazy package namespace and the command-line entry point's BLAS policy."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import entrosteer

BLAS = "OPENBLAS_NUM_THREADS"


def _python(code: str, env: dict | None = None) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _env(value: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != BLAS}
    if value is not None:
        env[BLAS] = value
    return env


class TestLazyNamespace:
    def test_import_leaves_numpy_unloaded(self):
        out = _python(
            "import sys, entrosteer; "
            "print('numpy' in sys.modules, [m for m in sys.modules if m.startswith('entrosteer.')])"
        ).stdout
        assert out.strip() == "False []"

    def test_first_lookup_binds_every_export(self):
        out = _python(
            "import entrosteer; entrosteer.tmsv; "
            "print(all(n in vars(entrosteer) for n in entrosteer.__all__))"
        ).stdout
        assert out.strip() == "True"

    @pytest.mark.parametrize("name", entrosteer.__all__)
    def test_every_export_resolves(self, name):
        value = getattr(entrosteer, name)
        if name != "__version__":
            module = sys.modules[f"entrosteer.{entrosteer._MODULE_OF[name]}"]
            assert getattr(module, name) is value
        assert name in dir(entrosteer)

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from entrosteer import *", namespace)
        assert set(entrosteer.__all__) <= set(namespace)
        assert all(namespace[n] is getattr(entrosteer, n) for n in entrosteer.__all__)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'not_a_witness'"):
            entrosteer.not_a_witness
        assert not hasattr(entrosteer, "_private")


# the console-script function and `python -m`, each run in a fresh interpreter
_ENTRY_POINTS = {
    "console-script": ["-c", "import sys; from entrosteer.__main__ import main; "
                             "sys.exit(main(sys.argv[1:]))"],
    "python-m": ["-m", "entrosteer"],
}


def _run_cli(entry: str, argv: list[str], blas: str | None) -> None:
    proc = subprocess.run(
        [sys.executable, *_ENTRY_POINTS[entry], *argv],
        capture_output=True, text=True, timeout=120, env=_env(blas),
    )
    assert proc.returncode == 0, proc.stderr


class TestBlasDefault:
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("blas,seen,defaulted", [(None, "1", True), ("4", "4", False)])
    def test_sets_one_thread_only_when_unset(self, tmp_path, entry, blas, seen, defaulted):
        out = tmp_path / "f.csv"
        _run_cli(entry, ["fig1", "--n", "5", "--out", str(out)], blas)
        manifest = json.loads((tmp_path / "f.manifest.json").read_text())
        assert manifest["blas_threads"] == {BLAS: seen, "defaulted_by_cli": defaulted}

    @pytest.mark.skipif(not (os.path.isdir("/proc/self/task") and "openblas" in str(
        np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"))),
        reason="counts OpenBLAS threads in /proc")
    def test_openblas_starts_no_worker_thread(self):
        out = _python(
            "import contextlib, io, os; from entrosteer.__main__ import main\n"
            "with contextlib.redirect_stdout(io.StringIO()): main(['fig1', '--n', '5'])\n"
            "print(len(os.listdir('/proc/self/task')))",
            env=_env(None),
        ).stdout
        assert out.strip() == "1"

    def test_library_import_leaves_the_variable_alone(self):
        out = _python(
            "import os, entrosteer; entrosteer.werner_state(0.5); "
            f"print(os.environ.get({BLAS!r}))",
            env=_env(None),
        ).stdout
        assert out.strip() == "None"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--n", "5000", "--seed", "3"],
            ["fig2", "--n", "6", "--trials", "50", "--seed", "3", "--threads", "2"],
            ["separable-audit", "--n", "300", "--seed", "3"],
        ],
        ids=["fig1", "fig2", "separable-audit"],
    )
    def test_data_bytes_do_not_depend_on_blas_threads(self, tmp_path, argv):
        data = set()
        for blas in (None, "1", "2"):
            out = tmp_path / f"out-{blas}.dat"
            _run_cli("python-m", [*argv, "--out", str(out)], blas)
            data.add(out.read_bytes())
        assert len(data) == 1
