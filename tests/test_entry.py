"""The lazy package namespace, the library's numeric entry points, where each
numerical rule is defined, and the command-line entry point's BLAS policy."""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from conftest import loop_violation, random_basis, random_density, random_povm
from hypothesis import given, settings
from hypothesis import strategies as st

import entrosteer
from entrosteer.cvgauss import TMSV_R_MAX

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

    def test_fig1_loads_neither_cvgauss_nor_a_thread_pool(self):
        # each command imports what only it needs (cv-scan, fig2) when it runs
        out = _python(
            "import contextlib, io, sys\n"
            "from entrosteer.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['fig1', '--n', '5']) == 0\n"
            "print([m for m in ('entrosteer.cvgauss', 'concurrent.futures') if m in sys.modules])"
        ).stdout
        assert out.strip() == "[]"

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


class TestStartup:
    """The entry point loads `cli` with the cyclic garbage collector off and
    freezes what it loaded; a quiet run never imports `logging`."""

    def test_a_quiet_run_loads_no_logging_and_freezes_the_imports(self, tmp_path):
        out = tmp_path / "f.csv"
        proc = _python(
            "import gc, sys; from entrosteer.__main__ import main\n"
            f"status = main(['fig1', '--n', '5', '--out', {str(out)!r}])\n"
            "print(status, 'logging' in sys.modules, gc.isenabled(), gc.get_freeze_count() > 0,"
            " 'dataclasses' in sys.modules)"
        )
        assert (proc.stdout, proc.stderr) == ("0 False True True False\n", "")

    def test_verbose_still_logs_both_lines(self, tmp_path):
        out = tmp_path / "f.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "entrosteer", "fig1", "--n", "5", "--out", str(out),
             "--verbose"], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == (f"INFO wrote {out}\n"
                               f"INFO manifest written to {tmp_path / 'f.manifest.json'}\n")

    def test_library_import_freezes_nothing(self):
        out = _python("import gc, sys, entrosteer.cli, entrosteer; entrosteer.GaussianState\n"
                      "print(gc.isenabled(), gc.get_freeze_count(), 'dataclasses' in sys.modules)")
        assert out.stdout == "True 0 False\n"


# Values the library entry points must either handle or refuse with a
# ValueError or TypeError: small finite floats, NaN, infinities, huge values
# and the smallest subnormal.
_SPECIALS = (np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324)
_VALUES = st.one_of(st.sampled_from(_SPECIALS), st.floats(-2.0, 2.0))


@st.composite
def _near(draw, valid):
    """`valid` as drawn from: unchanged, with one entry or every entry replaced
    by a drawn value, scaled by a huge or tiny factor, or an array of a drawn
    shape (at most 3 axes of at most 4 entries) filled with drawn values."""
    a = np.array(valid, dtype=complex if np.iscomplexobj(valid) else float)
    kind = draw(st.sampled_from(["valid", "poke", "fill", "scale", "shape"]))
    if kind == "poke" and a.size:
        a.flat[draw(st.integers(0, a.size - 1))] = draw(_VALUES)
    elif kind == "fill":
        a[...] = draw(_VALUES)
    elif kind == "scale":
        a = a * draw(st.sampled_from([1e308, -1e308, 5e-324, 2.0]))
    elif kind == "shape":
        shape = draw(st.lists(st.integers(0, 4), max_size=3))
        values = draw(st.lists(_VALUES, min_size=math.prod(shape), max_size=math.prod(shape)))
        a = np.array(values, dtype=float).reshape(shape)
    return a


def _counts(high: int):
    """Counts up to `high`, and values that are no count: floats, bools and
    NaN, beside a numpy integer, which is one."""
    return st.integers(-1, high) | st.sampled_from([np.int64(2), 2.0, 2.5, True, False, np.nan])


_DIMS = st.just((2, 2)) | st.tuples(_counts(3), _counts(3))
_ENSEMBLES = st.sampled_from(["pure", "mixed", "bell", None])
_STATES = st.sampled_from([
    entrosteer.werner_state(0.8), entrosteer.werner_state(0.2),
    entrosteer.DensityMatrix((1, 2), np.eye(2) / 2),
    entrosteer.DensityMatrix((3, 3), np.eye(9) / 9), np.eye(4) / 4,
])
# a state of any type the two-qubit measures may be handed
_ANY_STATES = _STATES | st.sampled_from([entrosteer.singlet_state(), np.eye(4)[0]])
_X, _, _Z = entrosteer.pauli_bases()
_FAMILIES = st.sampled_from([
    lambda p: p - 0.5,
    lambda p: -1.0 if p < 0.5 else 1.0,
    lambda p: math.nan if 0.3 < p < 0.6 else p - 0.7,
    lambda p: entrosteer.pair_conditional(
        entrosteer.werner_state(p), _X, _Z, _X, _Z).violation_bits,
])


def _rng():
    return np.random.default_rng(0)


def _basis(draw):
    return entrosteer.ProjectiveBasis(draw(_counts(3)), draw(_near(np.eye(2))))


def _povm(draw):
    half = np.eye(2) / 2
    return entrosteer.Povm(draw(_counts(3)), (draw(_near(half)), draw(_near(half))))


_PAULI = {"basis": entrosteer.pauli_bases(), "povm": [b.povm for b in entrosteer.pauli_bases()]}


def _measurement(draw, kind: str):
    """Mostly a measurement of `kind` ("basis" or "povm"), a Pauli one or one
    drawn by `_basis` or `_povm`; at times one of the other kind, or not a
    measurement at all."""
    other = "povm" if kind == "basis" else "basis"
    pick = draw(st.sampled_from([kind] * 4 + [other, None]))
    if pick is None:
        return draw(st.sampled_from(["junk", np.eye(2), None]))
    if draw(st.booleans()):
        return draw(st.sampled_from(_PAULI[pick]))
    return (_basis if pick == "basis" else _povm)(draw)


# the discrete witnesses' inputs: states of local dimension up to 3, and for
# each dimension a few fitting measurements (bases and POVMs) and MUB sets
_W_RNG = np.random.default_rng(17)
_WITNESS_STATES = st.sampled_from([
    entrosteer.werner_state(0.8), entrosteer.werner_state(0.2),
    *(random_density(_W_RNG, d_a, d_b)
      for d_a, d_b in ((2, 2), (3, 3), (3, 3), (3, 3), (2, 3), (3, 2), (1, 2))),
    entrosteer.DensityMatrix((3, 3), np.eye(9) / 9), np.eye(4) / 4,
])
_MEAS = {d: [*entrosteer.mub_set(d)[::d], random_basis(_W_RNG, d), random_povm(_W_RNG, d, 2),
             random_povm(_W_RNG, d, 3)] for d in (2, 3)}


def _rotated(bases, u):
    return [entrosteer.rotate_basis(b, u) for b in bases]


_MUBS = {d: [list(entrosteer.mub_set(d)),
             _rotated(entrosteer.mub_set(d), entrosteer.random_unitary(d, _W_RNG))]
         for d in (2, 3)}
_DIRECTIONS = st.sampled_from(["AtoB", "BtoA", "sideways", ["AtoB"], None])
_SIGNS = st.sampled_from([
    ("plus", "minus"), ("minus", "plus"), ["plus", "minus"], ["minus", "plus"], ["plus", "plus"],
    ("minus", "minus"), "pm", "plus",
    ("plus",), ("plus", "minus", "plus"), (["plus"], "minus"), ("plus", "xor"), None,
])


def _measurement(draw, dim, bases_only=False):
    """A basis of the party's dimension `dim` with `bases_only`. Otherwise
    mostly a basis or POVM of that dimension; at times one of the other
    dimension, a drawn basis that may be broken, or no measurement."""
    kinds = ["fits"] * 6 + ["other", "broken", "none"]
    kind = "fits" if bases_only else draw(st.sampled_from(kinds))
    if kind == "broken":
        return _basis(draw)
    if kind == "none":
        return draw(st.sampled_from([None, "X", np.eye(2)]))
    fits = dim if dim in _MEAS else 2
    choices = _MEAS[fits if kind == "fits" else 5 - fits]
    return draw(st.sampled_from(choices[:3] if bases_only else choices))


def _measurement_set(draw, dim):
    """Mostly a complete MUB set of dimension `dim`; at times d + 1 drawn
    measurements, a set one basis short, or a set of the other dimension."""
    fits = dim if dim in _MUBS else 2
    kind = draw(st.sampled_from(["mub"] * 4 + ["drawn", "short", "other"]))
    if kind == "drawn":
        return [_measurement(draw, dim) for _ in range(fits + 1)]
    if kind == "other":
        return draw(st.sampled_from(_MUBS[5 - fits]))
    bases = draw(st.sampled_from(_MUBS[fits]))
    return bases[:-1] if kind == "short" else bases


def _witness(name):
    """A call of the discrete witness `name` that checks the violation it
    returns against the loop oracle, to 1e-12."""
    def call(draw):
        rho = draw(_WITNESS_STATES)
        d_a, d_b = getattr(rho, "dims", (2, 2))
        if name.startswith("mub"):
            meas = (_measurement_set(draw, d_a), _measurement_set(draw, d_b))
        else:
            # half the calls draw fitting bases only, which each pair witness takes
            bases_only = draw(st.booleans())
            meas = tuple(_measurement(draw, d, bases_only) for d in (d_a, d_a, d_b, d_b))
        kw = {}
        if name in ("pair_conditional", "mub_conditional"):
            kw["direction"] = draw(_DIRECTIONS)
        if name == "sumdiff_discrete":
            kw["signs"] = draw(_SIGNS)
        report = getattr(entrosteer, name)(rho, *meas, **kw)
        try:
            want = loop_violation(name, rho, *meas, **kw)
        except Exception as exc:   # the oracle must take what the witness took
            raise AssertionError(f"the loop oracle refused accepted input: {exc!r}") from exc
        assert abs(report.violation_bits - want) < 1e-12, (name, kw, report, want)
        return report
    return call


# the continuous-variable inputs: covariances near the vacuum, a thermal
# state, a two-mode squeezed vacuum and an unphysical matrix (entries below 1.7,
# so that `_near`'s huge scale stays finite)
_COVARIANCES = [0.5 * np.eye(4), 1.5 * np.eye(4), entrosteer.tmsv(0.5).cov, 0.1 * np.eye(4)]
_GAUSSIANS = [entrosteer.GaussianState(c) for c in _COVARIANCES[:3]] + [
    entrosteer.tmsv(0.0), entrosteer.tmsv(TMSV_R_MAX), entrosteer.tmsv(7.0)]


def _covariance(draw):
    """A drawn covariance: a `_near` variant of one of `_COVARIANCES`, at times
    with an imaginary part added, zero or not."""
    cov = draw(_near(draw(st.sampled_from(_COVARIANCES))))
    if draw(st.booleans()):
        cov = cov + 1j * draw(st.sampled_from([0.0, 5e-324, 0.5]))
    return cov


def _gaussian(draw):
    """Mostly a Gaussian state, a two-mode squeezed vacuum of drawn squeezing
    (past the usable range at times) or one of `_GAUSSIANS`; at times a state
    of another type or a bare covariance."""
    kind = draw(st.sampled_from(["tmsv"] * 3 + ["fixed"] * 2 + ["other"]))
    if kind == "tmsv":
        return entrosteer.tmsv(draw(st.floats(0.0, 8.0)))
    if kind == "fixed":
        return draw(st.sampled_from(_GAUSSIANS))
    return draw(st.sampled_from([entrosteer.werner_state(0.5), _COVARIANCES[0], None]))


# entry point -> a call of it whose arguments come from Hypothesis' `data.draw`
_CALLS = {
    "DensityMatrix": lambda d: entrosteer.DensityMatrix(
        d(_DIMS), d(_near(np.eye(4, dtype=complex) / 4))),
    "PureState": lambda d: entrosteer.PureState(d(_DIMS), d(_near(np.eye(4)[0]))),
    "ProjectiveBasis": _basis,
    "Povm": _povm,
    "rotate_basis": lambda d: entrosteer.rotate_basis(
        _measurement(d, "basis"), d(_near(np.eye(2)))),
    "ProbVector": lambda d: entrosteer.ProbVector(d(_near([0.5, 0.5]))),
    "JointDistribution": lambda d: entrosteer.JointDistribution(
        2, 2, d(_near(np.eye(2) / 2))),
    "shannon_entropy": lambda d: entrosteer.shannon_entropy(d(_near([0.25] * 4))),
    "von_neumann_entropy": lambda d: entrosteer.von_neumann_entropy(
        d(_near(np.eye(2) / 2))),
    "conditional_entropy": lambda d: entrosteer.conditional_entropy(
        d(_near(np.eye(2) / 2))),
    "concurrence": lambda d: entrosteer.concurrence(d(_ANY_STATES)),
    "entanglement_of_formation": lambda d: entrosteer.entanglement_of_formation(d(_ANY_STATES)),
    "mutual_information": lambda d: entrosteer.mutual_information(
        d(_near(np.eye(3) / 3))),
    "modular_sum_entropy": lambda d: entrosteer.modular_sum_entropy(
        d(_near(np.eye(2) / 2)), "plus"),
    "measurement_distribution": lambda d: entrosteer.measurement_distribution(
        d(_near(np.eye(2, dtype=complex) / 2)), entrosteer.pauli_bases()[0]),
    "overlap_omega": lambda d: entrosteer.overlap_omega(
        _measurement(d, "basis"), _measurement(d, "basis")),
    "povm_omega": lambda d: entrosteer.povm_omega(_measurement(d, "povm"), _measurement(d, "povm")),
    "is_mub_set": lambda d: entrosteer.is_mub_set(
        [entrosteer.pauli_bases()[0], _measurement(d, "basis")]),
    "sanchez_ruiz_bound": lambda d: entrosteer.sanchez_ruiz_bound(d(st.one_of(
        st.integers(-2, 10**400), _VALUES, _counts(4)))),
    "random_unitary": lambda d: entrosteer.random_unitary(d(_counts(4)), _rng()),
    "random_mixed_state": lambda d: entrosteer.random_mixed_state(
        d(_counts(3)), d(_counts(3)), d(_counts(4)), _rng()),
    "mub_set": lambda d: entrosteer.mub_set(d(_counts(4) | st.just(2**61 - 1))),
    # at most 4 states, 3 trials and 2 threads per call
    # a stream: drained, so its blocks run as well as its argument checks
    "survey_fig1": lambda d: list(entrosteer.survey_fig1(d(_counts(4)), d(_ENSEMBLES), _rng())),
    "survey_fig2": lambda d: entrosteer.survey_fig2(
        d(_counts(4)), d(_ENSEMBLES), d(_counts(3)), _rng(), threads=d(_counts(2))),
    "basis_sweep": lambda d: entrosteer.basis_sweep(d(_STATES), d(_counts(4)), _rng()),
    "soundness_audit": lambda d: entrosteer.soundness_audit(d(st.lists(_STATES, max_size=3))),
    "separable_audit": lambda d: entrosteer.separable_audit(d(_counts(4)), d(_counts(3)), _rng()),
    "threshold_bisect": lambda d: entrosteer.threshold_bisect(
        d(_FAMILIES), d(_VALUES), d(_VALUES), d(_VALUES)),
    **{name: _witness(name) for name in ("pair_conditional", "pair_symmetric_mi",
                                         "sumdiff_discrete", "mub_conditional", "mub_mi")},
    "GaussianState": lambda d: entrosteer.GaussianState(_covariance(d)),
    "tmsv": lambda d: entrosteer.tmsv(d(_VALUES | st.floats(0.0, 400.0))),
    "symplectic_eigenvalues": lambda d: entrosteer.symplectic_eigenvalues(_gaussian(d)),
    "walborn_cv": lambda d: entrosteer.walborn_cv(_gaussian(d), d(_DIRECTIONS)),
    "reid_sumdiff_cv": lambda d: entrosteer.reid_sumdiff_cv(_gaussian(d), d(_SIGNS)),
    "entropic_sumdiff_cv": lambda d: entrosteer.entropic_sumdiff_cv(_gaussian(d), d(_SIGNS)),
}


def _numbers(out) -> np.ndarray:
    """Every number a call returned, flattened: a float, bool or array, the
    array held by an object it built, or those in a record, list or dict
    (whose strings are labels, not numbers)."""
    if isinstance(out, str):
        return np.zeros(0)
    for field in ("mat", "vec", "vectors", "stacked", "probs"):
        if hasattr(out, field):
            return np.ravel(getattr(out, field))
    if hasattr(out, "FIELDS"):   # a read-only record
        out = [getattr(out, name) for name in out.FIELDS]
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (list, tuple)):
        return np.concatenate([_numbers(v) for v in out] + [np.zeros(0)])
    return np.ravel(out)


class TestLibraryBoundary:
    @pytest.mark.parametrize("name", sorted(_CALLS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_returns_finite_values_or_refuses(self, name, data):
        # a RuntimeWarning fails the test through the pytest configuration;
        # BracketError is threshold_bisect's documented missing sign change
        try:
            out = _CALLS[name](data.draw)
        except (ValueError, TypeError, entrosteer.BracketError) as exc:
            assert not isinstance(exc, np.linalg.LinAlgError), repr(exc)
            return
        assert np.all(np.isfinite(_numbers(out))), (name, out)


_SRC = pathlib.Path(entrosteer.__file__).parent


def _module_trees():
    for path in sorted(_SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _messages(expr):
    """The literal parts of each string that the message `expr` can be."""
    if isinstance(expr, ast.IfExp):
        yield from _messages(expr.body)
        yield from _messages(expr.orelse)
    elif isinstance(expr, ast.JoinedStr):
        yield tuple(v.value for v in expr.values if isinstance(v, ast.Constant))
    elif isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        yield (expr.value,)


class TestOneDefinitionPerRule:
    def test_tolerance_and_logarithm_live_in_their_modules(self):
        """The structural tolerance 1e-10 is written only in `qmat`, and only
        `infotheory` takes `np.log2`, the logarithm of every Shannon sum."""
        misplaced = []
        for module, tree in _module_trees():
            for node in ast.walk(tree):
                if (module != "qmat" and isinstance(node, ast.Constant)
                        and type(node.value) is float and node.value == 1e-10):
                    misplaced.append(f"{module}:{node.lineno} 1e-10")
                if (module != "infotheory" and isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute) and node.func.attr == "log2"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in ("np", "numpy")):
                    misplaced.append(f"{module}:{node.lineno} np.log2")
        assert misplaced == []

    def test_no_two_raises_build_the_same_message(self):
        """Each error message is written once: no two `raise` statements of
        the package build their message from the same literal parts, so a
        repeated check shows as a repeated message."""
        first, repeated = {}, []
        for module, tree in _module_trees():
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and node.exc.args):
                    continue
                for parts in _messages(node.exc.args[0]):
                    where = f"{module}:{node.lineno}"
                    if parts in first:
                        repeated.append(f"{where} repeats {first[parts]}: {''.join(parts)!r}")
                    first.setdefault(parts, where)
        assert repeated == []


class TestSurveyComposition:
    def test_cli_imports_no_private_montecarlo_name(self):
        """Each survey is composed in `montecarlo` alone: the command line
        runs it through a public entry, and reads only the block size and
        the thread cap, which its memory and thread estimates need."""
        tree = dict(_module_trees())["cli"]
        private = {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "montecarlo"
                   for alias in node.names if alias.name.startswith("_")}
        assert private <= {"_BLOCK", "_worker_count"}
