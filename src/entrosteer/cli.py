"""Command-line front end for the steering-witness toolkit.

Subcommands: fig1, fig2, sweep (tabular surveys), werner-threshold, cv-scan,
eval, separable-audit. Data goes to --out or standard output; log messages go
to standard error. File outputs get a sibling run-manifest
(<stem>.manifest.json) recording seed, parameters, versions, the BLAS thread
setting, and wall time; the data files themselves are byte-identical across
reruns with the same configuration, regardless of --threads.

The seed is resolved from --seed, then the ENTROSTEER_SEED environment
variable, then 0. Exit codes: 0 success, 1 numerical failure (for example a
bisection bracket without a sign change, or a soundness audit that finds a
violation), 2 configuration error (including a negative seed, an --out path
that is empty, whose directory does not exist or whose name leaves no room for
the temporary file, an option out of its range, a count above _MAX_COUNT
(10**9), counts whose estimated memory exceeds the machine's, or an audit whose
--n * --k-max exceeds _MAX_TERMS (4 * 10**9) or a fig2 whose --n * --trials
exceeds _MAX_TRIALS (as many), all rejected before any work starts, and an
output that cannot be written, such as a file on a full disk).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import __version__
from .measure import mub_set, pauli_bases
from .montecarlo import (
    _BLOCK,
    BracketError,
    _worker_count,
    basis_sweep,
    separable_audit,
    survey_fig1,
    survey_fig2,
    threshold_bisect,
)
from .qmat import DensityMatrix, _choice, _count, _Record, werner_state
from .witness import (
    WitnessReport,
    mub_conditional,
    mub_mi,
    pair_conditional,
    pair_symmetric_mi,
    sumdiff_discrete,
)

AUDIT_TOL = 1e-9

# Peak memory per work item of each command (the constant in its options
# record's peak_bytes), rounded up from the slope of peak RSS between two run
# sizes and from tracemalloc peaks (Python 3.11, numpy 2.4): per state for fig2
# and per block state for fig1, per basis-set draw for sweep, per grid point for
# cv-scan. A table held whole (fig2, sweep and cv-scan make theirs in one block,
# and standard output gets all the text at once) adds _JSON_ROW_BYTES per row as
# JSON; fig1's CSV on standard output adds _CSV_ROW_BYTES per row. fig1 and
# separable-audit hold one _BLOCK of states, whatever --n; a fig1 --out file
# takes its text a block at a time, and fig1's constant also covers a first
# run's import of numpy.random (0.9 MiB traced). An audit block state costs
# _AUDIT_STATE_BYTES plus _AUDIT_TERM_BYTES per term slot (k_max per state);
# each fig2 state in flight holds one trial chunk's working set plus
# _TRIAL_BYTES per trial.
_JSON_ROW_BYTES = 256
_CSV_ROW_BYTES = 128
_AUDIT_STATE_BYTES = 2048
_AUDIT_TERM_BYTES = 512
_TRIAL_CHUNK_BYTES = 3 * 2**20
_TRIAL_BYTES = 32
# the ceiling of every count: at one thread, 10**9 fig1 states take 2-4 h
# (70k-130k states/s), and 10**9 audit states at --k-max 4 take 8-11 h (26k-36k)
_MAX_COUNT = 10**9
# and of an audit's --n * --k-max: at one thread a state costs about 12 us plus
# 2.4-3.3 us per term slot, so no audit under it runs longer than 10**9 states at --k-max 4
_MAX_TERMS = 4 * _MAX_COUNT
# and of fig2's --n * --trials: a trial takes 6-8 us at one thread, so none runs much past 7 h
_MAX_TRIALS = 4 * _MAX_COUNT

# physical memory: a run estimated to need more cannot finish on this machine
try:
    _MEMORY_BUDGET = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):   # the platform does not say
    _MEMORY_BUDGET = None


class ConfigError(Exception):
    """Invalid command-line configuration or unreadable input file."""


def _flags(record, *names: str, options: tuple = ()) -> None:
    """Check each named field of `record` as the --flag it is parsed from: a
    count up to `_MAX_COUNT` (`qmat._count`), or one of `options` (`qmat._choice`)."""
    for name in names:
        flag, value = "--" + name.replace("_", "-"), getattr(record, name)
        try:
            _choice(value, options, flag) if options else _count(value, flag, 1, _MAX_COUNT)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _table_bytes(config: RunConfig, rows: int, item_bytes: int) -> int:
    return rows * (item_bytes + (_JSON_ROW_BYTES if config.format == "json" else 0))


# ---------------------------------------------------------------------------
# per-command options: each row (name, type, default, help, choices) of a record's
# FLAGS is one --flag of its subcommand, and FIELDS are the rows' names. A default
# of ... makes the flag required; argparse alone applies defaults, and a record
# takes every field. Each int field is a count in [1, _MAX_COUNT] (`_Options`).

_ENSEMBLES = ("pure", "mixed")


class _Options(_Record):
    def __init_subclass__(cls):
        cls.FIELDS = tuple(name for name, *_ in cls.FLAGS)

    def __post_init__(self) -> None:
        _flags(self, *[name for name, kind, *_ in self.FLAGS if kind is int])
        self._check()

    def _check(self) -> None:
        """Refuse the values that no type or count check covers."""

    def peak_bytes(self, config: RunConfig) -> int:
        """Peak memory a run's arrays and output take, estimated from its
        counts alone, before anything is allocated; 0 for commands of fixed
        size."""
        return 0

    def threads_used(self, config: RunConfig) -> int:
        """Worker threads a run starts: one, except for fig2."""
        return 1


class Fig1Options(_Options):
    FLAGS = (("n", int, 10000, "number of states", None),
             ("ensemble", str, "mixed", None, _ENSEMBLES))

    def peak_bytes(self, config):
        blocks = min(self.n, _BLOCK) * 1920
        return blocks if config.out_path else blocks + _table_bytes(config, self.n, _CSV_ROW_BYTES)


class Fig2Options(_Options):
    FLAGS = (("n", int, 500, "number of states", None),
             ("ensemble", str, "mixed", None, _ENSEMBLES),
             ("trials", int, 500, "basis-set draws per state", None))

    def threads_used(self, config):
        return _worker_count(config.threads, self.n, os.cpu_count())   # as survey_fig2 does

    def peak_bytes(self, config):   # each thread holds one state in flight
        return (_table_bytes(config, self.n, 2048)
                + self.threads_used(config) * (_TRIAL_CHUNK_BYTES + self.trials * _TRIAL_BYTES))


class SweepOptions(_Options):
    FLAGS = (("n", int, 10000, "number of basis-set draws", None),
             ("state_file", str, None, "JSON state file (see README)", None),
             ("werner", float, 0.9, "Werner parameter used when no state file is given", None))

    def _check(self):
        if self.state_file is None and not 0.0 <= self.werner <= 1.0:
            raise ConfigError(f"--werner must be in [0, 1], got {self.werner}")

    def peak_bytes(self, config):
        return _table_bytes(config, self.n, 512)


class WernerThresholdOptions(_Options):
    FLAGS = (("settings", int, 2, "2: X/Z conditional pair; 3: full Pauli MUB triple", (2, 3)),
             ("tol", float, 1e-6, "bracket width at stop", None),
             ("lo", float, 0.5, "lower bracket endpoint", None),
             ("hi", float, 0.99, "upper bracket endpoint", None))

    def _check(self):
        if not self.tol > 0:
            raise ConfigError("tolerance must be positive")
        if self.tol == math.inf:   # would stop at the bracket's midpoint, and JSON has no inf
            raise ConfigError("tolerance must be finite")
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise ConfigError(f"need 0 <= lo < hi <= 1, got lo={self.lo}, hi={self.hi}")


class CvScanOptions(_Options):
    FLAGS = (("r_min", float, 0.0, None, None), ("r_max", float, 2.0, None, None),
             ("steps", int, 9, None, None))

    def _check(self):
        if not (0.0 <= self.r_min <= self.r_max and math.isfinite(self.r_max)):
            raise ConfigError(
                f"need finite 0 <= r-min <= r-max, got {self.r_min}, {self.r_max}")

    def peak_bytes(self, config):
        return _table_bytes(config, self.steps, 512)


class EvalOptions(_Options):
    FLAGS = (("state_file", str, ..., "JSON state file (see README)", None),
             ("witness", str, ..., None, ("pair-conditional", "pair-symmetric-mi",
                                          "mub-conditional", "mub-mi", "sumdiff-discrete")),
             ("direction", str, "AtoB", "steering direction for conditional witnesses",
              ("AtoB", "BtoA")))


class SeparableAuditOptions(_Options):
    FLAGS = (("n", int, 10000, "number of separable states", None),
             ("k_max", int, 4, "max product terms per mixture", None))

    def peak_bytes(self, config):
        return min(self.n, _BLOCK) * (_AUDIT_STATE_BYTES + self.k_max * _AUDIT_TERM_BYTES)


class RunConfig(_Record):
    """One run: its command, seed, options record, output and --verbose flag."""

    FIELDS = ("command", "seed", "options", "out_path", "format", "threads", "verbose")

    def __post_init__(self) -> None:
        _flags(self, "threads")
        _flags(self, "format", options=("csv", "json"))
        if self.out_path is not None:
            # checked before the run, not when its result is written
            if not self.out_path:   # "" names no file; it does not ask for standard output
                raise ConfigError("--out is empty")
            if os.path.isdir(self.out_path):
                raise ConfigError(f"--out {self.out_path} is a directory")
            parent = os.path.dirname(os.path.abspath(self.out_path))
            if not os.path.isdir(parent):
                raise ConfigError(f"--out directory {parent} does not exist")
            _check_name_lengths(self.out_path)
        need = self.options.peak_bytes(self)
        if _MEMORY_BUDGET is not None and need > _MEMORY_BUDGET:
            raise ConfigError(
                f"{self.command} would need about {need / 2**30:.3g} GiB of memory, "
                f"more than the {_MEMORY_BUDGET / 2**30:.3g} GiB this machine has")


def _check_name_lengths(out_path: str) -> None:
    """The longest names a run creates, the temporary files `_write_atomic`
    renames over the data file and over its manifest, must fit their
    directory's file name limit."""
    for path in map(os.path.realpath, (out_path, _manifest_path(out_path))):
        directory, name = os.path.split(path)
        try:
            limit = os.pathconf(directory, "PC_NAME_MAX")
        except OSError as exc:
            raise ConfigError(f"--out directory {directory} is not usable: {exc}") from exc
        if len(os.fsencode(_temporary_name(name))) > limit:
            raise ConfigError(f"--out name too long: {name} and its temporary copy must "
                              f"fit the {limit}-byte file name limit of {directory}")


# ---------------------------------------------------------------------------
# serialization

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_text(header: list[str], blocks, row_format: str):
    """The CSV text of a table, as one chunk for the header line and one per
    list of rows in `blocks`, each let go once its text is made. Every table's
    column types are fixed by construction (Python ints and floats), so one
    %-format per table, newline included, is mapped over all rows: "%d" for
    ints, "%.12g" (`_fmt`) for floats."""
    yield ",".join(header) + "\n"
    yield from map(lambda rows: "".join(map(row_format.__mod__, rows)), blocks)


def _json_ready(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    return obj


def _json_text(obj) -> str:
    return json.dumps(_json_ready(obj), indent=2, sort_keys=True) + "\n"


def _json_number(x) -> str:
    # a cell as `_json_text` writes it: a float rounded by `_fmt`, read back
    # and spelled by float.__repr__, or as `json` spells a non-finite float
    if not isinstance(x, float):
        return repr(x)
    text = repr(float(_fmt(x)))
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


def _json_table_text(header: list[str], blocks):
    """The JSON text of a table, a list of row objects keyed by `header`, as
    `_json_text` writes an object (floats rounded by `_fmt`, sorted keys,
    two-space indent): one chunk per non-empty list of rows in `blocks`, each
    let go once its text is made, and a closing chunk."""
    members = ",\n".join(f"    {json.dumps(header[j])}: {{{j}}}"
                         for j in sorted(range(len(header)), key=header.__getitem__))
    row_format = "  {{\n" + members + "\n  }}"
    lead = "[\n"
    for rows in blocks:
        if rows:
            yield lead + ",\n".join(row_format.format(*map(_json_number, row)) for row in rows)
            lead = ",\n"
    yield "[]\n" if lead == "[\n" else "\n]\n"


def load_state(path: str) -> DensityMatrix:
    """Read a density matrix from a JSON state file: {"dims": [d_A, d_B],
    "matrix": row-major nested lists of [re, im] pairs}. `dims` must be a
    list of exactly two integers >= 1, and each entry one of two numbers (not
    booleans); nothing is coerced."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        dims = data["dims"]
        if not (type(dims) is list and len(dims) == 2
                and all(type(d) is int and d >= 1 for d in dims)):
            raise ValueError('"dims" must be a list of two integers >= 1')
        for i, row in enumerate(data["matrix"]):
            for j, e in enumerate(row):
                if not (type(e) is list and len(e) == 2
                        and all(type(x) in (int, float) for x in e)):
                    raise ValueError(f"matrix entry at row {i}, column {j} is not [re, im]")
        mat = np.array([[complex(*e) for e in row] for row in data["matrix"]], dtype=complex)
        return DensityMatrix(tuple(dims), mat)
    # RecursionError: JSON nested deeper than the parser's recursion limit
    except (OSError, KeyError, TypeError, IndexError, ValueError, OverflowError,
            RecursionError) as exc:
        raise ConfigError(f"cannot load state file {path}: {exc}") from exc


def save_state(path: str, rho: DensityMatrix) -> None:
    """Write a density matrix as a JSON state file (full float precision)."""
    data = {"dims": list(rho.dims),
            "matrix": [[[e.real, e.imag] for e in row] for row in rho.mat]}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh)
        fh.write("\n")


def _manifest_path(out_path: str) -> str:
    return os.path.splitext(out_path)[0] + ".manifest.json"


def _write_manifest(config: RunConfig, wall_s: float, blas_threads_defaulted: bool = False) -> None:
    manifest = {
        "command": config.command,
        "seed": config.seed,
        "parameters": vars(config.options),
        "format": config.format,
        "threads": config.options.threads_used(config),
        "versions": {"entrosteer": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        # BLAS threading is fixed when numpy loads; the data bytes do not
        # depend on it, but the timings do
        "blas_threads": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "defaulted_by_cli": blas_threads_defaulted,
        },
        "wall_time_s": wall_s,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    path = _manifest_path(config.out_path)
    _write_atomic(path, [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    _log(config, "info", "manifest written to %s", path)


def _temporary_name(path: str) -> str:
    return f"{path}.{os.getpid()}.tmp"   # no two live processes share the name


def _write_atomic(path: str, chunks) -> None:
    """Write the text `chunks` (an iterable of strings, read once) to a
    temporary file beside `path`, then rename it over `path`: a chunk or a
    write that fails leaves no partial file, and a file already at `path`
    keeps its old bytes and its permission bits. A symlink keeps pointing at
    the file it names, and a path that is not a regular file (a pipe or a
    device such as /dev/stdout) cannot be renamed over, so it gets the whole
    text in place, once made. The new file is a new inode: hard links to the
    old one keep the old bytes, owner and group are the writer's, and the
    directory must be writable."""
    if os.path.exists(path) and not os.path.isfile(path):
        text = "".join(chunks)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return
    path = os.path.realpath(path)
    tmp = _temporary_name(path)
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(chunks)
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _log(config: RunConfig, level: str, message: str, *args) -> None:
    """Log an "error", or an "info" line under --verbose; only then is `logging` imported."""
    if level == "info" and not config.verbose:
        return
    import logging
    logging.basicConfig(stream=sys.stderr, level=logging.INFO if config.verbose else logging.WARNING,
                        format="%(levelname)s %(message)s")
    getattr(logging.getLogger("entrosteer"), level)(message, *args)


def _emit(config: RunConfig, chunks) -> None:
    # standard output gets all the text `chunks` at once: no partial table on failure
    if config.out_path:
        _write_atomic(config.out_path, chunks)
        _log(config, "info", "wrote %s", config.out_path)
    else:
        sys.stdout.write("".join(chunks))


def _emit_table(config: RunConfig, header: list[str], blocks, row_format: str) -> None:
    _emit(config, _csv_text(header, blocks, row_format) if config.format == "csv"
          else _json_table_text(header, blocks))


# ---------------------------------------------------------------------------
# command handlers

def _cmd_fig1(config: RunConfig, options: Fig1Options) -> int:
    def rows(block):   # a block's rows; its columns go when this returns
        lo, columns = block
        v_ab, _, v_sym, purity = columns.T.tolist()
        return list(zip(range(lo, lo + len(v_ab)), v_ab, v_sym, purity))

    blocks = survey_fig1(options.n, options.ensemble, np.random.default_rng(config.seed))
    _emit_table(config, ["state_id", "v_conditional_AtoB", "v_symmetric", "purity"],
                map(rows, blocks), "%d,%.12g,%.12g,%.12g\n")
    return 0


def _cmd_fig2(config: RunConfig, options: Fig2Options) -> int:
    if options.n * options.trials > _MAX_TRIALS:   # checked after the memory estimate
        raise ConfigError(f"--n * --trials must be <= {_MAX_TRIALS}, got {options.n * options.trials}")
    rng = np.random.default_rng(config.seed)
    pairs = survey_fig2(options.n, options.ensemble, options.trials, rng, threads=config.threads)
    rows = [(res.state_id, res.best_v_AtoB, res.best_v_BtoA, purity) for res, purity in pairs]
    _emit_table(config, ["state_id", "best_v_AtoB", "best_v_BtoA", "purity"], [rows],
                "%d,%.12g,%.12g,%.12g\n")
    return 0


def _cmd_sweep(config: RunConfig, options: SweepOptions) -> int:
    rho = (werner_state(options.werner) if options.state_file is None
           else load_state(options.state_file))
    if rho.dims[0] != rho.dims[1]:
        raise ConfigError(f"sweep needs equal local dimensions, got {rho.dims}")
    try:
        mub_set(rho.dims[0])   # the search rotates one complete MUB set per party
    except ValueError as exc:
        raise ConfigError(f"sweep cannot search this state: {exc}") from exc
    rng = np.random.default_rng(config.seed)
    points = basis_sweep(rho, options.n, rng)
    rows = [(i, v_ab, v_ba) for i, (v_ab, v_ba) in enumerate(points)]
    _emit_table(config, ["trial_id", "v_AtoB", "v_BtoA"], [rows], "%d,%.12g,%.12g\n")
    return 0


def _werner_family(settings: int):
    x, y, z = pauli_bases()
    if settings == 2:
        return lambda p: pair_conditional(werner_state(p), x, z, x, z).violation_bits
    triple = [x, y, z]
    return lambda p: mub_conditional(werner_state(p), triple, triple).violation_bits


def _cmd_werner_threshold(config: RunConfig, options: WernerThresholdOptions) -> int:
    family = _werner_family(options.settings)
    p_star = threshold_bisect(family, options.lo, options.hi, tol=options.tol)
    witness = "pair-conditional" if options.settings == 2 else "mub-conditional"
    # the options are settings, tol, lo and hi
    _emit(config, [_json_text({"p_star": p_star, "witness": witness, **vars(options)})])
    return 0


def _cmd_cv_scan(config: RunConfig, options: CvScanOptions) -> int:
    from .cvgauss import entropic_sumdiff_cv, reid_sumdiff_cv, tmsv, walborn_cv
    r_min, r_max, steps = options.r_min, options.r_max, options.steps
    grid = np.linspace(r_min, r_max, steps) if steps > 1 else np.array([r_min])
    rows = []
    for r in grid.tolist():
        g = tmsv(r)
        rows.append((r, walborn_cv(g).violation_bits, reid_sumdiff_cv(g).violation_bits,
                     entropic_sumdiff_cv(g).violation_bits))
    _emit_table(config, ["r", "v_walborn", "v_reid", "v_entropic_sumdiff"], [rows],
                "%.12g,%.12g,%.12g,%.12g\n")
    return 0


def _eval_report(rho: DensityMatrix, witness: str, direction: str) -> WitnessReport:
    try:
        set_a, set_b = mub_set(rho.dims[0]), mub_set(rho.dims[1])
        if witness == "mub-conditional":
            return mub_conditional(rho, set_a, set_b, direction=direction)
        if witness == "mub-mi":
            return mub_mi(rho, set_a, set_b)
        # two observables per side: first and last of the standard MUB set (X, Z for qubits)
        pair = (rho, set_a[0], set_a[-1], set_b[0], set_b[-1])
        if witness == "pair-conditional":
            return pair_conditional(*pair, direction=direction)
        return (pair_symmetric_mi if witness == "pair-symmetric-mi" else sumdiff_discrete)(*pair)
    except ValueError as exc:
        raise ConfigError(f"witness {witness} not applicable to this state: {exc}") from exc


def _cmd_eval(config: RunConfig, options: EvalOptions) -> int:
    rho = load_state(options.state_file)
    report = _eval_report(rho, options.witness, options.direction)
    _emit(config, [_json_text(report._asdict())])
    return 0


def _cmd_separable_audit(config: RunConfig, options: SeparableAuditOptions) -> int:
    if options.n * options.k_max > _MAX_TERMS:   # checked after the memory estimate
        raise ConfigError(f"--n * --k-max must be <= {_MAX_TERMS}, got {options.n * options.k_max}")
    ppt_min, worst = separable_audit(options.n, options.k_max, np.random.default_rng(config.seed))
    sound = all(v <= AUDIT_TOL for v in worst.values())
    _emit(config, [_json_text({**vars(options), "ppt_min_eigenvalue": ppt_min,   # n, k_max
                               "max_violation": worst, "tolerance": AUDIT_TOL,
                               "sound": sound})])
    if not sound:
        _log(config, "error", "soundness audit found a violation above %g", AUDIT_TOL)
        return 1
    return 0


# command -> (its options record, its handler, whether it writes JSON only, its help)
_COMMANDS = {
    "fig1": (Fig1Options, _cmd_fig1, False,
             "conditional vs symmetric violation survey over random states"),
    "fig2": (Fig2Options, _cmd_fig2, False,
             "per-state basis-search survey of directional violations"),
    "sweep": (SweepOptions, _cmd_sweep, False,
              "directional violations of one state under many random basis sets"),
    "werner-threshold": (WernerThresholdOptions, _cmd_werner_threshold, True,
                         "bisect the Werner-state violation threshold"),
    "cv-scan": (CvScanOptions, _cmd_cv_scan, False,
                "Gaussian two-mode squeezed-vacuum witness scan over r"),
    "eval": (EvalOptions, _cmd_eval, True, "evaluate one witness on a state loaded from file"),
    "separable-audit": (SeparableAuditOptions, _cmd_separable_audit, True,
                        "max violation of every witness over random separable states"),
}


def dispatch(config: RunConfig, blas_threads_defaulted: bool = False) -> int:
    """Run the configured command; returns the process exit status.
    `blas_threads_defaulted` records in the manifest that the entry point
    set OPENBLAS_NUM_THREADS (see `entrosteer.__main__`)."""
    start = time.perf_counter()
    writing = config.out_path or "standard output"
    try:
        status = _COMMANDS[config.command][1](config, config.options)
        if status == 0 and config.out_path:
            writing = _manifest_path(config.out_path)   # the data file is written in full
            _write_manifest(config, time.perf_counter() - start, blas_threads_defaulted)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # the data or the manifest could not be written
        print(f"error: cannot write {writing}: {exc}", file=sys.stderr)
        return 2
    except (BracketError, FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        _log(config, "error", "numerical failure: %s", exc)
        return 1
    return status


# ---------------------------------------------------------------------------
# argument parsing

def _resolve_seed(value: int | None) -> int:
    source = "--seed"
    if value is None:
        source = "ENTROSTEER_SEED"
        value = os.environ.get(source, "0")
    try:
        seed = int(value)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {value!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: ENTROSTEER_SEED or 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="worker thread cap; never changes results")
    common.add_argument("--out", default=None,
                        help="output file (default: standard output, no manifest)")
    common.add_argument("--format", choices=["csv", "json"], default=None,
                        help="output format for tabular commands (default csv)")
    common.add_argument("--verbose", action="store_true",
                        help="log progress to standard error")

    parser = argparse.ArgumentParser(
        prog="entrosteer",
        description="Entropic steering witnesses: surveys, thresholds, evaluation.")
    parser.add_argument("--version", action="version", version=f"entrosteer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (options_cls, _, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for name, kind, default, help, choices in options_cls.FLAGS:
            p.add_argument("--" + name.replace("_", "-"), type=kind, help=help, choices=choices,
                           default=None if default is ... else default, required=default is ...)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options_cls, _, json_only, _ = _COMMANDS[args.command]
    fmt = args.format or ("json" if json_only else "csv")
    if json_only and fmt == "csv":
        raise ConfigError(f"{args.command} produces JSON only")
    return RunConfig(
        command=args.command,
        seed=_resolve_seed(args.seed),
        options=options_cls(**{name: getattr(args, name) for name in options_cls.FIELDS}),
        out_path=args.out,
        format=fmt,
        threads=args.threads,
        verbose=args.verbose,
    )


def main(argv: list[str] | None = None, *, blas_threads_defaulted: bool = False) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return dispatch(config, blas_threads_defaulted)
