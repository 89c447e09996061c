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
whose directory does not exist, or counts whose estimated memory exceeds the
machine's, all rejected before any work starts).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import stat
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .cvgauss import entropic_sumdiff_cv, reid_sumdiff_cv, tmsv, walborn_cv
from .measure import mub_set, pauli_bases
from .montecarlo import (
    BracketError,
    _ppt_min_eigenvalue,
    _sample_separable_stack,
    _soundness_audit,
    _survey_fig1_values,
    _worker_count,
    basis_sweep,
    survey_fig2,
    threshold_bisect,
)
from .qmat import DensityMatrix, validate_density_stack, werner_state
from .witness import (
    WitnessReport,
    mub_conditional,
    mub_mi,
    pair_conditional,
    pair_symmetric_mi,
    sumdiff_discrete,
)

log = logging.getLogger("entrosteer")

AUDIT_TOL = 1e-9

# Peak memory per work item of each command, rounded up from the slope of peak
# RSS between two run sizes and from tracemalloc peaks (Python 3.11, numpy
# 2.4): per state for fig1 and fig2, per basis-set draw for sweep, per grid
# point for cv-scan. JSON output adds _JSON_ROW_BYTES per table row. A
# separable-audit state costs _AUDIT_STATE_BYTES plus _AUDIT_TERM_BYTES per
# expected product term, and each fig2 state in flight holds the working set
# of one trial chunk plus _TRIAL_BYTES per trial.
_ITEM_BYTES = {"fig1": 1024, "fig2": 2048, "sweep": 512, "cv-scan": 512}
_JSON_ROW_BYTES = 1280
_AUDIT_STATE_BYTES = 1024
_AUDIT_TERM_BYTES = 640
_TRIAL_CHUNK_BYTES = 3 * 2**20
_TRIAL_BYTES = 32

# physical memory: a run estimated to need more cannot finish on this machine
try:
    _MEMORY_BUDGET = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):   # the platform does not say
    _MEMORY_BUDGET = None


class ConfigError(Exception):
    """Invalid command-line configuration or unreadable input file."""


@dataclass
class RunConfig:
    command: str
    seed: int
    n_states: int = 1
    n_trials: int = 1
    ensemble: str = "mixed"
    tol: float = 1e-6
    out_path: str | None = None
    format: str = "csv"
    threads: int = 1
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_states < 1 or self.n_trials < 1 or self.threads < 1:
            raise ConfigError("counts must be >= 1")
        if not self.tol > 0:
            raise ConfigError("tolerance must be positive")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.out_path:
            # checked before the run, not when its result is written
            if os.path.isdir(self.out_path):
                raise ConfigError(f"--out {self.out_path} is a directory")
            parent = os.path.dirname(os.path.abspath(self.out_path))
            if not os.path.isdir(parent):
                raise ConfigError(f"--out directory {parent} does not exist")
        need = _estimated_bytes(self)
        if _MEMORY_BUDGET is not None and need > _MEMORY_BUDGET:
            raise ConfigError(
                f"{self.command} would need about {need / 2**30:.3g} GiB of memory, "
                f"more than the {_MEMORY_BUDGET / 2**30:.3g} GiB this machine has"
            )


def _estimated_bytes(config: RunConfig) -> int:
    """Peak memory a run's arrays and output take, estimated from its counts
    alone, before anything is allocated; 0 for commands of fixed size."""
    command = config.command
    if command == "separable-audit":
        terms = config.n_states * (config.extra.get("k_max", 1) + 1) // 2
        return config.n_states * _AUDIT_STATE_BYTES + terms * _AUDIT_TERM_BYTES
    rows = {
        "fig1": config.n_states,
        "fig2": config.n_states,
        "sweep": config.n_trials,
        "cv-scan": max(config.extra.get("steps", 1), 0),
    }.get(command, 0)
    need = rows * _ITEM_BYTES.get(command, 0)
    if config.format == "json":
        need += rows * _JSON_ROW_BYTES
    if command == "fig2":
        in_flight = _worker_count(config.threads, config.n_states, os.cpu_count())
        need += in_flight * (_TRIAL_CHUNK_BYTES + config.n_trials * _TRIAL_BYTES)
    return need


# ---------------------------------------------------------------------------
# serialization

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _cell_format(cell) -> str:
    # the %-format of one CSV cell: `_fmt` for floats, str() for the rest
    if isinstance(cell, float):
        return "%.12g"
    return "%d" if type(cell) is int else "%s"


def _csv_text(header: list[str], rows: list[list], row_format: str | None = None) -> str:
    """The CSV text of a table: one %-format string per row, chosen by the
    types of the row's cells (every table so far has one kind per column).
    A table whose column types are fixed by construction can pass its
    `row_format` (newline included), which is then mapped over all rows."""
    if row_format is not None:
        return ",".join(header) + "\n" + "".join(map(row_format.__mod__, rows))
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(map(_cell_format, row))
        lines.append(fmt % tuple(row))
    return "\n".join(lines) + "\n"


def _json_ready(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_json_ready(obj), indent=2, sort_keys=True) + "\n"


def load_state(path: str) -> DensityMatrix:
    """Read a density matrix from a JSON state file: {"dims": [d_A, d_B],
    "matrix": row-major nested lists of [re, im] pairs}. `dims` must be a
    list of exactly two integers >= 1; nothing is coerced."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        dims = data["dims"]
        if not (type(dims) is list and len(dims) == 2
                and all(type(d) is int and d >= 1 for d in dims)):
            raise ValueError('"dims" must be a list of two integers >= 1')
        mat = np.array(
            [[complex(e[0], e[1]) for e in row] for row in data["matrix"]],
            dtype=complex,
        )
        return DensityMatrix(tuple(dims), mat)
    # RecursionError: JSON nested deeper than the parser's recursion limit
    except (OSError, KeyError, TypeError, IndexError, ValueError, OverflowError,
            RecursionError) as exc:
        raise ConfigError(f"cannot load state file {path}: {exc}") from exc


def save_state(path: str, rho: DensityMatrix) -> None:
    """Write a density matrix as a JSON state file (full float precision)."""
    data = {
        "dims": list(rho.dims),
        "matrix": [[[e.real, e.imag] for e in row] for row in rho.mat],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh)
        fh.write("\n")


def _write_manifest(
    config: RunConfig, wall_s: float, blas_threads_defaulted: bool = False
) -> None:
    stem, _ = os.path.splitext(config.out_path)
    manifest = {
        "command": config.command,
        "seed": config.seed,
        "parameters": asdict(config),
        "versions": {
            "entrosteer": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        # BLAS threading is fixed when numpy loads; the data bytes do not
        # depend on it, but the timings do
        "blas_threads": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "defaulted_by_cli": blas_threads_defaulted,
        },
        "wall_time_s": wall_s,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    path = stem + ".manifest.json"
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    log.info("manifest written to %s", path)


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`: a write that fails leaves no partial file, and a file already at
    `path` keeps its old bytes and its permission bits. A symlink keeps
    pointing at the file it names, and a path that is not a regular file (a
    pipe or a device such as /dev/stdout) cannot be renamed over, so it is
    written in place. The new file is a new inode: hard links to the old one
    keep the old bytes, owner and group are the writer's, and the directory
    must be writable."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"   # no two live processes share the name
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _emit(config: RunConfig, text: str) -> None:
    if config.out_path:
        _write_atomic(config.out_path, text)
        log.info("wrote %s", config.out_path)
    else:
        sys.stdout.write(text)


def _emit_table(
    config: RunConfig, header: list[str], rows: list[list], row_format: str | None = None
) -> None:
    if config.format == "csv":
        _emit(config, _csv_text(header, rows, row_format))
    else:
        _emit(config, _json_text([dict(zip(header, row)) for row in rows]))


# ---------------------------------------------------------------------------
# command handlers

def _cmd_fig1(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    vals = _survey_fig1_values(config.n_states, config.ensemble, rng, config.threads)
    v_ab, _, v_sym, purity = vals.T.tolist()
    rows = list(zip(range(len(v_ab)), v_ab, v_sym, purity))
    # range ints and tolist() floats: the row format is fixed by construction
    _emit_table(config, ["state_id", "v_conditional_AtoB", "v_symmetric", "purity"], rows,
                "%d,%.12g,%.12g,%.12g\n")
    return 0


def _cmd_fig2(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    pairs = survey_fig2(
        config.n_states, config.ensemble, config.n_trials, rng, threads=config.threads
    )
    rows = [
        [res.state_id, res.best_v_AtoB, res.best_v_BtoA, purity]
        for res, purity in pairs
    ]
    _emit_table(config, ["state_id", "best_v_AtoB", "best_v_BtoA", "purity"], rows)
    return 0


def _sweep_state(config: RunConfig) -> DensityMatrix:
    path = config.extra.get("state_file")
    if path:
        return load_state(path)
    p = config.extra["werner"]
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"--werner must be in [0, 1], got {p}")
    return werner_state(p)


def _cmd_sweep(config: RunConfig) -> int:
    rho = _sweep_state(config)
    rng = np.random.default_rng(config.seed)
    points = basis_sweep(rho, config.n_trials, rng)
    rows = [[i, v_ab, v_ba] for i, (v_ab, v_ba) in enumerate(points)]
    _emit_table(config, ["trial_id", "v_AtoB", "v_BtoA"], rows)
    return 0


def _werner_family(settings: int):
    x_basis, y_basis, z_basis = pauli_bases()
    if settings == 2:
        def family(p: float) -> float:
            return pair_conditional(
                werner_state(p), x_basis, z_basis, x_basis, z_basis
            ).violation_bits
    else:
        triple = [x_basis, y_basis, z_basis]
        def family(p: float) -> float:
            return mub_conditional(werner_state(p), triple, triple).violation_bits
    return family


def _cmd_werner_threshold(config: RunConfig) -> int:
    settings = config.extra["settings"]
    lo, hi = config.extra["lo"], config.extra["hi"]
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigError(f"need 0 <= lo < hi <= 1, got lo={lo}, hi={hi}")
    p_star = threshold_bisect(_werner_family(settings), lo, hi, tol=config.tol)
    witness = "pair-conditional" if settings == 2 else "mub-conditional"
    _emit(
        config,
        _json_text(
            {
                "p_star": p_star,
                "settings": settings,
                "witness": witness,
                "tol": config.tol,
                "lo": lo,
                "hi": hi,
            }
        ),
    )
    return 0


def _cmd_cv_scan(config: RunConfig) -> int:
    r_min = config.extra["r_min"]
    r_max = config.extra["r_max"]
    steps = config.extra["steps"]
    if steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {steps}")
    if not (0.0 <= r_min <= r_max and math.isfinite(r_max)):
        raise ConfigError(f"need finite 0 <= r-min <= r-max, got {r_min}, {r_max}")
    grid = np.linspace(r_min, r_max, steps) if steps > 1 else np.array([r_min])
    rows = []
    for r in grid:
        g = tmsv(float(r))
        rows.append(
            [
                float(r),
                walborn_cv(g).violation_bits,
                reid_sumdiff_cv(g).violation_bits,
                entropic_sumdiff_cv(g).violation_bits,
            ]
        )
    _emit_table(config, ["r", "v_walborn", "v_reid", "v_entropic_sumdiff"], rows)
    return 0


def _eval_report(rho: DensityMatrix, witness: str, direction: str) -> WitnessReport:
    d_a, d_b = rho.dims
    try:
        if witness in ("pair-conditional", "pair-symmetric-mi", "sumdiff-discrete"):
            # two observables per side: first and last of the standard MUB set
            # (X and Z for qubits)
            set_a, set_b = mub_set(d_a), mub_set(d_b)
            r_a, s_a = set_a[0], set_a[-1]
            r_b, s_b = set_b[0], set_b[-1]
            if witness == "pair-conditional":
                return pair_conditional(rho, r_a, s_a, r_b, s_b, direction=direction)
            if witness == "pair-symmetric-mi":
                return pair_symmetric_mi(rho, r_a, s_a, r_b, s_b)
            return sumdiff_discrete(rho, r_a, s_a, r_b, s_b)
        bases_a, bases_b = mub_set(d_a), mub_set(d_b)
        if witness == "mub-conditional":
            return mub_conditional(rho, bases_a, bases_b, direction=direction)
        return mub_mi(rho, bases_a, bases_b)
    except ValueError as exc:
        raise ConfigError(f"witness {witness} not applicable to this state: {exc}") from exc


def _cmd_eval(config: RunConfig) -> int:
    rho = load_state(config.extra["state_file"])
    report = _eval_report(rho, config.extra["witness"], config.extra["direction"])
    _emit(config, _json_text(asdict(report)))
    return 0


def _cmd_separable_audit(config: RunConfig) -> int:
    k_max = config.extra["k_max"]
    if k_max < 1:
        raise ConfigError(f"--k-max must be >= 1, got {k_max}")
    rng = np.random.default_rng(config.seed)
    # one check of the whole sampled stack, instead of one DensityMatrix per state
    mats = _sample_separable_stack(config.n_states, k_max, rng)
    validate_density_stack(mats)
    ppt_min = _ppt_min_eigenvalue(mats)
    worst = _soundness_audit(mats, threads=config.threads)
    sound = all(v <= AUDIT_TOL for v in worst.values())
    _emit(
        config,
        _json_text(
            {
                "n": config.n_states,
                "k_max": k_max,
                "ppt_min_eigenvalue": ppt_min,
                "max_violation": worst,
                "tolerance": AUDIT_TOL,
                "sound": sound,
            }
        ),
    )
    if not sound:
        log.error("soundness audit found a violation above %g", AUDIT_TOL)
        return 1
    return 0


_HANDLERS = {
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "sweep": _cmd_sweep,
    "werner-threshold": _cmd_werner_threshold,
    "cv-scan": _cmd_cv_scan,
    "eval": _cmd_eval,
    "separable-audit": _cmd_separable_audit,
}

_JSON_ONLY = ("werner-threshold", "eval", "separable-audit")


def dispatch(config: RunConfig, blas_threads_defaulted: bool = False) -> int:
    """Run the configured command; returns the process exit status.
    `blas_threads_defaulted` records in the manifest that the entry point
    set OPENBLAS_NUM_THREADS (see `entrosteer.__main__`)."""
    start = time.perf_counter()
    try:
        status = _HANDLERS[config.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        log.error("numerical failure: %s", exc)
        return 1
    if status == 0 and config.out_path:
        _write_manifest(config, time.perf_counter() - start, blas_threads_defaulted)
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
        description="Entropic steering witnesses: surveys, thresholds, evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"entrosteer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", parents=[common],
                       help="conditional vs symmetric violation survey over random states")
    p.add_argument("--n", type=int, default=10000, help="number of states")
    p.add_argument("--ensemble", choices=["pure", "mixed"], default="mixed")

    p = sub.add_parser("fig2", parents=[common],
                       help="per-state basis-search survey of directional violations")
    p.add_argument("--n", type=int, default=500, help="number of states")
    p.add_argument("--ensemble", choices=["pure", "mixed"], default="mixed")
    p.add_argument("--trials", type=int, default=500, help="basis-set draws per state")

    p = sub.add_parser("sweep", parents=[common],
                       help="directional violations of one state under many random basis sets")
    p.add_argument("--n", type=int, default=10000, help="number of basis-set draws")
    p.add_argument("--state-file", default=None, help="JSON state file (see README)")
    p.add_argument("--werner", type=float, default=0.9,
                   help="Werner parameter used when no state file is given")

    p = sub.add_parser("werner-threshold", parents=[common],
                       help="bisect the Werner-state violation threshold")
    p.add_argument("--settings", type=int, choices=[2, 3], default=2,
                   help="2: X/Z conditional pair; 3: full Pauli MUB triple")
    p.add_argument("--tol", type=float, default=1e-6, help="bracket width at stop")
    p.add_argument("--lo", type=float, default=0.5, help="lower bracket endpoint")
    p.add_argument("--hi", type=float, default=0.99, help="upper bracket endpoint")

    p = sub.add_parser("cv-scan", parents=[common],
                       help="Gaussian two-mode squeezed-vacuum witness scan over r")
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=9)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate one witness on a state loaded from file")
    p.add_argument("--state-file", required=True, help="JSON state file (see README)")
    p.add_argument("--witness", required=True,
                   choices=["pair-conditional", "pair-symmetric-mi", "mub-conditional",
                            "mub-mi", "sumdiff-discrete"])
    p.add_argument("--direction", choices=["AtoB", "BtoA"], default="AtoB",
                   help="steering direction for conditional witnesses")

    p = sub.add_parser("separable-audit", parents=[common],
                       help="max violation of every witness over random separable states")
    p.add_argument("--n", type=int, default=10000, help="number of separable states")
    p.add_argument("--k-max", type=int, default=4, help="max product terms per mixture")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    extra = {}
    if args.command == "sweep":
        extra = {"state_file": args.state_file, "werner": args.werner}
    elif args.command == "werner-threshold":
        extra = {"settings": args.settings, "lo": args.lo, "hi": args.hi}
    elif args.command == "cv-scan":
        extra = {"r_min": args.r_min, "r_max": args.r_max, "steps": args.steps}
    elif args.command == "eval":
        extra = {
            "state_file": args.state_file,
            "witness": args.witness,
            "direction": args.direction,
        }
    elif args.command == "separable-audit":
        extra = {"k_max": args.k_max}

    fmt = args.format
    if args.command in _JSON_ONLY:
        if fmt == "csv":
            raise ConfigError(f"{args.command} produces JSON only")
        fmt = "json"
    elif fmt is None:
        fmt = "csv"

    return RunConfig(
        command=args.command,
        seed=_resolve_seed(args.seed),
        n_states=getattr(args, "n", 1),
        n_trials=getattr(args, "trials", getattr(args, "n", 1)),
        ensemble=getattr(args, "ensemble", "mixed"),
        tol=getattr(args, "tol", 1e-6),
        out_path=args.out,
        format=fmt,
        threads=args.threads,
        extra=extra,
    )


def main(argv: list[str] | None = None, *, blas_threads_defaulted: bool = False) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return dispatch(config, blas_threads_defaulted)


if __name__ == "__main__":
    raise SystemExit(main())
