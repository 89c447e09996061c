"""What each workload runs, how large one run of it is, and how its output is
checked. See README.md in this directory for why each workload exists."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
THREADS = 2            # --threads of every CLI workload
PPT_FLOOR = -1e-12     # smallest partial-transpose eigenvalue a separable state may show


def _csv_problems(header: str, data: bytes, items: int) -> list[str]:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != header:
        return [f"header is {lines[:1]!r}, expected {header!r}"]
    rows = lines[1:]
    if len(rows) != items:
        return [f"{len(rows)} rows, expected {items}"]
    for i, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 4 or fields[0] != str(i):
            return [f"row {i} is malformed: {row!r}"]
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError:
            return [f"row {i} has a non-numeric field: {row!r}"]
        if not all(math.isfinite(v) for v in values):
            return [f"row {i} has a non-finite value: {row!r}"]
        if not 0.0 <= values[2] <= 1.0:
            return [f"row {i} has purity outside [0, 1]: {row!r}"]
    return []


def _audit_problems(data: bytes, items: int) -> list[str]:
    try:
        doc = json.loads(data)
        n, sound, ppt = doc["n"], doc["sound"], doc["ppt_min_eigenvalue"]
        worst = doc["max_violation"]
        tol = doc["tolerance"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"audit summary is malformed: {exc!r}"]
    problems = []
    if n != items:
        problems.append(f"n is {n}, expected {items}")
    if sound is not True:
        problems.append(f"sound is {sound!r}")
    if not (isinstance(ppt, (int, float)) and ppt >= PPT_FLOOR):
        problems.append(f"ppt_min_eigenvalue {ppt!r} is below {PPT_FLOOR}")
    if not worst or not all(
        isinstance(v, (int, float)) and math.isfinite(v) and v <= tol for v in worst.values()
    ):
        problems.append(f"max_violation {worst!r} exceeds the tolerance {tol!r}")
    return problems


@dataclass(frozen=True)
class CliWorkload:
    """One `entrosteer` invocation per operation, each over `items` states."""

    name: str
    command: tuple[str, ...]
    items: int
    problems: Callable[[bytes, int], list[str]]

    def argv(self, seed: int, out: str) -> list[str]:
        return [*self.command, "--n", str(self.items), "--seed", str(seed), "--out", out]

    def check(self, data: bytes, seed: int) -> list[str]:
        """Invariants for any seed, plus the recorded digest where there is one."""
        problems = self.problems(data, self.items)
        expected = reference_digest(self.name, self.items, seed)
        digest = hashlib.sha256(data).hexdigest()
        if expected is not None and digest != expected:
            problems.append(f"sha256 {digest} differs from the recorded {expected}")
        return problems


CLI_WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            "scatter",
            ("fig1", "--ensemble", "mixed", "--threads", str(THREADS)),
            20000,
            lambda data, items: _csv_problems(
                "state_id,v_conditional_AtoB,v_symmetric,purity", data, items
            ),
        ),
        CliWorkload(
            "audit",
            ("separable-audit", "--k-max", "4", "--threads", str(THREADS)),
            3000,
            _audit_problems,
        ),
        CliWorkload(
            "search",
            ("fig2", "--ensemble", "mixed", "--trials", "500", "--threads", str(THREADS)),
            250,
            lambda data, items: _csv_problems(
                "state_id,best_v_AtoB,best_v_BtoA,purity", data, items
            ),
        ),
    )
}

WORKLOADS = ("scatter", "audit", "search", "single-state")


def reference_digest(workload: str, items: int, seed: int) -> str | None:
    """SHA-256 of the data file the seed code wrote for this workload and seed,
    or None when no digest was recorded for that seed."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        recorded = json.load(fh)[workload]
    if recorded["items"] != items:
        raise ValueError(
            f"{REFERENCE_FILE} holds {workload} digests for n={recorded['items']}, not n={items}"
        )
    return recorded["sha256"].get(str(seed))
