"""Record the SHA-256 of each CLI workload's data file for seeds 0..N-1.

    python3 perfbench/record_reference.py [N]

Run from the root of a checkout of the commit whose output is the reference
(the survey data files must stay byte-identical across later changes). It
rewrites perfbench/reference.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import run
import workloads


def main(argv: list[str]) -> int:
    seeds = int(argv[0]) if argv else 10
    root = os.getcwd()
    run.check_checkout(root)
    recorded = {}
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        out = os.path.join(scratch, "data.out")
        for name, wl in workloads.CLI_WORKLOADS.items():
            digests = {}
            for seed in range(seeds):
                subprocess.run(
                    [sys.executable, "-m", "entrosteer", *wl.argv(seed, out)],
                    cwd=root, env=run.package_env(root), check=True,
                )
                with open(out, "rb") as fh:
                    data = fh.read()
                problems = wl.problems(data, wl.items)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                digests[str(seed)] = hashlib.sha256(data).hexdigest()
            recorded[name] = {"items": wl.items, "argv": wl.argv(0, "<out>"), "sha256": digests}
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
