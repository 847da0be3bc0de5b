"""Handler scaling of `evflow diff`: chain programs with H handlers over
G = 2H globals (`helpers.chain_source(H, 2H, 4)`, the `chain` benchmark's
shape with stride (7, 3)), in two variants: `plain`, and `init`, where
each handler also reads a global its predecessor writes before it
registers it, so the filter drops H - 1 diagnostics.

Per variant and H it prints the jump functions and phase-1 steps of the
solve, which are exact, and the diagnostics reported and filtered, from
the report's stats; and the time of `cli.run` and the peak RSS of the
process, which are not, each size in a fresh process that imports only
evflow and the standard library:

    PYTHONPATH=src python tests/scaling.py          # H = 24, 48 and 96
    PYTHONPATH=src python tests/scaling.py 12 24

`test_scaling.py` pins the exact counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# this tree's `src` after any on PYTHONPATH, as `equivalence.py` does
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from evflow import cli

SIZES = (24, 48, 96)
VARIANTS = ("plain", "init")


def write_chain(directory: str, variant: str, h: int) -> str:
    """Write the `variant` chain with `h` handlers; return its path."""
    from helpers import chain_source    # imports pytest, so not at the top
    path = os.path.join(directory, f"{variant}_{h}.evl")
    Path(path).write_text(chain_source(h, 2 * h, 4, init=variant == "init"),
                          encoding="utf-8")
    return path


def run_file(path: str) -> dict:
    """One `cli.run` in diff mode on `path`: its counts and its time in
    seconds."""
    started = time.perf_counter()
    _, report = cli.run(cli.RunConfig([path]))
    seconds = time.perf_counter() - started
    statuses = [d["status"] for d in report.diagnostics]
    return {"jump_functions": report.stats["ifds_worklist_steps"],
            "phase1_steps": report.stats["ide_phase1_steps"],
            "reported": statuses.count("reported"),
            "filtered": statuses.count("filtered"),
            "seconds": seconds}


def peak_rss_mb() -> float:
    """The peak resident set of this process's own address space, which
    a fresh process starts at exec (`ru_maxrss` would keep the larger
    peak of the process it was forked from)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(variant: str, h: int) -> dict:
    """`run_file` on the `variant` chain with `h` handlers, in this
    process."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_file(write_chain(tmp, variant, h))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:       # a child: one file, as a JSON line
        row = run_file(argv[1])
        row["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(row))
        return 0
    sizes = [int(a) for a in argv] or SIZES
    print("variant   H    G  jump functions  phase-1 steps  reported  "
          "filtered  cli.run s  peak RSS MB")
    with tempfile.TemporaryDirectory() as tmp:
        for variant in VARIANTS:
            for h in sizes:
                done = subprocess.run(
                    [sys.executable, __file__, "--one",
                     write_chain(tmp, variant, h)],
                    capture_output=True, text=True, check=True)
                row = json.loads(done.stdout)
                print(f"{variant:7} {h:3} {2 * h:4} "
                      f"{row['jump_functions']:15,} "
                      f"{row['phase1_steps']:14,} {row['reported']:9} "
                      f"{row['filtered']:9} {row['seconds']:10.3f} "
                      f"{row['peak_rss_mb']:12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
