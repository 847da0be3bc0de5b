"""Alternating parent/change pairs of the benchmark, recorded as one JSON
file.

For each workload and seed it runs `--pairs` pairs of

    python3 evbench/run.py --workload W --seed S

once in a `git archive` of the parent revision and once in this working
tree, alternating which side runs first, and writes to `--out` each
run's final JSON line and, per side and end-to-end metric, the median
and quartiles of the runs, and per metric the pairs the change won:

    python tests/bench_record.py --parent f2d66f5 --out BENCH_37.json \\
        --pairs 10 --workload oracle --seed 3 --seed 7

The run length is the benchmark's own default.  `--parent` names the
revision to compare against and must differ from `HEAD` when the working
tree is clean, so that a pair never compares a tree with itself.  An
existing `--out` file keeps its entries for other workloads and seeds,
so they can be recorded one command at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end() -> dict[str, str]:
    """Each end-to-end metric of the benchmark and its better direction."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `tree`: its final JSON line, or its exit
    status and the end of its error output if it failed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "evbench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"exit": done.returncode, "stderr": done.stderr[-2000:]}
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles, by the inclusive method."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per side and metric the spread of the runs that finished, and per
    metric the pairs the change won (ties count for neither side)."""
    done = [p for p in pairs if all("metrics" in p[s] for s in SIDES)]
    out: dict = {"pairs_done": len(done)}
    if not done:
        return out
    for side in SIDES:
        out[side] = {m: spread([p[side]["metrics"][m]["value"] for p in done])
                     for m in better}
    sign = {"lower": -1, "higher": 1}
    out["change_wins"] = {
        m: sum(1 for p in done
               if sign[b] * (p["change"]["metrics"][m]["value"]
                             - p["parent"]["metrics"][m]["value"]) > 0)
        for m, b in better.items()}
    return out


def rev_parse(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    better = end_to_end()
    out_path = Path(args.out)
    record = (json.loads(out_path.read_text(encoding="utf-8"))
              if out_path.exists() else {})
    parent = rev_parse(args.parent)
    dirty = subprocess.run(["git", "status", "--porcelain",
                            "--untracked-files=no"], cwd=ROOT,
                           capture_output=True, text=True, check=True)
    if parent == rev_parse("HEAD") and not dirty.stdout.strip():
        ap.error(f"--parent {args.parent} is the clean working tree itself")
    record.pop("seconds", None)
    record.update(parent=parent, python=sys.version.split()[0])
    runs = record.setdefault("runs", {})
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload in args.workload:
            for seed in args.seed:
                key = f"{workload}/{seed}"
                pairs = []
                for i in range(args.pairs):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = bench_run(trees[side], workload, seed)
                    pairs.append(pair)
                    print(key, i, {s: pair[s]["metrics"]["program_s_p50"]
                                   if "metrics" in pair[s] else pair[s]
                                   for s in SIDES}, flush=True)
                runs[key] = {"pairs": pairs, **summarize(pairs, better)}
                out_path.write_text(json.dumps(record, indent=1) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
