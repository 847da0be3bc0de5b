"""Alternating parent/change pairs of the benchmark, recorded as one JSON
file.

For each workload and seed it runs `--pairs` pairs of

    python3 evbench/run.py --workload W --seed S

once in a `git archive` of the parent revision and once in this working
tree, alternating which side runs first, and writes to `--out` each
run's final JSON line and, per side and end-to-end metric, the median
and quartiles of the runs, and per metric the pairs the change won and
the verdict on it (`better`, `worse`, `unresolved` or `level`; see
`verdict`), from the metric's `better` and `bound` in `BENCHMARK.json`.
Before the pairs it runs `tests/scaling.py 24 48 96` once in each tree
and writes both sides' rows of its table as the `scaling` section:

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
# the columns of the table `tests/scaling.py` prints, one row per line
SCALING_COLUMNS = ("variant", "h", "g", "jump_functions", "phase1_steps",
                   "reported", "filtered", "cli_run_s", "peak_rss_mb")


def end_to_end() -> dict[str, dict]:
    """Each end-to-end metric of the benchmark by name: its `better`
    direction and the `bound` by which it may worsen."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def run_in(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """A script of `tree` run from `tree`, which imports that tree's
    `src`, not one on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def failure(done: subprocess.CompletedProcess) -> dict:
    return {"exit": done.returncode, "stderr": done.stderr[-2000:]}


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `tree`: its final JSON line, or its exit
    status and the end of its error output if it failed."""
    done = run_in(tree, "evbench/run.py", "--workload", workload,
                  "--seed", str(seed))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return failure(done)
    return json.loads(lines[-1])


def scaling_rows(tree: Path) -> list[dict] | dict:
    """`tests/scaling.py 24 48 96` in `tree`: one dict per row of its
    table, or its exit status and error output if it failed."""
    done = run_in(tree, "tests/scaling.py", "24", "48", "96")
    if done.returncode != 0:
        return failure(done)
    return [dict(zip(SCALING_COLUMNS, [variant, *map(json.loads, numbers)]))
            for variant, *numbers in (line.replace(",", "").split()
                                      for line in done.stdout.splitlines()[1:])]


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles, by the inclusive method."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per side and metric the spread of the runs that finished, per
    metric the pairs the change won (ties count for neither side) and
    the verdict on it (`verdict`)."""
    done = [p for p in pairs if all("metrics" in p[s] for s in SIDES)]
    out: dict = {"pairs_done": len(done)}
    if not done:
        return out
    # per metric and side, each run's value, signed so that higher is better
    signed = {m: {side: [(1 if spec["better"] == "higher" else -1)
                         * p[side]["metrics"][m]["value"] for p in done]
                  for side in SIDES}
              for m, spec in metrics.items()}
    for side in SIDES:
        out[side] = {m: spread([p[side]["metrics"][m]["value"] for p in done])
                     for m in metrics}
    out["change_wins"] = {m: sum(c > p for p, c in zip(runs["parent"],
                                                         runs["change"]))
                          for m, runs in signed.items()}
    out["verdict"] = {m: verdict(runs["parent"], runs["change"],
                                 out["change_wins"][m], metrics[m]["bound"])
                      for m, runs in signed.items()}
    return out


def verdict(parent: list[float], change: list[float], wins: int,
            bound: float) -> str:
    """The verdict on one metric over paired runs whose values are signed
    so that higher is better; `bound` is the share of the parent's
    median by which the change may worsen.

    `better`: the change won at least nine tenths of the pairs, and its
    median is above the parent's by more than the parent's quartile
    spread.  `worse`: the change's median is below the parent's by more
    than the bound.  `unresolved`: the parent's quartile spread is wider
    than the bound, and not every run of the change beats every run of
    the parent.  `level`: otherwise.
    """
    p, c = spread(parent), spread(change)
    iqr = p["q3"] - p["q1"]
    allowed = bound * abs(p["median"])
    if 10 * wins >= 9 * len(parent) and c["median"] - p["median"] > iqr:
        return "better"
    if p["median"] - c["median"] > allowed:
        return "worse"
    if iqr > allowed and min(change) <= max(parent):
        return "unresolved"
    return "level"


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
    metrics = end_to_end()
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
        record["scaling"] = {side: scaling_rows(trees[side])
                             for side in SIDES}
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
                runs[key] = {"pairs": pairs, **summarize(pairs, metrics)}
                out_path.write_text(json.dumps(record, indent=1) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
