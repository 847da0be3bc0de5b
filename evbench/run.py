"""evflow benchmark: seeded workloads, correctness gate, end-to-end and
per-layer metrics.

    python3 evbench/run.py --seed 1                      # all workloads
    python3 evbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

For each workload the programs are generated from the seed and written
to files, set-up time is taken from fresh processes, and one fresh
worker process runs the workload as a closed loop (`worker.py`).  One
row per workload is printed; with `--workload` the last line is a JSON
object with `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics, or with `--trace 1` the per-layer ones).  See
README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT))
from evbench import gen, speed  # noqa: E402
from evbench.gate import load_reference  # noqa: E402

WORKLOADS = ("chain", "wide", "oracle")
SETUP_PROBES = 5
# evflow's worklist order follows Python's string hashing, so the cost of
# a program differs between processes; each run splits its timed loop
# over this many worker processes, each with its own hash seed drawn from
# the run seed, and so measures several orders instead of one.
HASH_SEEDS = 5
RUN_LIMIT_S = 170
# The tail is the highest of these percentiles with at least ten samples
# beyond it.  p99 is left out: on `oracle` it rests on the ten slowest of
# a deck of 1000 programs, which the seed changes, and its spread over
# seeds was 17% against 5% for the p50; and on a faster commit that
# completes more programs the tail would change meaning.
PERCENTILES = (50, 90)


class BenchError(Exception):
    pass


def _run(cmd: list[str], env: dict, timeout: float) -> str:
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{cmd[1:3]} did not finish in {timeout:.0f} s") from e
    if done.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def write_deck(workload: str, seed: int, directory: Path) -> list[str]:
    """Write the deck's programs and manifest; return the ids of the
    programs passed over (`oracle` only, see `gen.runs_away`)."""
    directory.mkdir(parents=True)
    manifest = []
    if workload == "oracle":
        programs, passed_over = gen.oracle_deck(seed)
    else:
        programs, passed_over = gen.deck(workload, seed), []
    for n, (pid, source) in enumerate(programs):
        fname = f"{pid}.evl" if workload != "oracle" else f"oracle-{n:04d}.evl"
        (directory / fname).write_text(source, encoding="utf-8")
        manifest.append([pid, fname])
    (directory / "deck.json").write_text(json.dumps(manifest), encoding="utf-8")
    return passed_over


def hashed(env: dict, seed: int, j: int) -> dict:
    return dict(env, PYTHONHASHSEED=str((seed * HASH_SEEDS + j) % 2**32))


def setup_probe(env: dict, deadline: float) -> dict:
    out = _run([sys.executable, str(BENCH_DIR / "probe.py")], env,
               deadline - time.monotonic())
    probe = json.loads(out.strip().splitlines()[-1])
    if not Path(probe["evflow"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"evflow imported from {probe['evflow']}")
    return probe


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of PERCENTILES with at least ten
    samples beyond it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    pct = max([p for p in PERCENTILES if n * (100 - p) / 100 >= 10], default=50)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict, deadline: float) -> dict:
    work = BENCH_DIR / "_work" / f"{workload}-{seed}-{os.getpid()}"
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    worker = [sys.executable, "-m", "evbench.worker"]
    common = ["--workload", workload, "--deck", str(work)]
    probes, parts = [], []
    try:
        passed_over = write_deck(workload, seed, work)
        _run(worker + ["gate", *common, "--out", str(work / "gate.json")],
             hashed(env, seed, 0), deadline - time.monotonic())
        gate = json.loads((work / "gate.json").read_text(encoding="utf-8"))
        n_parts = 1 if trace else HASH_SEEDS
        for j in range(SETUP_PROBES):
            probes.append(setup_probe(hashed(env, seed, j), deadline))
            if j >= n_parts:
                continue
            out = work / f"time-{j}.json"
            cmd = worker + ["time", *common, "--out", str(out),
                            "--gate", str(work / "gate.json"),
                            "--seconds", str(seconds / n_parts),
                            "--trace", str(int(trace))]
            if trace:
                cmd += ["--spans", str(out_dir / f"spans-{workload}-{seed}.json")]
            _run(cmd, hashed(env, seed, j), deadline - time.monotonic())
            parts.append(json.loads(out.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return dict(summarize(workload, probes, gate, parts), passed_over=passed_over)


def program_times(parts: list[dict], scaled: bool) -> list[float]:
    """One sample per program run: the median time of that program in
    its worker process, each run first scaled by the speed kernel
    measured around its pass (`speed.py`) if `scaled`.  A program
    repeats in every pass over the deck, so the median keeps the spread
    between programs and drops most single-run interference."""
    samples = []
    for part in parts:
        factors = []
        for p, (n, _) in enumerate(part["passes"]):
            f = speed.scale(part["kernel_s"][p:p + 2]) if scaled else 1.0
            factors += [f] * n
        by_program: dict[int, list[float]] = {}
        for i, t, f in zip(part["sequence"], part["times"], factors):
            by_program.setdefault(i, []).append(t * f)
        median = {i: statistics.median(ts) for i, ts in by_program.items()}
        samples += [median[i] for i in part["sequence"]]
    return samples


def summarize(workload: str, probes: list[dict], gate: dict,
              parts: list[dict]) -> dict:
    door = load_reference(BENCH_DIR)["door"]
    setup_wrong = sum(1 for p in probes if p["status"] != 0 or p["digest"] != door)
    timed = {key: {k: v for p in parts for k, v in p[key].items()}
             for key in ("failed", "wrong")}
    wrong = set(gate["wrong"]) | set(timed["wrong"])
    failed = len(gate["failed"]) + len(timed["failed"])
    times = program_times(parts, scaled=True)
    if not times:
        raise BenchError(f"{workload}: no program passed the gate")
    attempted = len(gate["digests"]) + len(gate["failed"]) + len(times) \
        + len(timed["failed"]) + len(probes)
    pct, tail_s = tail(times)
    per_pass = [n / (s * speed.scale(part["kernel_s"][p:p + 2]))
                for part in parts for p, (n, s) in enumerate(part["passes"]) if n]
    row = {
        "setup_s": (statistics.median(p["setup_s"] * speed.scale([p["kernel_s"]])
                                      for p in probes), "s"),
        "program_s_p50": (statistics.median(times), "s"),
        "program_s_tail": (tail_s, "s"),
        "programs_per_s": (statistics.median(per_pass) if per_pass else 0.0, "1/s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
        "wrong_results": (len(wrong) + setup_wrong, "count"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    raw = program_times(parts, scaled=False)
    kernel = [k for part in parts for k in part["kernel_s"]]
    out = {"workload": workload, "row": row, "tail": (pct, len(times)),
           "raw": {"setup_s": statistics.median(p["setup_s"] for p in probes),
                   "program_s_p50": statistics.median(raw) if raw else 0.0,
                   "program_s_tail": tail(raw)[1] if raw else 0.0,
                   "speed_kernel_s": statistics.median(kernel)},
           "wrong": sorted(wrong), "failed": {**gate["failed"], **timed["failed"]},
           "attempted": attempted, "failed_count": failed,
           "correct": not wrong and not setup_wrong}
    if "traced" in parts[0]:
        traced = parts[0]["traced"]
        metrics = dict(traced["metrics"])
        metrics.update(traced["peak_kb"])
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["event_lattice.first_compose_s"] = statistics.median(
            p["first_compose_s"] for p in probes)
        metrics["trace.overhead_s"] = traced["overhead_s"]
        out["per_layer"] = metrics
        out["layer_self_s"] = traced["layer_self_s"]
        out["correct"] = out["correct"] and traced["equal"] \
            and not traced["gate"]["wrong"] and not traced["gate"]["failed"]
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("peak_kb"):
        return "KiB"
    if name.endswith(("_per_jump_function", "_ratio")):
        return "ratio"
    return "count"


def print_rows(results: list[dict]) -> None:
    names = list(results[0]["row"])
    print("workload  " + "  ".join(f"{n:>16}" for n in names))
    for r in results:
        cells = [f"{value:.6g} {unit}" for value, unit in r["row"].values()]
        print(f"{r['workload']:<8}  " + "  ".join(f"{c:>16}" for c in cells))
    for r in results:
        pct, n = r["tail"]
        print(f"{r['workload']}: program_s_tail is p{pct} of {n} programs; "
              f"{r['attempted']} attempted, {r['failed_count']} failed, "
              f"wrong: {r['wrong'] or 'none'}")
        print(f"  times above are scaled to a {speed.REFERENCE_S} s speed kernel; "
              "raw: " + ", ".join(f"{k}={v:.6g}" for k, v in r["raw"].items()))
        for pid, why in sorted(r["failed"].items()):
            print(f"  failed {pid}: {why}")
        if r["passed_over"]:
            print(f"  passed over, integer wider than {gen.RUNAWAY_BITS} bits "
                  f"(known evflow defect): {', '.join(r['passed_over'])}")
        if "layer_self_s" in r:
            total = sum(r["layer_self_s"].values())
            shares = ", ".join(f"{k} {v / total:.0%}"
                               for k, v in r["layer_self_s"].items())
            print(f"  self time by layer: {shares}")
            for name, value in sorted(r["per_layer"].items()):
                print(f"  {name} = {value:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S * (1 if args.workload else 3)

    if not (ROOT / "src" / "evflow" / "__init__.py").is_file():
        print(f"error: no evflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    results = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            results.append(run_workload(workload, args.seed, args.seconds,
                                        bool(args.trace), env, deadline))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print_rows(results)

    def metrics_of(r: dict, prefix: str) -> dict:
        if args.trace:
            return {prefix + k: {"value": v, "unit": per_layer_unit(k)}
                    for k, v in r["per_layer"].items()}
        return {prefix + k: {"value": v, "unit": u} for k, (v, u) in r["row"].items()
                if k not in ("wrong_results", "failed_ratio")}

    metrics = {}
    for r in results:
        metrics.update(metrics_of(r, "" if args.workload else r["workload"] + "."))
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed_count"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
