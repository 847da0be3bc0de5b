"""One workload in one fresh, single-threaded process.

    python3 -m evbench.worker gate --workload chain --deck DIR --out gate.json
    python3 -m evbench.worker time --workload chain --deck DIR --out time.json \
        --gate gate.json --seconds 25 --trace 0 [--spans spans.json]

The deck directory holds the generated programs and `deck.json` (their
ids and file names in run order).  The `gate` stage checks every program
once, under a deadline.  The `time` stage, in a fresh process so that
its peak memory is that of the timed loop alone, runs the programs that
passed as a closed loop, one after another, until `--seconds` have
passed, at least two passes are done and the pass over the deck in
progress is complete.  With `--trace 1` the loop gets a quarter of the
time, and the gate and the same sequence of operations then run again
with spans on, each operation paired with an untraced run to measure
the overhead, followed by a tracemalloc pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

DEADLINE_S = 2.0          # one gate call; the slowest healthy one takes ~0.3 s
MEMORY_LIMIT = 2 << 30    # address-space cap, so a runaway program fails alone
MEMORY_PASS_PROGRAMS = 50
# every timing worker makes at least this many passes over the deck, so
# that a run has the 100 samples its p90 needs when the host is slow
MIN_PASSES = 2


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"no result within {DEADLINE_S} s")


class Workload:
    """The timed operation of one workload and the check of its output."""

    def __init__(self, name: str, deck_dir: Path):
        from evflow import cli
        from evflow.eventmodel import EventModel
        from evbench import gate, gen
        self.cli, self.gate = cli, gate
        self.name = name
        self.model = EventModel.default()
        manifest = json.loads((deck_dir / "deck.json").read_text(encoding="utf-8"))
        self.ids = [pid for pid, _ in manifest]
        self.paths = [str(deck_dir / fname) for _, fname in manifest]
        self.sources = [Path(p).read_text(encoding="utf-8") for p in self.paths]
        reference = gate.load_reference(BENCH_DIR)
        self.reference = reference.get(name, {})
        self.op_name = "cli.check_program" if name == "oracle" else "cli.run"
        self.bound = gen.ORACLE_BOUND

    def op(self, i: int):
        """The timed call: `evflow diff` on a file, or the oracle check."""
        if self.name == "oracle":
            return self.cli.check_program(self.sources[i], self.model,
                                          self.bound, self.ids[i])
        return self.cli.run(self.cli.RunConfig([self.paths[i]], mode="diff",
                                               color=False))

    def outcome(self, i: int, result) -> tuple[str, list[str]]:
        """(digest of the output, gate violations) for one op result."""
        if self.name == "oracle":
            return self.gate.digest(result), list(result)
        status, report = result
        if status == self.cli.EXIT_ERROR:
            raise RuntimeError(f"exit 2: {report.warnings}")
        got = self.gate.report_digest(status, report)
        want = self.reference.get(self.ids[i])
        return got, ([] if got == want else
                     [f"report digest {got[:12]} != reference {str(want)[:12]}"])

    def gate_one(self, i: int) -> tuple[str, list[str]]:
        digest, violations = self.outcome(i, self.op(i))
        if self.name != "oracle":
            violations += self.gate.analysis_violations(self.paths[i])
        return digest, violations


def gate_pass(w: Workload, programs, tracer=None) -> dict:
    """Run the gate once per program under a deadline."""
    out = {"ok": [], "wrong": {}, "failed": {}, "digests": {}}
    for i in programs:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            if tracer is None:
                digest, violations = w.gate_one(i)
            else:
                digest, violations = tracer.root("gate", w.ids[i], w.gate_one, i)
        except Exception as e:  # the program's failure, counted
            out["failed"][w.ids[i]] = f"{type(e).__name__}: {str(e)[:200]}"
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        out["digests"][w.ids[i]] = digest
        if violations:
            out["wrong"][w.ids[i]] = violations
        else:
            out["ok"].append(i)
    return out


def timed_pass(w: Workload, order: list[int], seconds: float,
               min_passes: int = 1) -> dict:
    """Closed loop over `order` until `seconds` and `min_passes` passes
    over the deck are done, finishing the pass in progress; failures are
    counted, not retried.  The speed kernel runs before the first pass
    and after every pass."""
    from evbench.speed import kernel_s
    times, sequence, digests, failed, wrong, passes = [], [], [], {}, {}, []
    kernel = [kernel_s()]
    start = time.perf_counter()
    while order and (len(passes) < min_passes
                     or time.perf_counter() - start < seconds):
        pass_start, done = time.perf_counter(), len(times)
        for i in order:
            t0 = time.perf_counter()
            try:
                result = w.op(i)
                t1 = time.perf_counter()
                digest, violations = w.outcome(i, result)
            except Exception as e:  # the program's failure, counted
                failed[w.ids[i]] = f"{type(e).__name__}: {str(e)[:200]}"
                continue
            times.append(t1 - t0)
            sequence.append(i)
            digests.append(digest)
            if violations:
                wrong[w.ids[i]] = violations
        passes.append([len(times) - done, time.perf_counter() - pass_start])
        kernel.append(kernel_s())
        order = [i for i in order if w.ids[i] not in failed]
    return {"times": times, "sequence": sequence, "digests": digests,
            "failed": failed, "wrong": wrong, "passes": passes,
            "kernel_s": kernel}


def traced_pass(w: Workload, programs: list[int], sequence: list[int],
                spans_path: Path | None) -> dict:
    """The gate over `programs` and the ops in `sequence` again, with
    spans.  Each traced op is paired with an untraced run of the same
    program, right before or (every other op) right after it, so their
    difference is the tracing overhead and not the drift of a shared
    host between two passes or the warm-up one run gives the next."""
    from evbench.trace import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        gate = gate_pass(w, programs, tracer)
    finally:
        tracer.uninstall()
    def timed(fn, *args) -> tuple[float, object]:
        start = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - start, result

    def traced_op(i: int):
        tracer.install()
        try:
            return tracer.root(w.op_name, w.ids[i], w.op, i)
        finally:
            tracer.uninstall()

    digests, overhead = [], 0.0
    for n, i in enumerate(sequence):
        if n % 2:
            traced_s, result = timed(traced_op, i)
            untraced_s = timed(w.op, i)[0]
        else:
            untraced_s = timed(w.op, i)[0]
            traced_s, result = timed(traced_op, i)
        overhead += traced_s - untraced_s
        digests.append(w.outcome(i, result)[0])
    if spans_path is not None:
        tracer.dump(spans_path, {"workload": w.name})
    return {"gate": gate, "digests": digests,
            "overhead_s": overhead / max(1, len(sequence)),
            "metrics": tracer.summary(w.op_name),
            "layer_self_s": tracer.layer_self_times()}


def memory_pass(w: Workload, programs: list[int]) -> dict:
    from evbench.trace import PeakMemory
    with PeakMemory() as peaks:
        for i in programs[:MEMORY_PASS_PROGRAMS]:
            w.op(i)
    return peaks.peak_kb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stage", choices=("gate", "time"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--deck", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--gate", type=Path, help="the gate stage's output")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    signal.signal(signal.SIGALRM, _on_alarm)
    import evflow
    if not Path(evflow.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"evflow imported from {evflow.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    w = Workload(args.workload, args.deck)
    if args.stage == "gate":
        result = gate_pass(w, range(len(w.ids)))
    else:
        gate = json.loads(args.gate.read_text(encoding="utf-8"))
        w.cli.run(w.cli.RunConfig([str(w.cli.packaged_corpus_dir() / "door.evl")],
                                  color=False))  # lattice tables: part of setup_s
        if args.trace:
            result = timed_pass(w, gate["ok"], args.seconds / 4)
        else:
            result = timed_pass(w, gate["ok"], args.seconds, MIN_PASSES)
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            traced = traced_pass(w, gate["ok"], result["sequence"], args.spans)
            traced["peak_kb"] = memory_pass(w, gate["ok"])
            traced["equal"] = traced.pop("digests") == result["digests"] and \
                traced["gate"].pop("digests") == \
                {w.ids[i]: gate["digests"][w.ids[i]] for i in gate["ok"]}
            result["traced"] = traced
        del result["digests"]
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
