"""Command-line driver: analyze EVL files, diff the plain and the
event-aware results, dump graphs and run the oracle suite.

`run` and `check_program`, the per-program operations, hold Python's
cycle collector off while they run.  That is safe because nothing evflow
builds sits in a reference cycle, so reference counting frees each
run's objects as soon as the run drops them, with the collector on or
off; the collector would only scan live objects and find nothing.
`tests/test_hygiene.py` runs both over the corpus, the goldens and
random programs with the collector off and checks that a collection
then finds no garbage.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
import time
from pathlib import Path

from .event_lattice import HState
from .eventmodel import EventModel, EventModelError
from .ifds import exploded_dot
from .lang.parser import EvlError, parse, parse_files, read_source
from .lang.ast import Scopes
from .record import field, record
from .supergraph import node_for_sid, supergraph_dot
from .transform import analyze_event_aware
from .uninit import report_uses

REPORT_VERSION = 1

EXIT_CLEAN = 0
EXIT_DIAGNOSTICS = 1
EXIT_ERROR = 2


@record
class RunConfig:
    inputs: list[str]
    mode: str = "diff"                 # ifds | ide | diff
    event_model: str | None = None
    dump_supergraph: str | None = None
    dump_exploded: str | None = None
    color: bool = True                 # unread by `run`; `evbench/` passes it


@record
class Report:
    files: list[str]
    mode: str
    diagnostics: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    # the run stopped on an input error, which `warnings` holds
    input_error: bool = False

    def to_json(self) -> str:
        import json
        return json.dumps({
            "version": REPORT_VERSION,
            "files": self.files,
            "mode": self.mode,
            "diagnostics": self.diagnostics,
            "warnings": self.warnings,
            "stats": self.stats,
        }, indent=2, sort_keys=True) + "\n"

    def render_text(self, color: bool) -> str:
        red = "\x1b[31m" if color else ""
        dim = "\x1b[2m" if color else ""
        reset = "\x1b[0m" if color else ""
        if self.input_error:
            return "".join(f"{red}error: {w}{reset}\n" for w in self.warnings)
        lines = []
        for w in self.warnings:
            lines.append(f"{dim}warning: {w}{reset}")
        for d in self.diagnostics:
            head = (f"{d['file']}:{d['line']}: variable '{d['var']}' "
                    f"may be uninitialized")
            if d["status"] == "filtered":
                blocked = ", ".join(
                    f"handler '{h}' invoked before its event is emitted"
                    for h, s in sorted(d["handler_states"].items())
                    if s == "X")
                lines.append(f"{dim}{head} [filtered: infeasible-path "
                             f"artifact; would require {blocked}]{reset}")
            else:
                lines.append(f"{red}{head}{reset}")
        reported = sum(1 for d in self.diagnostics if d["status"] == "reported")
        filtered = len(self.diagnostics) - reported
        summary = f"{reported} reported"
        if self.mode == "diff":
            summary += f", {filtered} filtered as infeasible-path artifacts"
        lines.append(summary)
        s = self.stats
        lines.append(
            f"{dim}nodes={s.get('nodes')} edges={s.get('edges')} "
            f"facts={s.get('facts')} handlers={s.get('handlers')} "
            f"wall_ms={s.get('wall_ms')}{reset}")
        return "\n".join(lines) + "\n"


def _load_model(path: str | None) -> EventModel:
    if path is None:
        return EventModel.default()
    return EventModel.from_json_file(path)


def _dump(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise EvlError(f"{path}: cannot write ({e.strerror or e})") from e


def _hsm_json(hsm: dict[str, HState]) -> dict[str, str]:
    return {h: s.name for h, s in hsm.items()}


def _collector_paused(fn):
    """`fn` with the cycle collector off while it runs, then back in the
    state the caller had it in, on every exit."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_collector_paused
def run(cfg: RunConfig) -> tuple[int, Report]:
    """Analyze the configured inputs; exit status 0 means no surviving
    diagnostics, 1 means diagnostics, 2 means a usage or input error."""
    started = time.perf_counter()
    try:
        model = _load_model(cfg.event_model)
        program = parse_files(cfg.inputs, model=model)
        analysis = analyze_event_aware(program)
        if cfg.dump_supergraph:
            _dump(cfg.dump_supergraph, supergraph_dot(
                analysis.build.graph, analysis.build.ops, program))
        if cfg.dump_exploded:
            _dump(cfg.dump_exploded, exploded_dot(analysis.xsg))
    except (EvlError, EventModelError) as e:
        return EXIT_ERROR, Report(files=list(cfg.inputs), mode=cfg.mode,
                                  warnings=[str(e)], input_error=True)

    diagnostics: list[dict] = []
    for d in report_uses(analysis.problem, analysis.ifds):
        fact = analysis.domain.index_of(d.qualified)
        if cfg.mode == "ifds" or analysis.filtered.holds(d.node, fact):
            status = "reported"
        elif cfg.mode == "ide":
            continue
        else:
            status = "filtered"
        entry = {"file": d.file, "line": d.line, "var": d.var,
                 "status": status}
        if status == "filtered":
            entry["handler_states"] = _hsm_json(
                analysis.ide.map_at(d.node, fact))
        diagnostics.append(entry)

    stats = {
        "nodes": len(analysis.build.graph.nodes),
        "edges": len(analysis.build.graph.edges),
        "facts": len(analysis.domain),
        "fact_classes": analysis.ide.stats["fact_classes"],
        "handlers": len(analysis.build.handlers),
        "ifds_worklist_steps": analysis.ifds.stats["worklist_steps"],
        "ide_phase1_steps": analysis.ide.stats["phase1_steps"],
        "ide_phase2_steps": analysis.ide.stats["phase2_steps"],
        "wall_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    report = Report(files=list(cfg.inputs), mode=cfg.mode,
                    diagnostics=diagnostics,
                    warnings=analysis.build.warnings,
                    stats=stats)
    reported = any(d["status"] == "reported" for d in diagnostics)
    return (EXIT_DIAGNOSTICS if reported else EXIT_CLEAN), report


# --- oracle suite -----------------------------------------------------------

def packaged_corpus_dir() -> Path:
    # next to this module, as package data; not through
    # `importlib.resources`, which on Python 3.12+ imports `inspect`
    return Path(__file__).parent / "corpus"


def iter_corpus(directory: Path):
    """(program path, event-model path or None) per corpus program."""
    for evl in sorted(directory.glob("*.evl")):
        model_path = evl.parent / f"{evl.stem}.model.json"
        yield evl, str(model_path) if os.path.lexists(model_path) else None


def explore_schedules(program, max_decisions: int):
    """The interpreter's traces of `program` within the decision bound;
    `lang.interp` is imported on the first call, as only the oracle
    runs it."""
    from .lang import interp
    return interp.explore_schedules(program, max_decisions=max_decisions)


@_collector_paused
def check_program(source: str, model: EventModel, schedules: int,
                  filename: str = "<generated>") -> list[str]:
    """Representation, interpreter and per-read checks for one program;
    returns human-readable violations.

    Each uninitialized read the interpreter observes within the schedule
    bound, a (statement, variable) pair however many traces observe it,
    asks the solve for its own row, three times:
    - soundness: the filtered result holds the read's fact at its node;
    - subset: so does the plain result, as the filtered one is within it
      (both are views of one solve, so today this holds by construction;
      it guards a future separate plain solve);
    - agreement: the fact's handler-state map (`IdeResult.map_at`) puts
      no handler in X, as the filter (`event_lattice.feasible`) and the
      map a report prints are computed apart.
    No whole-program fact set is built, so memory stays linear in the
    program."""
    from .lang.interp import check_trace_ordering
    violations: list[str] = []
    program = parse(source, filename=filename, model=model)
    analysis = analyze_event_aware(program, check_descent=True)

    n_handlers = len(analysis.build.handlers)
    if any(len(t) != n_handlers for t in analysis.labeled.labels.values()):
        violations.append("representation: a label's length is not the "
                          "handler count")

    checked: set[tuple[int, str]] = set()
    for trace in explore_schedules(program, max_decisions=schedules):
        if check_trace_ordering(program, trace):
            violations.append("interpreter: trace breaks the "
                              "registration/emission ordering invariant")
        for read in trace.uninit_reads():
            if (read.sid, read.var) in checked:
                continue
            checked.add((read.sid, read.var))
            node = node_for_sid(analysis.build.graph, program, read.sid)
            fact = analysis.domain.index_of(read.var)
            name = Scopes.display(read.var)
            if not analysis.filtered.holds(node, fact):
                violations.append(
                    f"soundness: run-time uninitialized read of "
                    f"'{name}' at {node} missing from the filtered result")
            elif not analysis.ifds.holds(node, fact):
                violations.append(
                    f"subset: '{name}' at {node} survives filtering but "
                    f"is not in the plain result")
            else:
                hsm = analysis.ide.map_at(node, fact)
                if HState.X in hsm.values():
                    violations.append(
                        f"agreement: '{name}' at {node} survives filtering "
                        f"but its handler-state map puts "
                        f"{sorted(h for h, s in hsm.items() if s is HState.X)}"
                        f" in X")
    return violations


def run_oracle_suite(corpus: str | None, seed: int, schedules: int,
                     count: int, out=None) -> int:
    """Check each program of the `corpus` directory (the packaged one if
    None) and `count` random programs of `seed` at bound `schedules`."""
    from .randgen import GenParams, gen_source
    out = out if out is not None else sys.stdout
    corpus = Path(corpus) if corpus else packaged_corpus_dir()
    if not corpus.is_dir():
        print(f"error: corpus directory {corpus} not found", file=out)
        return EXIT_ERROR
    failures = 0
    checked = 0

    def fail(head: str, violations: list[str], source: str) -> None:
        nonlocal failures
        failures += 1
        print(f"{head}: FAIL", file=out)
        for v in violations:
            print(f"  {v}", file=out)
        if source:
            print("  counterexample:\n" +
                  "\n".join("    " + l for l in source.splitlines()),
                  file=out)

    for evl, model_path in iter_corpus(corpus):
        source = ""
        try:
            source = read_source(evl)
            violations = check_program(source, _load_model(model_path),
                                       schedules, evl.name)
        except (EvlError, EventModelError) as e:
            violations = [f"error: {e}"]
        checked += 1
        if violations:
            fail(f"corpus {evl.name}", violations, source)
        else:
            print(f"corpus {evl.name}: ok", file=out)
    params = GenParams(allow_while=True)
    for i in range(count):
        source = gen_source(f"{seed}:{i}", params)
        violations = check_program(source, EventModel.default(), schedules)
        checked += 1
        if violations:
            fail(f"random {seed}:{i}", violations, source)
    print(f"random programs: {count} checked "
          f"(seed {seed}, schedule bound {schedules})", file=out)
    print(f"oracle suite: {checked - failures}/{checked} passed", file=out)
    return EXIT_CLEAN if failures == 0 else EXIT_DIAGNOSTICS


# --- argument parsing -------------------------------------------------------

def _count(text: str) -> int:
    """A non-negative integer option value."""
    import argparse
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    # imported here: `run` and `check_program` parse no options, so a
    # caller importing this module for them does not load `argparse`
    import argparse
    parser = argparse.ArgumentParser(
        prog="evflow",
        description="Event-aware possibly-uninitialized-variables analysis "
                    "for EVL programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_analysis(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("inputs", nargs="+", metavar="file.evl")
        p.add_argument("--event-model", metavar="path.json")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--dump-supergraph", metavar="path.dot")
        p.add_argument("--dump-exploded", metavar="path.dot")
        return p

    add_analysis("ifds", "plain analysis, infeasible orderings admitted")
    add_analysis("ide", "event-aware analysis, infeasible orderings filtered")
    add_analysis("diff", "both analyses, filtered facts called out")

    oracle = sub.add_parser("oracle", help="run the self-check suite over "
                                           "the corpus and random programs")
    oracle.add_argument("corpus", nargs="?", metavar="corpus_dir")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--schedules", type=_count, default=6,
                        help="max dispatch decisions explored per program")
    oracle.add_argument("--count", type=_count, default=100,
                        help="number of random programs")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; an unexpected exception is reported on one stderr line
    and exits 2, so that exit 1 only ever means diagnostics."""
    try:
        return _main(argv)
    except Exception as e:
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_ERROR


def _main(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # no subcommand means `diff`, whether a file or an option comes first
    if argv and argv[0] not in ("ifds", "ide", "diff", "oracle",
                                "-h", "--help"):
        argv.insert(0, "diff")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    color = sys.stdout.isatty() and not os.environ.get("EVFLOW_NO_COLOR")
    if args.command == "oracle":
        return run_oracle_suite(args.corpus, args.seed, args.schedules,
                                args.count)
    cfg = RunConfig(
        inputs=list(args.inputs),
        mode=args.command,
        event_model=args.event_model,
        dump_supergraph=args.dump_supergraph,
        dump_exploded=args.dump_exploded,
    )
    status, report = run(cfg)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render_text(color))
    return status


if __name__ == "__main__":
    sys.exit(main())
