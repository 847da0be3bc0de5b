"""Digests of everything a behaviour-preserving change must keep, one
JSON line per program, for diffing two trees of evflow.

The program set is the packaged corpus with its event models, the golden
sources in `golden/`, the seed-3 `chain` and `wide` benchmark decks and
the `randgen` programs `eq:0`-`eq:399` (`GenParams(allow_while=True)`):
435 programs.  Each line holds the digests of the `ifds`, `ide` and
`diff` reports, JSON with `wall_ms` masked and text, of both DOT dumps,
of the parse result (functions, event calls, each statement's `Access`
and the `Scopes`), of each edge's flow-function patch, of the plain and
the filtered fact sets and of the environments, and the IDE solve's
stats themselves.  Reports and dumps come through `cli.run`, so the
script reads only names every tree has; run it against each tree:

    PYTHONPATH=<tree>/src python tests/equivalence.py > <tree>.jsonl
    PYTHONPATH=<tree>/src python tests/equivalence.py corpus

and `diff` the outputs.  `corpus` limits the run to the corpus, and
`errors` prints instead one line per malformed event model or program of
`MALFORMED`, with the type and the message of the error it raises.

`compare <tree>` does both diffs in one command: it runs the default
mode and `errors` under `<tree>/src` and under this tree's `src`, each
in a subprocess, prints each line that differs as its id and the keys
that moved (each solver counter that moved as `ide_stats.<counter>`),
and exits 1 if any did:

    python tests/equivalence.py compare <parent tree>

`golden` rewrites `golden/equivalence.jsonl` and `golden/errors.jsonl`,
which `test_equivalence.py` checks on every run.  The first holds the
same lines without `ide_stats`, each report's `stats` (and so `wall_ms`)
masked, so that they hold only what no behaviour-preserving change may
move; the second holds each `MALFORMED` case's message without its
type.  It prints each line that changed, with the keys that moved:

    PYTHONPATH=src python tests/equivalence.py golden
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

# this tree's `src` after any on PYTHONPATH, so `compare` needs none
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from evflow import cli
from evflow.lang.parser import EvlError, parse
from evflow.eventmodel import EventModel, EventModelError
from evflow.transform import analyze_event_aware

from helpers import iter_stmts

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden" / "equivalence.jsonl"
ERRORS_GOLDEN = TESTS / "golden" / "errors.jsonl"
RANDGEN_COUNT = 400
DECK_SEED = 3
_WALL_MS = re.compile(r'("wall_ms": |wall_ms=)[0-9.eE+-]+')


def corpus_programs() -> list[tuple[str, str, str | None]]:
    """(program id, source, event-model path or None) per corpus file."""
    return [(evl.stem, evl.read_text(encoding="utf-8"), model)
            for evl, model in cli.iter_corpus(cli.packaged_corpus_dir())]


def all_programs() -> list[tuple[str, str, str | None]]:
    sys.path.insert(0, str(TESTS.parent))   # the benchmark's generators
    from evbench.gen import deck
    from evflow.randgen import GenParams, gen_source
    programs = corpus_programs()
    programs += [(evl.stem, evl.read_text(encoding="utf-8"), None)
                 for evl in sorted((TESTS / "golden").glob("*.evl"))]
    for workload in ("chain", "wide"):
        programs += [(pid, source, None)
                     for pid, source in deck(workload, DECK_SEED)]
    params = GenParams(allow_while=True)
    programs += [(f"eq:{i}", gen_source(f"eq:{i}", params), None)
                 for i in range(RANDGEN_COUNT)]
    return programs


def _digest(value) -> str:
    text = value if isinstance(value, str) else \
        json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _reports(name: str, model: str | None,
             masked: bool = False) -> dict[str, str]:
    """The digests of every report of `name` in the working directory
    and of both DOT dumps; with `masked`, of each report with its
    `stats` emptied."""
    out = {}
    for mode in ("ifds", "ide", "diff"):
        dumps = {"dump_supergraph": f"{name}.supergraph.dot",
                 "dump_exploded": f"{name}.exploded.dot"} \
            if mode == "diff" else {}
        status, report = cli.run(cli.RunConfig([name], mode=mode,
                                               event_model=model, **dumps))
        if masked:
            report.stats = {}
        out[f"{mode}_json"] = _digest(_WALL_MS.sub(r"\1null",
                                                   report.to_json()))
        out[f"{mode}_text"] = _digest(
            f"{status}\n" + _WALL_MS.sub(r"\1null", report.render_text(False)))
        for key, path in dumps.items():
            out[key] = _digest(Path(path).read_text(encoding="utf-8")
                               if os.path.exists(path) else "")
    return out


def _solution(name: str, source: str, model: str | None,
              analysis=None) -> dict:
    """The digests of the parse result, the flow-function patches, the
    fact sets and environments of `analysis`, or of a new solve, and its
    solver stats; or the digest of the error that stopped it."""
    if analysis is None:
        try:
            analysis = analyze_event_aware(parse(
                source, filename=name, model=EventModel.from_json_file(
                    model) if model else EventModel.default()))
        except (EvlError, EventModelError) as e:
            return {"error": _digest(f"{type(e).__name__}: {e}")}
    program = analysis.program
    domain = analysis.domain
    scopes = program.scopes
    parsed = {"functions": repr(program.functions),
              "events": program.events,
              "access": {s.sid: program.access(s.sid)
                         for f in program.functions
                         for s in iter_stmts(f.body)},
              "scopes": [scopes.globals, scopes.locals_by_func,
                         scopes.params_by_func, scopes.visible]}

    def named(facts):
        return {node: sorted(domain.name_of(d) for d in ds)
                for node, ds in facts.items()}

    envs = {node: {(domain.name_of(d) if d else "0"):
                   {h: s.name for h, s in hsm.items()}
                   for d, hsm in env.items()}
            for node, env in analysis.ide.envs.items()}
    return {"parse": _digest(parsed),
            "patches": _digest(sorted(analysis.xsg.patch_of.items())),
            "plain_facts": _digest(named(analysis.ifds.facts)),
            "filtered_facts": _digest(named(analysis.filtered.facts)),
            "envs": _digest(envs),
            "ide_stats": analysis.ide.stats}


def _row(name: str, source: str, model: str | None) -> dict:
    return {**_reports(name, model), **_solution(name, source, model)}


def _golden_row(name: str, source: str,
                model: str | None) -> dict[str, str]:
    """`_row` with the reports masked and without `ide_stats`, from one
    solve: the three `cli.run` calls share the first one's analysis."""
    solved = []

    def analyze_once(program):
        if not solved:
            solved.append(analyze_event_aware(program))
        return solved[0]

    with mock.patch.object(cli, "analyze_event_aware", analyze_once):
        row = _reports(name, model, masked=True)
    row.update(_solution(name, source, model, *solved))
    row.pop("ide_stats", None)
    return row


def digest_lines(programs, row=_row) -> list[str]:
    """One JSON line of digests per (id, source, model path) program."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for pid, source, model in programs:
                name = pid.replace(":", "_") + ".evl"
                Path(name).write_text(source, encoding="utf-8")
                digests = {"id": pid, **row(name, source, model)}
                lines.append(json.dumps(digests, sort_keys=True))
        finally:
            os.chdir(cwd)
    return lines


def golden_lines() -> list[str]:
    """The lines `golden/equivalence.jsonl` must hold."""
    return digest_lines(all_programs(), _golden_row)


def moved_keys(old: str, new: str) -> list[str]:
    """The keys whose values differ between two lines of one program;
    of `ide_stats`, each counter that differs, as `ide_stats.<counter>`."""
    a, b = (_flat(json.loads(line)) for line in (old, new))
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _flat(row: dict) -> dict:
    """`row` with each dict value replaced by its items, under
    `<key>.<item key>`."""
    flat = {}
    for key, value in row.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{k}", v) for k, v in value.items())
        else:
            flat[key] = value
    return flat


def print_moved(label: str, old: list[str], new: list[str]) -> bool:
    """Print, under `label`, each line of `new` that differs from `old`'s
    with the keys that moved, and a changed line count; whether any
    did."""
    moved = len(old) != len(new)
    for before, after in zip(old, new):
        if before != after:
            moved = True
            print(f"{label} {json.loads(after)['id']}: "
                  f"{', '.join(moved_keys(before, after))}")
    if len(old) != len(new):
        print(f"{label}: {len(old)} lines -> {len(new)}")
    return moved


def record_golden() -> None:
    """Rewrite both goldens, printing each line that changed with the
    keys that moved."""
    for path, new in ((GOLDEN, golden_lines()),
                      (ERRORS_GOLDEN, golden_error_lines())):
        old = path.read_text(encoding="utf-8").splitlines() \
            if path.exists() else []
        print_moved(path.name, old, new)
        path.write_text("".join(line + "\n" for line in new),
                        encoding="utf-8")


def compare(tree: str) -> int:
    """Print what moved between the default and `errors` outputs under
    `<tree>/src` and under this tree's; 1 if anything did."""
    moved = False
    for label, mode in (("digests", []), ("errors", ["errors"])):
        old, new = (subprocess.run(
            [sys.executable, __file__, *mode], check=True, text=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(root) / "src")},
        ).stdout.splitlines() for root in (tree, TESTS.parent))
        moved |= print_moved(label, old, new)
    return 1 if moved else 0


_ON = {"callee": "on", "event_arg": 0, "handler_arg": 1}
_MODEL = json.dumps({"registrations": [
    _ON, {"callee": "later", "handler_arg": 0, "implicit_emit": True},
    {"callee": "ping", "event_arg": 1, "handler_arg": 0}],
    "emissions": [{"callee": "fire", "event_arg": 0}]})
_DECLS = "fn h() { print(1); }\nfn p(a) { print(a); }\nvar x;\n"

# (id, event-model file text, program source or None)
MALFORMED = [
    ("dup-in-section", json.dumps({"registrations": [_ON, _ON]}), None),
    ("dup-across-sections", json.dumps({"registrations": [_ON], "emissions": [
        {"callee": "on", "event_arg": 0}]}), None),
    ("implicit-not-bool", json.dumps({"registrations": [
        dict(_ON, implicit_emit=1)]}), None),
    ("positions-collide", json.dumps({"registrations": [
        dict(_ON, handler_arg=0)]}), None),
    ("section-not-list", json.dumps({"registrations": {"callee": "on"}}),
     None),
    ("entry-not-object", json.dumps({"emissions": [1]}), None),
    ("dup-then-bad-emission", json.dumps({"registrations": [_ON, _ON],
                                          "emissions": [{"callee": "x",
                                                         "event_arg": -1}]}),
     None),
    ("top-level-list", "[]", None),
    ("invalid-json", "{not json", None),
    ("too-deep", "[" * 100_000, None),
    ("reserved-registration", json.dumps({"registrations": [
        dict(_ON, callee="register")]}), None),
    ("reserved-emission", json.dumps({"emissions": [
        {"callee": "print", "event_arg": 0}]}), None),
    ("no-callee", json.dumps({"registrations": [{"event_arg": 0,
                                                 "handler_arg": 1}]}), None),
    ("callee-not-string", json.dumps({"emissions": [{"callee": 3,
                                                     "event_arg": 0}]}), None),
    ("no-handler-arg", json.dumps({"registrations": [{"callee": "on",
                                                      "event_arg": 0}]}),
     None),
    ("event-arg-string", json.dumps({"registrations": [
        dict(_ON, event_arg="0")]}), None),
    ("event-arg-bool", json.dumps({"registrations": [
        dict(_ON, event_arg=True)]}), None),
    ("handler-arg-negative", json.dumps({"registrations": [
        dict(_ON, handler_arg=-2)]}), None),
    ("emission-no-event-arg", json.dumps({"emissions": [{"callee": "e2"}]}),
     None),
    ("event-not-literal", _MODEL, _DECLS + "on(1, h);"),
    ("no-handler-operand", _MODEL, _DECLS + 'on("e");'),
    ("emitted-not-literal", _MODEL, _DECLS + "fire(x);"),
    ("emitted-handler-name", _MODEL, _DECLS + "fire(h);"),
    ("handler-not-name", _MODEL, _DECLS + 'later("x");'),
    ("event-past-the-end", _MODEL, _DECLS + "ping(h);"),
    ("handler-undeclared", _MODEL, _DECLS + 'on("e", g);'),
    ("handler-is-a-variable", _MODEL, _DECLS + 'on("e", x);'),
    ("handler-takes-params", _MODEL, _DECLS + 'on("e", p);'),
    ("builtin-handler-undeclared", _MODEL, _DECLS + 'register("e", nope);'),
    ("unresolved-callee", _MODEL, _DECLS + "foo();"),
    ("call-arity", _MODEL, _DECLS + "p(1, 2);"),
    ("undeclared-variable", _MODEL, _DECLS + "y = 1;"),
    ("variable-declared-twice", _MODEL, _DECLS + "var x;"),
    ("function-declared-twice", _MODEL, _DECLS + "fn h() { print(2); }"),
    # past Python's 4,300-digit limit on converting a string to an integer
    ("integer-literal-too-long", _MODEL, _DECLS + f"x = {'9' * 5000};"),
    ("model-number-too-long", '{"emissions": [{"callee": "e2", "event_arg": '
     + "9" * 5000 + "}]}", None),
]


def error_lines() -> list[str]:
    """One JSON line per `MALFORMED` case: the type and the message of
    the error loading its model and parsing its program raises, or "ok"."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for cid, model_text, source in MALFORMED:
                Path("case.model.json").write_text(model_text,
                                                   encoding="utf-8")
                try:
                    model = EventModel.from_json_file("case.model.json")
                    if source is not None:
                        parse(source, filename="case.evl", model=model)
                    error = "ok"
                except (EvlError, EventModelError) as e:
                    error = f"{type(e).__name__}: {e}"
                lines.append(json.dumps({"id": cid, "error": error}))
        finally:
            os.chdir(cwd)
    return lines


def golden_error_lines() -> list[str]:
    """The lines `golden/errors.jsonl` must hold: `error_lines` with
    each message without its type."""
    return [json.dumps({"id": row["id"],
                        "message": row["error"].partition(": ")[2]})
            for row in map(json.loads, error_lines())]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "compare":
        return compare(argv[1])
    if argv not in ([], ["corpus"], ["errors"], ["golden"]):
        print("usage: equivalence.py [corpus | errors | golden | "
              "compare <tree>]", file=sys.stderr)
        return 2
    if argv == ["golden"]:
        record_golden()
        return 0
    if argv == ["errors"]:
        lines = error_lines()
    else:
        lines = digest_lines(corpus_programs() if argv else all_programs())
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
