"""Source hygiene: no module imports a name it never uses, no function
takes a parameter it never reads, and no function, class or method is
defined that nothing names."""

import ast
import gc
import re
import subprocess
import sys
from pathlib import Path

import pytest

from evflow import cli
from evflow.eventmodel import EventModel
from evflow.lang.parser import EvlError
from evflow.randgen import GenParams, gen_source

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "evflow"

MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that nothing
    else in the module reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, json\nfrom x import (a, b as c)\n"
              "def f(p: a) -> None:\n    return json.dumps(p)\n")
    assert unused_imports(source) == ["line 3: c", "line 2: os"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Each name has one home, the module that defines it: a package's
# `__init__` re-exports nothing, so importing a module loads only the
# modules it imports itself.
INITS = sorted((ROOT / "src").rglob("__init__.py"))


@pytest.mark.parametrize("path", INITS,
                         ids=[str(p.relative_to(SRC)) for p in INITS])
def test_package_inits_import_nothing(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def unread_parameters(source: str) -> list[str]:
    """Parameters of the functions and lambdas of `source` that their
    body never names; `self`, `cls` and names starting with `_` are
    exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg,
                                  *a.kwonlyargs, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {n.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [f"line {node.lineno}: {name}({p})" for p in params
                  if p not in named and p not in ("self", "cls")
                  and not p.startswith("_")]
    return found


def test_unread_parameters_are_found():
    source = ("def f(a, b, *args, c, _d, **kw):\n    return a + c\n"
              "class C:\n    def m(self, x):\n        return lambda y, z: z\n"
              "    @classmethod\n    def k(cls, n):\n"
              "        def inner():\n            return n\n"
              "        return inner\n")
    assert unread_parameters(source) == [
        "line 1: f(b)", "line 1: f(args)", "line 1: f(kw)",
        "line 4: m(x)", "line 5: <lambda>(y)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def dead_definitions(modules: dict[str, str], texts: list[str]) -> list[str]:
    """Functions, classes and methods defined in `modules` (name ->
    source), dunders aside, whose name occurs in no text of `texts`
    except in their own definitions."""
    defs: dict[str, list[str]] = {}
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not re.fullmatch(r"__\w+__", node.name):
                defs.setdefault(node.name, []).append(
                    f"{module}:{node.lineno}: {node.name}")
    words: dict[str, int] = {}
    for text in texts:
        for word in re.findall(r"\w+", text):
            words[word] = words.get(word, 0) + 1
    return sorted(where for name, found in defs.items()
                  if words.get(name, 0) <= len(found) for where in found)


def test_dead_definitions_are_found():
    module = ("class Used:\n    def __init__(self): pass\n"
              "    def called(self): pass\n    def dead(self): pass\n"
              "def helper(): return Used().called()\n"
              "def orphan(): pass\n")
    texts = [module, "from m import helper\nhelper()\n"]
    assert dead_definitions({"m.py": module}, texts) == \
        ["m.py:4: dead", "m.py:6: orphan"]


def test_every_definition_is_named_somewhere():
    texts = [p.read_text(encoding="utf-8")
             for d in ("src", "tests", "evbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    modules = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    assert dead_definitions(modules, texts) == []


def redeclared_fields(modules: dict[str, str]) -> list[str]:
    """Fields that a record in `modules` (name -> source) annotates
    although a base class defined there, directly or further up,
    already annotates them; classes are told apart by name."""
    classes: dict[str, tuple[list[str], set[str]]] = {}
    records: list[tuple[str, ast.ClassDef]] = []
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            fields = {s.target.id for s in node.body
                      if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)}
            bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
            classes[node.name] = bases, fields
            for d in node.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                if getattr(d, "id", getattr(d, "attr", None)) == "record":
                    records.append((module, node))

    def inherited(name: str) -> set[str]:
        return {f for base in classes[name][0] if base in classes
                for f in classes[base][1] | inherited(base)}

    return sorted(f"{module}:{node.lineno}: {node.name}.{f}"
                  for module, node in records
                  for f in classes[node.name][1] & inherited(node.name))


def test_redeclared_fields_are_found():
    module = ("from .record import record\nfrom evflow import record as r\n"
              "class Header:\n    sid: int\n    line: int\n"
              "@record(frozen=True)\nclass Base(Header):\n    file: str\n"
              "@record\nclass Again(Base):\n    sid: int\n    file: str\n"
              "@r.record\nclass Fresh(Base):\n    name: str\n"
              "class Plain(Base):\n    line: int\n")
    assert redeclared_fields({"m.py": module}) == \
        ["m.py:10: Again.file", "m.py:10: Again.sid"]


def test_no_record_redeclares_an_inherited_field():
    modules = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    assert redeclared_fields(modules) == []


# Start-up: `dataclasses` loads `inspect` and generates code per class,
# which made it most of the time `import evflow.cli` took; records come
# from `evflow.record` instead.
def imported_modules(node: ast.AST) -> list[str]:
    """The modules an import statement names; none for another node."""
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return []


def dataclass_imports(source: str) -> list[str]:
    """Imports of the `dataclasses` module, or of names from it, in
    `source`."""
    return [f"line {node.lineno}: {m}"
            for node in ast.walk(ast.parse(source))
            for m in imported_modules(node) if m == "dataclasses"]


def test_dataclass_imports_are_found():
    source = ("import json, dataclasses\n"
              "def f():\n    from dataclasses import field\n"
              "from .record import record\nimport dataclasses_json\n")
    assert dataclass_imports(source) == [
        "line 1: dataclasses", "line 3: dataclasses"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_module_imports_dataclasses(path):
    assert dataclass_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site-packages start-up hook can load either module first
    code = ("import sys\nsys.path.insert(0, sys.argv[1])\n"
            "import evflow.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# The analysis does not load what only other commands use: the oracle's
# interpreter and program generator, `json`, which only JSON reports and
# event-model files need, and `argparse`, which only the command line
# needs.
def test_cli_diff_loads_neither_the_interpreter_nor_randgen_nor_json():
    code = ("import sys\nsys.path.insert(0, sys.argv[1])\n"
            "import evflow.cli as cli\n"
            "status, _ = cli.run(cli.RunConfig(\n"
            "    [str(cli.packaged_corpus_dir() / 'door.evl')]))\n"
            "print(status, sorted({'evflow.lang.interp', 'evflow.randgen',\n"
            "                      'json', 'argparse'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 []\n"


# Names resolve in the front end alone: code outside `evflow/lang/` reads
# `Program.scopes` and the parser's per-statement record instead.
RESOLVERS = {"expr_vars", "iter_stmts", "stmt_reads", "qualify"}


def name_resolution(source: str) -> list[str]:
    """Imports of a name-resolving helper, and reads of one as an
    attribute (`scopes.qualify`, `ast.iter_stmts`), in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [f"line {node.lineno}: {a.name}" for a in node.names
                    if a.name.rsplit(".", 1)[-1] in RESOLVERS]
        elif isinstance(node, ast.Attribute) and node.attr in RESOLVERS:
            out.append(f"line {node.lineno}: {node.attr}")
    return out


def test_name_resolution_is_found():
    source = ("from evflow.lang.ast import Var, expr_vars\n"
              "import evflow.lang.ast as a\n"
              "def f(p, s):\n    return s.qualify(p, 'x'), a.iter_stmts(())\n"
              "def qualify(): pass\n")
    assert name_resolution(source) == [
        "line 1: expr_vars", "line 4: qualify", "line 4: iter_stmts"]


OUTSIDE_LANG = sorted(p for p in SRC.rglob("*.py")
                      if "lang" not in p.relative_to(SRC).parts)


@pytest.mark.parametrize("path", OUTSIDE_LANG,
                         ids=[str(p.relative_to(SRC)) for p in OUTSIDE_LANG])
def test_names_resolve_only_in_the_front_end(path):
    assert name_resolution(path.read_text(encoding="utf-8")) == []


# Calls are classified in the front end alone: the parser records each
# call's event operation in `Program.events`, which the analysis and the
# interpreter read.
def classifications(source: str) -> list[str]:
    """Imports from the `eventmodel` module, and calls of a `classify`
    method, in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "classify":
            out.append(f"line {node.lineno}: classify")
        out += [f"line {node.lineno}: eventmodel"
                for m in imported_modules(node)
                if m.rsplit(".", 1)[-1] == "eventmodel"]
    return out


def test_classifications_are_found():
    source = ("from ..eventmodel import EventModel\n"
              "import evflow.eventmodel as em, json\n"
              "def f(m, s):\n    return m.classify(s), classify(s)\n")
    assert classifications(source) == [
        "line 1: eventmodel", "line 2: eventmodel", "line 4: classify"]


def test_the_interpreter_takes_no_event_model():
    source = (SRC / "lang" / "interp.py").read_text(encoding="utf-8")
    assert classifications(source) == []


def test_only_the_parser_classifies_calls():
    calls = {}
    for p in MODULES:
        found = [c for c in classifications(p.read_text(encoding="utf-8"))
                 if c.endswith(": classify")]
        if found:
            calls[str(p.relative_to(SRC))] = len(found)
    assert calls == {"lang/parser.py": 1}


# The event model is a table the parser reads; it knows nothing of the
# AST, so the front end depends on it and not the other way round.
def test_event_model_loads_no_front_end_module():
    code = ("import sys\nsys.path.insert(0, sys.argv[1])\n"
            "import evflow.eventmodel\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('evflow.lang')))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Nothing evflow builds sits in a reference cycle, so reference counting
# frees whatever a run drops, and `cli.run` and `cli.check_program` hold
# the cycle collector off while they run (the `cli` docstring).
@pytest.fixture
def collector():
    """Puts the cycle collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_runs_leave_no_cyclic_garbage(collector, tmp_path):
    """With the collector off, the runs of the corpus (with its models),
    of the golden sources and of both input errors, and 100 oracle
    checks, leave nothing for a collection to free."""
    import evflow.lang.interp  # noqa: F401  loaded before the baseline
    import json  # noqa: F401  loaded by the corpus models
    bad = tmp_path / "bad.evl"
    bad.write_text("var x = ;\n", encoding="utf-8")
    params = GenParams(allow_while=True)
    sources = [gen_source(f"cycles:{i}", params) for i in range(100)]
    model = EventModel.default()
    gc.collect()
    gc.disable()
    configs = [cli.RunConfig([str(evl)], event_model=model_path)
               for evl, model_path in cli.iter_corpus(cli.packaged_corpus_dir())]
    configs += [cli.RunConfig([str(evl)])
                for evl in sorted((ROOT / "tests" / "golden").glob("*.evl"))]
    statuses = [cli.run(cfg)[0] for cfg in configs]
    assert len(statuses) == 7 and cli.EXIT_ERROR not in statuses
    for path in (bad, tmp_path / "missing.evl"):
        assert cli.run(cli.RunConfig([str(path)]))[0] == cli.EXIT_ERROR
    assert gc.collect() == 0
    for source in sources:
        assert cli.check_program(source, model, 6) == []
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_entry_points_pause_and_restore_the_collector(collector, monkeypatch,
                                                      tmp_path, enabled):
    """Both entry points run with the collector off and leave it as the
    caller had it: on a normal return, on an input error and when a
    stage raises."""
    door = cli.packaged_corpus_dir() / "door.evl"
    source = door.read_text(encoding="utf-8")
    bad = tmp_path / "bad.evl"
    bad.write_text("var x = ;\n", encoding="utf-8")
    model = EventModel.default()
    (gc.enable if enabled else gc.disable)()

    assert cli.run(cli.RunConfig([str(door)]))[0] != cli.EXIT_ERROR
    assert gc.isenabled() is enabled
    for path in (bad, tmp_path / "missing.evl"):
        assert cli.run(cli.RunConfig([str(path)]))[0] == cli.EXIT_ERROR
        assert gc.isenabled() is enabled
    assert cli.check_program(source, model, 6) == []
    assert gc.isenabled() is enabled
    with pytest.raises(EvlError):
        cli.check_program("var x = ;\n", model, 6)
    assert gc.isenabled() is enabled

    seen = []

    def failing_stage(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("stage failed")

    monkeypatch.setattr(cli, "analyze_event_aware", failing_stage)
    with pytest.raises(RuntimeError, match="stage failed"):
        cli.run(cli.RunConfig([str(door)]))
    assert gc.isenabled() is enabled
    with pytest.raises(RuntimeError, match="stage failed"):
        cli.check_program(source, model, 6)
    assert gc.isenabled() is enabled
    assert seen == [False, False]
