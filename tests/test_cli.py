import json
from pathlib import Path

from evflow import ide
from evflow.cli import (
    EXIT_CLEAN,
    EXIT_DIAGNOSTICS,
    EXIT_ERROR,
    Report,
    RunConfig,
    main,
    packaged_corpus_dir,
    run,
    run_oracle_suite,
)


def corpus_path(name: str) -> str:
    return str(packaged_corpus_dir() / name)


def test_diff_door_filters_everything():
    status, report = run(RunConfig([corpus_path("door.evl")], mode="diff"))
    assert status == EXIT_CLEAN
    filtered = [d for d in report.diagnostics if d["status"] == "filtered"]
    assert filtered and all(d["var"] == "txt" for d in filtered)
    assert any(d["handler_states"] == {"hdlClose": "X", "hdlOpen": "E"}
               for d in filtered)
    assert not [d for d in report.diagnostics if d["status"] == "reported"]


def test_ifds_door_reports():
    status, report = run(RunConfig([corpus_path("door.evl")], mode="ifds"))
    assert status == EXIT_DIAGNOSTICS
    assert all(d["status"] == "reported" for d in report.diagnostics)
    assert {d["var"] for d in report.diagnostics} == {"txt"}


def test_ide_door_clean():
    status, report = run(RunConfig([corpus_path("door.evl")], mode="ide"))
    assert status == EXIT_CLEAN
    assert report.diagnostics == []


def test_trivially_clean_program(tmp_path):
    f = tmp_path / "clean.evl"
    f.write_text('print("nothing to see");\n')
    status, report = run(RunConfig([str(f)], mode="diff"))
    assert status == EXIT_CLEAN
    assert report.diagnostics == []


def test_timer_and_server_with_models():
    for name in ("timer", "server"):
        cfg = RunConfig([corpus_path(f"{name}.evl")], mode="diff",
                        event_model=corpus_path(f"{name}.model.json"))
        status, report = run(cfg)
        assert status == EXIT_CLEAN, report
        assert any(d["status"] == "filtered" for d in report.diagnostics)


def test_unhandled_event_warning_in_report(tmp_path):
    f = tmp_path / "ghost.evl"
    f.write_text('emit("ghost");\n')
    status, report = run(RunConfig([str(f)], mode="diff"))
    assert status == EXIT_CLEAN
    assert any("ghost" in w for w in report.warnings)


def test_text_report_renders_the_unhandled_event_warning(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EVFLOW_NO_COLOR", "1")
    f = tmp_path / "ghost.evl"
    f.write_text('print(1);\nemit("ghost");\n')
    assert main(["diff", str(f)]) == EXIT_CLEAN
    assert capsys.readouterr().out.splitlines()[0] == (
        f"warning: {f}:2: event 'ghost' is emitted but has no registered "
        f"handler anywhere")


def test_parse_error_exit_2(tmp_path):
    f = tmp_path / "broken.evl"
    f.write_text("var ;")
    status, report = run(RunConfig([str(f)], mode="diff"))
    assert status == EXIT_ERROR
    assert report.warnings


def test_missing_file_exit_2():
    status, _ = run(RunConfig(["/nonexistent/x.evl"], mode="diff"))
    assert status == EXIT_ERROR


def test_bad_model_exit_2(tmp_path):
    f = tmp_path / "p.evl"
    f.write_text("print(1);")
    m = tmp_path / "m.json"
    m.write_text("{not json")
    status, _ = run(RunConfig([str(f)], mode="diff", event_model=str(m)))
    assert status == EXIT_ERROR


def test_json_report_roundtrips():
    _, report = run(RunConfig([corpus_path("door.evl")], mode="diff"))
    text = report.to_json()
    doc = json.loads(text)
    assert doc["version"] == 1
    assert doc["mode"] == "diff"
    reparsed = Report(files=doc["files"], mode=doc["mode"],
                      diagnostics=doc["diagnostics"],
                      warnings=doc["warnings"], stats=doc["stats"])
    assert reparsed.to_json() == text
    # stable modulo the timing field
    doc2 = json.loads(text)
    doc2["stats"].pop("wall_ms")
    d1 = json.loads(report.to_json())
    d1["stats"].pop("wall_ms")
    assert d1 == doc2


def test_fact_accounting_in_diff_mode():
    from evflow.event_lattice import HState
    from evflow.transform import analyze_event_aware
    from conftest import load_corpus_entry
    for name in ("door", "dirstat", "timer", "server"):
        program, _ = load_corpus_entry(name)
        analysis = analyze_event_aware(program)
        for node in analysis.ifds.reachable:
            excluded = [d for d, hsm in analysis.ide.envs[node].items()
                        if d and HState.X in hsm.values()]
            assert len(analysis.ifds.facts_at(node)) == \
                len(analysis.filtered.facts_at(node)) + len(excluded)


def test_dumps_written(tmp_path):
    cfg = RunConfig([corpus_path("door.evl")], mode="diff",
                    dump_supergraph=str(tmp_path / "sg.dot"),
                    dump_exploded=str(tmp_path / "x.dot"))
    run(cfg)
    assert (tmp_path / "sg.dot").read_text().startswith("digraph supergraph")
    assert (tmp_path / "x.dot").read_text().startswith("digraph exploded")


def test_main_default_mode_is_diff(capsys, monkeypatch):
    monkeypatch.setenv("EVFLOW_NO_COLOR", "1")
    status = main([corpus_path("door.evl")])
    out = capsys.readouterr().out
    assert status == EXIT_CLEAN
    assert "filtered as infeasible-path artifacts" in out
    assert "\x1b[" not in out


def test_main_default_mode_takes_an_option_first(capsys):
    status = main(["--format", "json", corpus_path("door.evl")])
    doc = json.loads(capsys.readouterr().out)
    assert status == EXIT_CLEAN
    assert doc["mode"] == "diff"
    assert main(["--help"]) == 0
    assert "{ifds,ide,diff,oracle}" in capsys.readouterr().out


def test_main_text_mentions_blocking_handler(capsys, monkeypatch):
    monkeypatch.setenv("EVFLOW_NO_COLOR", "1")
    main(["diff", corpus_path("door.evl")])
    out = capsys.readouterr().out
    assert "may be uninitialized" in out
    assert "handler 'hdlClose' invoked before its event is emitted" in out


def test_main_json_format(capsys):
    status = main(["ifds", corpus_path("door.evl"), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert status == EXIT_DIAGNOSTICS
    assert doc["stats"]["handlers"] == 2


def test_multi_file_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EVFLOW_NO_COLOR", "1")
    (tmp_path / "a.evl").write_text("fn h() { print(g); }\nvar g;\n")
    (tmp_path / "b.evl").write_text('register("e", h);\nemit("e");\ng = 1;\n')
    status = main(["diff", str(tmp_path / "a.evl"), str(tmp_path / "b.evl")])
    assert status == EXIT_DIAGNOSTICS  # g genuinely read uninitialized


def test_oracle_suite_small(capsys):
    status = run_oracle_suite(None, seed=1, schedules=4, count=6)
    out = capsys.readouterr().out
    assert status == EXIT_CLEAN, out
    assert "corpus door.evl: ok" in out
    assert "oracle suite: 10/10 passed" in out


def test_usage_error_exit_code():
    assert main(["diff"]) == EXIT_ERROR


def _assert_internal_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    from evflow import cli

    def crash(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "analyze_event_aware", crash)
    assert main(["diff", corpus_path("door.evl")]) == EXIT_ERROR
    _assert_internal_error(capsys)


def _nested_ifs(n: int) -> str:
    return "if (true) { " * n + "print(1);" + " }" * n + "\n"


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    for name, source in (
            ("parens", "var x = " + "(" * 3000 + "1" + ")" * 3000 + ";\n"),
            ("ifs", _nested_ifs(1200)),
            ("sum", "var x = 1;\nvar y = " + " + ".join(["x"] * 5000) + ";\n")):
        f = tmp_path / f"{name}.evl"
        f.write_text(source)
        assert main(["diff", str(f)]) == EXIT_ERROR, name
        captured = capsys.readouterr()
        assert "nesting deeper than" in captured.out, name
        assert "internal error" not in captured.err, name


def test_nesting_at_the_limit_runs_through_diff_and_oracle(tmp_path, capsys):
    from evflow.lang.parser import MAX_NESTING
    (tmp_path / "ifs.evl").write_text(
        "var x;\nfn f() { " + _nested_ifs(MAX_NESTING - 1) + "}\n"
        "if (true) { f(); }\nx = 1;\n")
    (tmp_path / "parens.evl").write_text(
        "var x;\nvar y = " + "(" * (MAX_NESTING - 1) + "x + 1" +
        ")" * (MAX_NESTING - 1) + ";\n")
    assert main(["diff", str(tmp_path / "ifs.evl")]) == EXIT_CLEAN
    assert main(["diff", str(tmp_path / "parens.evl")]) == EXIT_DIAGNOSTICS
    assert main(["oracle", str(tmp_path), "--count", "0"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "corpus ifs.evl: ok" in out and "corpus parens.evl: ok" in out


def test_oracle_self_recursion_prints_its_result(tmp_path, capsys):
    (tmp_path / "rec.evl").write_text("fn f() { f(); }\nf();\n")
    assert main(["oracle", str(tmp_path), "--count", "0"]) == EXIT_CLEAN
    captured = capsys.readouterr()
    assert "corpus rec.evl: ok" in captured.out
    assert captured.err == ""


def test_oracle_goes_on_past_a_corpus_file_that_does_not_parse(
        tmp_path, capsys):
    deep = "var x = " + "(" * 100 + "1" + ")" * 100 + ";\n"
    (tmp_path / "deep.evl").write_text(deep)
    (tmp_path / "door.evl").write_text(
        (packaged_corpus_dir() / "door.evl").read_text(encoding="utf-8"))
    status = main(["oracle", str(tmp_path), "--count", "2"])
    captured = capsys.readouterr()
    assert status == EXIT_DIAGNOSTICS
    assert captured.err == ""
    out = captured.out
    assert "corpus deep.evl: FAIL" in out
    assert "nesting deeper than" in out
    assert "    " + deep.strip() in out  # the counterexample source
    assert "corpus door.evl: ok" in out
    assert "random programs: 2 checked" in out
    assert "oracle suite: 3/4 passed" in out


def test_oracle_goes_on_past_numbers_python_cannot_convert(tmp_path, capsys):
    """Python converts no decimal string of more than 4,300 digits to or
    from an integer: a literal or an event-model number that long fails
    its file with an input error, a run that prints an integer that long
    ends as truncation, and the suite goes on to the next file."""
    (tmp_path / "a_literal.evl").write_text(f"var x = {'9' * 5000};\n")
    (tmp_path / "b_model.evl").write_text("var y = 1;\nprint(y);\n")
    (tmp_path / "b_model.model.json").write_text(
        f'{{"event_arg": {"9" * 5000}}}')
    (tmp_path / "c_squaring.evl").write_text(
        "var x = 10; var i = 0;\n"
        "while (i < 20) { x = x * x; i = i + 1; }\nprint(x);\n")
    (tmp_path / "d_uninit.evl").write_text("var y;\nprint(y);\n")
    assert run_oracle_suite(str(tmp_path), 0, 6, 0) == EXIT_DIAGNOSTICS
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("corpus ")] == [
        "corpus a_literal.evl: FAIL", "corpus b_model.evl: FAIL",
        "corpus c_squaring.evl: ok", "corpus d_uninit.evl: ok"]
    literal_error = "a_literal.evl:1:9: integer literal too long"
    model_error = (f"{tmp_path / 'b_model.model.json'}: invalid JSON: "
                   f"a number has too many digits")
    assert f"  error: {literal_error}" in lines
    assert f"  error: {model_error}" in lines
    assert lines[-1] == "oracle suite: 2/4 passed"
    for args, message in (
            ([str(tmp_path / "a_literal.evl")], literal_error),
            ([str(tmp_path / "b_model.evl"), "--event-model",
              str(tmp_path / "b_model.model.json")], model_error)):
        assert main(["diff", *args]) == EXIT_ERROR
        _assert_text_input_error(capsys.readouterr(), message)


def _assert_text_input_error(captured, message: str):
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.out
    assert message in lines[0]
    assert "reported" not in captured.out and "nodes=" not in captured.out
    assert captured.err == ""


def test_text_report_on_a_parse_error(tmp_path, capsys):
    f = tmp_path / "broken.evl"
    f.write_text("var ;")
    assert main(["diff", str(f)]) == EXIT_ERROR
    _assert_text_input_error(capsys.readouterr(), "broken.evl")


def test_text_report_on_a_missing_file(capsys):
    assert main(["diff", "/nonexistent/x.evl"]) == EXIT_ERROR
    _assert_text_input_error(capsys.readouterr(), "no such file")


def test_text_report_on_a_missing_second_file(capsys):
    assert main(["diff", corpus_path("door.evl"),
                 "/nonexistent/x.evl"]) == EXIT_ERROR
    _assert_text_input_error(capsys.readouterr(),
                             "no such file: /nonexistent/x.evl")


def test_text_report_on_a_directory(tmp_path, capsys):
    assert main(["diff", str(tmp_path)]) == EXIT_ERROR
    _assert_text_input_error(capsys.readouterr(),
                             f"{tmp_path}: cannot read (Is a directory)")


def test_oracle_on_a_missing_corpus_directory(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["oracle", str(missing), "--count", "0"]) == EXIT_ERROR
    assert capsys.readouterr().out == \
        f"error: corpus directory {missing} not found\n"


def test_json_report_on_an_input_error_lists_it_as_a_warning(capsys):
    assert main(["diff", "--format", "json",
                 "/nonexistent/x.evl"]) == EXIT_ERROR
    doc = json.loads(capsys.readouterr().out)
    assert doc["warnings"] == ["no such file: /nonexistent/x.evl"]
    assert doc["diagnostics"] == [] and doc["stats"] == {}


# a string literal holding two bytes that do not decode as UTF-8
NOT_UTF8 = b'var x = "\xff\xfe";\n'


def test_diff_on_a_file_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "bad.evl"
    f.write_bytes(NOT_UTF8)
    assert main(["diff", str(f)]) == EXIT_ERROR
    _assert_text_input_error(capsys.readouterr(),
                             f"{f}: not valid UTF-8")


def test_event_model_that_is_not_utf8(tmp_path, capsys):
    m = tmp_path / "bad.model.json"
    m.write_bytes(b'{"registrations": ["\xff"]}')
    assert main(["diff", corpus_path("door.evl"),
                 "--event-model", str(m)]) == EXIT_ERROR
    _assert_text_input_error(capsys.readouterr(),
                             f"{m}: not valid UTF-8")


def test_oracle_goes_on_past_a_corpus_file_that_is_not_utf8(
        tmp_path, capsys):
    (tmp_path / "bad.evl").write_bytes(NOT_UTF8)
    (tmp_path / "door.evl").write_text(
        (packaged_corpus_dir() / "door.evl").read_text(encoding="utf-8"))
    status = main(["oracle", str(tmp_path), "--count", "2"])
    captured = capsys.readouterr()
    assert status == EXIT_DIAGNOSTICS
    assert captured.err == ""
    out = captured.out
    assert "corpus bad.evl: FAIL" in out
    assert "bad.evl: not valid UTF-8" in out
    assert "corpus door.evl: ok" in out
    assert "random programs: 2 checked" in out
    assert "oracle suite: 3/4 passed" in out


def test_oracle_goes_on_past_unreadable_files(tmp_path, capsys):
    (tmp_path / "gone.evl").symlink_to(tmp_path / "nowhere.evl")
    (tmp_path / "door.evl").write_text(
        (packaged_corpus_dir() / "door.evl").read_text(encoding="utf-8"))
    (tmp_path / "door.model.json").mkdir()
    (tmp_path / "ok.evl").write_text("var x = 1;\nprint(x);\n")
    (tmp_path / "timer.evl").write_text("print(1);\n")
    (tmp_path / "timer.model.json").symlink_to(tmp_path / "nowhere.json")
    (tmp_path / "deep.evl").write_text("print(1);\n")
    (tmp_path / "deep.model.json").write_text("[" * 100_000)
    status = main(["oracle", str(tmp_path), "--count", "0"])
    captured = capsys.readouterr()
    assert status == EXIT_DIAGNOSTICS
    assert captured.err == ""
    out = captured.out
    assert "corpus gone.evl: FAIL" in out
    assert f"error: no such file: {tmp_path / 'gone.evl'}" in out
    assert "corpus door.evl: FAIL" in out
    assert "door.model.json: cannot read (Is a directory)" in out
    assert "corpus timer.evl: FAIL" in out
    assert "timer.model.json: cannot read (No such file or directory)" in out
    assert "corpus deep.evl: FAIL" in out
    assert "deep.model.json: invalid JSON: nested too deeply" in out
    assert "corpus ok.evl: ok" in out
    assert "oracle suite: 1/5 passed" in out


def test_oracle_rejects_negative_counts(capsys):
    for option in ("--count", "--schedules"):
        assert main(["oracle", option, "-3"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: expected a count, got '-3'" in captured.err


def test_oracle_takes_one_corpus_directory(tmp_path, capsys):
    # a second directory is a usage error, not a directory left unchecked
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    (second / "bad.evl").write_text("var x = ;\n")
    assert main(["oracle", str(second), "--count", "0"]) == EXIT_DIAGNOSTICS
    capsys.readouterr()
    status = main(["oracle", str(first), str(second), "--count", "0"])
    captured = capsys.readouterr()
    assert status == EXIT_ERROR
    assert captured.out == ""
    assert f"unrecognized arguments: {second}" in captured.err


def test_unwritable_dump_path_is_an_input_error(tmp_path, capsys):
    for option in ("--dump-supergraph", "--dump-exploded"):
        path = tmp_path / "missing" / "x.dot"
        assert main(["diff", corpus_path("door.evl"),
                     option, str(path)]) == EXIT_ERROR
        _assert_text_input_error(capsys.readouterr(),
                                 f"{path}: cannot write")


def test_malformed_event_models_are_input_errors(tmp_path):
    f = tmp_path / "p.evl"
    f.write_text("print(1);")
    m = tmp_path / "m.json"
    cases = [
        ({"event_arg": 0, "handler_arg": 1},
         "an entry of 'registrations' has no callee name"),
        ({"callee": "on", "event_arg": "0", "handler_arg": 1},
         "'on': event_arg must be a non-negative integer (got \"0\")"),
        ({"callee": "on", "event_arg": 0, "handler_arg": 1.5},
         "'on': handler_arg must be a non-negative integer (got 1.5)"),
        ({"callee": "on", "event_arg": 0},
         "'on': handler_arg must be a non-negative integer (missing)"),
    ]
    texts = [(json.dumps({"registrations": [entry]}), message)
             for entry, message in cases]
    # deeper than the JSON decoder recurses
    texts.append(("[" * 100_000, f"{m}: invalid JSON: nested too deeply"))
    for text, message in texts:
        m.write_text(text)
        status, report = run(RunConfig([str(f)], mode="diff",
                                       event_model=str(m)))
        assert status == EXIT_ERROR and report.input_error, text[:80]
        assert report.warnings == [message]


def _comparable(report) -> tuple:
    """A report without its timing and its file names."""
    stats = {k: v for k, v in report.stats.items() if k != "wall_ms"}
    diagnostics = [{k: v for k, v in d.items() if k != "file"}
                   for d in report.diagnostics]
    return diagnostics, report.warnings, stats


def test_reports_ask_at_read_sites_only(monkeypatch):
    """The `diff`, `ide` and `ifds` reports never build the environments
    or a fact set: they ask the solve at read sites only."""
    from evflow.ide import IdeResult

    golden = Path(__file__).parent / "golden"
    # half the read nodes of wide_3x100 are interior nodes of blocks
    inputs = [corpus_path("door.evl"), str(golden / "chain_6x12.evl"),
              str(golden / "wide_3x100.evl")]
    configs = [RunConfig(inputs=[path], mode=mode)
               for path in inputs for mode in ("diff", "ide", "ifds")]
    expected = [run(cfg) for cfg in configs]

    def materialized(*_):
        raise AssertionError("the report materialized the solution")

    for name in ("envs", "reachable", "fact_sets"):
        monkeypatch.setattr(IdeResult, name, property(materialized))
    for cfg, (status, report) in zip(configs, expected):
        got_status, got = run(cfg)
        assert (got_status, _comparable(got)) == (status, _comparable(report))
    assert any(r.diagnostics for _, r in expected)


def test_a_handler_with_a_parameter_is_an_input_error(tmp_path, capsys):
    (tmp_path / "h.evl").write_text(
        'fn h(a) { print(a); } register("e", h); emit("e");\n')
    assert main(["diff", str(tmp_path / "h.evl")]) == EXIT_ERROR
    _assert_text_input_error(capsys.readouterr(), "handler 'h' takes")
    assert main(["oracle", str(tmp_path), "--count", "0"]) == EXIT_DIAGNOSTICS
    captured = capsys.readouterr()
    assert "corpus h.evl: FAIL" in captured.out
    assert "handler 'h' takes parameters" in captured.out
    assert captured.err == ""


def test_parse_visits_each_statement_once(monkeypatch):
    """One parse walks each body once: every statement of each corpus
    program is read out of its enclosing body exactly once."""
    from collections import Counter
    from conftest import CORPUS_NAMES, load_corpus_entry
    from evflow.lang import ast, parser
    visits = Counter()

    class Body(tuple):
        def __iter__(self):
            for s in tuple.__iter__(self):
                visits[s.sid] += 1
                yield s

    def counting(cls, *bodies):
        class Counted(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                for name in bodies:
                    object.__setattr__(self, name, Body(getattr(self, name)))
        return Counted

    monkeypatch.setattr(parser, "FunctionDecl",
                        counting(ast.FunctionDecl, "body"))
    monkeypatch.setattr(parser, "If",
                        counting(ast.If, "then_body", "else_body"))
    monkeypatch.setattr(parser, "While", counting(ast.While, "body"))
    for name in CORPUS_NAMES:
        visits.clear()
        program, _ = load_corpus_entry(name)
        assert visits and set(visits.values()) == {1}, name
        assert sorted(visits) == list(range(len(visits))), name
        assert all(program.stmt(sid).sid == sid for sid in visits)


def test_a_label_of_the_wrong_length_is_reported(monkeypatch):
    """A labelling that numbers one handler too many gives labels one
    byte longer than the handler count; the solve runs, and the oracle's
    representation check names it."""
    from evflow import cli, transform
    from evflow.eventmodel import EventModel
    label = transform.transform
    monkeypatch.setattr(
        transform, "transform",
        lambda xsg, ops, handlers: label(xsg, ops, (*handlers, "extra")))
    source = (packaged_corpus_dir() / "door.evl").read_text()
    violations = cli.check_program(source, EventModel.default(), 2)
    assert "representation: a label's length is not the handler count" \
        in violations


class _View:
    """A stand-in for a result view: the given fact sets."""

    def __init__(self, facts: dict):
        self.facts = facts

    def holds(self, node: str, fact: int) -> bool:
        return fact in self.facts.get(node, frozenset())


def test_a_read_the_filter_drops_is_reported(monkeypatch):
    """A filter that drops every fact loses the interpreter's
    uninitialized read, and the oracle's soundness check names it."""
    from evflow import cli, transform
    from evflow.eventmodel import EventModel
    monkeypatch.setattr(transform, "untransform", lambda result: _View({}))
    violations = cli.check_program("var x;\nprint(x);", EventModel.default(), 2)
    assert violations == [
        "soundness: run-time uninitialized read of 'x' at stmt:top-level:1 "
        "missing from the filtered result"]


def test_a_fact_the_filter_adds_is_reported(monkeypatch):
    """A filter that keeps, at an observed read, a fact the plain result
    lacks breaks filtered within plain, and the oracle's subset check
    names it."""
    from evflow import cli, transform
    from evflow.eventmodel import EventModel
    monkeypatch.setattr(transform, "solve_ifds", lambda result: _View({}))
    monkeypatch.setattr(transform, "untransform", lambda result: _View(
        {"stmt:top-level:1": frozenset({1})}))
    violations = cli.check_program("var x;\nprint(x);", EventModel.default(), 2)
    assert violations == [
        "subset: 'x' at stmt:top-level:1 survives filtering but is not in "
        "the plain result"]


def test_a_map_that_disagrees_with_the_filter_is_reported(monkeypatch):
    """A handler-state map that puts a handler in X, for a fact the
    filter keeps at an observed read, is a solver fault the oracle's
    agreement check names: the filter and the map are computed apart."""
    from evflow import cli, ide
    from evflow.event_lattice import HState
    from evflow.eventmodel import EventModel
    monkeypatch.setattr(ide, "map_at_s",
                        lambda f, handlers: dict.fromkeys(handlers, HState.X))
    source = 'var x;\nfn h() { print(x); }\nregister("e", h);\nemit("e");\n'
    violations = cli.check_program(source, EventModel.default(), 2)
    assert violations == [
        "agreement: 'x' at stmt:h:1 survives filtering but its "
        "handler-state map puts ['h'] in X"]


def test_a_trace_out_of_order_is_reported(monkeypatch):
    """A trace the ordering check rejects is reported; this program runs
    one trace."""
    from evflow import cli
    from evflow.eventmodel import EventModel
    from evflow.lang import interp
    monkeypatch.setattr(interp, "check_trace_ordering",
                        lambda program, trace: ["planted"])
    violations = cli.check_program("var x;\nprint(x);", EventModel.default(), 2)
    assert violations == ["interpreter: trace breaks the "
                          "registration/emission ordering invariant"]


def test_a_failing_random_program_is_printed(tmp_path, capsys, monkeypatch):
    """The suite prints a failing random program's violations and source
    and exits 1."""
    from evflow import cli
    from evflow.randgen import GenParams, gen_source
    monkeypatch.setattr(cli, "check_program",
                        lambda source, model, schedules: ["planted"])
    status = run_oracle_suite(str(tmp_path), seed=7, schedules=2, count=1)
    source = gen_source("7:0", GenParams(allow_while=True))
    assert status == EXIT_DIAGNOSTICS
    assert capsys.readouterr().out == (
        "random 7:0: FAIL\n  planted\n  counterexample:\n"
        + "".join(f"    {line}\n" for line in source.splitlines())
        + "random programs: 1 checked (seed 7, schedule bound 2)\n"
        "oracle suite: 0/1 passed\n")


def test_check_program_runs_the_interpreter_through_its_cli_name(
        monkeypatch):
    """`check_program` reaches the interpreter through
    `cli.explore_schedules`, the name a tracer wraps to time it."""
    from evflow import cli
    from evflow.eventmodel import EventModel
    source = (packaged_corpus_dir() / "door.evl").read_text()
    before = cli.check_program(source, EventModel.default(), 2)
    explore = cli.explore_schedules
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return explore(*args, **kwargs)

    monkeypatch.setattr(cli, "explore_schedules", counting)
    assert cli.check_program(source, EventModel.default(), 2) == before
    assert len(calls) == 1


def test_analysis_reads_the_event_model_off_the_program(monkeypatch):
    from evflow import cli
    from evflow.eventmodel import EventModel
    from evflow.lang.parser import parse_files
    from evflow.transform import analyze_event_aware
    seen = []

    def spy(*args, **kwargs):
        seen.append(analyze_event_aware(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "analyze_event_aware", spy)
    for name in ("timer", "server"):
        evl, model = corpus_path(f"{name}.evl"), corpus_path(
            f"{name}.model.json")
        run(RunConfig([evl], mode="diff", event_model=model))
        direct = analyze_event_aware(parse_files(
            [evl], model=EventModel.from_json_file(model)))
        assert direct.ifds.facts == seen[-1].ifds.facts
        assert direct.filtered.facts == seen[-1].filtered.facts
        assert direct.filtered.facts != direct.ifds.facts


def test_a_report_does_not_build_the_relations(monkeypatch):
    """Without `--dump-exploded` no client reads the exploded
    supergraph's whole relations, so the view is never built."""
    from evflow import cli
    from evflow.transform import analyze_event_aware
    seen = []

    def spy(*args, **kwargs):
        seen.append(analyze_event_aware(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "analyze_event_aware", spy)
    assert run(RunConfig([corpus_path("door.evl")], mode="diff"))[1].diagnostics
    assert "rel_of" not in seen[-1].xsg.__dict__
    seen[-1].xsg.rel_of
    assert "rel_of" in seen[-1].xsg.__dict__


def test_model_callees_behave_like_the_primitives(tmp_path):
    source = (packaged_corpus_dir() / "door.evl").read_text(encoding="utf-8")
    f = tmp_path / "door.evl"
    f.write_text(source.replace("register(", "on(").replace("emit(", "fire("))
    m = tmp_path / "door.model.json"
    m.write_text(json.dumps({
        "registrations": [{"callee": "on", "event_arg": 0, "handler_arg": 1,
                           "implicit_emit": False}],
        "emissions": [{"callee": "fire", "event_arg": 0}]}))
    for mode in ("ifds", "ide", "diff"):
        primitives = run(RunConfig([corpus_path("door.evl")], mode=mode))
        callees = run(RunConfig([str(f)], mode=mode, event_model=str(m)))
        assert primitives[0] == callees[0]
        assert _comparable(primitives[1]) == _comparable(callees[1])
    assert primitives[1].diagnostics  # the diff mode run compared some


def test_diff_builds_maps_only_for_filtered_diagnostics(monkeypatch):
    calls = []
    map_at_s = ide.map_at_s
    monkeypatch.setattr(ide, "map_at_s",
                        lambda *a: calls.append(a) or map_at_s(*a))
    golden = Path(__file__).parent / "golden" / "chain_6x12.evl"
    _, report = run(RunConfig([str(golden)], mode="diff"))
    assert len(report.diagnostics) == 40
    assert all(d["status"] == "reported" for d in report.diagnostics)
    assert calls == []

    _, report = run(RunConfig([corpus_path("dirstat.evl")], mode="diff"))
    maps = [d["handler_states"] for d in report.diagnostics]
    assert len(maps) == 2
    assert all(d["status"] == "filtered" for d in report.diagnostics)
    # one map per distinct normal form, so one call per distinct map
    assert len(calls) == len({json.dumps(m, sort_keys=True) for m in maps})
