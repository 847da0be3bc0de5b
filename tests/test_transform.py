from collections import Counter
from pathlib import Path

import pytest

from evflow import ide
from evflow.cli import RunConfig, check_program, run
from evflow.event_lattice import (
    HState,
    MF_EMIT,
    MF_EMIT_REGISTER,
    MF_INVOKE,
    MF_REGISTER,
)
from evflow.eventmodel import EventModel
from evflow.ifds import ZERO
from evflow.lang.parser import parse
from evflow.lang.ast import Assign, StrLit, Var
from evflow.lang.interp import interpret
from evflow.supergraph import EVENT_LOOP, EdgeKind, node_for_sid
from evflow.transform import analyze_event_aware, transform

from conftest import CORPUS_NAMES, corpus_dir, load_corpus_entry
from helpers import iter_stmts, pipeline, touched

S, R, E, X = HState.S, HState.R, HState.E, HState.X


def analysis_node(analysis, pred):
    for f in analysis.program.functions:
        for s in iter_stmts(f.body):
            if pred(s):
                return node_for_sid(analysis.build.graph, analysis.program,
                                    s.sid)
    raise AssertionError("statement not found")


def labeled_for(fixture):
    program, _ = fixture
    build, problem, xsg = pipeline(program)
    return program, build, xsg, transform(xsg, build.ops, build.handlers)


def find_edge(build, program, pred):
    g = build.graph
    for f in program.functions:
        for s in iter_stmts(f.body):
            if pred(s):
                node = node_for_sid(g, program, s.sid)
                out = [e for e in g.out_edges(node)
                       if e.kind is EdgeKind.INTRA]
                return out[0]
    raise AssertionError("no edge matched")


def test_register_edge_label(door):
    program, build, xsg, labeled = labeled_for(door)
    edge = find_edge(build, program,
                     lambda s: getattr(s, "callee", None) == "register"
                     and s.args[0] == StrLit("open"))
    hmf = labeled.labels[edge.eid]
    assert len(hmf) == len(build.handlers)
    assert touched(hmf, build.handlers) == {"hdlOpen": MF_REGISTER}


def test_emit_register_label(dirstat):
    program, build, xsg, labeled = labeled_for(dirstat)
    edge = find_edge(build, program,
                     lambda s: getattr(s, "callee", None) == "register_async"
                     and s.args[0] == Var("f"))
    assert touched(labeled.labels[edge.eid], build.handlers) == \
        {"f": MF_EMIT_REGISTER}


def test_plain_edges_identity(door):
    program, build, xsg, labeled = labeled_for(door)
    edge = find_edge(build, program,
                     lambda s: isinstance(s, Assign) and s.name == "txt"
                     and "Hello" in str(s.value))
    # an edge without an event operation carries no label: the identity
    assert edge.eid not in build.ops
    assert edge.eid not in labeled.labels
    assert set(labeled.labels) == set(build.ops)
    assert not any(t.is_identity() for t in labeled.labels.values())


def test_dispatch_edges_invoke(door):
    program, build, xsg, labeled = labeled_for(door)
    for edge in build.graph.edges:
        if edge.kind is EdgeKind.CALL and edge.src == EVENT_LOOP:
            assert touched(labeled.labels[edge.eid], build.handlers) == \
                {build.graph.proc_of(edge.dst): MF_INVOKE}


def test_emit_call_and_c2r_labels(door):
    program, build, xsg, labeled = labeled_for(door)
    emit_calls = [e for e in build.graph.edges if e.kind is EdgeKind.CALL
                  and e.dst == EVENT_LOOP
                  and build.graph.nodes[e.src].sid is not None]
    assert emit_calls
    for e in emit_calls:
        hmf = labeled.labels[e.eid]
        assert set(touched(hmf, build.handlers).values()) == {MF_EMIT}
        (c2r,) = (o for o in build.graph.out_edges(e.src)
                  if o.dst == e.ret_site)
        assert labeled.labels[c2r.eid] == hmf


def test_transform_preserves_structure(door):
    program, build, xsg, labeled = labeled_for(door)
    assert labeled.xsg is xsg
    assert labeled.xsg.rel_of == xsg.rel_of
    # exactly the event edges are labelled, in edge order, none by the
    # identity
    assert list(labeled.labels) == [e.eid for e in build.graph.edges
                                    if e.eid in build.ops]
    assert set(labeled.labels) == set(build.ops)
    assert not any(t.is_identity() for t in labeled.labels.values())


def test_untransform_door(door):
    program, _ = door
    analysis = analyze_event_aware(program)
    concat = analysis_node(
        analysis, lambda s: isinstance(s, Assign) and s.name == "txt"
        and "world" in str(s.value))
    txt = analysis.domain.index_of("txt")
    assert txt in analysis.ifds.facts_at(concat)
    assert txt not in analysis.filtered.facts_at(concat)
    assert analysis.ide.envs[concat][txt] == \
        {"hdlOpen": E, "hdlClose": X}


def test_untransform_dirstat(dirstat):
    program, _ = dirstat
    analysis = analyze_event_aware(program)
    add = analysis_node(
        analysis, lambda s: isinstance(s, Assign) and s.name == "sum"
        and "sum" in str(s.value))
    sum_i = analysis.domain.index_of("sum")
    assert sum_i in analysis.ifds.facts_at(add)
    assert sum_i not in analysis.filtered.facts_at(add)
    assert analysis.ide.envs[add][sum_i] == {"f": E, "h": X}


def test_untransform_vacuous_without_handlers():
    program = parse("var x; print(x); x = 1; print(x);")
    analysis = analyze_event_aware(program)
    assert analysis.handlers == ()
    for node in analysis.ifds.reachable:
        assert analysis.filtered.facts_at(node) == \
            analysis.ifds.facts_at(node)
    assert not any(X in hsm.values() for env in analysis.ide.envs.values()
                   for hsm in env.values())


def test_timer_and_server_filtering(timer, server):
    cases = [
        (timer, "rem", "tick", {"start": E, "tick": X}),
        (server, "nConn", "conn", {"lstn": E, "conn": X}),
    ]
    for (program, _), var, reader, expected_map in cases:
        analysis = analyze_event_aware(program)
        read = analysis_node(
            analysis, lambda s: isinstance(s, Assign) and s.name == var
            and var in str(s.value))
        fact = analysis.domain.index_of(var)
        assert fact in analysis.ifds.facts_at(read)
        assert fact not in analysis.filtered.facts_at(read)
        assert analysis.ide.envs[read][fact] == expected_map


def test_genuine_bug_survives_filtering(door):
    # mutated door: the close event fires before txt is initialized, so
    # the defect is real and must not be filtered away
    src = ('var txt;\n'
           'fn hdlOpen() {\n'
           '  register("close", hdlClose);\n'
           '  emit("close");\n'
           '  txt = "Hello";\n'
           '}\n'
           'fn hdlClose() {\n'
           '  txt = txt + ", world!";\n'
           '  print(txt);\n'
           '}\n'
           'register("open", hdlOpen);\n'
           'emit("open");\n')
    program = parse(src)
    analysis = analyze_event_aware(program)
    concat = analysis_node(
        analysis, lambda s: isinstance(s, Assign) and s.name == "txt"
        and "world" in str(s.value))
    txt = analysis.domain.index_of("txt")
    assert txt in analysis.ifds.facts_at(concat)
    assert txt in analysis.filtered.facts_at(concat)
    # the interpreter confirms the defect on the FIFO schedule
    trace = interpret(program)
    assert any(r.var == "txt" for r in trace.uninit_reads())


def test_never_runnable_handler_is_filtered():
    # emission precedes registration and nothing re-emits: the handler can
    # never run, so its uninitialized read is an infeasible-path artifact
    src = ('fn h() { print(g); }\n'
           "var g;\n"
           'emit("e");\n'
           'register("e", h);\n')
    program = parse(src)
    analysis = analyze_event_aware(program)
    read = analysis_node(analysis, lambda s: type(s).__name__ == "Print"
                         and "g" in str(s.value))
    g_i = analysis.domain.index_of("g")
    assert g_i in analysis.ifds.facts_at(read)
    assert g_i not in analysis.filtered.facts_at(read)
    # and indeed no schedule ever invokes h
    from evflow.lang.interp import explore_schedules
    for trace in explore_schedules(program):
        assert trace.uninit_reads() == []


def test_filter_subset_of_ifds_everywhere(door, dirstat, timer, server):
    for program, _ in (door, dirstat, timer, server):
        analysis = analyze_event_aware(program)
        for node in analysis.ifds.reachable:
            assert analysis.filtered.facts_at(node) <= \
                analysis.ifds.facts_at(node)


def test_fact_accounting(door, dirstat, timer, server):
    for program, _ in (door, dirstat, timer, server):
        analysis = analyze_event_aware(program)
        for node in analysis.ifds.reachable:
            ifds_n = len(analysis.ifds.facts_at(node))
            kept = len(analysis.filtered.facts_at(node))
            dropped = sum(1 for d, hsm in analysis.ide.envs[node].items()
                          if d != ZERO and X in hsm.values())
            assert ifds_n == kept + dropped, node


def test_filter_builds_no_map(monkeypatch):
    """The filter decides from transformers alone: the filtered fact sets
    and the filtered query at every read site build no handler-state
    map."""
    calls = []
    map_at_s = ide.map_at_s
    monkeypatch.setattr(ide, "map_at_s",
                        lambda *a: calls.append(a) or map_at_s(*a))
    for name in CORPUS_NAMES:
        analysis = analyze_event_aware(load_corpus_entry(name)[0])
        assert analysis.filtered.facts
        for node in analysis.build.graph.nodes:
            for fact in analysis.problem.reads_at(node):
                assert analysis.filtered.holds(node, fact) == \
                    (fact in analysis.filtered.facts_at(node))
        assert calls == [], name


def test_check_program_walks_the_rows_once(monkeypatch):
    """`check_program` gets the plain and the filtered fact sets from one
    walk: it reads each node's row once and tests each distinct
    transformer for feasibility at most once.  A `diff` run, which asks
    `holds` once per read site, also tests each transformer at most
    once."""
    reads, tested = Counter(), Counter()

    class CountedRow(dict):
        def items(self):
            reads[self.node] += 1
            return super().items()

    def counted(row_of):
        def row_at(node):
            row = CountedRow(row_of(node))
            row.node = node
            return row
        return row_at

    init, feasible = ide.IdeResult.__init__, ide.feasible
    monkeypatch.setattr(ide.IdeResult, "__init__",
                        lambda self, row_of, *rest:
                        init(self, counted(row_of), *rest))
    monkeypatch.setattr(ide, "feasible",
                        lambda f: tested.update([f]) or feasible(f))
    golden = Path(__file__).parent / "golden"
    for path in [corpus_dir() / f"{n}.evl" for n in CORPUS_NAMES] + \
            sorted(golden.glob("*.evl")):
        model_path = path.with_suffix(".model.json")
        model_path = str(model_path) if model_path.exists() else None
        model = EventModel.from_json_file(model_path) if model_path \
            else EventModel.default()
        reads.clear()
        tested.clear()
        assert check_program(path.read_text(encoding="utf-8"), model, 2,
                             path.name) == [], path.name
        assert reads and set(reads.values()) == {1}, path.name
        assert tested and set(tested.values()) == {1}, path.name
        tested.clear()
        status, report = run(RunConfig([str(path)], event_model=model_path))
        assert not report.input_error, path.name
        assert set(tested.values()) <= {1}, (path.name, tested.values())
