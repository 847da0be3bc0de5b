from collections import defaultdict

import pytest

from evflow.eventmodel import EventModel, EventModelError, synthetic_event
from evflow.lang.parser import parse
from evflow.lang.interp import interpret
from evflow.supergraph import (
    EVENT_LOOP,
    EdgeKind,
    EventOp,
    LOOP_PROC,
    NodeKind,
    build_supergraph,
    handler_registry,
    node_for_sid,
    supergraph_dot,
)
from evflow.lang.ast import Call, StrLit, Var, While

from helpers import iter_stmts, sample_programs


def ops_of(result, eid):
    return result.ops.get(eid, ())


def dispatch_edges(g):
    """Handler name -> the call edge from the event loop into it."""
    return {g.proc_of(e.dst): e for e in g.edges
            if e.kind is EdgeKind.CALL and e.src == EVENT_LOOP}


def emit_calls(g):
    """The call edges of emit statements into the event loop."""
    return [e for e in g.edges if e.kind is EdgeKind.CALL
            and e.dst == EVENT_LOOP and g.nodes[e.src].sid is not None]


def stmt_out_edge(result, program, pred):
    """The single intraprocedural out-edge of the first statement matching
    the predicate."""
    g = result.graph
    for f in program.functions:
        for s in iter_stmts(f.body):
            if pred(s):
                node = node_for_sid(g, program, s.sid)
                out = [e for e in g.out_edges(node) if e.kind is EdgeKind.INTRA]
                assert len(out) == 1
                return out[0]
    raise AssertionError("no statement matched")


def test_door_build(door):
    program, _ = door
    result = build_supergraph(program)
    assert result.handlers == ("hdlClose", "hdlOpen")
    g = result.graph

    # one event loop node, one start/end per function
    loops = [n for n in g.nodes.values() if n.kind is NodeKind.EVENT_LOOP]
    assert len(loops) == 1 and loops[0].id == EVENT_LOOP
    for f in program.functions:
        assert g.start_of(f.name) and g.end_of(f.name)

    # register("open", hdlOpen) annotates its out-edge
    edge = stmt_out_edge(result, program,
                         lambda s: getattr(s, "callee", None) == "register"
                         and s.args[0] == StrLit("open"))
    assert ops_of(result, edge.eid) == (EventOp("register", "hdlOpen"),)

    # dispatch edges exist for both handlers and carry invoke
    dispatches = dispatch_edges(g)
    assert set(dispatches) == {"hdlOpen", "hdlClose"}
    for h, e in dispatches.items():
        assert e.src == EVENT_LOOP and e.dst == g.start_of(h)
        assert ops_of(result, e.eid) == (EventOp("invoke", h),)
        assert e.ret_site == EVENT_LOOP

    # emit("open") becomes a call into the loop plus a call-to-return edge,
    # both annotated with the emit for the open handler
    emits = emit_calls(g)
    assert len(emits) == 2  # emit("open") and emit("close")
    for e in emits:
        assert len(ops_of(result, e.eid)) == 1
        c2r = [x for x in g.out_edges(e.src)
               if x.kind is EdgeKind.CALL_TO_RETURN]
        assert len(c2r) == 1
        assert ops_of(result, c2r[0].eid) == ops_of(result, e.eid)


def test_empty_program():
    result = build_supergraph(parse(""))
    g = result.graph
    assert result.handlers == ()
    assert not dispatch_edges(g)
    assert EVENT_LOOP in g.nodes
    # top-level end still calls the loop, with no return site
    tails = [e for e in g.edges if e.dst == EVENT_LOOP]
    assert len(tails) == 1 and tails[0].kind is EdgeKind.CALL
    assert tails[0].src == g.end_of("top-level")
    assert tails[0].ret_site is None


def test_dirstat_emit_register_annotations(dirstat):
    program, _ = dirstat
    result = build_supergraph(program)
    for handler in ("f", "h"):
        edge = stmt_out_edge(
            result, program,
            lambda s: getattr(s, "callee", None) == "register_async"
            and s.args[0] == Var(handler))
        assert ops_of(result, edge.eid) == (EventOp("emit_register", handler),)


def test_classified_calls_annotated(timer):
    program, _ = timer
    result = build_supergraph(program)
    assert result.handlers == ("start", "tick")
    edge = stmt_out_edge(result, program,
                         lambda s: getattr(s, "callee", None) == "stdin_on")
    assert ops_of(result, edge.eid) == (EventOp("emit_register", "start"),)
    edge = stmt_out_edge(result, program,
                         lambda s: getattr(s, "callee", None) == "set_timeout")
    assert ops_of(result, edge.eid) == (EventOp("emit_register", "tick"),)


def test_invoke_only_on_dispatch_edges(door, timer):
    for program, _ in (door, timer):
        result = build_supergraph(program)
        for e in result.graph.edges:
            has_invoke = any(op.kind == "invoke"
                             for op in ops_of(result, e.eid))
            assert has_invoke == (e in dispatch_edges(result.graph).values())


def test_handler_registry(door, dirstat):
    program, _ = door
    assert handler_registry(program) == {
        "open": frozenset({"hdlOpen"}), "close": frozenset({"hdlClose"})}
    program, _ = dirstat
    reg = handler_registry(program)
    assert reg[synthetic_event("f")] == frozenset({"f"})
    assert reg[synthetic_event("h")] == frozenset({"h"})


def test_handler_on_two_events():
    p = parse('fn f() { print(1); }\nregister("a", f);\nregister("b", f);\n')
    reg = handler_registry(p)
    assert reg == {"a": frozenset({"f"}), "b": frozenset({"f"})}


def test_two_handlers_one_event_composes_emits():
    src = ('fn h1() { print(1); }\n'
           'fn h2() { print(2); }\n'
           'register("e", h1);\n'
           'register("e", h2);\n'
           'emit("e");\n')
    program = parse(src)
    result = build_supergraph(program)
    emit_call = emit_calls(result.graph)
    assert len(emit_call) == 1
    ops = ops_of(result, emit_call[0].eid)
    assert ops == (EventOp("emit", "h1"), EventOp("emit", "h2"))
    # interpreter cross-check: FIFO dispatch runs both handlers
    trace = interpret(program)
    assert trace.outputs() == ["1", "2"]


def test_emit_without_handlers_warns():
    result = build_supergraph(parse('emit("ghost");'))
    assert len(result.warnings) == 1
    assert "ghost" in str(result.warnings[0])
    emit_call = emit_calls(result.graph)[0]
    assert ops_of(result, emit_call.eid) == ()


def test_call_return_matching_invariant():
    """Each call edge with a return site has one edge from its callee's
    end to that site, a RETURN edge, and each call edge out of a call
    site has one edge from the site to its return site, a call-to-return
    edge; `solve_ide` looks return edges up by their endpoints."""
    for tag, program in sample_programs():
        g = build_supergraph(program).graph
        between = defaultdict(list)
        for e in g.edges:
            between[(e.src, e.dst)].append(e.kind)
        calls = [e for e in g.edges if e.kind is EdgeKind.CALL]
        # only the end of top-level calls without a return site
        assert [e.src for e in calls if e.ret_site is None] == \
            [g.end_of("top-level")], tag
        for e in calls:
            if e.ret_site is None:
                continue
            callee_end = g.end_of(g.proc_of(e.dst))
            assert between[(callee_end, e.ret_site)] == [EdgeKind.RETURN], \
                (tag, e)
            if e.src != EVENT_LOOP:  # a dispatch returns to the loop
                assert between[(e.src, e.ret_site)] == \
                    [EdgeKind.CALL_TO_RETURN], (tag, e)


def test_node_count_linear(door):
    program, _ = door
    result = build_supergraph(program)
    g = result.graph
    n_stmts = sum(1 for f in program.functions for _ in iter_stmts(f.body))
    # per statement at most 2 nodes, plus start/end per function and the loop
    assert len(g.nodes) <= 2 * n_stmts + 2 * len(program.functions) + 1
    for node in g.nodes.values():
        if node.kind is NodeKind.END and node.func not in (
                "top-level", *result.handlers, LOOP_PROC):
            continue  # non-handler function ends may have no loop edge
        if node.kind is not NodeKind.END:
            assert g.out_edges(node.id) or node.id == EVENT_LOOP


def test_only_top_level_and_handlers_reach_loop():
    src = ("fn helper() { print(1); }\n"
           "fn h() { helper(); }\n"
           'register("e", h);\n'
           "helper();\n"
           'emit("e");\n')
    g = build_supergraph(parse(src)).graph
    to_loop = {g.proc_of(e.src) for e in g.edges
               if e.dst == EVENT_LOOP and g.nodes[e.src].sid is None}
    assert to_loop == {"top-level", "h"}


def test_while_loop_shape():
    program = parse("var i; i = 2; while (i > 0) { i = i - 1; } print(i);")
    g = build_supergraph(program).graph
    cond = [n for n in g.nodes.values() if n.sid is not None
            and isinstance(program.stmt(n.sid), While)][0]
    out = g.out_edges(cond.id)
    assert len(out) == 2  # into body and past the loop
    back = [e for e in g.edges if e.dst == cond.id]
    assert len(back) == 2  # from predecessor and from body end


def test_dispatch_edges_regardless_of_reachability():
    # handler registered only inside an if that can never run still gets
    # a dispatch edge: the graph over-approximates
    src = ('fn h() { print(1); }\n'
           "var x; x = 0;\n"
           'if (x > 0) { register("e", h); }\n')
    result = build_supergraph(parse(src))
    assert result.handlers == ("h",)
    assert set(dispatch_edges(result.graph)) == {"h"}


def test_node_for_sid_maps_calls_to_call_sites(door):
    program, _ = door
    g = build_supergraph(program).graph
    emits = [s for f in program.functions for s in iter_stmts(f.body)
             if isinstance(s, Call) and s.callee == "emit"]
    for s in emits:
        node = node_for_sid(g, program, s.sid)
        assert g.nodes[node].kind is NodeKind.CALL_SITE


def test_dot_export(door):
    program, _ = door
    result = build_supergraph(program)
    dot = supergraph_dot(result.graph, result.ops, program)
    assert dot.startswith("digraph supergraph {")
    assert 'style="dashed"' in dot
    assert "invoke hdlOpen" in dot or "invoke hdlClose" in dot
    assert "cluster" in dot


def test_dot_node_labels():
    # every label shape: both ends of a procedure, declarations with and
    # without an initializer, an assignment, print, if, while, return, a
    # declared call, registrations, the built-in and a model-configured
    # emitter, the return site after each call, and an escaped quote
    src = ('fn helper(a) {\n'
           '  var t = a;\n'
           '  if (t > 0) { return; }\n'
           '  print(t);\n'
           '}\n'
           'fn h() { g = 1; }\n'
           'fn k() { print(g); }\n'
           'var g;\n'
           'register("e", h);\n'
           'register_async(k);\n'
           'helper(2);\n'
           'var i = 2;\n'
           'while (i > 0) { i = i - 1; }\n'
           'emit("e");\n'
           'fire("e", i);\n'
           'emit("q\\"t");\n')
    model = EventModel.from_dict(
        {"emissions": [{"callee": "fire", "event_arg": 0}]})
    program = parse(src, model=model)
    result = build_supergraph(program)
    dot = supergraph_dot(result.graph, result.ops, program)
    node_lines = [line.strip() for line in dot.splitlines()
                  if line.lstrip().startswith('"') and "->" not in line]
    assert node_lines == [
        '"loop" [label="event loop" shape=ellipse];',
        '"start:h" [label="start h"];',
        '"end:h" [label="end h"];',
        '"stmt:h:4" [label="g = ..."];',
        '"start:helper" [label="start helper"];',
        '"end:helper" [label="end helper"];',
        '"stmt:helper:0" [label="var t"];',
        '"stmt:helper:2" [label="if"];',
        '"stmt:helper:1" [label="return"];',
        '"stmt:helper:3" [label="print"];',
        '"start:k" [label="start k"];',
        '"end:k" [label="end k"];',
        '"stmt:k:5" [label="print"];',
        '"start:top-level" [label="start top-level"];',
        '"end:top-level" [label="end top-level"];',
        '"stmt:top-level:6" [label="var g"];',
        '"stmt:top-level:7" [label="register(...)"];',
        '"stmt:top-level:8" [label="register_async(...)"];',
        '"call:top-level:9" [label="helper(...)"];',
        '"ret:top-level:9" [label="after helper(...)"];',
        '"stmt:top-level:10" [label="var i"];',
        '"stmt:top-level:12" [label="while"];',
        '"stmt:top-level:11" [label="i = ..."];',
        '"call:top-level:13" [label="emit \\"e\\""];',
        '"ret:top-level:13" [label="after emit \\"e\\""];',
        '"call:top-level:14" [label="emit \\"e\\""];',
        '"ret:top-level:14" [label="after emit \\"e\\""];',
        '"call:top-level:15" [label="emit \\"q\\"t\\""];',
        '"ret:top-level:15" [label="after emit \\"q\\"t\\""];',
    ]


def test_event_model_validation():
    with pytest.raises(EventModelError):
        EventModel.from_dict({"registrations": [
            {"callee": "register", "event_arg": 0, "handler_arg": 1}]})
    with pytest.raises(EventModelError):
        EventModel.from_dict({"emissions": [{"callee": "x", "event_arg": -1}]})
    m = EventModel.from_dict({"registrations": [
        {"callee": "on", "event_arg": 0, "handler_arg": 1,
         "implicit_emit": False}]})
    program = parse('fn h() { print(1); }\non("e", h);\nregister("f", h);',
                    model=m)
    sids = {s.callee: s.sid for f in program.functions
            for s in iter_stmts(f.body) if isinstance(s, Call)}
    assert program.events == {
        sids["on"]: (("reg", "e", "h", False), (0, 1)),
        sids["register"]: (("reg", "f", "h", False), (0, 1))}


ON = {"callee": "on", "event_arg": 0, "handler_arg": 1}
NOT_NON_NEGATIVE = "'x': event_arg must be a non-negative integer (got -1)"


@pytest.mark.parametrize("doc,message", [
    ({"registrations": [ON, ON]}, "callee 'on' configured more than once"),
    ({"registrations": [ON], "emissions": [{"callee": "on", "event_arg": 0}]},
     "callee 'on' configured more than once"),
    ({"registrations": [dict(ON, implicit_emit=1)]},
     "'on': implicit_emit must be true or false"),
    ({"registrations": [dict(ON, handler_arg=0)]},
     "event_arg and handler_arg collide for 'on'"),
    ({"registrations": {"callee": "on"}},
     "'registrations' must be a list of objects"),
    ({"emissions": [1]}, "'emissions' must be a list of objects"),
    # every entry is read before duplicates are looked for
    ({"registrations": [ON, ON], "emissions": [{"callee": "x",
                                                "event_arg": -1}]},
     NOT_NON_NEGATIVE),
])
def test_event_model_messages(doc, message):
    with pytest.raises(EventModelError) as err:
        EventModel.from_dict(doc)
    assert str(err.value) == message


def test_event_model_file_must_hold_an_object(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[]")
    with pytest.raises(EventModelError) as err:
        EventModel.from_json_file(path)
    assert str(err.value) == f"{path}: expected a JSON object"


@pytest.mark.parametrize("call,message", [
    ('on(1, h);', "line 2: 'on' needs a string literal at argument 0"),
    ('var x; fire(x);', "line 2: 'fire' needs a string literal at argument 0"),
])
def test_event_operand_messages(call, message):
    model = EventModel.from_dict({"registrations": [ON], "emissions": [
        {"callee": "fire", "event_arg": 0}]})
    with pytest.raises(EventModelError) as err:
        parse('fn h() { print(1); }\n' + call, model=model)
    assert str(err.value) == message


def test_model_call_arity_checked():
    model = EventModel.from_dict({"registrations": [
        {"callee": "on", "event_arg": 0, "handler_arg": 1,
         "implicit_emit": False}]})
    with pytest.raises(EventModelError) as err:
        parse('fn h() { print(1); }\non("e");', model=model)
    assert str(err.value) == "line 2: 'on' needs a function name at argument 1"


def test_no_edge_carries_two_ops_for_one_handler():
    # so each label maps every handler to one operation's micro-function,
    # with nothing to compose
    edges = 0
    for tag, program in sample_programs():
        for eid, ops in build_supergraph(program).ops.items():
            handlers = [op.handler for op in ops]
            assert len(set(handlers)) == len(handlers), (tag, eid, ops)
            edges += 1
    assert edges > 1000
