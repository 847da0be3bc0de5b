import pytest

from evflow.lang import interp
from evflow.lang.ast import Call
from evflow.lang.interp import (
    STEP_LIMIT,
    STRING_LIMIT,
    EventCall,
    HandlerInvoked,
    Output,
    check_trace_ordering,
    explore_schedules,
    interpret,
)
from evflow.lang.parser import parse

from helpers import iter_stmts


def test_uninit_read_yields_sentinel_and_continues():
    trace = interpret(parse("var x; print(x); print(x + 1);"))
    reads = trace.uninit_reads()
    assert len(reads) == 2
    assert all(r.var == "x" for r in reads)
    assert trace.outputs() == ["0", "1"]
    assert trace.error is None and not trace.truncated


def test_initialized_read_is_clean():
    trace = interpret(parse("var x; x = 1; print(x);"))
    assert trace.uninit_reads() == []
    assert trace.outputs() == ["1"]


def test_door_fifo(door):
    program = door[0]
    trace = interpret(program)
    assert "Hello, world!" in trace.outputs()
    assert trace.uninit_reads() == []
    assert [e.handler for e in trace.events if isinstance(e, HandlerInvoked)] \
        == ["hdlOpen", "hdlClose"]


def test_dirstat_done_before_handlers(dirstat):
    program = dirstat[0]
    trace = interpret(program)
    outputs = trace.outputs()
    assert outputs[0] == "done"
    assert trace.uninit_reads() == []
    invoked = [e.handler for e in trace.events if isinstance(e, HandlerInvoked)]
    assert invoked == ["f", "h"]


def test_timer_and_server_clean(timer, server):
    for program, _ in (timer, server):
        trace = interpret(program)
        assert trace.uninit_reads() == []
        assert trace.error is None


def test_configured_callees_run_from_the_parsers_record(timer, server):
    # timer.evl and server.evl register through callees their sidecar
    # models configure; the interpreter takes no model and runs the
    # operations the parser recorded, so the FIFO runs match the ones
    # the model itself gives
    expected = {
        "timer": (["Enter a number:", "2"], ["start", "tick"], 9),
        "server": (["listening", "client connected", "1"],
                   ["lstn", "conn"], 8),
    }
    for name, (program, _) in (("timer", timer), ("server", server)):
        trace = interpret(program)
        handlers = [e.handler for e in trace.events
                    if isinstance(e, HandlerInvoked)]
        assert (trace.outputs(), handlers, trace.steps) == expected[name]
        traces = explore_schedules(program)
        assert [t.error for t in (trace, *traces)] == [None, None]
        assert traces[0].events == trace.events


def test_fifo_deterministic(dirstat):
    program = dirstat[0]
    t1 = interpret(program)
    t2 = interpret(program)
    assert t1.events == t2.events
    assert t1.steps == t2.steps


def test_step_limit_truncates():
    trace = interpret(parse("var x; x = 1; while (true) { x = x + 1; }"))
    assert trace.truncated
    assert trace.steps == STEP_LIMIT + 1


def test_unbounded_recursion_truncates():
    trace = interpret(parse("fn f() { f(); } f();"))
    assert trace.truncated and trace.error is None
    nested = "fn f() { if (true) { while (true) { f(); } } } f();"
    assert interpret(parse(nested)).truncated


def test_runtime_type_error_recorded():
    trace = interpret(parse('var x; x = 1 ; print(x); x = 2; if (true) {} '
                            'print("a"); emit("nothing");'))
    assert trace.error is None
    bad = interpret(parse('var x; x = "s"; print(x + 1);'))
    assert bad.error is not None and "'+'" in bad.error


def test_control_flow():
    src = ("var n; var total;\n"
           "n = 3; total = 0;\n"
           "while (n > 0) { total = total + n; n = n - 1; }\n"
           "if (total == 6) { print(\"ok\"); } else { print(\"bad\"); }\n")
    assert interpret(parse(src)).outputs()[-1] == "ok"


def test_function_call_binds_params():
    src = ("fn add_into(a, b) { acc = a + b; }\n"
           "var acc;\n"
           "add_into(2, 3);\n"
           "print(acc);\n")
    trace = interpret(parse(src))
    assert trace.outputs() == ["5"]
    assert trace.uninit_reads() == []


def test_return_exits_function():
    src = ("fn f() { print(1); return; print(2); }\n"
           "f();\n")
    assert interpret(parse(src)).outputs() == ["1"]


def test_reregistration_is_noop():
    src = ('fn h() { print("hi"); }\n'
           'register("a", h);\n'
           'register("b", h);\n'
           'emit("b");\n'
           'emit("a");\n')
    trace = interpret(parse(src))
    # h stays bound to its first registration: only emit("a") fires it
    assert trace.outputs() == ["hi"]


def test_emit_dispatches_in_registration_order():
    src = ('fn h1() { print("1"); }\n'
           'fn h2() { print("2"); }\n'
           'register("e", h2);\n'
           'register("e", h1);\n'
           'emit("e");\n')
    assert interpret(parse(src)).outputs() == ["2", "1"]


def test_schedule_choices_flip_order():
    src = ("fn a() { print(\"a\"); }\n"
           "fn b() { print(\"b\"); }\n"
           "register_async(a);\n"
           "register_async(b);\n")
    program = parse(src)
    fifo = interpret(program)
    assert fifo.outputs() == ["a", "b"]
    assert fifo.decision_arity == [2]
    flipped = interpret(program, (1,))
    assert flipped.outputs() == ["b", "a"]


def test_explore_schedules_covers_all_orders():
    src = ("fn a() { print(\"a\"); }\n"
           "fn b() { print(\"b\"); }\n"
           "fn c() { print(\"c\"); }\n"
           "register_async(a);\n"
           "register_async(b);\n"
           "register_async(c);\n")
    traces = explore_schedules(parse(src))
    orders = {tuple(t.outputs()) for t in traces}
    assert orders == {("a", "b", "c"), ("a", "c", "b"), ("b", "a", "c"),
                      ("b", "c", "a"), ("c", "a", "b"), ("c", "b", "a")}


def test_trace_ordering_invariant_on_corpus(door, dirstat, timer, server):
    for program, _ in (door, dirstat, timer, server):
        for trace in explore_schedules(program):
            assert check_trace_ordering(program, trace) == []


def test_trace_records_each_executed_event_call_in_order():
    program = parse('fn second() { print("second"); }\n'
                    'fn first() { print("first"); register("done", second);'
                    ' emit("done"); }\n'
                    'var x = 1;\n'
                    'register("go", first);\n'
                    'print(x);\n'
                    'emit("go");\n'
                    'x = 2;\n')
    sid = {(s.callee, s.args[0].value): s.sid for f in program.functions
           for s in iter_stmts(f.body) if isinstance(s, Call)}
    trace = interpret(program)
    # no record stands for a plain statement, and the calls a handler
    # runs come between its invocation and the next record of its caller
    assert trace.events == [
        EventCall(sid[("register", "go")]), Output("1"),
        EventCall(sid[("emit", "go")]), HandlerInvoked("first"),
        Output("first"), EventCall(sid[("register", "done")]),
        EventCall(sid[("emit", "done")]), HandlerInvoked("second"),
        Output("second")]


def test_trace_ordering_reads_event_call_order(door):
    program = door[0]
    trace = interpret(program)
    assert check_trace_ordering(program, trace) == []
    events = trace.events
    first = next(i for i, e in enumerate(events)
                 if isinstance(e, HandlerInvoked))
    emit = events[first - 1]
    assert isinstance(emit, EventCall)
    assert program.events[emit.sid][0] == ("emit", "open")
    # the handler now runs before the emit that dispatched it
    events[first - 1], events[first] = events[first], emit
    assert check_trace_ordering(program, trace) == [
        "handler 'hdlOpen' invoked in state R"]


def test_trace_ordering_detects_violation(door):
    program = door[0]
    trace = interpret(program)
    # manufacture an impossible prefix: invocation before any registration
    bad = [HandlerInvoked("hdlClose")] + trace.events
    trace.events = bad
    assert check_trace_ordering(program, trace) != []


def test_operators():
    src = ("print(-7 / 2); print(-7 % 2); print(true);\n"
           "print(false && 1 / 0 == 0); print(true || 1 / 0 == 0);\n"
           "print(!false);\n"
           "print(true && true); print(true && false);\n"
           "print(false && true); print(false && false);\n"
           "print(true || true); print(true || false);\n"
           "print(false || true); print(false || false);\n")
    trace = interpret(parse(src))
    assert trace.outputs() == ["-4", "1", "true", "false", "true", "true",
                               "true", "false", "false", "false",
                               "true", "true", "true", "false"]
    assert trace.error is None


@pytest.mark.parametrize("source,error", [
    ("print(1 / 0);", "line 1: division by zero"),
    ('print(1 + "a");', "line 1: '+' needs two integers or two strings"),
    ('print(1 == "a");', "line 1: '==' needs matching types"),
    ("if (1) { print(1); }", "line 1: condition must be a boolean"),
    ("while (1) { print(1); }", "line 1: condition must be a boolean"),
    ("print(-true);", "line 1: unary '-' needs an integer"),
    ("print(!1);", "line 1: '!' needs a boolean"),
    ("print(1 && true);", "line 1: '&&' needs booleans"),
    ("print(true && 1);", "line 1: '&&' needs booleans"),
    ("print(false || 1);", "line 1: '||' needs booleans"),
    ("print(1 || true);", "line 1: '||' needs booleans"),
    ('print("a" < "b");', "line 1: '<' needs integers"),
])
def test_runtime_errors_end_the_run(source, error):
    trace = interpret(parse(source + ' print("after");'))
    assert trace.error == error
    assert trace.outputs() == [] and not trace.truncated


def test_a_string_past_the_limit_ends_the_run(monkeypatch):
    """Doubling a string 40 times would build 2**41 characters; the run
    ends as truncation once the next string would pass STRING_LIMIT."""
    built = []
    binop = interp._Interp._binop

    def recording(self, op, a, b, line):
        # without the bound, fail here rather than build gigabytes
        assert type(a) is not str or len(a) + len(b) <= 2 * STRING_LIMIT
        value = binop(self, op, a, b, line)
        if type(value) is str:
            built.append(len(value))
        return value

    monkeypatch.setattr(interp._Interp, "_binop", recording)
    trace = interpret(parse('var s = "ab";\nvar i = 0;\n'
                            "while (i < 40) { s = s + s; i = i + 1; }\n"
                            "print(i);\n"))
    assert trace.truncated and trace.error is None
    assert trace.outputs() == []
    assert STRING_LIMIT // 2 < max(built) <= STRING_LIMIT


def test_an_integer_too_long_to_print_ends_the_run():
    """Python renders no integer of more than 4,300 decimal digits; a
    print of one ends the run as truncation and outputs nothing."""
    trace = interpret(parse("var x = 10; var i = 0;\n"
                            "while (i < 20) { x = x * x; i = i + 1; }\n"
                            "print(1 < 2); print(x);\n"))
    assert trace.truncated and trace.error is None
    assert trace.outputs() == ["true"]


def test_schedule_index_out_of_range():
    program = parse("fn a() { print(1); }\nfn b() { print(2); }\n"
                    "register_async(a);\nregister_async(b);\n")
    with pytest.raises(ValueError, match="schedule index 5 out of range"):
        interpret(program, (5,))
