"""Tree-walking interpreter with single-threaded event-loop semantics.

Top-level code runs to completion, then the ready-handler queue drains:
callback-style registrations enqueue their handler, explicit emissions
dispatch synchronously and return to the emitter.  Uninitialized reads
yield 0 and are recorded in the trace, so execution continues past the
first defect and traces stay comparable to analysis results.  Each
call to an undeclared function runs as the event operation the parser
recorded for it in `Program.events`, the classification the analysis
reads; the interpreter classifies no call itself.
"""

from __future__ import annotations

import operator

from ..record import field, record
from .ast import (
    Assign,
    Binary,
    BoolLit,
    Call,
    Expr,
    If,
    IntLit,
    Print,
    Program,
    Return,
    Stmt,
    StrLit,
    Unary,
    Var,
    VarDecl,
    While,
)
from .parser import EvlError


class EvlRuntimeError(EvlError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}")


@record(frozen=True)
class EventCall:
    sid: int  # of an executed call that `Program.events` classifies


@record(frozen=True)
class HandlerInvoked:
    handler: str


@record(frozen=True)
class UninitRead:
    sid: int
    var: str  # qualified name


@record(frozen=True)
class Output:
    text: str


@record
class ExecutionTrace:
    events: list = field(default_factory=list)
    truncated: bool = False
    error: str | None = None
    steps: int = 0
    decision_arity: list[int] = field(default_factory=list)

    def outputs(self) -> list[str]:
        return [e.text for e in self.events if isinstance(e, Output)]

    def uninit_reads(self) -> list[UninitRead]:
        return [e for e in self.events if isinstance(e, UninitRead)]


class _Truncated(Exception):
    pass


class _ReturnSignal(Exception):
    pass


_UNSET = object()

# binary operator -> its function, the operand types it takes (both
# operands of one type) and what its run-time error says it needs
_BINOPS = {
    "+": (operator.add, (int, str), "two integers or two strings"),
    "-": (operator.sub, (int,), "integers"),
    "*": (operator.mul, (int,), "integers"),
    "/": (operator.floordiv, (int,), "integers"),
    "%": (operator.mod, (int,), "integers"),
    "<": (operator.lt, (int,), "integers"),
    "<=": (operator.le, (int,), "integers"),
    ">": (operator.gt, (int,), "integers"),
    ">=": (operator.ge, (int,), "integers"),
    "==": (operator.eq, (int, bool, str), "matching types"),
    "!=": (operator.ne, (int, bool, str), "matching types"),
}


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    try:
        return str(value)
    except ValueError:  # an integer past Python's int-to-str digit limit
        raise _Truncated() from None


# Statements executed before a run is reported as truncation.
STEP_LIMIT = 10_000
# The longest string a run may build; a longer one ends the run as
# truncation, as doubling a string within STEP_LIMIT could exhaust memory.
# Integers are not bounded.
STRING_LIMIT = 1 << 16
_MAX_EMIT_DEPTH = 64
# Calls, handler invocations and the bodies of `if` and `while` each run
# one level deeper on the Python stack.  A run nested deeper than this
# stands in for a stack overflow and is reported as truncation; with the
# parser's nesting bound it keeps the interpreter under Python's default
# recursion limit.
_MAX_CALL_DEPTH = 128


class _Interp:
    def __init__(self, program: Program, schedule: tuple[int, ...]):
        self.program = program
        self.scopes = program.scopes
        self.choices = schedule
        self.trace = ExecutionTrace()
        self.genv = {g: _UNSET for g in self.scopes.globals}
        self.registered: dict[str, str] = {}  # handler -> event, first wins
        self.pending: list[str] = []
        self.emit_depth = 0
        self.depth = 0  # bodies being run

    # -- variable access --

    def _read(self, func: str, name: str, frame: dict, sid: int):
        q = self.scopes.qualify(func, name)
        store = frame if "." in q else self.genv
        value = store[q]
        if value is _UNSET:
            self.trace.events.append(UninitRead(sid, q))
            return 0
        return value

    def _write(self, func: str, name: str, frame: dict, value) -> None:
        q = self.scopes.qualify(func, name)
        store = frame if "." in q else self.genv
        store[q] = value

    # -- expressions --

    def eval(self, e: Expr, func: str, frame: dict, sid: int, line: int):
        if isinstance(e, (IntLit, StrLit, BoolLit)):
            return e.value
        if isinstance(e, Var):
            return self._read(func, e.name, frame, sid)
        if isinstance(e, Unary):
            if e.op == "!":
                return not self._bool(e.operand, func, frame, sid, line,
                                      "'!' needs a boolean")
            v = self.eval(e.operand, func, frame, sid, line)
            if not isinstance(v, int) or isinstance(v, bool):
                raise EvlRuntimeError("unary '-' needs an integer", line)
            return -v
        if isinstance(e, Binary):
            if e.op in ("&&", "||"):
                needs = f"'{e.op}' needs booleans"
                left = self._bool(e.left, func, frame, sid, line, needs)
                if left == (e.op == "||"):  # the left operand decides
                    return left
                return self._bool(e.right, func, frame, sid, line, needs)
            left = self.eval(e.left, func, frame, sid, line)
            right = self.eval(e.right, func, frame, sid, line)
            return self._binop(e.op, left, right, line)
        raise TypeError(f"unknown expression {e!r}")

    def _binop(self, op: str, a, b, line: int):
        fn, types, needs = _BINOPS[op]
        if type(a) is not type(b) or type(a) not in types:
            raise EvlRuntimeError(f"'{op}' needs {needs}", line)
        if op in ("/", "%") and b == 0:
            raise EvlRuntimeError("division by zero", line)
        if op == "+" and type(a) is str and len(a) + len(b) > STRING_LIMIT:
            raise _Truncated()
        return fn(a, b)

    def _bool(self, e: Expr, func: str, frame: dict, sid: int, line: int,
              needs: str) -> bool:
        """`e`'s value; unless it is a boolean, error `needs` ends the run."""
        v = self.eval(e, func, frame, sid, line)
        if not isinstance(v, bool):
            raise EvlRuntimeError(needs, line)
        return v

    # -- event runtime --

    def _register(self, handler: str, event: str, enqueue: bool) -> None:
        # Re-registration of an already-registered handler is a no-op.
        if handler in self.registered:
            return
        self.registered[handler] = event
        if enqueue:
            self.pending.append(handler)

    def _emit(self, event: str) -> None:
        # synchronous dispatch; emit chains deeper than the bound stand in
        # for a stack overflow and are reported as truncation
        if self.emit_depth >= _MAX_EMIT_DEPTH:
            raise _Truncated()
        self.emit_depth += 1
        try:
            handlers = [h for h, e in self.registered.items() if e == event]
            for h in handlers:
                self._invoke(h)
        finally:
            self.emit_depth -= 1

    def _invoke(self, handler: str) -> None:
        self.trace.events.append(HandlerInvoked(handler))
        self._run_function(self.program.function(handler), ())

    # -- execution --

    def _run_function(self, fn, arg_values) -> None:
        frame = {q: _UNSET for q in self.scopes.locals_by_func[fn.name]}
        for p, v in zip(self.scopes.params_by_func[fn.name], arg_values):
            frame[p] = v
        try:
            self._run_body(fn.body, fn.name, frame)
        except _ReturnSignal:
            pass

    def _run_body(self, body, func: str, frame: dict) -> None:
        if self.depth >= _MAX_CALL_DEPTH:
            raise _Truncated()
        self.depth += 1
        try:
            for s in body:
                self.exec_stmt(s, func, frame)
        finally:
            self.depth -= 1

    def _step(self) -> None:
        self.trace.steps += 1
        if self.trace.steps > STEP_LIMIT:
            raise _Truncated()

    def exec_stmt(self, s: Stmt, func: str, frame: dict) -> None:
        self._step()
        if isinstance(s, (VarDecl, Assign)):
            value = s.init if isinstance(s, VarDecl) else s.value
            if value is not None:
                self._write(func, s.name, frame,
                            self.eval(value, func, frame, s.sid, s.line))
        elif isinstance(s, If):
            cond = self._bool(s.cond, func, frame, s.sid, s.line,
                              "condition must be a boolean")
            self._run_body(s.then_body if cond else s.else_body, func, frame)
        elif isinstance(s, While):
            while self._bool(s.cond, func, frame, s.sid, s.line,
                             "condition must be a boolean"):
                self._run_body(s.body, func, frame)
                self._step()
        elif isinstance(s, Print):
            value = self.eval(s.value, func, frame, s.sid, s.line)
            self.trace.events.append(Output(_render(value)))
        elif isinstance(s, Return):
            raise _ReturnSignal()
        elif isinstance(s, Call):
            self._exec_call(s, func, frame)
        else:
            raise TypeError(f"unknown statement {s!r}")

    def _exec_call(self, s: Call, func: str, frame: dict) -> None:
        if self.program.has_function(s.callee):
            values = [self.eval(a, func, frame, s.sid, s.line) for a in s.args]
            self._run_function(self.program.function(s.callee), values)
            return
        self.trace.events.append(EventCall(s.sid))
        op, names = self.program.events[s.sid]
        for i, a in enumerate(s.args):
            if i not in names:
                self.eval(a, func, frame, s.sid, s.line)
        if op[0] == "reg":
            self._register(op[2], op[1], enqueue=op[3])
        else:
            self._emit(op[1])

    def _drain(self) -> None:
        decision = 0
        while self.pending:
            idx = 0
            if len(self.pending) > 1:
                self.trace.decision_arity.append(len(self.pending))
                if decision < len(self.choices):
                    idx = self.choices[decision]
                    if not 0 <= idx < len(self.pending):
                        raise ValueError(
                            f"schedule index {idx} out of range at decision "
                            f"{decision} (queue size {len(self.pending)})")
                decision += 1
            handler = self.pending.pop(idx)
            self._invoke(handler)

    def run(self) -> ExecutionTrace:
        try:
            self._run_function(self.program.top_level, ())
            self._drain()
        except _Truncated:
            self.trace.truncated = True
        except EvlRuntimeError as e:
            self.trace.error = str(e)
        return self.trace


def interpret(program: Program,
              schedule: tuple[int, ...] = ()) -> ExecutionTrace:
    """Run a program under `schedule`, its dispatch decisions by index
    into the ready queue (0 past its end), collecting a trace."""
    return _Interp(program, schedule).run()


def explore_schedules(program: Program, _ignored=None,
                      max_decisions: int = 6) -> list[ExecutionTrace]:
    """Traces under FIFO plus every dispatch order within the decision bound.

    The first trace is the FIFO run; further traces flip one ready-queue
    decision at a time, depth-first, up to max_decisions decisions.  The
    second parameter is ignored: `evbench/gen.py` still passes an event
    model there, and ROADMAP item 9, which drops that argument, removes
    the parameter.
    """
    # An explicit stack, not a closure that calls itself: such a closure
    # is a reference cycle, which `cli.check_program` must not make (see
    # the `cli` docstring).  Children go on in reverse, so that they come
    # off in the order a recursive walk visits them.
    results: list[ExecutionTrace] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        trace = interpret(program, prefix)
        results.append(trace)
        arity = trace.decision_arity
        limit = min(len(arity), max_decisions)
        children = []
        for pos in range(len(prefix), limit):
            taken = prefix + (0,) * (pos - len(prefix))
            children += [(*taken, choice) for choice in range(1, arity[pos])]
        stack += reversed(children)
    return results


def check_trace_ordering(program: Program, trace: ExecutionTrace) -> list[str]:
    """Structural check: every handler invocation in a trace was preceded
    by its registration and a subsequent emission (explicit or implicit),
    reading each executed event call's operation from `program.events`.
    Returns human-readable violations; an empty list means the trace is
    consistent."""
    registered: dict[str, str] = {}
    state: dict[str, str] = {}  # handler -> "R" | "E"
    violations: list[str] = []
    for ev in trace.events:
        if isinstance(ev, EventCall):
            op = program.events[ev.sid][0]
            if op[0] == "reg" and op[2] not in registered:
                registered[op[2]] = op[1]
                state[op[2]] = "E" if op[3] else "R"
            elif op[0] == "emit":
                for h, e in registered.items():
                    if e == op[1] and state[h] == "R":
                        state[h] = "E"
        elif isinstance(ev, HandlerInvoked):
            if state.get(ev.handler) != "E":
                violations.append(
                    f"handler '{ev.handler}' invoked in state "
                    f"{state.get(ev.handler, 'S')}")
    return violations
