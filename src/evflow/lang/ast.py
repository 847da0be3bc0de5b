"""AST node types and the record of resolved names.

The parser (`parser.py`) is the only code that resolves names, in one
walk per function body: it fills each `Program`'s `Scopes` and the
`Access` of every statement, which the analysis and the interpreter
read."""

from __future__ import annotations

from typing import NamedTuple

from ..record import field, record

TOP_LEVEL = "top-level"


# --- expressions -----------------------------------------------------------

class Expr:
    pass


@record(frozen=True)
class IntLit(Expr):
    value: int


@record(frozen=True)
class StrLit(Expr):
    value: str


@record(frozen=True)
class BoolLit(Expr):
    value: bool


@record(frozen=True)
class Var(Expr):
    name: str


@record(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr


@record(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


def expr_vars(e: Expr) -> tuple[str, ...]:
    """Variable names read by an expression, in source order, deduplicated."""
    out: dict[str, None] = {}
    todo = [e]
    while todo:
        x = todo.pop()
        if isinstance(x, Var):
            out[x.name] = None
        elif isinstance(x, Unary):
            todo.append(x.operand)
        elif isinstance(x, Binary):
            todo += x.right, x.left
    return tuple(out)


# --- statements ------------------------------------------------------------

@record(frozen=True)
class Stmt:
    """The header of every statement: program-wide id, line and file."""

    sid: int
    line: int
    file: str


@record(frozen=True)
class VarDecl(Stmt):
    name: str
    init: Expr | None


@record(frozen=True)
class Assign(Stmt):
    name: str
    value: Expr


@record(frozen=True)
class If(Stmt):
    cond: Expr
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...]


@record(frozen=True)
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]


@record(frozen=True)
class Call(Stmt):
    """A call to a declared function or to a callee the event model
    classifies, the primitives `register`, `emit` and `register_async`
    among them."""

    callee: str
    args: tuple[Expr, ...]


@record(frozen=True)
class Print(Stmt):
    value: Expr


@record(frozen=True)
class Return(Stmt):
    pass


@record(frozen=True)
class FunctionDecl:
    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]


@record(frozen=True)
class Program:
    """All declared functions plus the synthetic top-level function, with
    what the parser resolved for them.

    `events` maps the sid of each call the event model classifies to its
    event operation, ("reg", event, handler, implicit_emit) or ("emit",
    event), and the argument positions that hold names, not reads.
    `scopes` resolves every declared name, and `access(sid)` gives how a
    statement's names resolve.  The parser fills all three; the analysis
    and the interpreter read event semantics and names from them alone.
    """

    functions: tuple[FunctionDecl, ...]
    scopes: Scopes = field(compare=False, repr=False)
    events: dict = field(compare=False, repr=False)
    # sid -> (owning function, statement, its Access)
    _by_sid: dict = field(compare=False, repr=False)
    _by_name: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for f in self.functions:
            self._by_name[f.name] = f

    def function(self, name: str) -> FunctionDecl:
        return self._by_name[name]

    def has_function(self, name: str) -> bool:
        return name in self._by_name

    @property
    def top_level(self) -> FunctionDecl:
        return self._by_name[TOP_LEVEL]

    def stmt(self, sid: int) -> Stmt:
        return self._by_sid[sid][1]

    def func_of_stmt(self, sid: int) -> str:
        return self._by_sid[sid][0]

    def access(self, sid: int) -> Access:
        return self._by_sid[sid][2]


# --- resolved names --------------------------------------------------------

class Access(NamedTuple):
    """How one statement's names resolve: the qualified name it writes,
    if any, and per operand the qualified names it reads, in source order
    without repeats.  A declaration without an initializer writes
    nothing, and the event-name and handler operands of an event call
    read nothing."""

    writes: str | None
    reads: tuple[tuple[str, ...], ...]


@record(frozen=True)
class Scopes:
    """Qualified-name resolution for every variable in a program.

    Top-level declarations are the globals and keep their bare names;
    locals and parameters of a function f are qualified as "f.name".
    """

    globals: tuple[str, ...]
    locals_by_func: dict[str, tuple[str, ...]]  # non-param locals, qualified
    params_by_func: dict[str, tuple[str, ...]]  # qualified
    visible: dict[str, dict[str, str]]  # function -> {name: qualified}

    def qualify(self, func: str, name: str) -> str:
        return self.visible[func][name]

    def all_facts(self) -> tuple[str, ...]:
        out = list(self.globals)
        for f in sorted(self.locals_by_func):
            if f == TOP_LEVEL:
                continue
            out.extend(self.params_by_func[f])
            out.extend(self.locals_by_func[f])
        return tuple(out)

    @staticmethod
    def display(qualified: str) -> str:
        return qualified.rsplit(".", 1)[-1]

