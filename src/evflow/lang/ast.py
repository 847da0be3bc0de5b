"""AST node types, scope resolution and the canonical pretty printer."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

TOP_LEVEL = "top-level"


# --- expressions -----------------------------------------------------------

class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class StrLit(Expr):
    value: str


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


def expr_vars(e: Expr) -> tuple[str, ...]:
    """Variable names read by an expression, in source order, deduplicated."""
    out: list[str] = []

    def walk(x: Expr) -> None:
        if isinstance(x, Var):
            if x.name not in out:
                out.append(x.name)
        elif isinstance(x, Unary):
            walk(x.operand)
        elif isinstance(x, Binary):
            walk(x.left)
            walk(x.right)

    walk(e)
    return tuple(out)


# --- statements ------------------------------------------------------------

@dataclass(frozen=True)
class Stmt:
    """The header of every statement: program-wide id, line and file."""

    sid: int
    line: int
    file: str


@dataclass(frozen=True)
class VarDecl(Stmt):
    name: str
    init: Expr | None


@dataclass(frozen=True)
class Assign(Stmt):
    name: str
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...]


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Call(Stmt):
    """A call to a declared function or to a callee the event model
    classifies, the primitives `register`, `emit` and `register_async`
    among them."""

    callee: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Print(Stmt):
    value: Expr


@dataclass(frozen=True)
class Return(Stmt):
    pass


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]
    line: int = 0
    file: str = ""


@dataclass(frozen=True)
class Program:
    """All declared functions plus the synthetic top-level function.

    `events` maps the sid of each call the event model classifies to its
    event operation, ("reg", event, handler, implicit_emit) or ("emit",
    event), and the argument positions that hold names, not reads.  The
    parser's validation fills it; the analysis reads event semantics from
    it alone.
    """

    functions: tuple[FunctionDecl, ...]
    events: dict = field(default_factory=dict, compare=False, repr=False)
    _by_name: dict = field(default_factory=dict, compare=False, repr=False)
    _by_sid: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for f in self.functions:
            self._by_name[f.name] = f
            for s in iter_stmts(f.body):
                self._by_sid[s.sid] = (f.name, s)

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

    @cached_property
    def scopes(self) -> Scopes:
        return resolve_scopes(self)


def iter_stmts(body):
    """All statements of a body, including nested ones, in source order."""
    for s in body:
        yield s
        if isinstance(s, If):
            yield from iter_stmts(s.then_body)
            yield from iter_stmts(s.else_body)
        elif isinstance(s, While):
            yield from iter_stmts(s.body)


# --- scope resolution ------------------------------------------------------

@dataclass(frozen=True)
class Scopes:
    """Qualified-name resolution for every variable in a program.

    Top-level declarations are the globals and keep their bare names;
    locals and parameters of a function f are qualified as "f.name".
    """

    globals: tuple[str, ...]
    locals_by_func: dict[str, tuple[str, ...]]  # non-param locals, qualified
    params_by_func: dict[str, tuple[str, ...]]  # qualified
    _res: dict[tuple[str, str], str]

    def qualify(self, func: str, name: str) -> str:
        return self._res[(func, name)]

    def resolves(self, func: str, name: str) -> bool:
        return (func, name) in self._res

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


def resolve_scopes(program: Program) -> Scopes:
    g = [s.name for s in iter_stmts(program.top_level.body)
         if isinstance(s, VarDecl)]
    locals_by_func: dict[str, tuple[str, ...]] = {}
    params_by_func: dict[str, tuple[str, ...]] = {}
    res: dict[tuple[str, str], str] = {}
    for f in program.functions:
        if f.name == TOP_LEVEL:
            locals_by_func[f.name] = tuple(g)
            params_by_func[f.name] = ()
            for name in g:
                res[(f.name, name)] = name
            continue
        params = tuple(f"{f.name}.{p}" for p in f.params)
        locs = tuple(f"{f.name}.{s.name}" for s in iter_stmts(f.body)
                     if isinstance(s, VarDecl))
        params_by_func[f.name] = params
        locals_by_func[f.name] = locs
        for p in f.params:
            res[(f.name, p)] = f"{f.name}.{p}"
        for s in iter_stmts(f.body):
            if isinstance(s, VarDecl):
                res[(f.name, s.name)] = f"{f.name}.{s.name}"
        for name in g:
            res.setdefault((f.name, name), name)
    return Scopes(tuple(g), locals_by_func, params_by_func, res)


# --- pretty printer --------------------------------------------------------

# Binding strength of each binary operator, loosest first; the parser
# reads it too.  Every level is left-associative.
PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
_UNARY_PREC = 7


def _expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, StrLit):
        escaped = e.value.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        s = f"{e.op}{_expr(e.operand, _UNARY_PREC)}"
        return f"({s})" if parent_prec > _UNARY_PREC else s
    if isinstance(e, Binary):
        prec = PRECEDENCE[e.op]
        s = f"{_expr(e.left, prec)} {e.op} {_expr(e.right, prec + 1)}"
        return f"({s})" if parent_prec > prec else s
    raise TypeError(f"unknown expression node {e!r}")


def _stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(s, VarDecl):
        if s.init is None:
            out.append(f"{pad}var {s.name};")
        else:
            out.append(f"{pad}var {s.name} = {_expr(s.init)};")
    elif isinstance(s, Assign):
        out.append(f"{pad}{s.name} = {_expr(s.value)};")
    elif isinstance(s, If):
        out.append(f"{pad}if ({_expr(s.cond)}) {{")
        for t in s.then_body:
            _stmt(t, indent + 1, out)
        if s.else_body:
            out.append(f"{pad}}} else {{")
            for t in s.else_body:
                _stmt(t, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, While):
        out.append(f"{pad}while ({_expr(s.cond)}) {{")
        for t in s.body:
            _stmt(t, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, Call):
        args = ", ".join(_expr(a) for a in s.args)
        out.append(f"{pad}{s.callee}({args});")
    elif isinstance(s, Print):
        out.append(f"{pad}print({_expr(s.value)});")
    elif isinstance(s, Return):
        out.append(f"{pad}return;")
    else:
        raise TypeError(f"unknown statement node {s!r}")


def to_source(program: Program) -> str:
    """Emit canonical EVL: declared functions first, then top-level code."""
    out: list[str] = []
    for f in program.functions:
        if f.name == TOP_LEVEL:
            continue
        params = ", ".join(f.params)
        out.append(f"fn {f.name}({params}) {{")
        for s in f.body:
            _stmt(s, 1, out)
        out.append("}")
        out.append("")
    for s in program.top_level.body:
        _stmt(s, 0, out)
    return "\n".join(out).rstrip() + "\n"
