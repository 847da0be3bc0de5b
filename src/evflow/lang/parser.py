"""Tokenizer, recursive-descent parser, name resolution and static
validation for EVL.  Names resolve here alone, in one walk per function
body.  Calls are classified here alone: `_check_call` looks each callee
that is not a declared function up in the event model's table of specs,
reads the event name and the handler off the operands its spec names and
records the call's event operation in `Program.events`.

A token is a plain `(kind, text, offset)` tuple from one regex pass.  A
keyword's or an operator's kind is its own text, so the descent tests a
token with one comparison.  Positions come from offsets where they are
used: a statement's line by a bisect over the source's newlines, and a
column only when a `ParseError` is raised."""

from __future__ import annotations

import re
from bisect import bisect_left

from .ast import (
    Access,
    Assign,
    Binary,
    BoolLit,
    Call,
    Expr,
    FunctionDecl,
    If,
    IntLit,
    Print,
    Program,
    Return,
    Scopes,
    Stmt,
    StrLit,
    TOP_LEVEL,
    Unary,
    Var,
    VarDecl,
    While,
    expr_vars,
)
from ..eventmodel import EventModel, EventModelError, synthetic_event


class EvlError(Exception):
    """An input error: its message says what is wrong, and where."""


class ParseError(EvlError):
    def __init__(self, line: int, col: int, message: str, file: str = ""):
        self.line, self.col, self.message, self.file = line, col, message, file
        where = f"{file}:" if file else ""
        super().__init__(f"{where}{line}:{col}: {message}")


KEYWORDS = {"var", "fn", "if", "else", "while", "return", "true", "false",
            "print", "register", "emit", "register_async"}
_OPERATORS = ("==", "!=", "<=", ">=", "&&", "||", *"-+*/%<>=!(){},;")

_TOKEN_RE = re.compile(r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<op>""" + "|".join(map(re.escape, _OPERATORS)) + r""")
  | (?P<bad>.)
""", re.VERBOSE)

# Binding strength of each binary operator, loosest first.  Every level
# is left-associative.
PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}

# the texts that are their own kind: keywords and operators
_OWN_KIND = {text: text for text in (*KEYWORDS, *_OPERATORS)}

Token = tuple[str, str, int]    # (kind, text, offset)


def _error(source: str, offset: int, message: str, file: str) -> ParseError:
    """A ParseError at `offset` of `source`, counting lines and columns
    from 1."""
    return ParseError(source.count("\n", 0, offset) + 1,
                      offset - source.rfind("\n", 0, offset), message, file)


def tokenize(source: str, file: str = "") -> list[Token]:
    """The tokens of `source`, then an `eof` token at its end."""
    tokens: list[Token] = []
    append, own_kind = tokens.append, _OWN_KIND.get
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind != "skip":
            text = m.group()
            if kind == "bad":
                raise _error(source, m.start(),
                             f"unexpected character {text!r}", file)
            append((own_kind(text, kind), text, m.start()))
    append(("eof", "", len(source)))
    return tokens


_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(.)")


# The parser, the supergraph builder, the checks and the interpreter all
# walk blocks and expressions recursively, so nesting is bounded to keep
# each of them under Python's default recursion limit.  Blocks, open
# parentheses and unary operators each add a level while they are being
# parsed; an expression adds the depth of its operator tree.
MAX_NESTING = 64


class _Parser:
    def __init__(self, source: str, file: str, next_sid: int):
        self.source = source
        self.advance = iter(tokenize(source, file)).__next__
        self.tok = self.advance()   # the next token; `eof` is never taken
        self.file = file
        self.next_sid = next_sid
        self.depth = 0  # blocks, parentheses and unary operators open
        self.newlines = [m.start() for m in re.finditer("\n", source)]

    def error(self, tok: Token, message: str) -> ParseError:
        return _error(self.source, tok[2], message, self.file)

    def take(self, kind: str) -> Token:
        tok = self.tok
        if tok[0] != kind:
            raise self.error(tok, f"expected '{kind}', found "
                                  f"'{tok[1] or 'eof'}'")
        self.tok = self.advance()
        return tok

    def nest(self, tok: Token, extra: int) -> None:
        """Raise unless `extra` more levels at `tok` stay within
        MAX_NESTING."""
        if self.depth + extra > MAX_NESTING:
            raise self.error(tok, f"nesting deeper than {MAX_NESTING} levels")

    def enter(self, tok: Token) -> None:
        """Enter one level of nesting at `tok`; the caller leaves it."""
        self.nest(tok, 1)
        self.depth += 1

    def sid(self) -> int:
        s = self.next_sid
        self.next_sid += 1
        return s

    # -- entry points --

    def parse_unit(self) -> tuple[list[FunctionDecl], list[Stmt]]:
        functions: list[FunctionDecl] = []
        top: list[Stmt] = []
        while self.tok[0] != "eof":
            if self.tok[0] == "fn":
                functions.append(self.function_decl())
            else:
                top.append(self.statement())
        return functions, top

    def function_decl(self) -> FunctionDecl:
        self.take("fn")
        name = self.take("ident")[1]
        self.take("(")
        params: list[str] = []
        while self.tok[0] != ")":
            if params:
                self.take(",")
            params.append(self.take("ident")[1])
        self.take(")")
        body = self.block()
        return FunctionDecl(name, tuple(params), tuple(body))

    def block(self) -> list[Stmt]:
        self.enter(self.take("{"))
        body: list[Stmt] = []
        while self.tok[0] != "}":
            body.append(self.statement())
        self.take("}")
        self.depth -= 1
        return body

    # -- statements --

    def statement(self) -> Stmt:
        tok = self.tok
        kind = tok[0]
        line = bisect_left(self.newlines, tok[2]) + 1
        if kind == "var":
            return self.var_decl(line)
        if kind == "if":
            return self.if_stmt(line)
        if kind == "while":
            return self.while_stmt(line)
        if kind == "return":
            self.take("return")
            self.take(";")
            return Return(self.sid(), line, self.file)
        if kind == "print":
            self.take("print")
            self.take("(")
            value = self.expression()
            self.take(")")
            self.take(";")
            return Print(self.sid(), line, self.file, value)
        if kind in ("register", "emit", "register_async"):
            return self.event_primitive(kind, line)
        if kind == "ident":
            name = self.take("ident")[1]
            if self.tok[0] == "(":
                self.take("(")
                args = []
                while self.tok[0] != ")":
                    if args:
                        self.take(",")
                    args.append(self.expression())
                self.take(")")
                self.take(";")
                return Call(self.sid(), line, self.file, name, tuple(args))
            self.take("=")
            value = self.expression()
            self.take(";")
            return Assign(self.sid(), line, self.file, name, value)
        raise self.error(tok, f"expected a statement, found "
                              f"'{tok[1] or 'eof'}'")

    def event_primitive(self, kind: str, line: int) -> Stmt:
        """`register("e", h);`, `emit("e");` or `register_async(h, ...);`
        as a call, whose event semantics the model's built-in specs give."""
        self.take(kind)
        self.take("(")
        args: list[Expr] = []
        if kind != "register_async":
            args.append(StrLit(self.string_literal("event name")))
        if kind != "emit":
            if args:
                self.take(",")
            args.append(Var(self.take("ident")[1]))
        while kind == "register_async" and self.tok[0] == ",":
            self.take(",")
            args.append(self.expression())
        self.take(")")
        self.take(";")
        return Call(self.sid(), line, self.file, kind, tuple(args))

    def var_decl(self, line: int) -> Stmt:
        self.take("var")
        name = self.take("ident")[1]
        init = None
        if self.tok[0] == "=":
            self.take("=")
            init = self.expression()
        self.take(";")
        return VarDecl(self.sid(), line, self.file, name, init)

    def if_stmt(self, line: int) -> Stmt:
        self.take("if")
        self.take("(")
        cond = self.expression()
        self.take(")")
        then_body = self.block()
        else_body: list[Stmt] = []
        if self.tok[0] == "else":
            self.take("else")
            else_body = self.block()
        return If(self.sid(), line, self.file, cond,
                  tuple(then_body), tuple(else_body))

    def while_stmt(self, line: int) -> Stmt:
        self.take("while")
        self.take("(")
        cond = self.expression()
        self.take(")")
        body = self.block()
        return While(self.sid(), line, self.file, cond, tuple(body))

    def string_literal(self, what: str) -> str:
        tok = self.tok
        if tok[0] != "string":
            raise self.error(tok, f"{what} must be a string literal")
        return self.unescape(self.take("string"))

    def unescape(self, tok: Token) -> str:
        """The value of string token `tok`; a bad escape is an error at
        its opening quote."""
        def unescape_one(m: re.Match) -> str:
            mapped = _ESCAPES.get(m.group(1))
            if mapped is None:
                raise self.error(tok, f"bad escape '\\{m.group(1)}'")
            return mapped

        return _ESCAPE_RE.sub(unescape_one, tok[1][1:-1])

    # -- expressions (precedence climbing over PRECEDENCE) --

    def expression(self) -> Expr:
        return self.binary(1)[0]

    # Each method below returns an expression with the depth of its
    # operator tree: 0 for a leaf.

    def binary(self, min_prec: int) -> tuple[Expr, int]:
        """An operand followed by binary operators of precedence at least
        `min_prec`; a right operand binds only tighter operators, so
        every level is left-associative."""
        left, depth = self.unary()
        while True:
            tok = self.tok
            prec = PRECEDENCE.get(tok[0], 0)
            if prec < min_prec:
                return left, depth
            self.take(tok[0])
            right, right_depth = self.binary(prec + 1)
            left, depth = Binary(tok[1], left, right), \
                1 + max(depth, right_depth)
            self.nest(tok, depth)

    def unary(self) -> tuple[Expr, int]:
        tok = self.tok
        if tok[0] == "-" or tok[0] == "!":
            self.enter(self.take(tok[0]))
            operand, depth = self.unary()
            self.depth -= 1
            return Unary(tok[1], operand), depth + 1
        return self.primary()

    def primary(self) -> tuple[Expr, int]:
        tok = self.tok
        kind = tok[0]
        if kind == "int":
            self.take("int")
            try:
                return IntLit(int(tok[1])), 0
            except ValueError:  # past Python's str-to-int digit limit
                raise self.error(tok, "integer literal too long") from None
        if kind == "string":
            return StrLit(self.unescape(self.take("string"))), 0
        if kind == "true" or kind == "false":
            self.take(kind)
            return BoolLit(kind == "true"), 0
        if kind == "ident":
            self.take("ident")
            if self.tok[0] == "(":
                raise self.error(tok, "calls are statements, not expressions")
            return Var(tok[1]), 0
        if kind == "(":
            self.enter(self.take("("))
            inner = self.binary(1)
            self.depth -= 1
            self.take(")")
            return inner
        raise self.error(tok, f"expected an expression, found "
                              f"'{tok[1] or 'eof'}'")


def _walk(body, out: list[Stmt]) -> list[Stmt]:
    """`out` extended by every statement of `body`, nested ones included,
    in source order."""
    for s in body:
        out.append(s)
        if isinstance(s, If):
            _walk(s.then_body, out)
            _walk(s.else_body, out)
        elif isinstance(s, While):
            _walk(s.body, out)
    return out


def _operands(s: Stmt) -> tuple[Expr, ...]:
    if isinstance(s, VarDecl):
        return () if s.init is None else (s.init,)
    if isinstance(s, (Assign, Print)):
        return (s.value,)
    if isinstance(s, (If, While)):
        return (s.cond,)
    return s.args if isinstance(s, Call) else ()


def _link(functions: list[FunctionDecl], model: EventModel) -> Program:
    """Walk each function body once, top-level last; resolve every name
    declared, read and written; check names, call arities and event
    operands; and record the event operation of every call the model
    classifies.  Each function's duplicate declarations are checked
    first, then its calls and names in statement order."""
    walked = [(f, _walk(f.body, [])) for f in functions]
    g = tuple(s.name for s in walked[-1][1] if isinstance(s, VarDecl))
    global_names = dict(zip(g, g))
    params: dict[str, tuple[str, ...]] = {}
    locs: dict[str, tuple[str, ...]] = {}
    visible: dict[str, dict[str, str]] = {}
    for f, stmts in walked:
        own = f.params + tuple(s.name for s in stmts if isinstance(s, VarDecl))
        qualified = g if f.name == TOP_LEVEL else \
            tuple(f"{f.name}.{n}" for n in own)
        params[f.name] = qualified[:len(f.params)]
        locs[f.name] = qualified[len(f.params):]
        visible[f.name] = {**global_names, **dict(zip(own, qualified))}
    scopes = Scopes(g, locs, params, visible)
    callees = {f.name: f.params for f in functions if f.name != TOP_LEVEL}
    events: dict = {}
    by_sid: dict = {}
    for f, stmts in walked:
        seen = set(f.params)
        for s in stmts:
            if isinstance(s, VarDecl):
                if s.name in seen:
                    raise EvlError(f"line {s.line}: variable '{s.name}' "
                                   f"declared twice in '{f.name}'")
                seen.add(s.name)
        names = visible[f.name]
        for s in stmts:
            skip = _check_call(s, callees, model, events) \
                if isinstance(s, Call) else ()
            try:
                reads = tuple([() if i in skip else
                               tuple(map(names.__getitem__, expr_vars(e)))
                               for i, e in enumerate(_operands(s))])
                # a declaration without an initializer writes nothing
                writes = names[s.name] \
                    if isinstance(s, (Assign, VarDecl)) and reads else None
            except KeyError as missing:
                raise EvlError(f"line {s.line}: variable '{missing.args[0]}' "
                               f"is not declared in '{f.name}'") from None
            by_sid[s.sid] = f.name, s, Access(writes, reads)
    return Program(tuple(functions), scopes, events, by_sid)


def _check_call(s: Call, declared: dict[str, tuple[str, ...]],
                model: EventModel, events: dict) -> tuple[int, ...]:
    """Check one call and, if the model classifies its callee, read the
    event name and the handler off the operands its spec names and record
    the call's event operation in `events`; returns the positions of its
    operands that are names, not reads."""
    if s.callee in declared:
        params = declared[s.callee]
        if len(s.args) != len(params):
            raise EvlError(f"line {s.line}: '{s.callee}' takes "
                           f"{len(params)} arguments, got {len(s.args)}")
        return ()
    spec = model.classify(s.callee)
    if spec is None:
        raise EvlError(f"line {s.line}: call to '{s.callee}' does not "
                       f"resolve to a declared function or a known event "
                       f"primitive")
    event_arg, handler_arg, implicit = spec
    if handler_arg is None:
        op = ("emit", _operand(s, event_arg, StrLit, "a string literal").value)
        positions = (event_arg,)
    else:
        handler = _operand(s, handler_arg, Var, "a function name").name
        event = synthetic_event(handler) if event_arg is None else \
            _operand(s, event_arg, StrLit, "a string literal").value
        if handler not in declared:
            raise EvlError(f"line {s.line}: handler '{handler}' is not a "
                           f"declared function")
        if declared[handler]:
            raise EvlError(f"line {s.line}: handler '{handler}' takes "
                           f"parameters; handlers take none")
        op = ("reg", event, handler, implicit)
        positions = (event_arg, handler_arg)
    events[s.sid] = op, positions
    return positions


def _operand(s: Call, pos: int, node_type, what: str):
    """The argument at `pos` of call `s`, which must be a `node_type`
    node."""
    if pos >= len(s.args) or not isinstance(s.args[pos], node_type):
        raise EventModelError(f"line {s.line}: '{s.callee}' needs "
                              f"{what} at argument {pos}")
    return s.args[pos]


def _assemble(units: list[tuple[list[FunctionDecl], list[Stmt]]],
              model: EventModel) -> Program:
    functions: list[FunctionDecl] = []
    top: list[Stmt] = []
    names: set[str] = set()
    for fns, stmts in units:
        for f in fns:
            if f.name in names or f.name == TOP_LEVEL:
                raise EvlError(f"function '{f.name}' is declared more than "
                               f"once")
            names.add(f.name)
            functions.append(f)
        top.extend(stmts)
    functions.append(FunctionDecl(TOP_LEVEL, (), tuple(top)))
    return _link(functions, model)


def parse(source: str, *, filename: str = "<input>", model=None) -> Program:
    """Parse one EVL source text into a validated program; `model`
    defaults to the built-in event model."""
    unit = _Parser(source, filename, next_sid=0).parse_unit()
    return _assemble([unit], model or EventModel.default())


def read_source(path) -> str:
    """The text of an EVL file; a file that cannot be read or is not UTF-8
    is an EvlError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise EvlError(f"{path}: not valid UTF-8 ({e.reason} at byte "
                       f"{e.start})") from e
    except FileNotFoundError as e:
        raise EvlError(f"no such file: {path}") from e
    except OSError as e:
        raise EvlError(f"{path}: cannot read ({e.strerror or e})") from e


def parse_files(paths, *, model=None) -> Program:
    """Parse several files into one program with a single top-level."""
    units = []
    next_sid = 0
    for path in paths:
        path = str(path)
        source = read_source(path)
        parser = _Parser(source, path, next_sid)
        units.append(parser.parse_unit())
        next_sid = parser.next_sid
    return _assemble(units, model or EventModel.default())
