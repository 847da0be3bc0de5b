from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from evflow.lang.ast import (
    Access,
    Assign,
    Binary,
    BoolLit,
    Call,
    If,
    IntLit,
    Print,
    Return,
    StrLit,
    TOP_LEVEL,
    Unary,
    Var,
    VarDecl,
    While,
)
from evflow.lang.parser import EvlError, ParseError, parse, parse_files, tokenize
from evflow.randgen import GenParams, gen_source

from conftest import CORPUS_NAMES, corpus_dir, load_corpus_entry
from helpers import iter_stmts


def test_single_var_decl():
    p = parse("var x;")
    body = p.top_level.body
    assert len(body) == 1
    assert isinstance(body[0], VarDecl)
    assert body[0].name == "x" and body[0].init is None
    assert len(p.functions) == 1 and p.functions[0].name == TOP_LEVEL


def test_assignment_builds_binary_tree():
    p = parse("var x; var y; var z; x = y + z;")
    assign = p.top_level.body[3]
    assert isinstance(assign, Assign)
    assert assign.value == Binary("+", Var("y"), Var("z"))


def test_door_program_structure(door):
    program, _ = door
    names = [f.name for f in program.functions]
    assert sorted(names) == sorted(["hdlOpen", "hdlClose", TOP_LEVEL])
    open_body = program.function("hdlOpen").body
    assert any(isinstance(s, Call) and s.callee == "register"
               and s.args[1] == Var("hdlClose") for s in open_body)


def test_precedence():
    p = parse("var a; var b; a = 1 + 2 * 3 < 4 == true && !false;")
    # each level groups tighter than the one before it, and `!` binds
    # tighter than `&&`
    product = Binary("*", IntLit(2), IntLit(3))
    less = Binary("<", Binary("+", IntLit(1), product), IntLit(4))
    assert p.top_level.body[2].value == Binary(
        "&&", Binary("==", less, BoolLit(True)), Unary("!", BoolLit(False)))


# The binary-operator grammar, loosest level first, spelled out here and
# not read from the parser's table, so a table whose levels are out of
# order fails.
LEVELS = (("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="),
          ("+", "-"), ("*", "/", "%"))


def _grouping_cases():
    """(source, tree) for operator pairs at adjacent levels, operator
    pairs within a level and unary operands."""
    a, b, c = Var("a"), Var("b"), Var("c")
    for lo_ops, hi_ops in zip(LEVELS, LEVELS[1:]):
        for lo in lo_ops:
            for hi in hi_ops:
                yield f"a {lo} b {hi} c", Binary(lo, a, Binary(hi, b, c))
                yield f"a {hi} b {lo} c", Binary(lo, Binary(hi, a, b), c)
                yield f"(a {lo} b) {hi} c", Binary(hi, Binary(lo, a, b), c)
    for ops in LEVELS:
        for first in ops:
            for second in ops:
                yield (f"a {first} b {second} c",
                       Binary(second, Binary(first, a, b), c))
                yield (f"a {first} (b {second} c)",
                       Binary(first, a, Binary(second, b, c)))
    for ops in LEVELS:
        for op in ops:
            for u in "-!":
                yield f"{u}a {op} b", Binary(op, Unary(u, a), b)
                yield f"a {op} {u}b", Binary(op, a, Unary(u, b))


def test_operator_grouping():
    """Adjacent levels nest tighter-inside, every level is
    left-associative and unary operators bind tighter than any binary
    one."""
    for source, tree in _grouping_cases():
        program = parse(f"var a; var b; var c; var x; x = {source};")
        assert program.top_level.body[4].value == tree, source


def test_comments_and_strings():
    p = parse('// heading\nvar s = "a\\"b\\n"; print(s); // trailing\n')
    decl = p.top_level.body[0]
    assert decl.init.value == 'a"b\n'


_UNRESOLVED = "does not resolve to a declared function or a known event primitive"

# (source, error type, its message)
REJECTS = [
    ("var x", ParseError, "<input>:1:6: expected ';', found 'eof'"),
    ("x = ;", ParseError, "<input>:1:5: expected an expression, found ';'"),
    ("x = 1;", EvlError, "line 1: variable 'x' is not declared in 'top-level'"),
    ("print(1 +);", ParseError,
     "<input>:1:10: expected an expression, found ')'"),
    ('register(open, f);', ParseError,
     "<input>:1:10: event name must be a string literal"),
    ("fn f() {} fn f() {}", EvlError,
     "function 'f' is declared more than once"),
    ("var x; var x;", EvlError,
     "line 1: variable 'x' declared twice in 'top-level'"),
    ("print(y);", EvlError,
     "line 1: variable 'y' is not declared in 'top-level'"),
    ("nosuch(1);", EvlError, f"line 1: call to 'nosuch' {_UNRESOLVED}"),
    ('register("e", nosuch);', EvlError,
     "line 1: handler 'nosuch' is not a declared function"),
    ("var x; x = f();", ParseError,
     "<input>:1:12: calls are statements, not expressions"),
    # two faults: a function's duplicates are checked before its reads,
    # each function before the next, and calls and reads in statement order
    ("fn f() { print(y); var x; var x; }", EvlError,
     "line 1: variable 'x' declared twice in 'f'"),
    ("fn f() { print(y); }\nfn g() { var x; var x; }", EvlError,
     "line 1: variable 'y' is not declared in 'f'"),
    ("fn f() { h(); print(y); }", EvlError,
     f"line 1: call to 'h' {_UNRESOLVED}"),
]


@pytest.mark.parametrize("source,error,message", REJECTS, ids=[
    f"{source}-{error.__name__}" for source, error, _ in REJECTS])
def test_rejects(source, error, message):
    with pytest.raises(error) as err:
        parse(source)
    assert str(err.value) == message


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("var x;\nvar y = @;")
    assert err.value.line == 2
    assert err.value.col >= 8


# One case per raise site: (source, line, column, message).  A column
# counts characters from 1, a tab and a `\r` included.
POSITIONS = [
    ("// note\nvar y = @;", 2, 9, "unexpected character '@'"),
    ("var x;\r\nvar y = @;", 2, 9, "unexpected character '@'"),
    ("var x;\n\tvar y = @;", 2, 10, "unexpected character '@'"),
    ("var x\n", 2, 1, "expected ';', found 'eof'"),
    ("var x", 1, 6, "expected ';', found 'eof'"),
    ("var x = " + "-" * 65 + "1;", 1, 73, "nesting deeper than 64 levels"),
    ("if (true) {\n" * 65 + "}", 65, 11, "nesting deeper than 64 levels"),
    ("var e;\nregister(e, h);", 2, 10,
     "event name must be a string literal"),
    ('var s;\ns = "a\\qb";', 2, 5, "bad escape '\\q'"),   # the opening quote
    ("var x;\nx = f();", 2, 5, "calls are statements, not expressions"),
    ("var x;\n  );", 2, 3, "expected a statement, found ')'"),
    ("fn f() {", 1, 9, "expected a statement, found 'eof'"),
    ("print(1 +);", 1, 10, "expected an expression, found ')'"),
    ("var x = 1 +\n", 2, 1, "expected an expression, found 'eof'"),
    pytest.param("var x;\nx = 1 + " + "9" * 5000 + ";", 2, 9,
                 "integer literal too long", id="integer-literal-too-long"),
]


@pytest.mark.parametrize("source,line,col,message", POSITIONS)
def test_parse_error_positions(source, line, col, message):
    with pytest.raises(ParseError) as err:
        parse(source, filename="p.evl")
    e = err.value
    assert (e.line, e.col, e.message, e.file) == (line, col, message, "p.evl")
    assert str(e) == f"p.evl:{line}:{col}: {message}"


def test_parse_error_in_a_later_file_counts_within_it(tmp_path):
    a = tmp_path / "a.evl"
    b = tmp_path / "b.evl"
    a.write_text("var x;\nvar y;\nvar z;\n")
    b.write_text("print(x);\n  x = @;\n")
    with pytest.raises(ParseError) as err:
        parse_files([a, b])
    e = err.value
    assert (e.file, e.line, e.col) == (str(b), 2, 7)
    assert str(e) == f"{b}:2:7: unexpected character '@'"


def _leading_text(s) -> str:
    """The text of a statement's first token."""
    if isinstance(s, Call):
        return s.callee
    if isinstance(s, Assign):
        return s.name
    return {"VarDecl": "var", "If": "if", "While": "while",
            "Return": "return", "Print": "print"}[type(s).__name__]


def assert_statement_lines(source, program):
    """Each statement's line is the line of its first token: the (line,
    text) pairs of the statements are those of the tokens that start
    one, a token after `;`, `{` or `}` or first, other than `fn`, `else`
    and `}`, with lines counted from the source's newlines."""
    starts = Counter()
    before = ";"
    for kind, text, offset in tokenize(source)[:-1]:
        if before in (";", "{", "}") and kind not in ("fn", "else", "}"):
            starts[source.count("\n", 0, offset) + 1, text] += 1
        before = kind
    got = Counter((s.line, _leading_text(s)) for f in program.functions
                  for s in iter_stmts(f.body))
    assert got == starts


# Edits that break a program at some position: stray characters, an
# unclosed string or comment, line ends, tabs and keywords out of place.
_INSERTS = ["@", '"', "\\", "\n", "\t", "\r\n", "(", ")", "{", "}", ";",
            ",", "=", "-", "!", "//", "var ", "fn ", "if ", "else ", "print",
            "emit", '"\\q"', "1", "x"]


@st.composite
def mutated_sources(draw):
    source = gen_source(f"pos:{draw(st.integers(0, 10**6))}",
                        GenParams(allow_while=True))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(source)))
        edit = draw(st.sampled_from(["delete", "insert", "cut"]))
        if edit == "delete":
            source = source[:i] + source[i + 1:]
        elif edit == "insert":
            source = source[:i] + draw(st.sampled_from(_INSERTS)) + source[i:]
        else:
            source = source[:i]
    return source


@settings(max_examples=150, deadline=None)
@given(mutated_sources())
def test_positions_lie_in_the_source(source):
    """A ParseError points into its source, at most one past the end of
    its line and never at a blank; a program that parses records each
    statement at the line of its first token."""
    try:
        program = parse(source)
    except ParseError as e:
        lines = source.split("\n")
        assert 1 <= e.line <= len(lines)
        text = lines[e.line - 1]
        assert 1 <= e.col <= len(text) + 1
        assert e.col > len(text) or not text[e.col - 1].isspace()
    except EvlError:
        pass
    else:
        assert_statement_lines(source, program)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_statement_lines(name):
    source = (corpus_dir() / f"{name}.evl").read_text(encoding="utf-8")
    assert_statement_lines(source, load_corpus_entry(name)[0])


@pytest.mark.parametrize("nest", [
    lambda n: "var x = " + "(" * (n - 1) + "1 + 1" + ")" * (n - 1) + ";",
    lambda n: "var x = " + "- " * n + "1;",
    lambda n: "var x = 1; var y = " + " + ".join(["x"] * (n + 1)) + ";",
    lambda n: "if (true) { " * n + "print(1);" + " }" * n,
    lambda n: "var x = 1;\n" + "if (true) { " * (n - 1) + "print(-x);" +
    " }" * (n - 1),
], ids=["parens", "unary", "sum", "ifs", "ifs-then-unary"])
def test_nesting_bound(nest):
    from evflow.lang.parser import MAX_NESTING
    parse(nest(MAX_NESTING))
    too_deep = nest(MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nesting deeper than") as err:
        parse(too_deep)
    assert err.value.line == too_deep.count("\n") + 1


def test_roundtrip_nested_control_flow():
    src = ("fn f() {\n"
           "  var y = 2 * (3 + 1);\n"
           "  if (y > 1) {\n"
           "    return;\n"
           "  }\n"
           "  print(y);\n"
           "}\n"
           "var x;\n"
           "x = 0;\n"
           "while (x < 3) {\n"
           "  if (x == 1) {\n"
           "    print(x);\n"
           "  } else {\n"
           "    x = x + 1;\n"
           "  }\n"
           "  x = x + 1;\n"
           "}\n"
           "f();\n")
    p = parse(src)
    decl, branch, show = p.function("f").body
    assert isinstance(decl, VarDecl) and decl.name == "y"
    assert decl.init == Binary("*", IntLit(2),
                               Binary("+", IntLit(3), IntLit(1)))
    assert isinstance(branch, If) and not branch.else_body
    assert [type(s) for s in branch.then_body] == [Return]
    assert isinstance(show, Print)
    kinds = [type(s) for s in p.top_level.body]
    assert kinds == [VarDecl, Assign, While, Call]
    loop = p.top_level.body[2]
    inner, step = loop.body
    assert isinstance(inner, If) and isinstance(step, Assign)
    assert [type(s) for s in inner.then_body] == [Print]
    assert [type(s) for s in inner.else_body] == [Assign]


def test_multi_file_concatenation(tmp_path):
    a = tmp_path / "a.evl"
    b = tmp_path / "b.evl"
    a.write_text("fn f() { print(1); }\nvar x;\n")
    b.write_text("f();\nprint(x);\n")
    p = parse_files([a, b])
    assert p.has_function("f")
    kinds = [type(s).__name__ for s in p.top_level.body]
    assert kinds == ["VarDecl", "Call", "Print"]
    files = {s.file for s in p.top_level.body}
    assert files == {str(a), str(b)}


def test_register_async_extra_args():
    p = parse("fn h() { print(1); }\nvar d;\nregister_async(h, d + 1, 2);")
    stmt = p.top_level.body[1]
    assert stmt.args[0] == Var("h")
    assert len(stmt.args) == 3


@pytest.mark.parametrize("escaped,event", [
    ('a\\"b', 'a"b'), ("a\\\\b", "a\\b"), ("a\\nb", "a\nb")])
def test_event_names_are_unescaped(escaped, event):
    program = parse(f'fn h() {{ print(1); }}\nregister("{escaped}", h);\n'
                    f'emit("{escaped}");\n')
    register, emit = program.top_level.body
    assert register.args == (StrLit(event), Var("h"))
    assert emit.args == (StrLit(event),)


@pytest.mark.parametrize("source", [
    "fn emit() { print(1); }",
    "var register;",
    'emit("e", 1);',
    'fn h() { print(1); }\nregister("e", h, 1);',
])
def test_event_primitives_keep_their_syntax(source):
    with pytest.raises(ParseError):
        parse(source)


@pytest.mark.parametrize("source,message", [
    ('fn h(a) {\n  print(a);\n}\nregister("e", h);\nemit("e");\n',
     "line 4: handler 'h' takes parameters; handlers take none"),
    ("fn f(a, b) {\n  print(a);\n}\nvar x = 1;\nf(x);\n",
     "line 5: 'f' takes 2 arguments, got 1"),
], ids=["handler-parameter", "arity"])
def test_calls_that_no_run_can_bind_are_rejected(source, message):
    with pytest.raises(EvlError) as err:
        parse(source)
    assert str(err.value) == message


def test_scope_resolution():
    p = parse("fn f(a) { var b; b = a; g = b; }\nvar g;\nf(g);")
    sc = p.scopes
    assert sc.globals == ("g",)
    assert sc.qualify("f", "a") == "f.a"
    assert sc.qualify("f", "b") == "f.b"
    assert sc.qualify("f", "g") == "g"
    assert sc.qualify(TOP_LEVEL, "g") == "g"
    assert set(sc.all_facts()) == {"g", "f.a", "f.b"}


def test_statement_access():
    """Each statement's resolved write and per-operand reads; the
    event-name and handler operands of an event call read nothing."""
    p = parse("fn f(a) { var b; b = a + g + a; g = b; }\nvar g = 1;\n"
              "f(g);\nregister(\"e\", h);\nfn h() { var c = c; }")
    got = [(f.name, p.access(s.sid)) for f in p.functions for s in f.body]
    assert got == [
        ("f", Access(None, ())),
        ("f", Access("f.b", (("f.a", "g"),))),
        ("f", Access("g", (("f.b",),))),
        ("h", Access("h.c", (("h.c",),))),
        (TOP_LEVEL, Access("g", ((),))),
        (TOP_LEVEL, Access(None, (("g",),))),
        (TOP_LEVEL, Access(None, ((), ()))),
    ]


def test_local_shadows_global():
    p = parse("fn f() { var g; print(g); }\nvar g;\nf();")
    sc = p.scopes
    assert sc.qualify("f", "g") == "f.g"
