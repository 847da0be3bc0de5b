"""No pathological program shape ends in a traceback: deep nesting up to
and past the parser's bound, long handler chains, self-recursion, empty
handlers and one handler registered for many events all go through
`evflow diff` with an exit status of 0, 1 or 2, and through the oracle's
`check_program` with either a clean result or an input error."""

from hypothesis import HealthCheck, given, settings, strategies as st

from evflow import cli
from evflow.eventmodel import EventModel, EventModelError
from evflow.lang.parser import MAX_NESTING, EvlError


def _nested(kind: str, depth: int, p: str) -> str:
    if kind == "ifs":
        return (f"if ({p}x < 1) {{ " * depth + f"print({p}x);" +
                " }" * depth + "\n")
    if kind == "whiles":
        return (f"while ({p}x < 1) {{ " * depth + f"{p}x = 1;" +
                " }" * depth + "\n")
    if kind == "parens":
        return f"{p}x = " + "(" * depth + f"{p}x + 1" + ")" * depth + ";\n"
    return f"{p}x = " + "-" * depth + f"{p}x;\n"   # unary operators


def _chain(n: int, p: str) -> str:
    out = []
    for i in range(n):
        out.append(f"fn {p}h{i}() {{ {p}x = {p}x + {i};")
        if i + 1 < n:
            out.append(f'  register("{p}e{i + 1}", {p}h{i + 1}); '
                       f'emit("{p}e{i + 1}");')
        out.append("}")
    out.append(f'register("{p}e0", {p}h0); emit("{p}e0");')
    return "\n".join(out) + "\n"


def _self_recursion(kind: str, p: str) -> str:
    if kind == "call":
        return f"fn {p}f() {{ print({p}x); {p}f(); }}\n{p}f();\n"
    # a handler that registers itself again and emits its own event
    return (f'fn {p}h() {{ print({p}x); register("{p}e", {p}h); '
            f'emit("{p}e"); }}\nregister("{p}e", {p}h); emit("{p}e");\n')


def _empty_handlers(n: int, p: str) -> str:
    out = [f"fn {p}h{i}() {{ }}" for i in range(n)]
    out += [f'register("{p}e{i}", {p}h{i}); emit("{p}e{i}");'
            for i in range(n)]
    return "\n".join(out) + "\n"


def _many_events(n: int, p: str) -> str:
    out = [f"fn {p}h() {{ print({p}x); {p}x = 1; }}"]
    out += [f'register("{p}e{i}", {p}h);' for i in range(n)]
    out += [f'emit("{p}e{i}");' for i in range(n)]
    return "\n".join(out) + "\n"


SHAPES = st.one_of(
    st.builds(lambda k, d: (_nested, k, d),
              st.sampled_from(("ifs", "whiles", "parens", "unary")),
              st.one_of(st.integers(1, 8),
                        st.integers(MAX_NESTING - 4, MAX_NESTING + 4))),
    st.builds(lambda n: (_chain, n), st.integers(1, 40)),
    st.builds(lambda k: (_self_recursion, k),
              st.sampled_from(("call", "event"))),
    st.builds(lambda n: (_empty_handlers, n), st.integers(1, 12)),
    st.builds(lambda n: (_many_events, n), st.integers(1, 30)),
)


def _program(parts) -> str:
    """Each part gets its own name prefix and its own global `x`, which
    starts uninitialized half the time."""
    out = []
    for i, ((build, *args), init) in enumerate(parts):
        p = f"p{i}_"
        out.append(f"var {p}x{' = 0' if init else ''};\n")
        out.append(build(*args, p))
    return "".join(out)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(SHAPES, st.booleans()), min_size=1, max_size=3))
def test_pathological_shapes_never_crash(tmp_path, capsys, parts):
    source = _program(parts)
    f = tmp_path / "shape.evl"
    f.write_text(source)
    status = cli.main(["diff", str(f)])
    captured = capsys.readouterr()
    assert status in (cli.EXIT_CLEAN, cli.EXIT_DIAGNOSTICS, cli.EXIT_ERROR)
    assert "internal error" not in captured.err, (captured.err, source)
    try:
        violations = cli.check_program(source, EventModel.default(), 4)
    except (EvlError, EventModelError):
        assert status == cli.EXIT_ERROR, source
    else:
        assert status != cli.EXIT_ERROR, (captured.out, source)
        assert violations == [], (violations, source)
