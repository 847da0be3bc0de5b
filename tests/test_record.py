"""The semantics of `evflow.record` that the analysis relies on: the
`dataclasses` behaviour its records had, pinned on the classes that use
it."""

import pytest

from evflow.cli import RunConfig
from evflow.lang.parser import parse
from evflow.lang.ast import Assign, IntLit, Program, StrLit, Var
from evflow.lang.interp import ExecutionTrace, HandlerInvoked, Output
from evflow.randgen import GenParams
from evflow.record import FrozenInstanceError, field, record
from evflow.supergraph import Edge, EdgeKind


def test_equality_is_type_aware():
    assert Output("h") != HandlerInvoked("h")
    assert Var("x") != StrLit("x")
    assert Output("h") == Output("h")
    assert Var("x") != Var("y")


def test_a_subclass_instance_is_not_equal():
    class Named(Var):
        pass

    assert Var("x") != Named("x")
    assert Named("x") != Var("x")


def test_frozen_records_reject_assignment_and_deletion():
    v = Var("x")
    with pytest.raises(FrozenInstanceError):
        v.name = "y"
    with pytest.raises(AttributeError):
        del v.name
    with pytest.raises(AttributeError):
        v.other = 1
    assert v.name == "x"


def test_equal_frozen_records_hash_equal():
    a = Edge(3, "a", "b", EdgeKind.CALL, ret_site="r")
    b = Edge(3, "a", "b", EdgeKind.CALL, "r")
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Edge(3, "a", "b", EdgeKind.CALL)}) == 2
    assert hash(Var("x")) == hash(("x",))


def test_mutable_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(ExecutionTrace())
    cfg = RunConfig(["a.evl"])
    cfg.mode = "ide"
    assert cfg == RunConfig(["a.evl"], mode="ide")


def test_program_equality_ignores_what_the_parser_resolved():
    p = parse("var x; x = 1; print(x);")
    same = Program(p.functions, scopes=None, events={1: None}, _by_sid={})
    assert same == p and hash(same) == hash(p)
    assert repr(same) == f"Program(functions={p.functions!r})"
    assert same.top_level is p.top_level
    assert Program(p.functions[:0], p.scopes, p.events, {}) != p


def test_default_factories_build_one_value_per_record():
    a, b = ExecutionTrace(), ExecutionTrace()
    a.events.append(Output("x"))
    assert b.events == [] and a.decision_arity is not b.decision_arity
    assert ExecutionTrace([Output("y")]).events == [Output("y")]


def test_fields_bind_in_order_header_first():
    s = Assign(4, 2, "a.evl", "x", IntLit(1))
    assert (s.sid, s.line, s.file, s.name, s.value) == \
        (4, 2, "a.evl", "x", IntLit(1))
    assert s == Assign(sid=4, line=2, file="a.evl", name="x",
                       value=IntLit(1))
    assert repr(s) == ("Assign(sid=4, line=2, file='a.evl', name='x', "
                       "value=IntLit(value=1))")
    with pytest.raises(TypeError):
        Assign(4, 2, "a.evl", "x")


def test_defaults():
    assert GenParams() == GenParams(3, 2, 20, False)
    assert GenParams(allow_while=True).allow_while
    assert RunConfig(["a.evl"]).mode == "diff"


def test_options_post_init_and_inherited_fields():
    seen = []

    @record(frozen=True)
    class Base:
        key: int
        hidden: list = field(default_factory=list, compare=False,
                             repr=False)

        def __post_init__(self):
            seen.append(self.key)

    @record(frozen=True)
    class Sub(Base):
        extra: str = "e"

    s = Sub(1)
    assert (s.key, s.hidden, s.extra, seen) == (1, [], "e", [1])
    assert s == Sub(1, [2]) != Sub(1, [], "f")
    assert repr(s).endswith(".<locals>.Sub(key=1, extra='e')")
    assert "hidden" not in vars(Base) and Sub.extra == "e"
