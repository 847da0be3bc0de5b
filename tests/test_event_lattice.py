import itertools

from hypothesis import given, strategies as st

from evflow.event_lattice import (
    HMF_ID,
    HState,
    HandlerMicroFn,
    MF_EMIT,
    MF_EMIT_REGISTER,
    MF_CLOSURE,
    MF_ID,
    MF_INVOKE,
    MF_REGISTER,
    all_s,
    hmf_apply,
    hmf_compose,
    hmf_meet,
    hstate_meet,
    mf_apply,
    mf_compose,
    mf_format,
    mf_meet,
    mf_pack,
)

from helpers import hsm_meet, mf_compose_def, mf_meet_def

STATES = (HState.X, HState.S, HState.R, HState.E)


def test_chain_order_and_meet():
    assert HState.X > HState.S > HState.R > HState.E
    assert hstate_meet(HState.X, HState.R) == HState.R
    assert hstate_meet(HState.E, HState.E) == HState.E
    assert hstate_meet(HState.S, HState.E) == HState.E


def test_bit_encoding():
    assert HState.X == 0b11 and HState.S == 0b10
    assert HState.R == 0b01 and HState.E == 0b00
    assert MF_ID == 0b11_10_01_00


def test_generator_tables():
    # register: S->R, R->R, E->E, X->X
    assert [mf_apply(MF_REGISTER, s) for s in STATES] == [
        HState.X, HState.R, HState.R, HState.E]
    # emit: S->S, R->E, E->E, X->X
    assert [mf_apply(MF_EMIT, s) for s in STATES] == [
        HState.X, HState.S, HState.E, HState.E]
    # invoke: only E survives
    assert [mf_apply(MF_INVOKE, s) for s in STATES] == [
        HState.X, HState.X, HState.X, HState.E]
    assert [mf_apply(MF_ID, s) for s in STATES] == list(STATES)


def test_feasible_and_infeasible_compositions():
    full = mf_compose(MF_INVOKE, mf_compose(MF_EMIT, MF_REGISTER))
    assert mf_apply(full, HState.S) == HState.E
    assert mf_apply(mf_compose(MF_INVOKE, MF_REGISTER), HState.S) == HState.X
    assert mf_apply(MF_EMIT_REGISTER, HState.S) == HState.E


def _generated_closure() -> set[int]:
    """The generators closed under the definitional operators."""
    generated = {MF_ID, MF_REGISTER, MF_EMIT, MF_INVOKE}
    while True:
        new = {op(a, b) for op in (mf_compose_def, mf_meet_def)
               for a in generated for b in generated}
        if new <= generated:
            return generated
        generated |= new


def test_closure_has_seven_functions():
    assert set(MF_CLOSURE) == _generated_closure()
    assert len(MF_CLOSURE) == 7
    assert MF_EMIT_REGISTER in MF_CLOSURE


def test_tabulated_equals_definitional_everywhere():
    # "everywhere" is every pair the generators can produce
    for g in MF_CLOSURE:
        for f in MF_CLOSURE:
            assert mf_compose(g, f) == mf_compose_def(g, f)
            assert mf_meet(g, f) == mf_meet_def(g, f)


def test_meet_properties_exhaustive():
    for f in MF_CLOSURE:
        assert mf_meet(f, f) == f
        for g in MF_CLOSURE:
            assert mf_meet(f, g) == mf_meet(g, f)


def test_compose_associative_sampled():
    # the sample is the whole closure: all 7^3 triples
    for f, g, h in itertools.product(MF_CLOSURE, repeat=3):
        assert mf_compose(h, mf_compose(g, f)) == mf_compose(mf_compose(h, g), f)


def test_meet_associative_sampled():
    # the sample is the whole closure: all 7^3 triples
    for f, g, h in itertools.product(MF_CLOSURE, repeat=3):
        assert mf_meet(f, mf_meet(g, h)) == mf_meet(mf_meet(f, g), h)


def _is_monotone(f: int) -> bool:
    for a in STATES:
        for b in STATES:
            if a <= b and not mf_apply(f, a) <= mf_apply(f, b):
                return False
    return True


def test_generated_set_closed_and_monotone():
    assert all(_is_monotone(f) for f in MF_CLOSURE)
    for f in MF_CLOSURE:
        for g in MF_CLOSURE:
            assert mf_compose(g, f) in MF_CLOSURE
            assert mf_meet(f, g) in MF_CLOSURE


def test_generated_functions_distribute_over_meet():
    for f in MF_CLOSURE:
        for a in STATES:
            for b in STATES:
                lhs = mf_apply(f, hstate_meet(a, b))
                rhs = hstate_meet(mf_apply(f, a), mf_apply(f, b))
                assert lhs == rhs


def test_mf_format():
    assert "X,R,R,E" in mf_format(MF_REGISTER)
    assert mf_format(MF_ID).endswith("⟨X,S,R,E⟩")


def test_hmf_identity_is_sparse():
    f = HandlerMicroFn({"a": MF_ID, "b": MF_REGISTER})
    assert len(f) == 1
    assert f.mf_for("a") == MF_ID
    assert f.mf_for("missing") == MF_ID
    assert HandlerMicroFn({"a": MF_ID}) == HMF_ID


def test_hmf_door_walkthrough():
    handlers = ("h_close", "h_open")
    f = HandlerMicroFn({"h_open": MF_EMIT_REGISTER})
    state = hmf_apply(f, all_s(handlers))
    assert state == {"h_open": HState.E, "h_close": HState.S}
    g = hmf_compose(HandlerMicroFn({"h_close": MF_INVOKE}), f)
    assert hmf_apply(g, all_s(handlers)) == {
        "h_open": HState.E, "h_close": HState.X}


@st.composite
def hmfs(draw):
    handlers = draw(st.lists(st.sampled_from("abcde"), unique=True, max_size=5))
    return HandlerMicroFn({
        h: draw(st.sampled_from(MF_CLOSURE)) for h in handlers})


@given(hmfs())
def test_hmf_identity_neutral(f):
    assert hmf_compose(HMF_ID, f) == f
    assert hmf_compose(f, HMF_ID) == f


@given(hmfs(), hmfs())
def test_hmf_ops_are_pointwise(f, g):
    comp = hmf_compose(g, f)
    met = hmf_meet(f, g)
    for h in "abcde":
        assert comp.mf_for(h) == mf_compose(g.mf_for(h), f.mf_for(h))
        assert met.mf_for(h) == mf_meet(f.mf_for(h), g.mf_for(h))


@given(hmfs(), hmfs())
def test_hmf_apply_commutes_with_compose(f, g):
    m = all_s("abcde")
    assert hmf_apply(hmf_compose(g, f), m) == hmf_apply(g, hmf_apply(f, m))


@given(hmfs(), hmfs(),
       st.fixed_dictionaries({h: st.sampled_from(STATES) for h in "abcde"}))
def test_hmf_apply_distributes_over_meet(f, g, m):
    """Applying the meet of two transformers is the meet of applying
    each, so a solve may meet transformers and apply the result once."""
    assert hmf_apply(hmf_meet(f, g), m) == \
        hsm_meet(hmf_apply(f, m), hmf_apply(g, m))


def test_hsm_meet_pointwise():
    a = {"h1": HState.X, "h2": HState.E}
    b = {"h1": HState.R, "h2": HState.S}
    assert hsm_meet(a, b) == {"h1": HState.R, "h2": HState.E}


def test_pack_roundtrip():
    for f in range(256):
        assert mf_pack(*(mf_apply(f, s) for s in STATES)) == f
