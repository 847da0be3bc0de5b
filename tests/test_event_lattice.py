import itertools

from hypothesis import given, strategies as st

from evflow.event_lattice import (
    HState,
    MF_EMIT,
    MF_EMIT_REGISTER,
    MF_CLOSURE,
    MF_ID,
    MF_INVOKE,
    MF_REGISTER,
    Transformer,
    feasible,
    map_at_s,
    mf_apply,
    mf_compose,
    mf_leq,
    mf_meet,
    mf_pack,
    packed_compose,
    packed_leq,
    packed_meet,
    s_normal,
)

from helpers import (
    all_s,
    hmf_apply,
    hmf_compose,
    hmf_meet,
    hsm_meet,
    hstate_meet,
    mf_compose_def,
    mf_leq_def,
    mf_meet_def,
    packed,
    touched,
)

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


def test_feasible_is_no_handler_at_x_exhaustive():
    # every transformer over 0-3 handlers: 1 + 7 + 49 + 343 of them
    checked = 0
    for n in range(4):
        hs = tuple(f"h{i}" for i in range(n))
        for lanes in itertools.product(MF_CLOSURE, repeat=n):
            t = Transformer.of(hs, dict(zip(hs, lanes)))
            assert feasible(t) == (HState.X not in map_at_s(t, hs).values())
            checked += 1
    assert checked == 400


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
    # "everywhere" is every pair the generators can produce; the lane
    # tables are read through one-lane transformers
    for g, f in itertools.product(MF_CLOSURE, repeat=2):
        assert mf_compose(g, f) == mf_compose_def(g, f)
        assert mf_meet(g, f) == mf_meet_def(g, f)
        lanes = bytes([MF_CLOSURE.index(g)]), bytes([MF_CLOSURE.index(f)])
        assert MF_CLOSURE[packed_compose(*lanes)[0]] == mf_compose_def(g, f)
        assert MF_CLOSURE[packed_meet(*lanes)[0]] == mf_meet_def(g, f)


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


def test_hmf_identity_is_sparse():
    # the identity is lane value 0, so an identity entry is a zero byte
    assert MF_CLOSURE[0] == MF_ID
    f = packed(("a", "b"), {"a": MF_ID, "b": MF_REGISTER})
    assert f == bytes([0, MF_CLOSURE.index(MF_REGISTER)])
    assert touched(f, ("a", "b")) == {"b": MF_REGISTER}
    assert not f.is_identity()
    assert packed(("a",), {"a": MF_ID}) == bytes(1)
    assert packed(("a", "b"), {}).is_identity()


def test_hmf_door_walkthrough():
    handlers = ("h_close", "h_open")
    f = packed(handlers, {"h_open": MF_EMIT_REGISTER})
    assert map_at_s(f, handlers) == {"h_open": HState.E, "h_close": HState.S}
    g = packed_compose(packed(handlers, {"h_close": MF_INVOKE}), f)
    assert map_at_s(g, handlers) == {
        "h_open": HState.E, "h_close": HState.X}


HANDLERS = tuple("abcde")


@st.composite
def hmfs(draw, handlers=HANDLERS):
    """A packed transformer over `handlers`, every lane drawn from the
    closure."""
    return bytes(draw(st.lists(st.integers(0, len(MF_CLOSURE) - 1),
                               min_size=len(handlers),
                               max_size=len(handlers))))


@given(hmfs())
def test_hmf_identity_neutral(f):
    ident = bytes(len(HANDLERS))
    assert packed_compose(ident, f) == f
    assert packed_compose(f, ident) == f
    assert packed_meet(f, f) == f


@given(hmfs(), hmfs())
def test_hmf_ops_are_pointwise(f, g):
    comp = packed_compose(g, f)
    met = packed_meet(f, g)
    for i in range(len(HANDLERS)):
        assert MF_CLOSURE[comp[i]] == mf_compose(MF_CLOSURE[g[i]],
                                                 MF_CLOSURE[f[i]])
        assert MF_CLOSURE[met[i]] == mf_meet(MF_CLOSURE[f[i]],
                                             MF_CLOSURE[g[i]])


@given(hmfs(), hmfs())
def test_hmf_apply_commutes_with_compose(f, g):
    m = all_s(HANDLERS)
    assert map_at_s(packed_compose(g, f), HANDLERS) == hmf_apply(
        touched(g, HANDLERS), hmf_apply(touched(f, HANDLERS), m))


@given(hmfs(), hmfs(),
       st.fixed_dictionaries({h: st.sampled_from(STATES) for h in HANDLERS}))
def test_hmf_apply_distributes_over_meet(f, g, m):
    """Applying the meet of two transformers is the meet of applying
    each, so a solve may meet transformers and apply the result once."""
    tf, tg = touched(f, HANDLERS), touched(g, HANDLERS)
    assert hmf_apply(touched(packed_meet(f, g), HANDLERS), m) == \
        hsm_meet(hmf_apply(tf, m), hmf_apply(tg, m))


@st.composite
def packed_pairs(draw):
    handlers = tuple(f"h{i}" for i in range(draw(st.sampled_from((1, 3, 6, 40)))))
    return handlers, draw(hmfs(handlers)), draw(hmfs(handlers))


@given(packed_pairs())
def test_packed_operators_agree_lane_by_lane(pair):
    """At H = 1, 3, 6 and 40 lanes, packed compose, meet, order, S-normal
    form and map at S agree with the per-function tables in each lane
    and with the dict transformers of the test oracle."""
    handlers, f, g = pair
    comp, met = packed_compose(g, f), packed_meet(f, g)
    assert len(comp) == len(met) == len(handlers)
    hsm = map_at_s(f, handlers)
    for i, h in enumerate(handlers):
        fi, gi = MF_CLOSURE[f[i]], MF_CLOSURE[g[i]]
        assert MF_CLOSURE[comp[i]] == mf_compose(gi, fi)
        assert MF_CLOSURE[met[i]] == mf_meet(fi, gi)
        assert hsm[h] == mf_apply(fi, HState.S)
        assert mf_apply(MF_CLOSURE[s_normal(f)[i]], HState.S) == hsm[h]
    assert packed_leq(f, g) == all(
        mf_leq_def(MF_CLOSURE[a], MF_CLOSURE[b]) for a, b in zip(f, g))
    assert packed_leq(met, f) and packed_leq(met, g)
    tf, tg = touched(f, handlers), touched(g, handlers)
    assert touched(comp, handlers) == hmf_compose(tg, tf)
    assert touched(met, handlers) == hmf_meet(tf, tg)
    assert hsm == hmf_apply(tf, all_s(handlers))
    # normal forms are equal exactly where the maps at S are
    assert (s_normal(f) == s_normal(g)) == (hsm == map_at_s(g, handlers))


def test_order_table_is_the_definitional_order():
    for f, g in itertools.product(MF_CLOSURE, repeat=2):
        assert mf_leq(f, g) == mf_leq_def(f, g)
        lanes = bytes([MF_CLOSURE.index(f)]), bytes([MF_CLOSURE.index(g)])
        assert packed_leq(*lanes) == mf_leq_def(f, g)


def test_hsm_meet_pointwise():
    a = {"h1": HState.X, "h2": HState.E}
    b = {"h1": HState.R, "h2": HState.S}
    assert hsm_meet(a, b) == {"h1": HState.R, "h2": HState.E}


def test_pack_roundtrip():
    for f in range(256):
        assert mf_pack(*(mf_apply(f, s) for s in STATES)) == f
