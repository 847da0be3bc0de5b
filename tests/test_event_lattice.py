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
    packed_compose,
    packed_leq,
    packed_meet,
    s_normal,
)

from helpers import (
    EMIT_IMAGES,
    INVOKE_IMAGES,
    REGISTER_IMAGES,
    all_s,
    closure_def,
    compose_def,
    hmf_apply,
    hmf_compose,
    hmf_meet,
    hsm_meet,
    hstate_meet,
    image,
    leq_def,
    meet_def,
    packed,
    touched,
)

STATES = (HState.X, HState.S, HState.R, HState.E)


def meet(f: int, g: int) -> int:
    """The meet of two chain functions, read off a one-lane
    transformer."""
    return packed_meet(bytes([f]), bytes([g]))[0]


def test_chain_order_and_meet():
    assert HState.X > HState.S > HState.R > HState.E
    assert hstate_meet(HState.X, HState.R) == HState.R
    assert hstate_meet(HState.E, HState.E) == HState.E
    assert hstate_meet(HState.S, HState.E) == HState.E


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
    assert (image(MF_REGISTER), image(MF_EMIT), image(MF_INVOKE)) == (
        REGISTER_IMAGES, EMIT_IMAGES, INVOKE_IMAGES)


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


def test_closure_has_seven_functions():
    assert {image(f) for f in MF_CLOSURE} == closure_def()
    assert len(MF_CLOSURE) == 7 and MF_CLOSURE == tuple(range(7))
    assert image(MF_EMIT_REGISTER) == compose_def(EMIT_IMAGES,
                                                   REGISTER_IMAGES)


def test_tabulated_equals_definitional_everywhere():
    # "everywhere" is every pair the generators can produce; the lane
    # tables are read through one-lane transformers
    for g, f in itertools.product(MF_CLOSURE, repeat=2):
        assert image(mf_compose(g, f)) == compose_def(image(g), image(f))
        lanes = bytes([g]), bytes([f])
        assert packed_compose(*lanes)[0] == mf_compose(g, f)
        assert image(packed_meet(*lanes)[0]) == meet_def(image(g), image(f))


def test_meet_properties_exhaustive():
    for f in MF_CLOSURE:
        assert meet(f, f) == f
        for g in MF_CLOSURE:
            assert meet(f, g) == meet(g, f)


def test_compose_associative_sampled():
    # the sample is the whole closure: all 7^3 triples
    for f, g, h in itertools.product(MF_CLOSURE, repeat=3):
        assert mf_compose(h, mf_compose(g, f)) == mf_compose(mf_compose(h, g), f)


def test_meet_associative_sampled():
    # the sample is the whole closure: all 7^3 triples
    for f, g, h in itertools.product(MF_CLOSURE, repeat=3):
        assert meet(f, meet(g, h)) == meet(meet(f, g), h)


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
            assert meet(f, g) in MF_CLOSURE


def test_generated_functions_distribute_over_meet():
    for f in MF_CLOSURE:
        for a in STATES:
            for b in STATES:
                lhs = mf_apply(f, hstate_meet(a, b))
                rhs = hstate_meet(mf_apply(f, a), mf_apply(f, b))
                assert lhs == rhs


def test_hmf_identity_is_sparse():
    # the identity is lane value 0, so an identity entry is a zero byte
    assert MF_ID == 0
    f = packed(("a", "b"), {"a": MF_ID, "b": MF_REGISTER})
    assert f == bytes([0, MF_REGISTER])
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
        assert comp[i] == mf_compose(g[i], f[i])
        assert met[i] == meet(f[i], g[i])


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
        assert comp[i] == mf_compose(g[i], f[i])
        assert image(met[i]) == meet_def(image(f[i]), image(g[i]))
        assert hsm[h] == mf_apply(f[i], HState.S)
        assert mf_apply(s_normal(f)[i], HState.S) == hsm[h]
    assert packed_leq(f, g) == all(
        leq_def(image(a), image(b)) for a, b in zip(f, g))
    assert packed_leq(met, f) and packed_leq(met, g)
    tf, tg = touched(f, handlers), touched(g, handlers)
    assert touched(comp, handlers) == hmf_compose(tg, tf)
    assert touched(met, handlers) == hmf_meet(tf, tg)
    assert hsm == hmf_apply(tf, all_s(handlers))
    # normal forms are equal exactly where the maps at S are
    assert (s_normal(f) == s_normal(g)) == (hsm == map_at_s(g, handlers))


def test_order_table_is_the_definitional_order():
    for f, g in itertools.product(MF_CLOSURE, repeat=2):
        assert packed_leq(bytes([f]), bytes([g])) == leq_def(image(f),
                                                            image(g))


def test_hsm_meet_pointwise():
    a = {"h1": HState.X, "h2": HState.E}
    b = {"h1": HState.R, "h2": HState.S}
    assert hsm_meet(a, b) == {"h1": HState.R, "h2": HState.E}
