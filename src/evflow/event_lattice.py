"""Event-handler state lattice and its transformers.

A handler moves through a four-state chain: S (not yet registered), R
(registered, event not yet emitted), E (event emitted after registration)
and X (infeasible: invoked too early).  The chain is ordered
X > S > R > E and meet is the minimum, so X acts as "unreachable" and E
as "every ordering constraint satisfied".

A function over the chain is total and packs into one byte, two bits per
output value.  Registration, emission and invocation, closed under
composition and meet together with the identity, give only seven such
functions (`MF_CLOSURE`).  A transformer maps each handler of a program
by one of them: it is a `bytes` with one byte, or lane, per handler,
holding the function's index in `MF_CLOSURE`; `Transformer.of` builds
one from a {handler: chain function} map, and no other module reads the
lane values.  An index fits in three
bits, so one transformer shifted three bits up and or-ed with another
holds each pair of lanes in one byte, with no carry between lanes, and
one `bytes.translate` through a 256-entry table built at import
composes or meets every lane at once.
"""

from __future__ import annotations

from enum import IntEnum


class HState(IntEnum):
    """Abstract state of one event handler.

    The 2-bit encoding makes the chain meet an unsigned min.
    """

    E = 0b00
    R = 0b01
    S = 0b10
    X = 0b11

    def __str__(self) -> str:
        return self.name


def mf_pack(fx: HState, fs: HState, fr: HState, fe: HState) -> int:
    """Pack the four output values of a chain function into one byte."""
    return (fx << 6) | (fs << 4) | (fr << 2) | fe


_HSTATES = (HState.E, HState.R, HState.S, HState.X)  # indexed by bit value


def mf_apply(f: int, s: HState) -> HState:
    """Look up f(s) in the packed table."""
    return _HSTATES[(f >> (2 * s)) & 0b11]


# The identity and the three generators.
MF_ID = mf_pack(HState.X, HState.S, HState.R, HState.E)
MF_REGISTER = mf_pack(HState.X, HState.R, HState.R, HState.E)
MF_EMIT = mf_pack(HState.X, HState.S, HState.E, HState.E)
MF_INVOKE = mf_pack(HState.X, HState.X, HState.X, HState.E)

_STATES = (HState.X, HState.S, HState.R, HState.E)


def mf_compose(g: int, f: int) -> int:
    """g after f."""
    return mf_pack(*(mf_apply(g, mf_apply(f, s)) for s in _STATES))


def mf_meet(f: int, g: int) -> int:
    """Pointwise meet."""
    return mf_pack(*(min(mf_apply(f, s), mf_apply(g, s)) for s in _STATES))


def _close_generators() -> tuple[int, ...]:
    """The identity and the generators closed under composition and
    meet, the identity first."""
    fns = {MF_ID, MF_REGISTER, MF_EMIT, MF_INVOKE}
    while True:
        more = {op(a, b) for op in (mf_compose, mf_meet)
                for a in fns for b in fns}
        if more <= fns:
            return (MF_ID, *sorted(fns - {MF_ID}))
        fns |= more


# Every chain function the generators can produce; seven of them.
MF_CLOSURE = _close_generators()
_INDEX = {f: i for i, f in enumerate(MF_CLOSURE)}     # function -> lane value


def _lane_table(lane) -> bytes:
    """A `bytes.translate` table sending byte (a << 3) | b to
    lane(MF_CLOSURE[a], MF_CLOSURE[b])."""
    n = len(MF_CLOSURE)
    return bytes(lane(MF_CLOSURE[ab >> 3], MF_CLOSURE[ab & 7])
                 if ab >> 3 < n and ab & 7 < n else 0 for ab in range(256))


_COMPOSE_T = _lane_table(lambda g, f: _INDEX[mf_compose(g, f)])
_MEET_T = _lane_table(lambda f, g: _INDEX[mf_meet(f, g)])


def mf_leq(f: int, g: int) -> bool:
    """Pointwise order: f(s) below-or-equal g(s) for all four states."""
    return all(mf_apply(f, s) <= mf_apply(g, s) for s in _STATES)


MF_EMIT_REGISTER = mf_compose(MF_EMIT, MF_REGISTER)
# the pointwise order on its own, so that a descent check does not test
# the meet with the meet
_LEQ_T = _lane_table(mf_leq)
# lane -> its image of S, as an HState value
_AT_S_T = bytes(mf_apply(f, HState.S) for f in MF_CLOSURE).ljust(256, b"\0")
# lane -> the closure function that sends S where the lane does
_VIA_S = {HState.S: MF_ID, HState.R: MF_REGISTER, HState.E: MF_EMIT_REGISTER,
          HState.X: MF_INVOKE}
_S_NORMAL_T = bytes(_INDEX[_VIA_S[mf_apply(f, HState.S)]]
                    for f in MF_CLOSURE).ljust(256, b"\0")


class Transformer(bytes):
    """A transformer over a program's handlers, lane i for its i-th
    handler; the identity is all zero bytes."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int) -> Transformer:
        """The identity over `n` handlers."""
        return cls(n)

    @classmethod
    def of(cls, handlers: tuple[str, ...], fns: dict[str, int]) -> Transformer:
        """Each handler mapped by its chain function in `fns`, by the
        identity where `fns` has none."""
        return cls(_INDEX[fns.get(h, MF_ID)] for h in handlers)

    def is_identity(self) -> bool:
        return not any(self)


def entries(f: bytes) -> int:
    """How many handlers `f` maps by something other than the identity."""
    return len(f) - f.count(0)


def _lanes(a: bytes, b: bytes) -> bytes:
    """Lane i of `a` in bits 3-5 and lane i of `b` in bits 0-2 of byte i."""
    return ((int.from_bytes(a, "big") << 3)
            | int.from_bytes(b, "big")).to_bytes(len(b), "big")


def packed_compose(g: bytes, f: bytes) -> bytes:
    """g after f, lane by lane."""
    return _lanes(g, f).translate(_COMPOSE_T)


def packed_meet(f: bytes, g: bytes) -> bytes:
    """Pointwise meet, lane by lane."""
    return _lanes(f, g).translate(_MEET_T)


def packed_leq(f: bytes, g: bytes) -> bool:
    """Pointwise order: every lane of f below-or-equal g's."""
    return 0 not in _lanes(f, g).translate(_LEQ_T)


def s_normal(f: bytes) -> bytes:
    """The transformer that sends S where `f` does, lane by lane, and
    is one of the identity, register, emit after register and invoke;
    two transformers have the same normal form exactly when they give
    the same handler-state map from the all-S entry."""
    return f.translate(_S_NORMAL_T)


def feasible(f: bytes) -> bool:
    """Whether `f` sends no handler from S to X, that is, whether the
    map it gives the entry map leaves every handler feasible."""
    return HState.X not in f.translate(_AT_S_T)


def map_at_s(f: bytes, handlers: tuple[str, ...]) -> dict[str, HState]:
    """The handler-state map that `f` gives the entry map, every handler
    in S."""
    return dict(zip(handlers, map(_HSTATES.__getitem__, f.translate(_AT_S_T))))
