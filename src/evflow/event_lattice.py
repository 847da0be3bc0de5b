"""Event-handler state lattice and its micro-function algebra.

A handler moves through a four-state chain: S (not yet registered), R
(registered, event not yet emitted), E (event emitted after registration)
and X (infeasible: invoked too early).  The chain is ordered
X > S > R > E and meet is the minimum, so X acts as "unreachable" and E
as "every ordering constraint satisfied".

A function over the chain is total and packs into one byte, two bits per
output value.  Registration, emission and invocation, closed under
composition and meet together with the identity, give only seven such
functions, so both operators are served from 7x7 tables built at import.
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


def hstate_meet(a: HState, b: HState) -> HState:
    """Meet on the chain X > S > R > E: the lower of the two states."""
    return min(a, b)


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


def _close_generators() -> tuple[tuple[int, ...], dict[int, int], dict[int, int]]:
    """Close the identity and the generators under composition and meet,
    and tabulate both operators over the closure, keyed `(g << 8) | f`."""

    def compose(g: int, f: int) -> int:
        return mf_pack(*(mf_apply(g, mf_apply(f, s)) for s in _STATES))

    def meet(f: int, g: int) -> int:
        return mf_pack(*(hstate_meet(mf_apply(f, s), mf_apply(g, s))
                         for s in _STATES))

    fns = {MF_ID, MF_REGISTER, MF_EMIT, MF_INVOKE}
    while True:
        more = {op(a, b) for op in (compose, meet) for a in fns for b in fns}
        if more <= fns:
            break
        fns |= more
    return (tuple(sorted(fns)),
            {(g << 8) | f: compose(g, f) for g in fns for f in fns},
            {(g << 8) | f: meet(g, f) for g in fns for f in fns})


# Every chain function the generators can produce; seven of them.
MF_CLOSURE, _COMPOSE, _MEET = _close_generators()


def mf_compose(g: int, f: int) -> int:
    """g after f, for g and f in MF_CLOSURE."""
    return _COMPOSE[(g << 8) | f]


def mf_meet(f: int, g: int) -> int:
    """Pointwise meet, for f and g in MF_CLOSURE."""
    return _MEET[(f << 8) | g]


def mf_leq(f: int, g: int) -> bool:
    """Pointwise order: f(s) below-or-equal g(s) for all four states."""
    return all(mf_apply(f, s) <= mf_apply(g, s) for s in _STATES)


def mf_format(f: int) -> str:
    """Render a packed chain function as a domain-to-image 4-tuple."""
    outs = ",".join(str(mf_apply(f, s)) for s in _STATES)
    return f"⟨X,S,R,E⟩→⟨{outs}⟩"


MF_EMIT_REGISTER = mf_compose(MF_EMIT, MF_REGISTER)


class HandlerMicroFn:
    """Separable transformer over per-handler states.

    Stores one packed chain function per handler it touches; handlers
    without an entry are mapped by the identity.  Composition, meet and
    equality are pointwise per handler, so their cost is bounded by the
    number of handlers touched.
    """

    __slots__ = ("_m",)

    def __init__(self, entries: dict[str, int] | None = None):
        self._m = {h: f for h, f in (entries or {}).items() if f != MF_ID}

    @classmethod
    def identity(cls) -> "HandlerMicroFn":
        return cls()

    def mf_for(self, handler: str) -> int:
        return self._m.get(handler, MF_ID)

    def touched(self) -> dict[str, int]:
        return dict(self._m)

    def is_identity(self) -> bool:
        return not self._m

    def __len__(self) -> int:
        return len(self._m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HandlerMicroFn) and self._m == other._m

    def __hash__(self) -> int:
        return hash(frozenset(self._m.items()))

    def __repr__(self) -> str:
        if not self._m:
            return "HandlerMicroFn(id)"
        body = ", ".join(f"{h}: {mf_format(f)}" for h, f in sorted(self._m.items()))
        return f"HandlerMicroFn({{{body}}})"


HMF_ID = HandlerMicroFn.identity()


def hmf_compose(g: HandlerMicroFn, f: HandlerMicroFn) -> HandlerMicroFn:
    """g after f, pointwise per handler."""
    if f.is_identity():
        return g
    if g.is_identity():
        return f
    gm, fm = g._m, f._m
    return HandlerMicroFn({
        h: _COMPOSE[(gm.get(h, MF_ID) << 8) | fm.get(h, MF_ID)]
        for h in fm.keys() | gm.keys()})


def hmf_meet(f: HandlerMicroFn, g: HandlerMicroFn) -> HandlerMicroFn:
    """Pointwise meet per handler; absent entries meet as identity."""
    if f._m == g._m:
        return f
    fm, gm = f._m, g._m
    return HandlerMicroFn({
        h: _MEET[(fm.get(h, MF_ID) << 8) | gm.get(h, MF_ID)]
        for h in fm.keys() | gm.keys()})


def hmf_leq(f: HandlerMicroFn, g: HandlerMicroFn) -> bool:
    return all(mf_leq(f.mf_for(h), g.mf_for(h)) for h in f._m.keys() | g._m.keys())


def hmf_apply(f: HandlerMicroFn, m: dict[str, HState]) -> dict[str, HState]:
    """Apply a separable transformer to a dense handler-state map."""
    return {h: mf_apply(f.mf_for(h), s) for h, s in m.items()}


def all_s(handlers) -> dict[str, HState]:
    """The initial handler-state map: every handler still in S."""
    return {h: HState.S for h in handlers}
