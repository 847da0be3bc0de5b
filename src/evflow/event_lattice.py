"""Event-handler state lattice and its transformers.

A handler moves through a four-state chain: S (not yet registered), R
(registered, event not yet emitted), E (event emitted after registration)
and X (infeasible: invoked too early).  The chain is ordered
X > S > R > E and meet is the minimum, so X acts as "unreachable" and E
as "every ordering constraint satisfied".

Registration, emission and invocation, closed under composition and
meet together with the identity, give seven functions over the chain
(`MF_CLOSURE`).  Each is its lane value 0-6, stated once by its images
of E, R, S and X (`_IMAGES`); every table below is built from those
images.  A transformer maps each handler of a program by one of them:
it is a `bytes` with one byte, or lane, per handler, holding the
function's lane value; `Transformer.of` builds one from a {handler:
chain function} map, and no other module reads the lane values.  A lane
value fits in three bits, so one transformer shifted three bits up and
or-ed with another holds each pair of lanes in one byte, with no carry
between lanes, and one `bytes.translate` through a 256-entry table
composes or meets every lane at once.
"""

from __future__ import annotations

from enum import IntEnum


class HState(IntEnum):
    """Abstract state of one event handler; the values follow the chain
    order, so meet is `min`."""

    E = 0
    R = 1
    S = 2
    X = 3


E, R, S, X = HState

# The seven chain functions, by lane value, and their images of E, R, S
# and X: f(s) is _IMAGES[f][s].
(MF_ID, MF_EMIT_REGISTER, MF_REGISTER_MEET_EMIT, MF_REGISTER, MF_EMIT,
 MF_INVOKE_EMIT, MF_INVOKE) = MF_CLOSURE = tuple(range(7))
_IMAGES = (
    (E, R, S, X),   # identity
    (E, E, E, X),   # emit after register
    (E, E, R, X),   # the meet of register and emit
    (E, R, R, X),   # register
    (E, E, S, X),   # emit
    (E, E, X, X),   # invoke after emit
    (E, X, X, X),   # invoke
)


def mf_apply(f: int, s: HState) -> HState:
    """f(s)."""
    return _IMAGES[f][s]


def _lane_table(op) -> bytes:
    """A `bytes.translate` table sending byte (a << 3) | b to op(images
    of a, images of b)."""
    n = len(_IMAGES)
    return bytes(op(_IMAGES[ab >> 3], _IMAGES[ab & 7])
                 if ab >> 3 < n and ab & 7 < n else 0 for ab in range(256))


_COMPOSE_T = _lane_table(lambda g, f: _IMAGES.index(tuple(g[s] for s in f)))
_MEET_T = _lane_table(lambda f, g: _IMAGES.index(tuple(map(min, f, g))))
# the pointwise order on its own, so that a descent check does not test
# the meet with the meet
_LEQ_T = _lane_table(lambda f, g: all(a <= b for a, b in zip(f, g)))
# lane -> its image of S, as an HState value
_AT_S_T = bytes(f[S] for f in _IMAGES).ljust(256, b"\0")
# lane -> the function of the identity, register, emit after register
# and invoke that sends S where the lane does, indexed by that image
_VIA_S = (MF_EMIT_REGISTER, MF_REGISTER, MF_ID, MF_INVOKE)
_S_NORMAL_T = bytes(_VIA_S[f[S]] for f in _IMAGES).ljust(256, b"\0")


def mf_compose(g: int, f: int) -> int:
    """g after f."""
    return _COMPOSE_T[g << 3 | f]


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
        return cls(fns.get(h, MF_ID) for h in handlers)

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
    return dict(zip(handlers, map(HState, f.translate(_AT_S_T))))
