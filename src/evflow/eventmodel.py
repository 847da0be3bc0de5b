"""Declarative mapping from call-site callee names to event semantics.

An event model says which callees register handlers (and at which
argument positions the event name and the handler sit, and whether the
emission is implicit, callback-style) and which callees emit events.
The EVL primitives are pre-seeded: the parser turns them into calls
that these specs classify like those of any callee.  The parser's
validation is the only code that classifies calls: it classifies each
call once and records the result in the program, which the analysis,
the interpreter and its trace check read.  A JSON config extends the
model for library-style functions that have no EVL body.
"""

from __future__ import annotations

from .record import record


class EventModelError(Exception):
    pass


@record(frozen=True)
class RegistrationSpec:
    callee: str
    event_arg: int | None  # None: no event-name argument, name is synthesized
    handler_arg: int
    implicit_emit: bool


@record(frozen=True)
class EmissionSpec:
    callee: str
    event_arg: int


BUILTIN_REGISTRATIONS = (
    RegistrationSpec("register", 0, 1, False),
    RegistrationSpec("register_async", None, 0, True),
)
BUILTIN_EMISSIONS = (EmissionSpec("emit", 0),)
_RESERVED = {"register", "emit", "register_async", "print"}


def synthetic_event(handler: str) -> str:
    """Event name for registrations without an event-name argument."""
    return f"~async:{handler}"


class EventModel:
    def __init__(self, registrations=(), emissions=()):
        self._registrations: dict[str, RegistrationSpec] = {}
        self._emissions: dict[str, EmissionSpec] = {}
        for spec in (*BUILTIN_REGISTRATIONS, *registrations):
            if spec.callee in self._registrations or spec.callee in self._emissions:
                raise EventModelError(
                    f"callee '{spec.callee}' configured more than once")
            self._registrations[spec.callee] = spec
        for spec in (*BUILTIN_EMISSIONS, *emissions):
            if spec.callee in self._registrations or spec.callee in self._emissions:
                raise EventModelError(
                    f"callee '{spec.callee}' configured more than once")
            self._emissions[spec.callee] = spec

    @classmethod
    def default(cls) -> "EventModel":
        return cls()

    @classmethod
    def from_dict(cls, doc: dict) -> "EventModel":
        registrations = []
        for entry in _section(doc, "registrations"):
            callee = _callee(entry, "registrations")
            event_arg = _position(entry, "event_arg", callee, optional=True)
            handler_arg = _position(entry, "handler_arg", callee)
            implicit = entry.get("implicit_emit", False)
            if not isinstance(implicit, bool):
                raise EventModelError(
                    f"'{callee}': implicit_emit must be true or false")
            if event_arg == handler_arg:
                raise EventModelError(
                    f"event_arg and handler_arg collide for '{callee}'")
            registrations.append(
                RegistrationSpec(callee, event_arg, handler_arg, implicit))
        emissions = []
        for entry in _section(doc, "emissions"):
            callee = _callee(entry, "emissions")
            emissions.append(
                EmissionSpec(callee, _position(entry, "event_arg", callee)))
        return cls(tuple(registrations), tuple(emissions))

    @classmethod
    def from_json_file(cls, path) -> "EventModel":
        import json
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise EventModelError(f"{path}: invalid JSON: {e}") from e
        except RecursionError as e:
            raise EventModelError(f"{path}: invalid JSON: nested too deeply"
                                  ) from e
        except UnicodeDecodeError as e:
            raise EventModelError(f"{path}: not valid UTF-8 ({e.reason} "
                                  f"at byte {e.start})") from e
        except OSError as e:
            raise EventModelError(f"{path}: cannot read ({e.strerror or e})"
                                  ) from e
        if not isinstance(doc, dict):
            raise EventModelError(f"{path}: expected a JSON object")
        return cls.from_dict(doc)

    def classify(self, call):
        """The event operation of a call to a classified callee and the
        argument positions that hold the event name or the handler
        (names, not values the call reads): (("reg", event, handler,
        implicit_emit), positions) or (("emit", event), positions); None
        if the model does not classify the callee."""
        reg = self._registrations.get(call.callee)
        if reg is not None:
            handler = _operand(call, reg.handler_arg, Var,
                               "a function name").name
            if reg.event_arg is None:
                event = synthetic_event(handler)
            else:
                event = _operand(call, reg.event_arg, StrLit,
                                 "a string literal").value
            return (("reg", event, handler, reg.implicit_emit),
                    (reg.event_arg, reg.handler_arg))
        emi = self._emissions.get(call.callee)
        if emi is not None:
            return (("emit", _operand(call, emi.event_arg, StrLit,
                                      "a string literal").value),
                    (emi.event_arg,))
        return None


def _operand(call, pos: int, node_type, what: str):
    """The argument at `pos`, which must be a `node_type` node."""
    if pos >= len(call.args) or not isinstance(call.args[pos], node_type):
        raise EventModelError(f"line {call.line}: '{call.callee}' needs "
                              f"{what} at argument {pos}")
    return call.args[pos]


def _section(doc: dict, name: str) -> list:
    entries = doc.get(name, [])
    if not isinstance(entries, list) or \
            not all(isinstance(e, dict) for e in entries):
        raise EventModelError(f"'{name}' must be a list of objects")
    return entries


def _callee(entry: dict, section: str) -> str:
    callee = entry.get("callee")
    if not isinstance(callee, str):
        raise EventModelError(f"an entry of '{section}' has no callee name")
    if callee in _RESERVED:
        raise EventModelError(f"'{callee}' is a built-in primitive")
    return callee


def _position(entry: dict, key: str, callee: str, optional: bool = False):
    """A 0-based argument position; None only where it is optional."""
    value = entry.get(key)
    if value is None and optional:
        return None
    if type(value) is not int or value < 0:
        import json
        got = f"got {json.dumps(value)}" if key in entry else "missing"
        raise EventModelError(
            f"'{callee}': {key} must be a non-negative integer ({got})")
    return value


# imported last because evflow.lang imports this module
from .lang.ast import StrLit, Var  # noqa: E402
