"""Declarative mapping from call-site callee names to event semantics.

An event model says which callees register handlers (and at which
argument positions the event name and the handler sit, and whether the
emission is implicit, callback-style) and which callees emit events.
The EVL primitives are pre-seeded; a JSON config extends the model for
library-style functions that have no EVL body.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class EventModelError(Exception):
    pass


@dataclass(frozen=True)
class RegistrationSpec:
    callee: str
    event_arg: int | None  # None: no event-name argument, name is synthesized
    handler_arg: int
    implicit_emit: bool


@dataclass(frozen=True)
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
        for entry in doc.get("registrations", ()):
            callee = entry["callee"]
            if callee in _RESERVED:
                raise EventModelError(f"'{callee}' is a built-in primitive")
            event_arg = entry.get("event_arg")
            handler_arg = entry["handler_arg"]
            implicit = bool(entry.get("implicit_emit", False))
            if event_arg is not None and event_arg < 0:
                raise EventModelError(f"negative event_arg for '{callee}'")
            if handler_arg < 0:
                raise EventModelError(f"negative handler_arg for '{callee}'")
            if event_arg == handler_arg and event_arg is not None:
                raise EventModelError(
                    f"event_arg and handler_arg collide for '{callee}'")
            registrations.append(
                RegistrationSpec(callee, event_arg, handler_arg, implicit))
        emissions = []
        for entry in doc.get("emissions", ()):
            callee = entry["callee"]
            if callee in _RESERVED:
                raise EventModelError(f"'{callee}' is a built-in primitive")
            event_arg = entry["event_arg"]
            if event_arg < 0:
                raise EventModelError(f"negative event_arg for '{callee}'")
            emissions.append(EmissionSpec(callee, event_arg))
        return cls(tuple(registrations), tuple(emissions))

    @classmethod
    def from_json_file(cls, path) -> "EventModel":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise EventModelError(f"{path}: invalid JSON: {e}") from e
        except UnicodeDecodeError as e:
            raise EventModelError(f"{path}: not valid UTF-8 ({e.reason} "
                                  f"at byte {e.start})") from e
        except OSError as e:
            raise EventModelError(f"{path}: cannot read ({e.strerror or e})"
                                  ) from e
        if not isinstance(doc, dict):
            raise EventModelError(f"{path}: expected a JSON object")
        return cls.from_dict(doc)

    def classifies(self, callee: str) -> bool:
        return callee in self._registrations or callee in self._emissions

    def registration_for(self, callee: str) -> RegistrationSpec | None:
        return self._registrations.get(callee)

    def emission_for(self, callee: str) -> EmissionSpec | None:
        return self._emissions.get(callee)

    # -- call-site operand extraction --

    def registration_operands(self, call) -> tuple[str, str, bool]:
        """Resolve (event, handler, implicit_emit) for a classified call."""
        from .lang.ast import StrLit, Var

        spec = self._registrations[call.callee]
        if spec.handler_arg >= len(call.args):
            raise EventModelError(
                f"line {call.line}: '{call.callee}' needs a handler at "
                f"argument {spec.handler_arg}")
        handler_expr = call.args[spec.handler_arg]
        if not isinstance(handler_expr, Var):
            raise EventModelError(
                f"line {call.line}: handler argument of '{call.callee}' "
                f"must be a function name")
        handler = handler_expr.name
        if spec.event_arg is None:
            return synthetic_event(handler), handler, spec.implicit_emit
        if spec.event_arg >= len(call.args):
            raise EventModelError(
                f"line {call.line}: '{call.callee}' needs an event name at "
                f"argument {spec.event_arg}")
        event_expr = call.args[spec.event_arg]
        if not isinstance(event_expr, StrLit):
            raise EventModelError(
                f"line {call.line}: event argument of '{call.callee}' "
                f"must be a string literal")
        return event_expr.value, handler, spec.implicit_emit

    def emission_operand(self, call) -> str:
        from .lang.ast import StrLit

        spec = self._emissions[call.callee]
        if spec.event_arg >= len(call.args):
            raise EventModelError(
                f"line {call.line}: '{call.callee}' needs an event name at "
                f"argument {spec.event_arg}")
        event_expr = call.args[spec.event_arg]
        if not isinstance(event_expr, StrLit):
            raise EventModelError(
                f"line {call.line}: event argument of '{call.callee}' "
                f"must be a string literal")
        return event_expr.value
