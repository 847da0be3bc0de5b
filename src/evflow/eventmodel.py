"""Declarative mapping from call-site callee names to event semantics.

An event model is one table from callee name to `Spec`.  The EVL
primitives are pre-seeded: the parser turns them into calls whose specs
it looks up like those of any callee.  The model knows nothing of the
AST: the parser's `_check_call` is the one function that classifies a
call and reads the operands its spec names, once per call, and records
the result in the program, which the analysis, the interpreter and its
trace check read.  A JSON config extends the table for library-style
functions that have no EVL body.
"""

from __future__ import annotations


class EventModelError(Exception):
    pass


# callee -> (event_arg, handler_arg, implicit_emit): the 0-based argument
# positions of the event name and of the handler, and whether registering
# also emits (callback style).  `event_arg` None: the event name is
# synthesized from the handler's; `handler_arg` None: the call emits.
Spec = tuple[int | None, int | None, bool]

_BUILTINS: dict[str, Spec] = {
    "register": (0, 1, False),
    "register_async": (None, 0, True),
    "emit": (0, None, False),
}
_RESERVED = {*_BUILTINS, "print"}


def synthetic_event(handler: str) -> str:
    """Event name for registrations without an event-name argument."""
    return f"~async:{handler}"


class EventModel:
    def __init__(self, specs: dict[str, Spec] | None = None):
        self._specs = {**_BUILTINS, **(specs or {})}

    @classmethod
    def default(cls) -> "EventModel":
        return cls()

    @classmethod
    def from_dict(cls, doc: dict) -> "EventModel":
        entries = []
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
            entries.append((callee, (event_arg, handler_arg, implicit)))
        for entry in _section(doc, "emissions"):
            callee = _callee(entry, "emissions")
            entries.append(
                (callee, (_position(entry, "event_arg", callee), None, False)))
        # after every entry is read, so a malformed entry is reported first
        specs: dict[str, Spec] = {}
        for callee, spec in entries:
            if callee in specs:
                raise EventModelError(
                    f"callee '{callee}' configured more than once")
            specs[callee] = spec
        return cls(specs)

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
        except ValueError as e:  # a number past Python's digit limit
            raise EventModelError(f"{path}: invalid JSON: a number has too "
                                  f"many digits") from e
        except OSError as e:
            raise EventModelError(f"{path}: cannot read ({e.strerror or e})"
                                  ) from e
        if not isinstance(doc, dict):
            raise EventModelError(f"{path}: expected a JSON object")
        return cls.from_dict(doc)

    def classify(self, callee: str) -> Spec | None:
        """The spec of `callee`, None if the model does not classify it."""
        return self._specs.get(callee)


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

