"""Records: classes whose annotated class attributes are their fields.

`@record` gives a class the `__init__`, `__repr__` and `__eq__` that
`dataclasses.dataclass` would, and `@record(frozen=True)` adds its
`__hash__` and rejects assignment.  It supports only what evflow's
classes use: inherited fields first, defaults, `field(default_factory=,
compare=, repr=)` and `__post_init__`.  `dataclasses` itself is not
imported: it loads `inspect`, and with its per-class code generation it
was most of the time `import evflow.cli` took.
"""

from typing import NamedTuple

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


class _Field(NamedTuple):
    default: object = _MISSING
    default_factory: object = _MISSING
    compare: bool = True
    repr: bool = True


def field(*, default_factory=_MISSING, compare=True, repr=True):
    """A field's options, given as its class attribute's value."""
    return _Field(_MISSING, default_factory, compare, repr)


def _frozen_setattr(self, name, _value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    shown = ", ".join(f"{n}={getattr(self, n)!r}"
                      for n, f in self.__record_fields__.items() if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._record_key() == other._record_key()
    return NotImplemented


def _hash(self):
    return hash(self._record_key())


def _build(cls, frozen: bool):
    fields: dict[str, _Field] = {}
    for base in cls.__mro__[:0:-1]:
        fields.update(base.__dict__.get("__record_fields__", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        f = cls.__dict__.get(name, _MISSING)
        if isinstance(f, _Field):
            delattr(cls, name)
        else:
            f = _Field(default=f)
        fields[name] = f
    cls.__record_fields__ = fields

    # `__init__` and the comparison key, compiled by one `exec`
    env = {"_set": object.__setattr__, "_MISSING": _MISSING}
    params, body = [], []
    for n, f in fields.items():
        value = n
        if f.default_factory is not _MISSING:
            env[f"_factory_{n}"] = f.default_factory
            params.append(f"{n}=_MISSING")
            value = f"_factory_{n}() if {n} is _MISSING else {n}"
        elif f.default is not _MISSING:
            env[f"_default_{n}"] = f.default
            params.append(f"{n}=_default_{n}")
        else:
            params.append(n)
        body.append(f"_set(self, {n!r}, {value})" if frozen
                    else f"self.{n} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    key = "".join(f"self.{n}, " for n, f in fields.items() if f.compare)
    exec(f"def __init__(self, {', '.join(params)}):\n"
         + "".join(f"    {line}\n" for line in body or ["pass"])
         + f"def _record_key(self):\n    return ({key})\n", env)
    cls.__init__ = env["__init__"]
    cls._record_key = env["_record_key"]
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    if frozen:
        cls.__hash__ = _hash
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    else:
        cls.__hash__ = None
    return cls


def record(cls=None, /, *, frozen: bool = False):
    """Make `cls` a record, as `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)
