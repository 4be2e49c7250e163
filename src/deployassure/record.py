"""Frozen records for the engine's value and config types, and fingerprints.

A record class lists its fields as annotations and may give defaults in
its body, as a frozen dataclass does, and it behaves as one; but nothing
here compiles source when a class is defined, so start-up stays short.
"""

from __future__ import annotations

import json
from typing import Any, ClassVar

try:  # type checkers then see each record's fields as its constructor
    from typing import dataclass_transform
except ImportError:  # Python 3.10
    def dataclass_transform(**kwargs: Any) -> Any:
        return lambda cls: cls

# Fields are set as a frozen dataclass sets them. Filling ``__dict__``
# instead would slow every later attribute read on CPython 3.11.
_set = object.__setattr__


@dataclass_transform(frozen_default=True)
class Record:
    """Base of a frozen record type: ``_fields`` names its fields in order."""

    _fields: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls.__init__ = _initialiser(cls)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __replace__(self, /, **changes: Any) -> Any:  # copy.replace, Python 3.13+
        return replace(self, **changes)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _initialiser(cls: type[Record]) -> Any:
    """The ``__init__`` of one record class: sets each field, then checks.

    The template's parameters are renamed to the fields and take the
    class's defaults, so Python binds the arguments, and words a missing,
    unknown or duplicate one, as for a dataclass. The assignments are
    unrolled: on CPython 3.11 a loop over the fields makes a 4-field
    record about a third dearer to build.
    """
    fields = cls._fields
    arity = len(fields)
    defaults = tuple(vars(cls)[name] for name in fields if name in vars(cls))
    defaulted = fields[arity - len(defaults):]
    if not 0 < arity <= 8 or any(name not in vars(cls) for name in defaulted):
        raise TypeError(f"{cls.__qualname__}: a record has 1 to 8 fields, defaults last")
    f0, f1, f2, f3, f4, f5, f6, f7 = fields + ("",) * (8 - arity)
    checked = hasattr(cls, "__post_init__")

    def __init__(self, _0, _1, _2, _3, _4, _5, _6, _7):
        _set(self, f0, _0)
        if arity > 1:
            _set(self, f1, _1)
        if arity > 2:
            _set(self, f2, _2)
        if arity > 3:
            _set(self, f3, _3)
        if arity > 4:
            _set(self, f4, _4)
        if arity > 5:
            _set(self, f5, _5)
        if arity > 6:
            _set(self, f6, _6)
        if arity > 7:
            _set(self, f7, _7)
        if checked:
            self.__post_init__()

    code = __init__.__code__
    names = ("self", *fields, *code.co_varnames[arity + 1:])
    __init__.__code__ = code.replace(co_argcount=arity + 1, co_varnames=names)
    __init__.__defaults__ = defaults or None
    __init__.__qualname__ = f"{cls.__qualname__}.__init__"  # errors name it
    return __init__


def replace(record: Any, /, **changes: Any) -> Any:
    """A copy of ``record`` with ``changes``, checked again on construction."""
    return record.__class__(**dict(zip(record._fields, record._values())) | changes)


def asdict(value: Any) -> Any:
    """Records as dicts of their fields, recursively through tuples, lists and dicts."""
    if isinstance(value, Record):
        return {name: asdict(getattr(value, name)) for name in value._fields}
    if isinstance(value, (tuple, list)):
        return type(value)(map(asdict, value))
    if isinstance(value, dict):
        return {asdict(key): asdict(item) for key, item in value.items()}
    return value


def canonical_fingerprint(config: Record) -> str:
    """Hash every field of a config record to a short stable hex string.

    Nested records and tuples serialise as JSON objects and lists with
    sorted keys, so a change to any field's value changes the fingerprint.
    """
    import hashlib  # here, not at the top: it loads OpenSSL, which only this needs
    text = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
