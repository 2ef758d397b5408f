"""The one way settings dataclasses come back from JSON.

Writers use ``dataclasses.asdict``; JSON writes its tuples as lists.
Readers use :func:`from_dict`, the one place where a JSON value becomes a
typed field: it checks each value against its field's annotation, read
with ``typing.get_type_hints``.  A ``bool`` takes only ``true`` or
``false``; an ``int`` an integer and a ``float`` an int or a float (kept
as given), neither a bool; a ``str`` a string; a ``dict`` an object;
``dict[str, T]`` an object of ``T`` values; a settings dataclass an
object holding every one of its fields, read by :func:`from_dict`;
``tuple[T, ...]`` or ``tuple[T, T]`` a list of ``T`` of that length,
returned as a tuple; and ``T | None`` also ``null``.  Range and choice
checks stay in each class's ``__post_init__``, which runs on typed values.
"""
from __future__ import annotations

import dataclasses
from typing import Any, Mapping, TypeVar, get_args, get_origin, get_type_hints

from .errors import ConfigError

T = TypeVar("T")

# each scalar annotation the codec reads: its name alone and as list items
_SCALARS = {bool: ("true or false", "booleans"), int: ("an integer", "integers"),
            float: ("a number", "numbers"), str: ("a string", "strings"),
            dict: ("a JSON object", "JSON objects")}


def _read(hint: Any, value: Any, what: str, key: str) -> Any:
    """``value`` as a field annotated ``hint``; a ``ConfigError`` names
    the key, the type and the value when it is not one."""
    args = get_args(hint)
    nullable = type(None) in args and len(args) == 2
    one = next(a for a in args if a is not type(None)) if nullable else hint
    if value is None and nullable:
        return value
    if dataclasses.is_dataclass(one) or get_origin(one) is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{what} key {key!r} must be {'null or ' * nullable}"
                              f"a JSON object, got {value!r}")
        inner = f"{what} {key}"
        if get_origin(one) is dict:
            return {k: _read(get_args(one)[1], v, inner, k) for k, v in value.items()}
        missing = sorted({f.name for f in dataclasses.fields(one)} - set(value))
        if missing:  # a nested record is read whole: asdict wrote every field
            raise ConfigError(f"missing {inner} keys: {missing}")
        return from_dict(one, value, inner)
    items = get_args(one) if get_origin(one) is tuple else ()
    scalar = items[0] if items else one
    if scalar not in _SCALARS or set(items) - {..., scalar}:
        raise TypeError(f"the settings codec reads no {hint!r}")
    accepted = (int, float) if scalar is float else scalar

    def typed(v: Any) -> bool:  # a bool is only ever a bool
        return isinstance(v, accepted) and (scalar is bool or not isinstance(v, bool))

    size = len(items) if items and items[-1] is not ... else None
    if not items and typed(value):
        return value
    if (items and isinstance(value, (list, tuple)) and size in (None, len(value))
            and all(map(typed, value))):
        return tuple(value)
    name, plural = _SCALARS[scalar]
    if items:
        name = f"a list of {f'{size} ' if size else ''}{plural}"
    raise ConfigError(f"{what} key {key!r} must be {'null or ' * nullable}{name}, "
                      f"got {value!r}")


def from_dict(cls: type[T], payload: Mapping, what: str, base: T | None = None) -> T:
    """``cls`` built from a JSON object, or ``base`` with the payload's
    fields replaced.  Refuses keys that are not fields of ``cls``, values
    not of their field's type and, without ``base``, required fields the
    payload lacks, naming them as keys of ``what``."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    hints = get_type_hints(cls)
    values = {key: _read(hints[key], value, what, key) for key, value in payload.items()}
    if base is not None:
        return dataclasses.replace(base, **values)
    missing = sorted(name for name, f in fields.items()
                     if f.default is dataclasses.MISSING and name not in payload)
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    return cls(**values)
