"""The one way settings dataclasses come back from JSON.

Writers use ``dataclasses.asdict``; JSON writes its tuples as lists.
Readers use :func:`from_dict`.  Each class's ``__post_init__`` stays the
only place that validates and normalises a value, lists back to tuples
included, so the codec only checks the keys.
"""
from __future__ import annotations

import dataclasses
from typing import Mapping, TypeVar

from .errors import ConfigError

T = TypeVar("T")


def from_dict(cls: type[T], payload: Mapping, what: str, base: T | None = None) -> T:
    """``cls`` built from a JSON object, or ``base`` with the payload's
    fields replaced.  Refuses keys that are not fields of ``cls`` and,
    without ``base``, required fields the payload lacks, naming them as
    keys of ``what``."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    if base is not None:
        return dataclasses.replace(base, **payload)
    missing = sorted(name for name, f in fields.items()
                     if f.default is dataclasses.MISSING and name not in payload)
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    return cls(**payload)
