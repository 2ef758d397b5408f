"""Single-file checkpoint container.

Layout: one JSON header line (utf-8, ends with ``\\n``) followed by the
raw little-endian float64 bytes of every array, concatenated in header
order.  The header records ``format_version``, a ``meta`` dict, and
``arrays`` as ``[name, length]`` pairs.  Raw bytes make the round-trip
bitwise exact, which downstream determinism checks rely on.

Each checkpoint kind's ``meta`` is one frozen record, written with
``asdict``.  The module that owns the kind reads it back through the
settings codec in :func:`read_record` and builds its networks with
:func:`stored_networks`, which checks the arrays the record implies.
Every refusal is a ``BAD_CHECKPOINT`` naming the file and the key.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TypeVar

import numpy as np

from ..errors import ConfigError, DataError
from ..settings import from_dict
from .mlp import MlpNetwork, MlpSpec

FORMAT_VERSION = 1
_F8 = np.dtype("<f8")
T = TypeVar("T")


def save_container(path: str | Path, meta: dict,
                   arrays: dict[str, np.ndarray]) -> None:
    flats = {name: np.ascontiguousarray(np.asarray(arr, dtype=np.float64).ravel(),
                                        dtype=_F8)
             for name, arr in arrays.items()}
    entries = [[name, int(flat.size)] for name, flat in flats.items()]
    header = {"format_version": FORMAT_VERSION, "meta": meta, "arrays": entries}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for flat in flats.values():
            fh.write(memoryview(flat).cast("B"))


def load_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays; each array is read straight into its own buffer."""
    path = Path(path)
    if not path.exists():
        raise DataError("MISSING_FILE", f"checkpoint not found: {path}")
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError("BAD_CHECKPOINT", f"unreadable header in {path}: {exc}")
        if not isinstance(header, dict):
            raise DataError("BAD_CHECKPOINT", f"header of {path} is not a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(
                "BAD_CHECKPOINT",
                f"unsupported format_version {header.get('format_version')!r} in {path}")
        meta, entries = header.get("meta", {}), header.get("arrays", [])
        if not isinstance(meta, dict):
            raise DataError("BAD_CHECKPOINT", f"'meta' of {path} is not a JSON object")
        if not (isinstance(entries, list) and all(_is_entry(entry) for entry in entries)):
            raise DataError("BAD_CHECKPOINT",
                            f"'arrays' of {path} is not a list of [name, length >= 0] pairs")
        for name, length in entries:
            arr = np.empty(length, dtype=_F8)
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise DataError("BAD_CHECKPOINT",
                                f"truncated array {name!r} in {path}")
            arrays[name] = arr
        trailing = len(fh.read())
    if trailing:
        raise DataError("BAD_CHECKPOINT", f"{trailing} trailing bytes in {path}")
    return meta, arrays


def _is_entry(entry) -> bool:
    """``[name, length]`` with a string name and a non-negative int length."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and type(entry[1]) is int and entry[1] >= 0)


@contextmanager
def read_record(path: str | Path, cls: type[T],
                noun: str) -> Iterator[tuple[T, dict[str, np.ndarray]]]:
    """The checkpoint's meta read as the record ``cls``, and its arrays.
    ``cls.kind`` defaults to the kind the record holds; a checkpoint of
    another kind is refused as not ``noun``.  A ``ConfigError`` raised here
    or in the block becomes a ``BAD_CHECKPOINT`` naming the path."""
    try:
        meta, arrays = load_container(path)
        if meta.get("kind") != cls.kind:
            raise ConfigError(f"not {noun}: its 'kind' is {meta.get('kind')!r}")
        yield from_dict(cls, meta, f"{cls.kind} checkpoint"), arrays
    except ConfigError as exc:
        raise DataError("BAD_CHECKPOINT", f"{path}: {exc}") from None


def stored_networks(arrays: Mapping[str, np.ndarray], names: Sequence[str],
                    specs: Mapping[str, MlpSpec], seeds: Mapping[str, int], owner: str,
                    finite: bool) -> dict[str, MlpNetwork]:
    """Networks ``names``, each from its spec, seed and ``<name>_params``
    and ``<name>_stats`` arrays.  Before building any, refuses, naming it,
    an array of no such network, an entry a network lacks (naming ``owner``
    and the network), an array of another length than its spec gives and,
    with ``finite``, one holding a non-finite entry."""
    unexpected = sorted(set(arrays) - {f"{name}_{part}" for name in names
                                       for part in ("params", "stats")})
    if unexpected:
        raise ConfigError(f"holds arrays it does not expect: {unexpected}")
    for name in names:
        params, stats = f"{name}_params", f"{name}_stats"
        for what, held, entry in (("spec", specs, name), ("seed", seeds, name),
                                  ("array", arrays, params), ("array", arrays, stats)):
            if entry not in held:
                raise ConfigError(f"holds no {what} {entry!r} for {owner} {name}")
        for key, size in ((params, specs[name].n_params()), (stats, specs[name].n_stats())):
            if arrays[key].size != size:
                raise ConfigError(f"array {key!r} holds {arrays[key].size} entries, "
                                  f"not its spec's {size}")
            if finite and not np.isfinite(arrays[key]).all():
                raise ConfigError(f"array {key!r} holds a non-finite entry")
    return {name: MlpNetwork(specs[name], arrays[f"{name}_params"], arrays[f"{name}_stats"],
                             seeds[name]) for name in names}
