"""Single-file checkpoint container.

Layout: one JSON header line (utf-8, ends with ``\\n``) followed by the
raw little-endian float64 bytes of every array, concatenated in header
order.  The header records ``format_version``, a free-form ``meta``
dict, and ``arrays`` as ``[name, length]`` pairs.  Raw bytes make the
round-trip bitwise exact, which downstream determinism checks rely on.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import DataError

FORMAT_VERSION = 1
_F8 = np.dtype("<f8")


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
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(
                "BAD_CHECKPOINT",
                f"unsupported format_version {header.get('format_version')!r} in {path}")
        for entry in header.get("arrays", []):
            name, length = entry[0], int(entry[1])
            arr = np.empty(length, dtype=_F8)
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise DataError("BAD_CHECKPOINT",
                                f"truncated array {name!r} in {path}")
            arrays[name] = arr
        trailing = len(fh.read())
    if trailing:
        raise DataError("BAD_CHECKPOINT", f"{trailing} trailing bytes in {path}")
    return header.get("meta", {}), arrays
