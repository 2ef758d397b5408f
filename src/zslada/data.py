"""Dataset containers and on-disk formats.

Canonical interchange is CSV (human-auditable): ``features.csv`` with
header ``label,f0,...,f{d-1}`` (label -1 when unlabeled),
``attributes.csv`` with header ``class_id,a0,...``, and ``split.json``
holding seen/unseen class ids plus train/test row indices.  A binary
twin (``.npy``, little-endian float64, same column layout) is
negotiated purely by file extension for large matrices.  Floats in CSV
are written with ``repr`` so the round trip is bitwise exact.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, UnknownClass

ORIGIN_TAGS = ("generated", "real", "transformed")


def _fmt(value: float) -> str:
    return repr(float(value))


def _as_int_list(values: Iterable, what: str) -> list[int]:
    out = []
    for v in values:
        iv = int(v)
        if iv != v:
            raise DataError("BAD_VALUE", f"{what} contains non-integer {v!r}")
        out.append(iv)
    return out


@dataclass
class SplitSpec:
    """Seen/unseen class universe plus row membership for train/test."""

    seen_class_ids: list[int]
    unseen_class_ids: list[int]
    train_row_indices: list[int]
    test_row_indices: list[int]

    def __post_init__(self) -> None:
        self.seen_class_ids = _as_int_list(self.seen_class_ids, "seen class list")
        self.unseen_class_ids = _as_int_list(self.unseen_class_ids, "unseen class list")
        self.train_row_indices = _as_int_list(self.train_row_indices, "train rows")
        self.test_row_indices = _as_int_list(self.test_row_indices, "test rows")
        overlap = set(self.seen_class_ids) & set(self.unseen_class_ids)
        if overlap:
            raise DataError("SPLIT_OVERLAP",
                            f"classes listed as both seen and unseen: {sorted(overlap)}")
        if len(set(self.seen_class_ids)) != len(self.seen_class_ids):
            raise DataError("DUPLICATE_CLASS", "duplicate ids in seen class list")
        if len(set(self.unseen_class_ids)) != len(self.unseen_class_ids):
            raise DataError("DUPLICATE_CLASS", "duplicate ids in unseen class list")

    @property
    def class_universe(self) -> set[int]:
        return set(self.seen_class_ids) | set(self.unseen_class_ids)

    def to_dict(self) -> dict:
        return {
            "seen": list(self.seen_class_ids),
            "unseen": list(self.unseen_class_ids),
            "train_rows": list(self.train_row_indices),
            "test_rows": list(self.test_row_indices),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SplitSpec":
        missing = {"seen", "unseen", "train_rows", "test_rows"} - set(payload)
        if missing:
            raise DataError("BAD_VALUE", f"split.json missing keys: {sorted(missing)}")
        return cls(
            seen_class_ids=payload["seen"],
            unseen_class_ids=payload["unseen"],
            train_row_indices=payload["train_rows"],
            test_row_indices=payload["test_rows"],
        )


@dataclass
class ClassAttributeTable:
    """Per-class attribute vectors for every class, seen and unseen."""

    attributes: np.ndarray
    class_ids: list[int]
    seen_mask: np.ndarray

    def __post_init__(self) -> None:
        self.attributes = np.asarray(self.attributes, dtype=np.float64)
        if self.attributes.ndim != 2:
            raise DataError("BAD_VALUE", "attribute matrix must be 2-D")
        self.class_ids = _as_int_list(self.class_ids, "class id list")
        self.seen_mask = np.asarray(self.seen_mask, dtype=bool)
        n = self.attributes.shape[0]
        if len(self.class_ids) != n or self.seen_mask.shape != (n,):
            raise DataError("BAD_VALUE",
                            "attribute rows, class ids and seen mask disagree in length")
        if len(set(self.class_ids)) != n:
            raise DataError("DUPLICATE_CLASS", "duplicate class ids in attribute table")
        if n and not self.seen_mask.any():
            raise DataError("EMPTY_CLASS_SET", "attribute table has no seen class")
        self._index = {cid: i for i, cid in enumerate(self.class_ids)}

    @property
    def attr_dim(self) -> int:
        return self.attributes.shape[1]

    @property
    def seen_ids(self) -> list[int]:
        return [c for c, m in zip(self.class_ids, self.seen_mask) if m]

    @property
    def unseen_ids(self) -> list[int]:
        return [c for c, m in zip(self.class_ids, self.seen_mask) if not m]

    def row_of(self, class_id: int) -> int:
        try:
            return self._index[int(class_id)]
        except KeyError:
            raise UnknownClass(f"class {class_id} not in attribute table") from None

    def table_hash(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.class_ids).encode())
        h.update(self.seen_mask.astype(np.uint8).tobytes())
        h.update(np.ascontiguousarray(self.attributes, dtype="<f8").tobytes())
        return h.hexdigest()


@dataclass
class FeatureDataset:
    """Feature matrix with optional labels and the ZSL split."""

    features: np.ndarray
    labels: np.ndarray | None
    split: SplitSpec
    provenance: str = ""

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataError("BAD_VALUE", "feature matrix must be 2-D")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise DataError("BAD_VALUE",
                                "label vector length does not match feature rows")
        self.validate()

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        n = self.n_rows
        for what, idx in (("train", self.split.train_row_indices),
                          ("test", self.split.test_row_indices)):
            for i in idx:
                if not 0 <= i < n:
                    raise DataError("BAD_INDEX",
                                    f"{what} row index {i} out of range for {n} rows")
            if len(set(idx)) != len(idx):
                raise DataError("BAD_INDEX", f"duplicate {what} row indices")
        if self.labels is not None:
            universe = self.split.class_universe
            present = set(int(v) for v in np.unique(self.labels)) - {-1}
            unknown = present - universe
            if unknown:
                raise DataError("UNKNOWN_CLASS",
                                f"labels reference classes outside the split: {sorted(unknown)}")
            unseen = set(self.split.unseen_class_ids)
            test_labels = self.labels[np.asarray(self.split.test_row_indices, dtype=np.int64)] \
                if self.split.test_row_indices else np.empty(0, dtype=np.int64)
            bad = set(int(v) for v in np.unique(test_labels)) - {-1} - unseen
            if bad:
                raise DataError("UNKNOWN_CLASS",
                                f"test rows carry non-unseen labels: {sorted(bad)}")

    def train_rows(self) -> tuple[np.ndarray, np.ndarray | None]:
        idx = np.asarray(self.split.train_row_indices, dtype=np.int64)
        labels = None if self.labels is None else self.labels[idx]
        return self.features[idx], labels

    def test_rows(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Test features and labels.  When the test rows form one ascending
        contiguous run they are read-only views, not copies."""
        idx = np.asarray(self.split.test_row_indices, dtype=np.int64)
        run = bool(idx.size) and bool(np.all(np.diff(idx) == 1))
        rows = slice(idx[0], idx[-1] + 1) if run else idx
        features = self.features[rows]
        labels = None if self.labels is None else self.labels[rows]
        for view in (features, labels) if run else ():
            if view is not None:
                view.flags.writeable = False
        return features, labels


@dataclass
class DatasetBundle:
    """What a dataset directory holds: features + class attributes."""

    dataset: FeatureDataset
    attributes: ClassAttributeTable

    def __iter__(self):
        return iter((self.dataset, self.attributes))


def _read_csv_matrix(path: Path, id_column: str) -> tuple[np.ndarray, np.ndarray]:
    """Returns (ids, values).  First column per header, rest float64."""
    if not path.exists():
        raise DataError("MISSING_FILE", f"required file missing: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("BAD_HEADER", f"{path} is empty") from None
        if not header or header[0] != id_column:
            raise DataError("BAD_HEADER",
                            f"{path}: first column must be {id_column!r}, got {header[:1]}")
        width = len(header)
        ids = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataError("RAGGED_ROWS",
                                f"{path}:{lineno} has {len(row)} fields, header has {width}")
            try:
                ids.append(int(row[0]))
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataError("BAD_VALUE", f"{path}:{lineno}: {exc}") from None
    values = np.asarray(rows, dtype=np.float64).reshape(len(rows), width - 1)
    return np.asarray(ids, dtype=np.int64), values


def _read_npy_matrix(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.load(path)
    if raw.ndim != 2 or raw.shape[1] < 1:
        raise DataError("BAD_VALUE", f"{path}: expected a 2-D matrix with an id column")
    raw = np.asarray(raw, dtype=np.float64)
    ids = raw[:, 0]
    if not np.all(ids == np.round(ids)):
        raise DataError("BAD_VALUE", f"{path}: id column holds non-integers")
    return ids.astype(np.int64), raw[:, 1:]


def _write_csv_matrix(path: Path, id_column: str, value_prefix: str,
                      ids: np.ndarray, values: np.ndarray) -> None:
    d = values.shape[1]
    header = [id_column] + [f"{value_prefix}{j}" for j in range(d)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(values.shape[0]):
            fields = [str(int(ids[i]))] + [_fmt(v) for v in values[i]]
            fh.write(",".join(fields) + "\n")


def _write_npy_matrix(path: Path, ids: np.ndarray, values: np.ndarray) -> None:
    block = np.empty((values.shape[0], values.shape[1] + 1), dtype="<f8")
    block[:, 0] = ids
    block[:, 1:] = values
    np.save(path, block)


def save_dataset(dir_path: str | Path, dataset: FeatureDataset,
                 attributes: ClassAttributeTable, binary: bool = False) -> Path:
    """Writes features, attributes and split.json into ``dir_path``."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    labels = dataset.labels
    if labels is None:
        labels = np.full(dataset.n_rows, -1, dtype=np.int64)
    if binary:
        _write_npy_matrix(dir_path / "features.npy", labels, dataset.features)
        _write_npy_matrix(dir_path / "attributes.npy",
                          np.asarray(attributes.class_ids, dtype=np.int64),
                          attributes.attributes)
    else:
        _write_csv_matrix(dir_path / "features.csv", "label", "f",
                          labels, dataset.features)
        _write_csv_matrix(dir_path / "attributes.csv", "class_id", "a",
                          np.asarray(attributes.class_ids, dtype=np.int64),
                          attributes.attributes)
    with open(dir_path / "split.json", "w") as fh:
        json.dump(dataset.split.to_dict(), fh, indent=1)
        fh.write("\n")
    if dataset.provenance:
        (dir_path / "provenance.txt").write_text(dataset.provenance + "\n")
    return dir_path


def load_dataset(dir_path: str | Path) -> DatasetBundle:
    """Loads a dataset directory (CSV preferred, .npy twin as fallback)."""
    dir_path = Path(dir_path)
    split_path = dir_path / "split.json"
    if not split_path.exists():
        raise DataError("MISSING_FILE", f"required file missing: {split_path}")
    try:
        split = SplitSpec.from_dict(json.loads(split_path.read_text()))
    except json.JSONDecodeError as exc:
        raise DataError("BAD_VALUE", f"{split_path}: invalid JSON ({exc})") from None

    if (dir_path / "features.csv").exists():
        labels, features = _read_csv_matrix(dir_path / "features.csv", "label")
    elif (dir_path / "features.npy").exists():
        labels, features = _read_npy_matrix(dir_path / "features.npy")
    else:
        raise DataError("MISSING_FILE",
                        f"no features.csv or features.npy in {dir_path}")
    if (dir_path / "attributes.csv").exists():
        class_ids, attr = _read_csv_matrix(dir_path / "attributes.csv", "class_id")
    elif (dir_path / "attributes.npy").exists():
        class_ids, attr = _read_npy_matrix(dir_path / "attributes.npy")
    else:
        raise DataError("MISSING_FILE",
                        f"no attributes.csv or attributes.npy in {dir_path}")

    universe = split.class_universe
    table_ids = [int(c) for c in class_ids]
    missing = universe - set(table_ids)
    if missing:
        raise DataError("UNKNOWN_CLASS",
                        f"split references classes absent from attributes: {sorted(missing)}")
    seen = set(split.seen_class_ids)
    seen_mask = np.asarray([c in seen for c in table_ids], dtype=bool)
    table = ClassAttributeTable(attributes=attr, class_ids=table_ids,
                                seen_mask=seen_mask)

    label_vec: np.ndarray | None = labels
    if np.all(labels == -1):
        label_vec = None
    provenance_path = dir_path / "provenance.txt"
    provenance = provenance_path.read_text().strip() if provenance_path.exists() else ""
    dataset = FeatureDataset(features=features, labels=label_vec, split=split,
                             provenance=provenance)
    return DatasetBundle(dataset=dataset, attributes=table)


def export_embeddings(matrices: Mapping[str, np.ndarray],
                      labels: Mapping[str, Sequence[int]],
                      path: str | Path) -> Path:
    """Writes rows of ``f0..f{d-1},label,origin`` for each tagged matrix.

    ``matrices`` and ``labels`` share keys drawn from
    ``generated | real | transformed``; row order inside each block and
    block order (mapping insertion order) are preserved verbatim.
    """
    path = Path(path)
    if set(matrices) != set(labels):
        raise DataError("BAD_VALUE", "matrices and labels must share origin tags")
    dims = set()
    for tag, mat in matrices.items():
        if tag not in ORIGIN_TAGS:
            raise DataError("BAD_VALUE",
                            f"unknown origin tag {tag!r}, expected one of {ORIGIN_TAGS}")
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2:
            raise DataError("BAD_VALUE", f"matrix for {tag!r} must be 2-D")
        if len(labels[tag]) != mat.shape[0]:
            raise DataError("BAD_VALUE", f"label count mismatch for origin {tag!r}")
        dims.add(mat.shape[1])
    if len(dims) > 1:
        raise DataError("BAD_VALUE", f"matrices disagree on feature dim: {sorted(dims)}")
    d = dims.pop() if dims else 0
    header = [f"f{j}" for j in range(d)] + ["label", "origin"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for tag, mat in matrices.items():
            mat = np.asarray(mat, dtype=np.float64)
            tag_labels = labels[tag]
            for i in range(mat.shape[0]):
                fields = [_fmt(v) for v in mat[i]] + [str(int(tag_labels[i])), tag]
                fh.write(",".join(fields) + "\n")
    return path


def load_embeddings(path: str | Path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Inverse of :func:`export_embeddings`: (features, labels, origins)."""
    path = Path(path)
    if not path.exists():
        raise DataError("MISSING_FILE", f"required file missing: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-2:] != ["label", "origin"]:
            raise DataError("BAD_HEADER",
                            f"{path}: expected trailing columns label,origin")
        d = len(header) - 2
        feats, labs, origins = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataError("RAGGED_ROWS", f"{path}:{lineno} wrong field count")
            feats.append([float(v) for v in row[:d]])
            labs.append(int(row[d]))
            origins.append(row[d + 1])
    return (np.asarray(feats, dtype=np.float64).reshape(len(feats), d),
            np.asarray(labs, dtype=np.int64), origins)
