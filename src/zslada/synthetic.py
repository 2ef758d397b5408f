"""Synthetic benchmark worlds with known Gaussian ground truth.

Every world is fully determined by its spec (including the seed): class
attributes are uniform on [-1, 1]^attr_dim, true class means come from
a deterministic map of the attributes rescaled so the nearest pair of
class means sits exactly ``6 * sigma_max`` apart (near-perfect Bayes
accuracy before any shift), and per-class diagonal precisions are drawn
inside ``precision_range``.  A configurable shift corrupts ONLY the
unseen-class test rows, which is what the adaptation stage has to undo.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .base_model import draw_gaussian
from .data import ClassAttributeTable, DatasetBundle, FeatureDataset, SplitSpec, save_dataset
from .errors import ConfigError, DataError
from .rng import named_stream

SHIFT_KINDS = ("none", "affine", "nonlinear")
ATTRIBUTE_MAPS = ("linear", "mlp")


@dataclass(frozen=True)
class SyntheticWorldSpec:
    S: int
    U: int
    d: int
    attr_dim: int
    samples_per_class: int
    attribute_map: str = "linear"
    map_hidden: tuple[int, ...] = (32,)
    precision_range: tuple[float, float] = (0.6, 1.4)
    shift_kind: str = "none"
    shift_magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.S < 1 or self.U < 0:
            raise ConfigError(f"need S >= 1 and U >= 0, got S={self.S}, U={self.U}")
        if self.d < 1 or self.attr_dim < 1:
            raise ConfigError("d and attr_dim must be positive")
        if self.samples_per_class < 1:
            raise ConfigError("samples_per_class must be positive")
        if self.attribute_map not in ATTRIBUTE_MAPS:
            raise ConfigError(
                f"attribute_map must be one of {ATTRIBUTE_MAPS}, got {self.attribute_map!r}")
        if self.shift_kind not in SHIFT_KINDS:
            raise ConfigError(
                f"shift_kind must be one of {SHIFT_KINDS}, got {self.shift_kind!r}")
        lo, hi = self.precision_range
        if not 0 < lo < hi:
            raise ConfigError(f"precision_range must satisfy 0 < lo < hi, got {self.precision_range}")
        if self.shift_magnitude < 0:
            raise ConfigError("shift_magnitude must be >= 0")

    @property
    def n_classes(self) -> int:
        return self.S + self.U


@dataclass
class SyntheticTruth:
    """True generating parameters, the oracle for every derived check."""

    class_means: np.ndarray
    class_precisions: np.ndarray
    scale: float
    shift_kind: str
    shift_magnitude: float
    shift_offset: np.ndarray | None = None
    nonlinear_weights: np.ndarray | None = None

    def apply_shift(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.shift_kind == "none" or self.shift_magnitude == 0.0:
            return x
        if self.shift_kind == "affine":
            return x + self.shift_offset
        scaled = x @ self.nonlinear_weights / np.sqrt(x.shape[-1])
        return x + self.shift_magnitude * np.tanh(scaled)

    def to_dict(self) -> dict:
        """Everything but ``nonlinear_weights``, which ``make_synthetic_world``
        redraws from the spec's seed and which grow with d squared."""
        return {
            "class_means": self.class_means.tolist(),
            "class_precisions": self.class_precisions.tolist(),
            "scale": self.scale,
            "shift_kind": self.shift_kind,
            "shift_magnitude": self.shift_magnitude,
            "shift_offset": None if self.shift_offset is None else self.shift_offset.tolist(),
        }


@dataclass
class SyntheticWorld:
    spec: SyntheticWorldSpec
    dataset: FeatureDataset
    attributes: ClassAttributeTable
    truth: SyntheticTruth

    @property
    def bundle(self) -> DatasetBundle:
        return DatasetBundle(dataset=self.dataset, attributes=self.attributes)


def _map_attributes(spec: SyntheticWorldSpec, attrs: np.ndarray) -> np.ndarray:
    if spec.attribute_map == "linear":
        stream = named_stream(spec.seed, "map")
        W = stream.standard_normal((spec.attr_dim, spec.d)) / np.sqrt(spec.attr_dim)
        return attrs @ W
    h = attrs
    for i, width in enumerate(spec.map_hidden):
        stream = named_stream(spec.seed, "map", i)
        W = stream.standard_normal((h.shape[1], width)) / np.sqrt(h.shape[1])
        b = stream.standard_normal(width) * 0.1
        h = np.tanh(h @ W + b)
    stream = named_stream(spec.seed, "map", len(spec.map_hidden))
    W = stream.standard_normal((h.shape[1], spec.d)) / np.sqrt(h.shape[1])
    return h @ W


def _min_pairwise_distance(means: np.ndarray) -> float:
    n = means.shape[0]
    if n < 2:
        return np.inf
    diffs = means[:, None, :] - means[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(-1))
    dist[np.diag_indices(n)] = np.inf
    return float(dist.min())


def make_synthetic_world(spec: SyntheticWorldSpec) -> SyntheticWorld:
    n_classes = spec.n_classes
    attrs = named_stream(spec.seed, "attrs").uniform(-1.0, 1.0,
                                                     (n_classes, spec.attr_dim))
    raw_means = _map_attributes(spec, attrs)

    sigma_max = 1.0 / np.sqrt(spec.precision_range[0])
    target = 6.0 * sigma_max
    min_dist = _min_pairwise_distance(raw_means)
    if n_classes >= 2:
        if not np.isfinite(min_dist) or min_dist < 1e-9:
            raise DataError(
                "INFEASIBLE_SEPARATION",
                f"nearest class means are {min_dist:.2e} apart before scaling; "
                "increase d or attr_dim so classes can separate")
        scale = target / min_dist
    else:
        scale = 1.0
    means = raw_means * scale

    lo, hi = spec.precision_range
    precisions = named_stream(spec.seed, "prec").uniform(lo, hi, (n_classes, spec.d))

    truth = SyntheticTruth(class_means=means, class_precisions=precisions,
                           scale=scale, shift_kind=spec.shift_kind,
                           shift_magnitude=spec.shift_magnitude)
    if spec.shift_kind == "affine":
        # Shift direction lives in the span of the unseen-mean differences:
        # a displacement orthogonal to the class constellation never crosses
        # a decision boundary, so magnitude would not control confusion.
        unseen_means = means[spec.S:]
        if len(unseen_means) >= 2:
            diffs = unseen_means[1:] - unseen_means[0]
            basis, _ = np.linalg.qr(diffs.T)
        else:
            basis = np.eye(spec.d)[:, :1]
        coeffs = named_stream(spec.seed, "shift").standard_normal(basis.shape[1])
        direction = basis @ coeffs
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            direction = basis[:, 0]
            norm = 1.0
        truth.shift_offset = spec.shift_magnitude * direction / norm
    elif spec.shift_kind == "nonlinear":
        truth.nonlinear_weights = named_stream(spec.seed, "shift").standard_normal(
            (spec.d, spec.d))

    n = spec.samples_per_class
    blocks = []
    labels = []
    for c in range(n_classes):
        rows = draw_gaussian(means[c], precisions[c], n, named_stream(spec.seed, "samples", c))
        if c >= spec.S:
            rows = truth.apply_shift(rows)
        blocks.append(rows)
        labels.extend([c] * n)
    features = np.vstack(blocks)
    labels = np.asarray(labels, dtype=np.int64)

    seen_ids = list(range(spec.S))
    unseen_ids = list(range(spec.S, n_classes))
    split = SplitSpec(
        seen_class_ids=seen_ids,
        unseen_class_ids=unseen_ids,
        train_row_indices=list(range(spec.S * n)),
        test_row_indices=list(range(spec.S * n, n_classes * n)),
    )
    dataset = FeatureDataset(
        features=features, labels=labels, split=split,
        provenance=f"synthetic seed={spec.seed} shift={spec.shift_kind}"
                   f" magnitude={spec.shift_magnitude}")
    table = ClassAttributeTable(
        attributes=attrs,
        class_ids=list(range(n_classes)),
        seen_mask=np.asarray([c < spec.S for c in range(n_classes)], dtype=bool),
    )
    return SyntheticWorld(spec=spec, dataset=dataset, attributes=table, truth=truth)


def save_synthetic_world(dir_path: str | Path, world: SyntheticWorld) -> Path:
    dir_path = save_dataset(dir_path, world.dataset, world.attributes)
    record = {"spec": asdict(world.spec), "truth": world.truth.to_dict()}
    with open(Path(dir_path) / "truth.json", "w") as fh:
        json.dump(record, fh)
        fh.write("\n")
    return dir_path
