"""Scoring protocols: per-class top-1, classifier M1, prototype M2.

All accuracies are unweighted means over classes, so unbalanced test
sets cannot hide a collapsed class behind overall accuracy.  Classes
with no test rows are excluded from the mean and listed in the report.
Rows are scored independently; ``ZSLADA_THREADS`` (default 1) splits
them over threads, which gains nothing once BLAS threads fill the cores.
"""
from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ada import VARIANT_ROLES, VARIANTS, AdaState, adapt, classify, map_prototypes
from .base_model import BaseZslModel, class_params_matrix, gaussian_scores, predict
from .data import FeatureDataset, write_csv
from .errors import ConfigError, DataError

METRIC_KINDS = ("inductive", "m1", "m2")


@dataclass(frozen=True)
class EvalReport:
    per_class_acc: dict[int, float]
    mean_per_class_acc: float
    n_per_class: dict[int, int]
    metric_kind: str
    excluded: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.metric_kind not in METRIC_KINDS:
            raise ConfigError(f"metric_kind must be one of {METRIC_KINDS}")


def eval_workers() -> int:
    raw = os.environ.get("ZSLADA_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"ZSLADA_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"ZSLADA_THREADS must be >= 1, got {workers}")
    return workers


def parallel_rows(fn: Callable[[np.ndarray], np.ndarray], X: np.ndarray,
                  workers: int | None = None) -> np.ndarray:
    """Apply ``fn`` to row chunks of ``X`` and concatenate in order."""
    X = np.asarray(X)
    if workers is None:
        workers = eval_workers()
    if workers == 1 or X.shape[0] < 2 * workers:
        return np.asarray(fn(X))
    chunks = np.array_split(X, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(fn, chunks))
    return np.concatenate(parts)


def per_class_top1(predictions: np.ndarray, ground_truth: np.ndarray,
                   label_space: Sequence[int] | None = None,
                   metric_kind: str = "inductive") -> EvalReport:
    """Accuracy per class, then the unweighted mean across classes.

    ``label_space`` adds classes that might have no test rows; those are
    excluded from the mean and surfaced in ``excluded``.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    ground_truth = np.asarray(ground_truth, dtype=np.int64)
    if predictions.shape != ground_truth.shape or predictions.ndim != 1:
        raise ConfigError("predictions and ground truth must be equal-length vectors")
    if predictions.size == 0:
        raise ConfigError("cannot score an empty prediction set")
    classes = sorted(set(int(v) for v in ground_truth))
    expected = sorted(int(c) for c in label_space) if label_space is not None else classes
    stray = set(classes) - set(expected)
    if stray:
        raise ConfigError(f"ground truth contains labels outside the "
                          f"evaluated label space: {sorted(stray)}")
    per_class = {}
    n_per_class = {}
    excluded = []
    for c in expected:
        mask = ground_truth == c
        n = int(mask.sum())
        if n == 0:
            excluded.append(c)
            continue
        n_per_class[c] = n
        per_class[c] = float(np.mean(predictions[mask] == c))
    mean = float(np.mean(list(per_class.values())))
    return EvalReport(per_class_acc=per_class, mean_per_class_acc=mean,
                      n_per_class=n_per_class, metric_kind=metric_kind,
                      excluded=tuple(excluded))


def _require_truth(test_data: FeatureDataset) -> tuple[np.ndarray, np.ndarray]:
    X, truth = test_data.test_rows()
    if truth is None or not np.any(truth >= 0):
        raise DataError("BAD_VALUE", "scoring needs ground-truth test labels")
    keep = truth >= 0
    return X[keep], truth[keep]


def inductive_accuracy(model: BaseZslModel, test_data: FeatureDataset) -> EvalReport:
    """Base-model accuracy with prediction restricted to unseen classes."""
    X, truth = _require_truth(test_data)
    picks = parallel_rows(lambda rows: predict(model, rows, label_space="unseen"), X)
    return per_class_top1(picks, truth, label_space=model.attribute_table.unseen_ids,
                          metric_kind="inductive")


def lacks_metric(variant: str, metric: str) -> bool:
    """The one rule for which metric a variant cannot produce: M1 scores
    with C_T and M2 maps prototypes through G_T, so a variant that does
    not train that network has no such metric."""
    role = {"m1": "c_t", "m2": "g_t"}.get(metric)
    return role is not None and role not in VARIANT_ROLES[variant]


def m1_accuracy(state: AdaState, test_data: FeatureDataset) -> EvalReport:
    """Per-class accuracy of the target-domain classifier C_T."""
    if lacks_metric(state.variant, "m1"):
        raise ConfigError(f"{state.variant} trains no classifier; M1 is not applicable")
    if state.iteration == 0:
        raise ConfigError("classifier has not been trained yet")
    X, truth = _require_truth(test_data)
    picks = parallel_rows(lambda rows: classify(state, rows), X)
    return per_class_top1(picks, truth, label_space=state.unseen_ids,
                          metric_kind="m1")


def m2_accuracy(state: AdaState, base_model: BaseZslModel,
                test_data: FeatureDataset, n_samples: int = 10_000,
                seed: int = 0) -> EvalReport:
    """Nearest transformed prototype under the base model's Gaussian
    metric.  One Gaussian table of the unseen classes feeds both the
    prototypes (map_prototypes draws from its rows) and the scorer, whose
    precisions (and log-det convention) stay exactly as the base model
    learned them."""
    if lacks_metric(state.variant, "m2"):
        raise ConfigError(f"{state.variant} trains no generator; M2 is not applicable")
    X, truth = _require_truth(test_data)
    ids = state.unseen_ids
    table = class_params_matrix(base_model, ids)
    protos = map_prototypes(state, table, n_samples, seed)
    mu = np.vstack([protos[c] for c in ids])
    precisions = table[1]

    def score(rows: np.ndarray) -> np.ndarray:
        ll = gaussian_scores(rows, mu, precisions, base_model.include_logdet)
        return np.asarray(ids, dtype=np.int64)[np.argmax(ll, axis=1)]

    picks = parallel_rows(score, X)
    return per_class_top1(picks, truth, label_space=ids, metric_kind="m2")


@dataclass(frozen=True)
class AblationRow:
    variant: str
    m1: float | None
    m2: float | None


@dataclass(frozen=True)
class AblationTable:
    rows: tuple[AblationRow, ...]
    base_model_hash: str

    def row(self, variant: str) -> AblationRow:
        for r in self.rows:
            if r.variant == variant:
                return r
        raise ConfigError(f"no ablation row for variant {variant!r}")


def ablation_run(base_model: BaseZslModel, test_data: FeatureDataset, config,
                 variants: Sequence[str] = VARIANTS,
                 n_samples: int = 10_000, seed: int = 0) -> AblationTable:
    """Runs each variant from the same base model and scores M1/M2.

    Cells a variant cannot produce (``lacks_metric``) are None.
    """
    base_hash = base_model_hash(base_model)
    rows = []
    for variant in variants:
        state, _ = adapt(base_model, test_data, replace(config, variant=variant))
        m1 = m2 = None
        if not lacks_metric(variant, "m1"):
            m1 = m1_accuracy(state, test_data).mean_per_class_acc
        if not lacks_metric(variant, "m2"):
            m2 = m2_accuracy(state, base_model, test_data,
                             n_samples=n_samples, seed=seed).mean_per_class_acc
        rows.append(AblationRow(variant=variant, m1=m1, m2=m2))
        if base_model_hash(base_model) != base_hash:
            raise ConfigError(f"variant {variant!r} mutated the base model")
    return AblationTable(rows=tuple(rows), base_model_hash=base_hash)


def base_model_hash(model: BaseZslModel) -> str:
    h = hashlib.sha256()
    for arr in (model.mean_net.params, model.mean_net.stats,
                model.prec_net.params, model.prec_net.stats):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(model.attribute_table.table_hash().encode())
    h.update(b"logdet" if model.include_logdet else b"nologdet")
    return h.hexdigest()


def write_report_csv(report: EvalReport, path: str | Path) -> Path:
    rows = []
    for c in sorted(set(report.per_class_acc) | set(report.excluded)):
        if c in report.excluded:
            rows.append((c, 0, 0, None))
            continue
        n = report.n_per_class[c]
        acc = report.per_class_acc[c]
        rows.append((c, n, int(round(acc * n)), acc))
    totals = [sum(row[k] for row in rows) for k in (1, 2)]  # n and correct
    rows.append(("MEAN", *totals, report.mean_per_class_acc))
    return write_csv(path, ("class_id", "n", "correct", "acc"), rows)
