"""Attribute-conditioned Gaussian classifier.

Two MLPs map a class attribute vector to the parameters of a diagonal
Gaussian over features: ``mean_net`` produces the mean, ``prec_net``
produces a raw vector squashed to precisions in (0.5, 1.5) via
``p = 0.5 + sigmoid(raw)``.  Training maximizes the minibatch-averaged
log-likelihood of each seen-class sample under its own class, with the
constant ``-d log(2*pi) / 2`` and the factor 1/2 dropped everywhere, so
likelihood rankings are unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import ClassAttributeTable, FeatureDataset
from .errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    NumericalDivergence,
)
from .nn.checkpoint import load_container, save_container
from .nn.mlp import (MlpCache, MlpNetwork, MlpSpec, dropout_seed, forward_eval, mlp_backward,
                     mlp_forward, stable_sigmoid)
from .nn.optim import OptimizerHyper, role_stepper
from .rng import named_seed, named_stream

PRECISION_FLOOR = 0.5
PRECISION_SPAN = 1.0
# (means, precisions) of some classes, one row each, from class_params_matrix
GaussianTable = tuple[np.ndarray, np.ndarray]


@dataclass
class BaseZslModel:
    mean_net: MlpNetwork
    prec_net: MlpNetwork
    attribute_table: ClassAttributeTable
    include_logdet: bool = True

    def __post_init__(self) -> None:
        a = self.attribute_table.attr_dim
        if self.mean_net.spec.in_dim != a or self.prec_net.spec.in_dim != a:
            raise DimensionMismatch(0, a, self.mean_net.spec.in_dim)
        if self.mean_net.spec.out_dim != self.prec_net.spec.out_dim:
            raise DimensionMismatch(-1, self.mean_net.spec.out_dim,
                                    self.prec_net.spec.out_dim)

    @property
    def dim(self) -> int:
        return self.mean_net.spec.out_dim

    @property
    def attr_dim(self) -> int:
        return self.attribute_table.attr_dim


def raw_to_precision(raw: np.ndarray) -> np.ndarray:
    """Bounded precision head: (0.5, 1.5), saturating at the limits."""
    return PRECISION_FLOOR + PRECISION_SPAN * stable_sigmoid(raw)


def class_params_matrix(model: BaseZslModel,
                        class_ids: Sequence[int]) -> GaussianTable:
    """Eval-mode (means, precisions), one row per requested class: the only
    code that turns class attributes into Gaussians.  Raises
    ``NumericalDivergence`` naming the first class whose row is not finite."""
    rows = [model.attribute_table.row_of(c) for c in class_ids]
    attrs = model.attribute_table.attributes[rows]
    means = forward_eval(model.mean_net, attrs)
    precisions = raw_to_precision(forward_eval(model.prec_net, attrs))
    finite = np.isfinite(means).all(axis=1) & np.isfinite(precisions).all(axis=1)
    if not finite.all():
        bad = int(class_ids[int(np.argmin(finite))])
        raise NumericalDivergence(f"class {bad}: non-finite Gaussian mean or precision")
    return means, precisions


def gaussian_scores(X: np.ndarray, means: np.ndarray, precisions: np.ndarray,
                    include_logdet: bool = True) -> np.ndarray:
    """[n_rows x n_classes] unnormalized log-likelihood table: row i, class
    j holds ``sum(log p_j) - sum(p_j * (x_i - mu_j)^2)``, without the
    log-det term when ``include_logdet`` is false.

    ``sum(p (x - mu)^2) = (x*x)·p - x·(2 p mu) + sum(p mu^2)``, so the
    largest temporary is n_rows x d.  Classes with bit-identical (mu, p)
    get bit-identical columns: ``argmax`` still picks the first of them.
    """
    quad = (X * X) @ precisions.T
    quad -= X @ (2.0 * precisions * means).T
    quad += np.sum(precisions * means * means, axis=1)
    if include_logdet:
        return np.log(precisions).sum(axis=1) - quad
    return -quad


def loglik_matrix(model: BaseZslModel, X: np.ndarray,
                  class_ids: Sequence[int]) -> np.ndarray:
    """[n_rows x n_classes] log-likelihood table over ``class_ids``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != model.dim:
        raise DimensionMismatch(0, model.dim, X.shape[1])
    means, precisions = class_params_matrix(model, class_ids)
    return gaussian_scores(X, means, precisions, model.include_logdet)


def _resolve_label_space(model: BaseZslModel,
                         label_space: str | Sequence[int]) -> list[int]:
    if isinstance(label_space, str):
        if label_space == "all":
            ids = list(model.attribute_table.class_ids)
        elif label_space == "seen":
            ids = model.attribute_table.seen_ids
        elif label_space == "unseen":
            ids = model.attribute_table.unseen_ids
        else:
            raise ConfigError(f"unknown label space {label_space!r}")
    else:
        ids = [int(c) for c in label_space]
        for c in ids:
            model.attribute_table.row_of(c)
    if not ids:
        raise ConfigError(f"label space {label_space!r} is empty")
    return sorted(ids)


def predict(model: BaseZslModel, x: np.ndarray,
            label_space: str | Sequence[int] = "all") -> int | np.ndarray:
    """Most likely class id(s); ties go to the smallest class id."""
    ids = _resolve_label_space(model, label_space)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    ll = loglik_matrix(model, x, ids)
    picks = np.asarray(ids, dtype=np.int64)[np.argmax(ll, axis=1)]
    return int(picks[0]) if single else picks


def draw_gaussian(mean: np.ndarray, precision: np.ndarray, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n draws from N(mean, diag(1/precision)) using the supplied stream.
    Scaled and shifted in place: the bits of ``mean + noise / sqrt(p)``."""
    if n < 1:
        raise ConfigError(f"need n >= 1 draws, got {n}")
    noise = rng.standard_normal((n, mean.shape[0]))
    noise /= np.sqrt(precision)
    noise += mean
    return noise


def sample_stream(seed: int, class_id: int) -> np.random.Generator:
    """The ``"sample"`` stream every class-conditional draw of ``class_id``
    under ``seed`` reads."""
    return named_stream(seed, "sample", int(class_id))


def sample_class(model: BaseZslModel, class_id: int, n: int,
                 seed: int) -> np.ndarray:
    """n i.i.d. draws from one class-conditional, deterministic in seed;
    loops draw from the rows of one ``class_params_matrix`` table instead."""
    means, precisions = class_params_matrix(model, [class_id])
    return draw_gaussian(means[0], precisions[0], n, sample_stream(seed, class_id))


@dataclass(frozen=True)
class PseudoLabelReport:
    labels: np.ndarray
    n_per_class: dict[int, int]
    agreement_per_class: dict[int, float] | None
    mean_agreement: float | None


def pseudo_labels(model: BaseZslModel, test_data: FeatureDataset,
                  table: GaussianTable | None = None) -> PseudoLabelReport:
    """Unseen-restricted predictions for every test row.

    ``table`` is the unseen classes' ``class_params_matrix`` rows in id
    order, built here when not given.  Ground-truth labels, when present,
    feed agreement diagnostics only; the labels returned here are always
    the model's own predictions.
    """
    X, truth = test_data.test_rows()
    if X.shape[1] != model.dim:
        raise DimensionMismatch(0, model.dim, X.shape[1])
    ids = _resolve_label_space(model, "unseen")
    means, precisions = class_params_matrix(model, ids) if table is None else table
    scores = gaussian_scores(X, means, precisions, model.include_logdet)
    labels = np.asarray(ids, dtype=np.int64)[np.argmax(scores, axis=1)]
    agreement = None
    mean_agreement = None
    n_per_class: dict[int, int] = {}
    if truth is not None and np.any(truth >= 0):
        agreement = {}
        for c in sorted(set(int(v) for v in truth if v >= 0)):
            mask = truth == c
            n_per_class[c] = int(mask.sum())
            agreement[c] = float(np.mean(labels[mask] == c))
        mean_agreement = float(np.mean(list(agreement.values())))
    else:
        for c in sorted(set(int(v) for v in labels)):
            n_per_class[c] = int(np.sum(labels == c))
    return PseudoLabelReport(labels=labels, n_per_class=n_per_class,
                             agreement_per_class=agreement,
                             mean_agreement=mean_agreement)


@dataclass(frozen=True)
class PretrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 20
    holdout_fraction: float = 0.1
    mean_weight_decay: float = 0.0
    prec_weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs and patience must be >= 1")
        if not 0 <= self.holdout_fraction < 1:
            raise ConfigError("holdout_fraction must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.mean_weight_decay < 0 or self.prec_weight_decay < 0:
            raise ConfigError("weight decays must be >= 0")


def pretrain_objective(model: BaseZslModel, X: np.ndarray, y: np.ndarray,
                       rng_seed: int | None = None, update_stats: bool = False,
                       ) -> tuple[float, dict[str, list[MlpCache]]]:
    """Negative mean log-likelihood of a labeled batch, with gradients.

    Runs both nets in their current modes on the batch's unique class
    attributes and returns ``(loss, tapes)``: ``tapes["mean_net"]`` and
    ``tapes["prec_net"]`` each hold the one backpropagated cache that
    ``param_grads`` turns into that head's gradient.
    Pure in the parameters when ``update_stats`` is false and
    ``rng_seed`` is fixed, which is what gradient checking needs.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ConfigError("batch must be a nonempty matrix with one label per row")
    classes, idx = np.unique(y, return_inverse=True)
    rows = [model.attribute_table.row_of(int(c)) for c in classes]
    attrs = model.attribute_table.attributes[rows]

    mean_out, mean_cache = mlp_forward(model.mean_net, attrs,
                                       rng_seed=dropout_seed(model.mean_net, rng_seed, "mean"),
                                       update_stats=update_stats)
    raw_out, prec_cache = mlp_forward(model.prec_net, attrs,
                                      rng_seed=dropout_seed(model.prec_net, rng_seed, "prec"),
                                      update_stats=update_stats)
    p = raw_to_precision(raw_out)

    n = X.shape[0]
    k = classes.shape[0]
    loss, diff, counts = _own_class_nll(X, idx, mean_out, p, model.include_logdet)

    # d loss / d mean_out[j] = -(2 p_j / n) * sum_{i in j} (x_i - mu_j)
    accum = np.zeros((k, X.shape[1]))
    np.add.at(accum, idx, diff)
    grad_mean_out = -(2.0 / n) * p * accum

    # d loss / d p[j] = (1/n) * (sum_{i in j} (x_i - mu_j)^2 - n_j / p_j)
    sq = np.zeros((k, X.shape[1]))
    np.add.at(sq, idx, diff * diff)
    grad_p = sq / n
    if model.include_logdet:
        grad_p -= counts[:, None] / (n * p)
    grad_raw = grad_p * (p - PRECISION_FLOOR) * (PRECISION_FLOOR + PRECISION_SPAN - p)

    mlp_backward(model.mean_net, mean_cache, grad_mean_out, input_grad=False)
    mlp_backward(model.prec_net, prec_cache, grad_raw, input_grad=False)
    return loss, {"mean_net": [mean_cache], "prec_net": [prec_cache]}


def _own_class_nll(X: np.ndarray, idx: np.ndarray, means: np.ndarray,
                   precisions: np.ndarray, include_logdet: bool,
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative mean log-likelihood of each row of ``X`` under its own
    class, row ``idx[i]`` of (means, precisions); with the residuals
    ``X - means[idx]`` and each class's row count, which the pretraining
    gradient reuses.  No row is scored against another class."""
    counts = np.bincount(idx, minlength=means.shape[0]).astype(np.float64)
    diff = X - means[idx]
    nll = float(np.einsum("nd,nd->n", diff * diff, precisions[idx]).mean())
    if include_logdet:
        nll -= float((counts @ np.log(precisions).sum(axis=1)) / X.shape[0])
    return nll, diff, counts


def dataset_mean_loglik(model: BaseZslModel, X: np.ndarray, y: np.ndarray) -> float:
    """Eval-mode mean log-likelihood of each row under its own class."""
    classes, idx = np.unique(np.asarray(y, dtype=np.int64), return_inverse=True)
    means, precisions = class_params_matrix(model, classes)
    return -_own_class_nll(np.asarray(X, dtype=np.float64), idx, means, precisions,
                           model.include_logdet)[0]


def _holdout_split(y: np.ndarray, fraction: float, seed: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
    train_parts = []
    held_parts = []
    for c in sorted(set(int(v) for v in y)):
        rows = np.flatnonzero(y == c)
        k = min(int(fraction * rows.size), rows.size - 1)
        order = named_stream(seed, "holdout", c).permutation(rows.size)
        held_parts.append(rows[order[:k]])
        train_parts.append(rows[order[k:]])
    train = np.sort(np.concatenate(train_parts))
    held = np.sort(np.concatenate(held_parts)) if any(p.size for p in held_parts) \
        else np.empty(0, dtype=np.int64)
    return train, held


def pretrain(model: BaseZslModel, seen_data: FeatureDataset,
             config: PretrainConfig) -> tuple[BaseZslModel, list[tuple[int, float, float]]]:
    """Maximum-likelihood training with early stopping.

    Holds out ``holdout_fraction`` of each seen class, monitors the
    held-out mean log-likelihood, stops after ``patience`` epochs
    without improvement and restores the best parameters plus
    normalization statistics.  The heads' parameter vectors are updated
    in place.  Returns the model and a per-epoch trace of
    ``(epoch, train_ll, heldout_ll)``.
    """
    X_all, y_all = seen_data.train_rows()
    if y_all is None:
        raise DataError("BAD_VALUE", "pretraining needs labeled train rows")
    present = set(int(v) for v in y_all)
    seen = set(seen_data.split.seen_class_ids)
    not_seen = present - seen
    if not_seen:
        raise DataError("UNKNOWN_CLASS",
                        f"train rows carry non-seen labels: {sorted(not_seen)}")
    empty = sorted(seen - present)
    if empty:
        raise DataError("EMPTY_CLASS", f"seen classes without samples: {empty}")

    train_idx, held_idx = _holdout_split(y_all, config.holdout_fraction, config.seed)
    X_tr, y_tr = X_all[train_idx], y_all[train_idx]
    X_he, y_he = X_all[held_idx], y_all[held_idx]

    heads = {"mean_net": model.mean_net, "prec_net": model.prec_net}
    step_heads = role_stepper("adam", heads, {
        "mean_net": OptimizerHyper(learning_rate=config.learning_rate,
                                   weight_decay=config.mean_weight_decay),
        "prec_net": OptimizerHyper(learning_rate=config.learning_rate,
                                   weight_decay=config.prec_weight_decay)})
    for net in heads.values():
        net.set_mode("train")
    best = -np.inf
    best_snapshot = None
    stall = 0
    trace: list[tuple[int, float, float]] = []
    step = 0
    for epoch in range(config.max_epochs):
        order = named_stream(config.seed, "shuffle", epoch).permutation(X_tr.shape[0])
        epoch_ll = 0.0
        n_batches = 0
        for start in range(0, X_tr.shape[0], config.batch_size):
            rows = order[start:start + config.batch_size]
            loss, tapes = pretrain_objective(
                model, X_tr[rows], y_tr[rows],
                rng_seed=named_seed(config.seed, "batch", step), update_stats=True)
            if not np.isfinite(loss):
                raise NumericalDivergence("non-finite pretraining loss",
                                          iteration=step, breakdown={"loss": loss})
            step_heads(tapes)
            epoch_ll += -loss
            n_batches += 1
            step += 1
        train_ll = epoch_ll / n_batches
        if X_he.shape[0]:
            held_ll = dataset_mean_loglik(model, X_he, y_he)
        else:
            held_ll = train_ll
        trace.append((epoch, train_ll, held_ll))
        if held_ll > best:
            best = held_ll
            best_snapshot = (model.mean_net.params.copy(), model.mean_net.stats.copy(),
                             model.prec_net.params.copy(), model.prec_net.stats.copy())
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    if best_snapshot is not None:
        model.mean_net.set_params(best_snapshot[0])
        model.mean_net.stats[:] = best_snapshot[1]
        model.prec_net.set_params(best_snapshot[2])
        model.prec_net.stats[:] = best_snapshot[3]
    model.mean_net.set_mode("eval")
    model.prec_net.set_mode("eval")
    return model, trace


def save_base_model(path: str | Path, model: BaseZslModel) -> None:
    meta = {
        "kind": "base_model",
        "mean_spec": model.mean_net.spec.to_dict(),
        "prec_spec": model.prec_net.spec.to_dict(),
        "mean_seed": model.mean_net.seed,
        "prec_seed": model.prec_net.seed,
        "include_logdet": bool(model.include_logdet),
        "attr_table_hash": model.attribute_table.table_hash(),
    }
    save_container(path, meta, {
        "mean_params": model.mean_net.params,
        "mean_stats": model.mean_net.stats,
        "prec_params": model.prec_net.params,
        "prec_stats": model.prec_net.stats,
    })


def load_base_model(path: str | Path,
                    attribute_table: ClassAttributeTable) -> BaseZslModel:
    meta, arrays = load_container(path)
    if meta.get("kind") != "base_model":
        raise DataError("BAD_CHECKPOINT",
                        f"expected a base-model checkpoint, found {meta.get('kind')!r}")
    if meta["attr_table_hash"] != attribute_table.table_hash():
        raise DataError("BAD_CHECKPOINT",
                        "checkpoint was trained against a different attribute table")
    mean_net = MlpNetwork(spec=MlpSpec.from_dict(meta["mean_spec"]),
                          params=arrays["mean_params"], stats=arrays["mean_stats"],
                          seed=meta.get("mean_seed"), mode="eval")
    prec_net = MlpNetwork(spec=MlpSpec.from_dict(meta["prec_spec"]),
                          params=arrays["prec_params"], stats=arrays["prec_stats"],
                          seed=meta.get("prec_seed"), mode="eval")
    return BaseZslModel(mean_net=mean_net, prec_net=prec_net,
                        attribute_table=attribute_table,
                        include_logdet=bool(meta["include_logdet"]))
