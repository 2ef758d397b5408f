"""Cycle-consistent adversarial adaptation of unseen-class features.

Six networks: G_T maps generated (source) samples into the real test
(target) domain, G_S maps the other way, D_T / D_S are Wasserstein
critics with weight clipping, and C_T / C_S are classifiers over the
unseen classes.  Generator inputs carry the class label as a one-hot
appended to the feature vector.  Minibatches are class-aligned: each
batch draws one pseudo-class and pairs real rows of that class with
fresh class-conditional draws of the same class.

The reported total objective is the weighted sum
``L_adv_T + L_adv_S + chi * L_cyc + xi * L_clf_T + xi * L_clf_S`` with
``L_adv = L_G + L_D`` per side.  Optimization is alternating: one
RMSprop step on the generator-side objective (generators plus
classifiers), then ``n_critic`` RMSprop steps on the critic objective
with weight clipping, all through ``nn.optim.role_stepper``, the one
stepping routine of every training loop.  Differentiating the summed
min-max value directly would cancel the adversarial signal, so the two
objectives are separated exactly as in standard adversarial training.
The T and S sides mirror each other; ``_SIDES`` describes each side
once and both objectives loop over it.

Classifier terms follow a two-phase schedule: during warmup only the
real-data terms train the classifiers; after the recovery trigger
fires, the generator-transformed terms join, letting classifier
gradients reach the generators.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .base_model import (BaseZslModel, GaussianTable, class_params_matrix, draw_gaussian,
                         pseudo_labels, sample_stream)
from .data import FeatureDataset
from .errors import ConfigError, DataError, NumericalDivergence
from .nn.checkpoint import load_container, save_container
from .nn.mlp import (MlpCache, MlpNetwork, MlpSpec, dropout_seed, forward_eval,
                     init_network, mlp_backward, mlp_forward)
from .nn.optim import RMSPROP_BETA2, OptimizerHyper, role_stepper
from .rng import named_seed, named_stream

VARIANTS = ("full", "vanilla_ada", "cyclegan_wo", "std_da")
CYCLE_FORMS = ("cross_domain", "within_domain")
TRIGGERS = ("accuracy_crossover", "fixed_fraction")
PHASES = ("warmup", "recovery")
ROLES = ("g_t", "g_s", "d_t", "d_s", "c_t", "c_s")
# variants whose generator step also trains the classifiers
_CLF_VARIANTS = ("full", "vanilla_ada")
LOG_COLUMNS = ("iter", "L_adv_T", "L_adv_S", "L_cyc", "L_clf_T", "L_clf_S", "phase")
# Most class-conditional draws G_T transforms in one batch when prototypes,
# crossover checks or exports stream their draws (transformed_draws), so
# their memory does not grow with the number of draws.
DRAW_CHUNK = 1024


@dataclass(frozen=True)
class LabeledBatch:
    """Features plus unseen-class indices."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "features",
                           np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2:
            raise ConfigError("batch features must be a matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigError("batch needs one label per row")

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class AdaConfig:
    cycle_weight: float = 10.0
    identity_weight: float = 5.0
    classifier_weight: float = 1e-4
    n_critic: int = 5
    clip_c: float = 0.01
    n_steps: int = 2000
    batch_size: int = 64
    learning_rate: float = 1e-5
    recovery_trigger: str = "accuracy_crossover"
    recovery_fraction: float = 0.5
    crossover_interval: int = 200
    crossover_samples: int = 32
    seed: int = 100
    variant: str = "full"
    cycle_form: str = "cross_domain"
    mismatched_pairs: bool = False
    mismatched_weight: float = 0.1
    relabel_interval: int = 0
    gen_hidden: tuple[int, ...] = (1200, 1200)
    disc_hidden: tuple[int, ...] = (1600,)
    gen_dropout: float = 0.0
    use_batchnorm: bool = True

    def __post_init__(self) -> None:
        if min(self.cycle_weight, self.identity_weight, self.classifier_weight) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.n_critic < 1:
            raise ConfigError("n_critic must be >= 1")
        if self.clip_c <= 0:
            raise ConfigError("clip_c must be positive")
        if self.n_steps < 1 or self.batch_size < 1:
            raise ConfigError("n_steps and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.recovery_trigger not in TRIGGERS:
            raise ConfigError(f"recovery_trigger must be one of {TRIGGERS}")
        if not 0 < self.recovery_fraction <= 1:
            raise ConfigError("recovery_fraction must lie in (0, 1]")
        if self.crossover_interval < 1 or self.crossover_samples < 1:
            raise ConfigError("crossover interval and sample count must be >= 1")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if self.cycle_form not in CYCLE_FORMS:
            raise ConfigError(f"cycle_form must be one of {CYCLE_FORMS}")
        if self.relabel_interval < 0:
            raise ConfigError("relabel_interval must be >= 0")
        if not 0 <= self.gen_dropout < 1:
            raise ConfigError("gen_dropout must lie in [0, 1)")
        object.__setattr__(self, "gen_hidden", tuple(int(w) for w in self.gen_hidden))
        object.__setattr__(self, "disc_hidden", tuple(int(w) for w in self.disc_hidden))

    def to_dict(self) -> dict:
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "AdaConfig":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown adaptation config keys: {sorted(unknown)}")
        kwargs = dict(payload)
        for key in ("gen_hidden", "disc_hidden"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class AdaState:
    nets: dict[str, MlpNetwork]
    unseen_ids: list[int]
    variant: str
    phase: str = "warmup"
    iteration: int = 0
    pseudo: np.ndarray | None = None
    agreement_estimate: float | None = None

    def __post_init__(self) -> None:
        missing = set(ROLES) - set(self.nets)
        if missing:
            raise ConfigError(f"state is missing networks: {sorted(missing)}")
        if self.phase not in PHASES:
            raise ConfigError(f"phase must be one of {PHASES}")
        self.unseen_ids = sorted(int(c) for c in self.unseen_ids)

    @property
    def n_unseen(self) -> int:
        return len(self.unseen_ids)

    @property
    def g_t(self) -> MlpNetwork:
        return self.nets["g_t"]

    @property
    def c_t(self) -> MlpNetwork:
        return self.nets["c_t"]


def augment_label(x: np.ndarray, c: int, n_unseen: int) -> np.ndarray:
    """Append the one-hot of unseen-class index ``c`` to a feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError("augment_label takes a single feature vector")
    if not 0 <= c < n_unseen:
        raise ConfigError(f"class index {c} out of range for {n_unseen} unseen classes")
    onehot = np.zeros(n_unseen)
    onehot[c] = 1.0
    return np.concatenate([x, onehot])


def augment_batch(X: np.ndarray, labels: np.ndarray, n_unseen: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= n_unseen):
        raise ConfigError(f"class index out of range for {n_unseen} unseen classes")
    onehot = np.zeros((X.shape[0], n_unseen))
    onehot[np.arange(X.shape[0]), labels] = 1.0
    return np.hstack([X, onehot])


def _mean_l1(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch mean of per-row L1 norms, and its gradient wrt ``pred``."""
    diff = pred - target
    return float(np.abs(diff).sum(axis=1).mean()), np.sign(diff) / diff.shape[0]


def _ce(log_probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy from log-softmax outputs, and its gradient."""
    n = log_probs.shape[0]
    if np.any(labels < 0) or np.any(labels >= log_probs.shape[1]):
        raise ConfigError("classifier label out of range")
    rows = np.arange(n)
    loss = -float(log_probs[rows, labels].mean())
    grad = np.zeros_like(log_probs)
    grad[rows, labels] = -1.0 / n
    return loss, grad


def _check_batches(source: LabeledBatch, target: LabeledBatch) -> None:
    if source.n == 0 or target.n == 0:
        raise ConfigError("empty batch")
    if source.features.shape[1] != target.features.shape[1]:
        raise ConfigError("source and target feature dims differ")


class _Side(NamedTuple):
    """One side of the adaptation game and the dropout-seed tag of each of
    its forward passes.  Its generator translates the other side's batch
    into the ``own`` domain, where its critic and classifier live."""

    name: str
    g: str
    d: str
    c: str
    own: str
    translate: str
    ident: str
    d_fake: str
    d_real: str
    cyc_back: str
    c_real: str
    c_gen: str


_SIDES = (
    _Side("T", "g_t", "d_t", "c_t", "target", "gt_src", "gt_id", "d_fake_t", "d_real_t",
          "cyc_back_s", "ct_real", "ct_gen"),
    _Side("S", "g_s", "d_s", "c_s", "source", "gs_tgt", "gs_id", "d_fake_s", "d_real_s",
          "cyc_back_t", "cs_real", "cs_gen"),
)


def _sides(variant: str, objective: str) -> tuple[_Side, ...]:
    if variant == "std_da":
        raise ConfigError(f"std_da has no {objective} objective")
    return _SIDES[:1] if variant == "vanilla_ada" else _SIDES


def _own_other(side: _Side, source_item, target_item) -> tuple:
    """The side's own-domain item first, the other domain's second."""
    if side.own == "target":
        return target_item, source_item
    return source_item, target_item


def init_ada_state(base_model: BaseZslModel, config: AdaConfig) -> AdaState:
    """Fresh networks sized from the base model."""
    d = base_model.dim
    unseen = base_model.attribute_table.unseen_ids
    if not unseen:
        raise DataError("EMPTY_CLASS_SET", "adaptation needs at least one unseen class")
    u = len(unseen)
    specs = {
        "g": MlpSpec.dense((d + u, *config.gen_hidden, d), activation="leaky_relu:0.2",
                           batchnorm=config.use_batchnorm, dropout=config.gen_dropout),
        "d": MlpSpec.dense((d, *config.disc_hidden, 1), activation="leaky_relu:0.2",
                           batchnorm=config.use_batchnorm),
        "c": MlpSpec.dense((d, u), out_activation="log_softmax"),
    }
    nets = {role: init_network(specs[role[0]], seed=named_seed(config.seed, "init", role))
            for role in ROLES}
    return AdaState(nets=nets, unseen_ids=list(unseen), variant=config.variant)


def _trained_roles(variant: str, objective: str) -> tuple[str, ...]:
    """Roles whose parameters an objective of ``variant`` differentiates."""
    sides = _sides(variant, objective)
    if objective == "critic":
        return tuple(side.d for side in sides)
    clf = tuple(side.c for side in sides) if variant in _CLF_VARIANTS else ()
    return tuple(side.g for side in sides) + clf


def generator_objective(state: AdaState, config: AdaConfig, source: LabeledBatch,
                        target: LabeledBatch, commit_stats: bool = False,
                        rng_seed: int | None = None,
                        ) -> tuple[float, dict[str, float], dict[str, list[MlpCache]]]:
    """Generator-step objective: value, raw term breakdown, and the tape
    of every net updated in this step.

    A tape is the list of backpropagated caches whose gradients sum to
    the role's exact parameter gradient; ``param_grads`` builds it.
    Critic parameters are frozen (their scores still shape the gradient,
    but they get no tape); the breakdown also carries the value-only critic losses
    ``L_D_T`` / ``L_D_S``, so the summed min-max value of the variant is
    ``value + L_D_T + L_D_S``.  Terms a variant does not train read 0.
    """
    _check_batches(source, target)
    if source.n != target.n:
        raise ConfigError("generator step needs equally sized class-aligned batches")
    sides = _sides(state.variant, "generator")
    has_clf = state.variant in _CLF_VARIANTS
    # vanilla keeps only the plain adversarial game: both the cycle and
    # the identity anchor are the constrained-translation additions.
    beta = 0.0 if state.variant == "vanilla_ada" else config.identity_weight
    chi = config.cycle_weight
    xi = config.classifier_weight
    n, d = target.features.shape
    u = state.n_unseen
    nets = state.nets

    def fw(role: str, X: np.ndarray, tag: str, commit: bool = commit_stats):
        return mlp_forward(nets[role], X, update_stats=commit,
                           rng_seed=dropout_seed(nets[role], rng_seed, tag))

    def bw(role: str, cache: MlpCache, grad_out: np.ndarray, input_grad: bool = True):
        tapes[role].append(cache)
        return mlp_backward(nets[role], cache, grad_out, input_grad=input_grad)

    aug_src = augment_batch(source.features, source.labels, u)
    aug_tgt = augment_batch(target.features, target.labels, u)
    tapes = {role: [] for role in _trained_roles(state.variant, "generator")}
    breakdown = dict.fromkeys(
        ("L_G_T", "L_D_T", "L_G_S", "L_D_S", "L_cyc", "L_clf_T", "L_clf_S"), 0.0)
    moved, cache_g, at_moved = {}, {}, {}

    # translation, identity anchor and critic score
    for side in sides:
        own, other = _own_other(side, source, target)
        own_aug, other_aug = _own_other(side, aug_src, aug_tgt)
        moved[side], cache_g[side] = fw(side.g, other_aug, side.translate)
        d_fake, cache_d_fake = fw(side.d, moved[side], side.d_fake, False)
        ident_out, cache_ident = fw(side.g, own_aug, side.ident)
        ident, ident_grad = _mean_l1(ident_out, own.features)
        breakdown[f"L_G_{side.name}"] = beta * ident - float(d_fake.mean())
        breakdown[f"L_D_{side.name}"] = (
            float(d_fake.mean())
            - float(fw(side.d, own.features, side.d_real, False)[0].mean()))
        at_moved[side] = np.zeros((n, d))
        bw(side.g, cache_ident, beta * ident_grad, input_grad=False)
        at_moved[side] += mlp_backward(nets[side.d], cache_d_fake, np.full((n, 1), -1.0 / n))

    # cycle legs: each side's translated rows go back through the other generator
    if len(sides) == 2:
        for side, back in zip(sides, reversed(sides)):
            own, other = _own_other(side, source, target)
            rebuilt, cache_back = fw(back.g, augment_batch(moved[side], other.labels, u),
                                     side.cyc_back)
            ref = own if config.cycle_form == "cross_domain" else other
            leg, leg_grad = _mean_l1(rebuilt, ref.features)
            breakdown["L_cyc"] += leg
            gin = bw(back.g, cache_back, chi * leg_grad)
            at_moved[side] += gin[:, :d]

    # classifiers: real own-domain rows, plus the translated rows in recovery
    for side in sides if has_clf else ():
        own, other = _own_other(side, source, target)
        out, cache_c = fw(side.c, own.features, side.c_real)
        clf, ce_grad = _ce(out, own.labels)
        bw(side.c, cache_c, xi * ce_grad, input_grad=False)
        if state.phase == "recovery":
            out, cache_c = fw(side.c, moved[side], side.c_gen)
            term, ce_grad = _ce(out, other.labels)
            clf += term
            at_moved[side] += bw(side.c, cache_c, xi * ce_grad)
        breakdown[f"L_clf_{side.name}"] = clf
    if has_clf and config.mismatched_pairs and u > 1:
        wrong = _mismatched_labels(target.labels, u, config.seed, state.iteration)
        out, cache_c = fw("c_t", target.features, "ct_wrong", False)
        term, ce_grad = _ce(out, wrong)
        breakdown["L_clf_T"] -= config.mismatched_weight * term
        bw("c_t", cache_c, -config.mismatched_weight * xi * ce_grad, input_grad=False)

    for side in sides:
        bw(side.g, cache_g[side], at_moved[side], input_grad=False)

    value = breakdown["L_G_T"] + breakdown["L_G_S"] + chi * breakdown["L_cyc"]
    value += xi * (breakdown["L_clf_T"] + breakdown["L_clf_S"])
    return float(value), breakdown, tapes


def _mismatched_labels(labels: np.ndarray, u: int, seed: int,
                       iteration: int) -> np.ndarray:
    offsets = named_stream(seed, "mismatch", iteration).integers(1, u, labels.shape[0])
    return (labels + offsets) % u


def critic_objective(state: AdaState, config: AdaConfig, source: LabeledBatch,
                     target: LabeledBatch, commit_stats: bool = False,
                     rng_seed: int | None = None,
                     ) -> tuple[float, dict[str, float], dict[str, list[MlpCache]]]:
    """Critic-step objective with generators frozen; returns each
    critic's tape as ``generator_objective`` does."""
    _check_batches(source, target)
    u = state.n_unseen
    nets = state.nets

    def fw(role: str, X: np.ndarray, tag: str, commit: bool = commit_stats):
        return mlp_forward(nets[role], X, update_stats=commit,
                           rng_seed=dropout_seed(nets[role], rng_seed, tag))

    tapes = {role: [] for role in _trained_roles(state.variant, "critic")}
    breakdown = {"L_D_T": 0.0, "L_D_S": 0.0}
    for side in _sides(state.variant, "critic"):
        own, other = _own_other(side, source, target)
        fakes = fw(side.g, augment_batch(other.features, other.labels, u), side.translate,
                   False)[0]
        out_f, cache_f = fw(side.d, fakes, side.d_fake)
        out_r, cache_r = fw(side.d, own.features, side.d_real)
        breakdown[f"L_D_{side.name}"] = float(out_f.mean()) - float(out_r.mean())
        nf, nr = fakes.shape[0], own.n
        mlp_backward(nets[side.d], cache_f, np.full((nf, 1), 1.0 / nf), input_grad=False)
        mlp_backward(nets[side.d], cache_r, np.full((nr, 1), -1.0 / nr), input_grad=False)
        tapes[side.d] += (cache_f, cache_r)
    return float(sum(breakdown.values())), breakdown, tapes


def _class_pools(pseudo: np.ndarray, unseen_ids: Sequence[int]) -> list[np.ndarray]:
    """The test rows pseudo-labelled as each unseen class, in class order."""
    return [np.flatnonzero(pseudo == cid) for cid in unseen_ids]


def _draw_batches(state: AdaState, table: GaussianTable, test_X: np.ndarray,
                  pools: list[np.ndarray], config: AdaConfig, *path,
                  ) -> tuple[LabeledBatch, LabeledBatch]:
    """One class-aligned (source, target) pair, deterministic in path.
    ``table`` and ``pools`` hold each unseen class's (mu, p) rows and
    pseudo-labelled test rows, in ``state.unseen_ids`` order."""
    nonempty = [j for j, rows in enumerate(pools) if rows.size]
    stream = named_stream(config.seed, "batch", *path)
    j = nonempty[int(stream.integers(len(nonempty)))]
    rows = pools[j]
    picks = rows[stream.integers(rows.size, size=config.batch_size)]
    labels = np.full(config.batch_size, j, dtype=np.int64)
    y = draw_gaussian(table[0][j], table[1][j], config.batch_size,
                      sample_stream(named_seed(config.seed, "src", *path), state.unseen_ids[j]))
    return (LabeledBatch(features=y, labels=labels),
            LabeledBatch(features=test_X[picks], labels=labels))


def classify(net: MlpNetwork, X: np.ndarray, unseen_ids: Sequence[int]) -> np.ndarray:
    """Eval-mode classifier predictions mapped back to class ids."""
    log_probs = forward_eval(net, np.asarray(X, dtype=np.float64))
    ids = np.asarray(sorted(int(c) for c in unseen_ids), dtype=np.int64)
    return ids[np.argmax(log_probs, axis=1)]


def transformed_draws(state: AdaState, table: GaussianTable, j: int, n: int,
                      seed: int):
    """``n`` draws from unseen class index ``j``'s row of ``table`` (the base
    model's Gaussians of ``state.unseen_ids``, in that order) and G_T of them
    with the class's one-hot appended, yielded as ``(draws, moved)`` chunks
    of ``DRAW_CHUNK`` rows and then the rest, so memory does not grow with
    ``n``.  ``draws`` is a view of a buffer the next chunk overwrites.
    The chunks have the bits of one batch of all ``n`` draws:

    - they read one ``"sample"`` stream in turn, which numpy fills exactly
      as it fills one ``standard_normal`` batch of ``n`` rows;
    - no chunk has one row when ``n > 1``: a one-row product takes BLAS's
      matrix-vector path, whose bits differ, so a one-row rest joins the
      chunk before it.
    """
    if n < 1:
        raise ConfigError(f"need n >= 1 draws, got {n}")
    chunks = [DRAW_CHUNK] * (n // DRAW_CHUNK)
    rest = n % DRAW_CHUNK
    if rest == 1 and chunks:
        chunks[-1] += 1  # never a one-row chunk
    elif rest:
        chunks.append(rest)
    mean, precision = table[0][j], table[1][j]
    stream = sample_stream(seed, state.unseen_ids[j])
    d = mean.shape[0]
    block = np.zeros((max(chunks), d + state.n_unseen))
    block[:, d + j] = 1.0
    for rows in chunks:
        block[:rows, :d] = draw_gaussian(mean, precision, rows, stream)
        yield block[:rows, :d], forward_eval(state.g_t, block[:rows])


def _crossover_accuracy(state: AdaState, table: GaussianTable,
                        config: AdaConfig, iteration: int) -> float:
    """C_T accuracy on freshly generated, G_T-transformed labeled draws."""
    n = config.crossover_samples
    seed = named_seed(config.seed, "xover", iteration)
    correct = []
    for j, cid in enumerate(state.unseen_ids):
        hits = sum(int(np.count_nonzero(classify(state.c_t, moved, state.unseen_ids) == cid))
                   for _, moved in transformed_draws(state, table, j, n, seed))
        correct.append(hits / n)
    return float(np.mean(correct))


def _maybe_switch_phase(state: AdaState, table: GaussianTable,
                        config: AdaConfig) -> None:
    if state.phase == "recovery" or state.variant == "cyclegan_wo":
        return
    it = state.iteration
    if it + 1 >= int(config.recovery_fraction * config.n_steps):
        state.phase = "recovery"
        return
    if (config.recovery_trigger == "accuracy_crossover"
            and state.agreement_estimate is not None
            and it > 0 and it % config.crossover_interval == 0):
        acc = _crossover_accuracy(state, table, config, it)
        if acc >= state.agreement_estimate:
            state.phase = "recovery"


def _setup(base_model: BaseZslModel, test_data: FeatureDataset, config: AdaConfig,
           ) -> tuple[AdaState, np.ndarray, GaussianTable, list[np.ndarray]]:
    """What every adaptation loop starts from: a fresh state holding the
    base model's pseudo-labels, the test rows, the unseen classes' one
    Gaussian table, which the pseudo-labels are scored against and every
    draw reads, and each class's pool of pseudo-labelled rows.  Refuses a
    split with no test rows before any of it is built."""
    test_X, _ = test_data.test_rows()
    if test_X.shape[0] == 0:
        raise DataError("EMPTY_SPLIT", "adaptation needs test rows, the split has none")
    state = init_ada_state(base_model, config)
    table = class_params_matrix(base_model, state.unseen_ids)
    report = pseudo_labels(base_model, test_data, table)
    state.pseudo = report.labels.copy()
    state.agreement_estimate = report.mean_agreement
    return state, test_X, table, _class_pools(state.pseudo, state.unseen_ids)


def adapt(base_model: BaseZslModel, test_data: FeatureDataset,
          config: AdaConfig) -> tuple[AdaState, list[tuple]]:
    """Full alternating adversarial adaptation loop.

    Pseudo-labels are computed once up front and frozen (unless
    ``relabel_interval`` asks the current classifier to refresh them).
    Each outer iteration takes one generator+classifier RMSprop step,
    then ``n_critic`` critic steps with weight clipping.  The returned
    log has one row per iteration matching ``LOG_COLUMNS``.
    """
    if config.variant == "std_da":
        return train_std_da(base_model, test_data, config)
    state, test_X, table, pools = _setup(base_model, test_data, config)
    log: list[tuple] = []
    roles = _trained_roles(state.variant, "generator") + _trained_roles(state.variant, "critic")
    hyper = OptimizerHyper(learning_rate=config.learning_rate, beta2=RMSPROP_BETA2)
    step = role_stepper("rmsprop", state.nets, dict.fromkeys(roles, hyper))

    for it in range(config.n_steps):
        state.iteration = it
        _maybe_switch_phase(state, table, config)
        src, tgt = _draw_batches(state, table, test_X, pools, config, "gen", it)
        value, bd, tapes = generator_objective(
            state, config, src, tgt, commit_stats=True,
            rng_seed=named_seed(config.seed, "drop", it, "gen"))
        _abort_if_nonfinite(value, bd, it)
        step(tapes)

        for inner in range(config.n_critic):
            src2, tgt2 = _draw_batches(state, table, test_X, pools, config, "critic", it,
                                       inner)
            cval, cbd, tapes = critic_objective(
                state, config, src2, tgt2, commit_stats=True,
                rng_seed=named_seed(config.seed, "drop", it, "critic", inner))
            _abort_if_nonfinite(cval, cbd, it)
            step(tapes, clip=config.clip_c)

        if config.relabel_interval and (it + 1) % config.relabel_interval == 0 \
                and state.variant in _CLF_VARIANTS:
            state.pseudo = classify(state.c_t, test_X, state.unseen_ids)
            pools = _class_pools(state.pseudo, state.unseen_ids)

        row = (it,
               bd["L_G_T"] + bd["L_D_T"],
               bd["L_G_S"] + bd["L_D_S"],
               bd["L_cyc"], bd["L_clf_T"], bd["L_clf_S"], state.phase)
        log.append(row)
    state.iteration = config.n_steps
    return state, log


def _abort_if_nonfinite(value: float, breakdown: dict[str, float],
                        iteration: int) -> None:
    if np.isfinite(value) and all(np.isfinite(v) for v in breakdown.values()):
        return
    raise NumericalDivergence("non-finite adaptation loss", iteration=iteration,
                              breakdown=dict(breakdown))


def train_std_da(base_model: BaseZslModel, test_data: FeatureDataset,
                 config: AdaConfig) -> tuple[AdaState, list[tuple]]:
    """No-adversary baseline: trains C_T on class-conditional draws plus
    pseudo-labeled test rows.  Other networks stay at initialization."""
    config = replace(config, variant="std_da")
    state, test_X, table, pools = _setup(base_model, test_data, config)
    log: list[tuple] = []
    half = max(1, config.batch_size // 2)
    step = role_stepper("rmsprop", state.nets, {"c_t": OptimizerHyper(
        learning_rate=config.learning_rate, beta2=RMSPROP_BETA2)})
    for it in range(config.n_steps):
        state.iteration = it
        stream = named_stream(config.seed, "batch", "std", it)
        j = int(stream.integers(state.n_unseen))
        synth = draw_gaussian(table[0][j], table[1][j], half, sample_stream(
            named_seed(config.seed, "src", "std", it), state.unseen_ids[j]))
        rows = pools[j]
        if rows.size:
            picks = rows[stream.integers(rows.size, size=half)]
            X = np.vstack([synth, test_X[picks]])
        else:
            X = synth
        labels = np.full(X.shape[0], j, dtype=np.int64)
        out, cache = mlp_forward(state.c_t, X, update_stats=True,
                                 rng_seed=dropout_seed(state.c_t, config.seed, "drop", "std", it))
        loss, ce_grad = _ce(out, labels)
        if not np.isfinite(loss):
            raise NumericalDivergence("non-finite classifier loss", iteration=it,
                                      breakdown={"L_clf_T": loss})
        mlp_backward(state.c_t, cache, ce_grad, input_grad=False)
        step({"c_t": [cache]})
        row = (it, 0.0, 0.0, 0.0, loss, 0.0, state.phase)
        log.append(row)
    state.iteration = config.n_steps
    return state, log


def map_prototypes(state: AdaState, table: GaussianTable, n_samples: int,
                   seed: int) -> dict[int, np.ndarray]:
    """Per-class mean of G_T over label-augmented class-conditional draws,
    each class drawn from its row of ``table`` as in ``transformed_draws``.

    Covariances are deliberately left at the base model's values; only
    the class means move.  The draws stream through ``transformed_draws``
    and the mean keeps the bits of ``.mean(axis=0)`` over one batch: numpy
    sums the rows of a C-contiguous matrix down axis 0 in order, so the
    running sum rides as the leading row of the next chunk's sum, and is
    divided by ``n_samples`` once at the end.  Adding per-chunk sums would
    group the additions differently.  (With a one-column output numpy sums
    pairwise instead, and the last bits can differ.)
    """
    proto_seed = named_seed(seed, "proto")
    out: dict[int, np.ndarray] = {}
    for j, cid in enumerate(state.unseen_ids):
        total = None
        for _, moved in transformed_draws(state, table, j, n_samples, proto_seed):
            if total is not None:
                moved = np.concatenate([total[None], moved])
            total = np.add.reduce(moved, axis=0)
        out[cid] = total / n_samples
    return out


def save_ada_state(path: str | Path, state: AdaState, config: AdaConfig) -> None:
    meta = {
        "kind": "ada_state",
        "config": config.to_dict(),
        "variant": state.variant,
        "phase": state.phase,
        "iteration": state.iteration,
        "unseen_ids": list(state.unseen_ids),
        "agreement_estimate": state.agreement_estimate,
        "specs": {role: state.nets[role].spec.to_dict() for role in ROLES},
        "seeds": {role: state.nets[role].seed for role in ROLES},
    }
    arrays = {}
    for role in ROLES:
        arrays[f"{role}_params"] = state.nets[role].params
        arrays[f"{role}_stats"] = state.nets[role].stats
    if state.pseudo is not None:
        arrays["pseudo"] = state.pseudo.astype(np.float64)
    save_container(path, meta, arrays)


def load_ada_state(path: str | Path) -> tuple[AdaState, AdaConfig]:
    """Rebuilds an adapted state for evaluation.  Optimizer moments are
    not persisted: ``adapt`` always starts from fresh ones."""
    meta, arrays = load_container(path)
    if meta.get("kind") != "ada_state":
        raise DataError("BAD_CHECKPOINT",
                        f"expected an adaptation checkpoint, found {meta.get('kind')!r}")
    config = AdaConfig.from_dict(meta["config"])
    nets = {}
    for role in ROLES:
        spec = MlpSpec.from_dict(meta["specs"][role])
        nets[role] = MlpNetwork(spec=spec, params=arrays[f"{role}_params"],
                                stats=arrays[f"{role}_stats"],
                                seed=meta["seeds"][role], mode="eval")
    state = AdaState(nets=nets, unseen_ids=meta["unseen_ids"], variant=meta["variant"],
                     phase=meta["phase"], iteration=int(meta["iteration"]),
                     agreement_estimate=meta.get("agreement_estimate"))
    if "pseudo" in arrays:
        state.pseudo = arrays["pseudo"].astype(np.int64)
    return state, config
