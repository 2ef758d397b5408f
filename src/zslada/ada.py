"""Cycle-consistent adversarial adaptation of unseen-class features.

Up to six networks, those its variant trains: G_T maps generated
(source) samples into the real test (target) domain, G_S maps the other
way, D_T / D_S are Wasserstein critics with weight clipping, and C_T /
C_S are classifiers over the unseen classes.  Generator inputs carry the
class label as a one-hot appended to the feature vector.  Minibatches
are class-aligned: each ``AlignedBatch`` draws one pseudo-class and
pairs real rows of that class with fresh class-conditional draws of the
same class.

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
once and both objectives loop over it.  ``VARIANT_ROLES`` says which
networks each ablation variant trains, and every other variant rule
derives from it; ``trained_roles`` is what a state holds, steps and saves.

Classifier terms follow a two-phase schedule: during warmup only the
real-data terms train the classifiers; after the recovery trigger
fires, the generator-transformed terms join, letting classifier
gradients reach the generators.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .base_model import (BaseZslModel, GaussianTable, class_params_matrix, draw_gaussian,
                         pseudo_labels, sample_stream)
from .data import FeatureDataset
from .errors import ConfigError, DataError, NumericalDivergence
from .nn.checkpoint import read_record, save_container, stored_networks
from .nn.mlp import (MlpCache, MlpNetwork, MlpSpec, dropout_seed, forward_eval,
                     init_network, mean_forward_eval, mlp_backward, mlp_forward)
from .nn.optim import OptimizerHyper, role_stepper
from .rng import named_seed, named_stream

# The generators and classifiers each variant trains, in the order the
# ablation reports them: a side plays the game when its generator trains,
# and its critic trains with it (trained_roles adds it).
VARIANT_ROLES = {
    "std_da": ("c_t",),
    "vanilla_ada": ("g_t", "c_t"),
    "cyclegan_wo": ("g_t", "g_s"),
    "full": ("g_t", "g_s", "c_t", "c_s"),
}
VARIANTS = tuple(VARIANT_ROLES)
CYCLE_FORMS = ("cross_domain", "within_domain")
TRIGGERS = ("accuracy_crossover", "fixed_fraction")
PHASES = ("warmup", "recovery")
ROLES = ("g_t", "g_s", "d_t", "d_s", "c_t", "c_s")
LOG_COLUMNS = ("iter", "L_adv_T", "L_adv_S", "L_cyc", "L_clf_T", "L_clf_S", "phase")
# Rows per block when prototypes, crossover checks or exports stream
# their class-conditional draws (augmented_draws): every block but the
# last has this many, cut across the classes, and the last at most one
# more, so memory grows with neither the draws nor the class count.
DRAW_CHUNK = 1024


@dataclass(frozen=True)
class AlignedBatch:
    """A class-aligned minibatch: row i of ``source`` (class-conditional
    draws) and row i of ``target`` (pseudo-labelled test rows) both carry
    unseen-class index ``labels[i]``."""

    source: np.ndarray
    target: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        for domain in ("source", "target"):
            object.__setattr__(self, domain,
                               np.asarray(getattr(self, domain), dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.source.ndim != 2 or self.source.shape != self.target.shape:
            raise ConfigError("source and target must be matrices of one shape")
        if self.labels.shape != (self.source.shape[0],):
            raise ConfigError("batch needs one label per row")
        if not self.labels.size:
            raise ConfigError("empty batch")


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
        if min(self.cycle_weight, self.identity_weight, self.classifier_weight,
               self.mismatched_weight) < 0:
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


@dataclass
class AdaState:
    """Exactly the networks of ``trained_roles(variant)``, in ``ROLES``
    order, and the pseudo-labels and phase the adaptation loop reads."""

    nets: dict[str, MlpNetwork]
    unseen_ids: list[int]
    variant: str
    phase: str = "warmup"
    iteration: int = 0
    pseudo: np.ndarray | None = None
    agreement_estimate: float | None = None
    # unseen classes with no pseudo-labelled test row at set-up or after a
    # relabel: no batch pairs them with target rows while that lasts
    empty_pseudo_ids: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        roles = trained_roles(self.variant)
        if set(self.nets) != set(roles):
            raise ConfigError(f"a {self.variant} state holds {list(roles)}, "
                              f"not {sorted(self.nets)}")
        self.nets = {role: self.nets[role] for role in roles}
        if self.phase not in PHASES:
            raise ConfigError(f"phase must be one of {PHASES}")
        self.unseen_ids = sorted(int(c) for c in self.unseen_ids)

    @property
    def n_unseen(self) -> int:
        return len(self.unseen_ids)

    @property
    def g_t(self) -> MlpNetwork:
        return self._net("g_t")

    @property
    def c_t(self) -> MlpNetwork:
        return self._net("c_t")

    def _net(self, role: str) -> MlpNetwork:
        if role not in self.nets:
            raise ConfigError(f"a {self.variant} state has no {role}: it does not train one")
        return self.nets[role]


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
    rows = np.arange(n)
    loss = -float(log_probs[rows, labels].mean())
    grad = np.zeros_like(log_probs)
    grad[rows, labels] = -1.0 / n
    return loss, grad


class _Side(NamedTuple):
    """One side of the adaptation game and the dropout-seed tag of each of
    its generator's forward passes.  Its generator translates the
    ``other`` domain's rows into the ``own`` domain, where its critic and
    classifier live; critics and classifiers have no dropout and get no
    seed."""

    name: str
    g: str
    d: str
    c: str
    own: str
    other: str
    translate: str
    ident: str
    cyc_back: str


_SIDES = (
    _Side("T", "g_t", "d_t", "c_t", "target", "source", "gt_src", "gt_id", "cyc_back_s"),
    _Side("S", "g_s", "d_s", "c_s", "source", "target", "gs_tgt", "gs_id", "cyc_back_t"),
)


def _sides(variant: str) -> tuple[_Side, ...]:
    """The sides that play ``variant``'s game: those whose generator it trains."""
    sides = tuple(side for side in _SIDES if side.g in VARIANT_ROLES[variant])
    if not sides:
        raise ConfigError(f"{variant} trains no generator, so has no adversarial objective")
    return sides


def trained_roles(variant: str) -> tuple[str, ...]:
    """The networks ``variant`` trains, in ``ROLES`` order: those
    ``VARIANT_ROLES`` names and the critic of each side whose generator trains."""
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}")
    named = VARIANT_ROLES[variant]
    critics = {side.d for side in _SIDES if side.g in named}
    return tuple(role for role in ROLES if role in named or role in critics)


def init_ada_state(base_model: BaseZslModel, config: AdaConfig) -> AdaState:
    """Fresh ``trained_roles(config.variant)`` sized from the base model,
    each seeded by its role alone, so it has the same bits in every variant."""
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
            for role in trained_roles(config.variant)}
    return AdaState(nets=nets, unseen_ids=list(unseen), variant=config.variant)


def generator_objective(state: AdaState, config: AdaConfig, batch: AlignedBatch,
                        commit_stats: bool = False, rng_seed: int | None = None,
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
    sides = _sides(state.variant)
    roles = VARIANT_ROLES[state.variant]
    has_clf = "c_t" in roles
    # a one-sided game is the plain adversarial one: both the cycle and
    # the identity anchor are the constrained-translation additions.
    beta = config.identity_weight if len(sides) == 2 else 0.0
    chi = config.cycle_weight
    xi = config.classifier_weight
    n, d = batch.target.shape
    u = state.n_unseen
    nets = state.nets

    def fw(role: str, X: np.ndarray, tag: str):
        return mlp_forward(nets[role], X, update_stats=commit_stats,
                           rng_seed=dropout_seed(nets[role], rng_seed, tag))

    def bw(role: str, cache: MlpCache, grad_out: np.ndarray, input_grad: bool = True):
        tapes[role].append(cache)
        return mlp_backward(nets[role], cache, grad_out, input_grad=input_grad)

    aug = {domain: augment_batch(getattr(batch, domain), batch.labels, u)
           for domain in ("source", "target")}
    tapes = {role: [] for role in roles}
    breakdown = dict.fromkeys(
        ("L_G_T", "L_D_T", "L_G_S", "L_D_S", "L_cyc", "L_clf_T", "L_clf_S"), 0.0)
    moved, cache_g, at_moved = {}, {}, {}

    # translation, identity anchor and critic score
    for side in sides:
        own = getattr(batch, side.own)
        moved[side], cache_g[side] = fw(side.g, aug[side.other], side.translate)
        d_fake, cache_d_fake = mlp_forward(nets[side.d], moved[side], update_stats=False)
        ident_out, cache_ident = fw(side.g, aug[side.own], side.ident)
        ident, ident_grad = _mean_l1(ident_out, own)
        breakdown[f"L_G_{side.name}"] = beta * ident - float(d_fake.mean())
        breakdown[f"L_D_{side.name}"] = (
            float(d_fake.mean())
            - float(mlp_forward(nets[side.d], own, update_stats=False)[0].mean()))
        at_moved[side] = np.zeros((n, d))
        bw(side.g, cache_ident, beta * ident_grad, input_grad=False)
        at_moved[side] += mlp_backward(nets[side.d], cache_d_fake, np.full((n, 1), -1.0 / n))

    # cycle legs: each side's translated rows go back through the other generator
    if len(sides) == 2:
        for side, back in zip(sides, reversed(sides)):
            rebuilt, cache_back = fw(back.g, augment_batch(moved[side], batch.labels, u),
                                     side.cyc_back)
            ref = side.own if config.cycle_form == "cross_domain" else side.other
            leg, leg_grad = _mean_l1(rebuilt, getattr(batch, ref))
            breakdown["L_cyc"] += leg
            gin = bw(back.g, cache_back, chi * leg_grad)
            at_moved[side] += gin[:, :d]

    # classifiers: real own-domain rows, plus the translated rows in recovery
    for side in sides if has_clf else ():
        out, cache_c = mlp_forward(nets[side.c], getattr(batch, side.own),
                                   update_stats=commit_stats)
        clf, ce_grad = _ce(out, batch.labels)
        bw(side.c, cache_c, xi * ce_grad, input_grad=False)
        if state.phase == "recovery":
            out, cache_c = mlp_forward(nets[side.c], moved[side], update_stats=commit_stats)
            term, ce_grad = _ce(out, batch.labels)
            clf += term
            at_moved[side] += bw(side.c, cache_c, xi * ce_grad)
        breakdown[f"L_clf_{side.name}"] = clf
    if has_clf and config.mismatched_pairs and u > 1:
        wrong = _mismatched_labels(batch.labels, u, config.seed, state.iteration)
        out, cache_c = mlp_forward(nets["c_t"], batch.target, update_stats=False)
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


def critic_objective(state: AdaState, config: AdaConfig, batch: AlignedBatch,
                     commit_stats: bool = False, rng_seed: int | None = None,
                     ) -> tuple[float, dict[str, float], dict[str, list[MlpCache]]]:
    """Critic-step objective with generators frozen; returns each
    critic's tape as ``generator_objective`` does."""
    sides = _sides(state.variant)
    n = batch.labels.shape[0]
    nets = state.nets
    tapes = {side.d: [] for side in sides}
    breakdown = {"L_D_T": 0.0, "L_D_S": 0.0}
    for side in sides:
        other = augment_batch(getattr(batch, side.other), batch.labels, state.n_unseen)
        fakes = mlp_forward(nets[side.g], other, update_stats=False,
                            rng_seed=dropout_seed(nets[side.g], rng_seed, side.translate))[0]
        out_f, cache_f = mlp_forward(nets[side.d], fakes, update_stats=commit_stats)
        out_r, cache_r = mlp_forward(nets[side.d], getattr(batch, side.own),
                                     update_stats=commit_stats)
        breakdown[f"L_D_{side.name}"] = float(out_f.mean()) - float(out_r.mean())
        mlp_backward(nets[side.d], cache_f, np.full((n, 1), 1.0 / n), input_grad=False)
        mlp_backward(nets[side.d], cache_r, np.full((n, 1), -1.0 / n), input_grad=False)
        tapes[side.d] += (cache_f, cache_r)
    return float(sum(breakdown.values())), breakdown, tapes


def _class_pools(state: AdaState) -> list[np.ndarray]:
    """The test rows pseudo-labelled as each unseen class, in class order.
    Classes with none join ``state.empty_pseudo_ids``."""
    pools = [np.flatnonzero(state.pseudo == cid) for cid in state.unseen_ids]
    empty = {cid for cid, rows in zip(state.unseen_ids, pools) if not rows.size}
    state.empty_pseudo_ids = sorted(empty.union(state.empty_pseudo_ids))
    return pools


def _draw_batch(state: AdaState, table: GaussianTable, test_X: np.ndarray,
                pools: list[np.ndarray], config: AdaConfig, *path) -> AlignedBatch:
    """One class-aligned batch, deterministic in path.
    ``table`` and ``pools`` hold each unseen class's (mu, p) rows and
    pseudo-labelled test rows, in ``state.unseen_ids`` order."""
    nonempty = [j for j, rows in enumerate(pools) if rows.size]
    stream = named_stream(config.seed, "batch", *path)
    j = nonempty[int(stream.integers(len(nonempty)))]
    rows = pools[j]
    picks = rows[stream.integers(rows.size, size=config.batch_size)]
    y = draw_gaussian(table[0][j], table[1][j], config.batch_size,
                      sample_stream(named_seed(config.seed, "src", *path), state.unseen_ids[j]))
    return AlignedBatch(source=y, target=test_X[picks],
                        labels=np.full(config.batch_size, j, dtype=np.int64))


def classify(state: AdaState, X: np.ndarray) -> np.ndarray:
    """C_T's predictions by the inference pass, mapped back to class ids."""
    log_probs = forward_eval(state.c_t, np.asarray(X, dtype=np.float64))
    return np.asarray(state.unseen_ids, dtype=np.int64)[np.argmax(log_probs, axis=1)]


def augmented_draws(class_ids: list[int], table: GaussianTable, n: int, seed: int):
    """``n`` draws of each class of ``class_ids`` from its row of ``table``
    with its one-hot appended, G_T's input, all classes' rows in class
    order cut into blocks of ``DRAW_CHUNK`` rows, so memory grows with
    neither ``n`` nor the class count.  A one-row last block joins the one
    before it (a one-row product takes BLAS's matrix-vector path), so a
    block has one row only when ``len(class_ids) * n = 1``.
    Yields ``(block, segments)``: a view of one buffer that the next block
    overwrites, and the ``(j, lo, hi)`` saying rows ``lo:hi`` are draws of
    class index ``j``, which may continue in the next block.  A class's
    draws read its sample stream in turn, so they have the bits of one
    ``draw_gaussian`` batch of all ``n``: numpy fills successive
    ``standard_normal`` batches as it fills one."""
    if n < 1:
        raise ConfigError(f"need n >= 1 draws, got {n}")
    means, precisions = table
    d, n_classes = means.shape[1], len(class_ids)
    total = n_classes * n
    cuts = [*range(0, total, DRAW_CHUNK), total]
    if len(cuts) > 2 and total - cuts[-2] == 1:
        del cuts[-2]
    buffer = np.empty((min(total, DRAW_CHUNK + 1), d + n_classes))
    streams = [sample_stream(seed, cid) for cid in class_ids]
    for start, stop in zip(cuts, cuts[1:]):
        block, segments = buffer[:stop - start], []
        block[:, d:] = 0.0
        for j in range(start // n, (stop - 1) // n + 1):
            lo, hi = max(start, j * n) - start, min(stop, (j + 1) * n) - start
            block[lo:hi, :d] = draw_gaussian(means[j], precisions[j], hi - lo, streams[j])
            block[lo:hi, d + j] = 1.0
            segments.append((j, lo, hi))
        yield block, segments


def _crossover_accuracy(state: AdaState, table: GaussianTable,
                        config: AdaConfig, iteration: int) -> float:
    """C_T accuracy on freshly generated, G_T-transformed labeled draws,
    averaged over the unseen classes."""
    n = config.crossover_samples
    seed = named_seed(config.seed, "xover", iteration)
    hits = np.zeros(state.n_unseen, dtype=np.int64)
    for block, segments in augmented_draws(state.unseen_ids, table, n, seed):
        picks = classify(state, forward_eval(state.g_t, block))
        for j, lo, hi in segments:
            hits[j] += np.count_nonzero(picks[lo:hi] == state.unseen_ids[j])
    return float(np.mean(hits / n))


def _maybe_switch_phase(state: AdaState, table: GaussianTable,
                        config: AdaConfig) -> None:
    if state.phase == "recovery" or "c_t" not in state.nets:
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
           ) -> tuple[AdaState, np.ndarray, GaussianTable, list[np.ndarray], Callable]:
    """What every adaptation loop starts from: a fresh state holding the
    base model's pseudo-labels, the test rows, the unseen classes' one
    Gaussian table, which the pseudo-labels are scored against and every
    draw reads, each class's pool of pseudo-labelled rows, and one RMSprop
    stepper of all the state's networks.  Refuses a split with no test
    rows before any of it is built."""
    test_X, _ = test_data.test_rows()
    if test_X.shape[0] == 0:
        raise DataError("EMPTY_SPLIT", "adaptation needs test rows, the split has none")
    state = init_ada_state(base_model, config)
    table = class_params_matrix(base_model, state.unseen_ids)
    state.pseudo, state.agreement_estimate = pseudo_labels(base_model, test_data, table)
    step = role_stepper("rmsprop", state.nets, dict.fromkeys(
        state.nets, OptimizerHyper(learning_rate=config.learning_rate)))
    return state, test_X, table, _class_pools(state), step


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
    state, test_X, table, pools, step = _setup(base_model, test_data, config)
    log: list[tuple] = []

    for it in range(config.n_steps):
        state.iteration = it
        _maybe_switch_phase(state, table, config)
        batch = _draw_batch(state, table, test_X, pools, config, "gen", it)
        value, bd, tapes = generator_objective(
            state, config, batch, commit_stats=True,
            rng_seed=named_seed(config.seed, "drop", it, "gen"))
        _abort_if_nonfinite(value, bd, it)
        step(tapes)

        for inner in range(config.n_critic):
            batch = _draw_batch(state, table, test_X, pools, config, "critic", it, inner)
            cval, cbd, tapes = critic_objective(
                state, config, batch, commit_stats=True,
                rng_seed=named_seed(config.seed, "drop", it, "critic", inner))
            _abort_if_nonfinite(cval, cbd, it)
            step(tapes, clip=config.clip_c)

        if config.relabel_interval and (it + 1) % config.relabel_interval == 0 \
                and "c_t" in state.nets:
            state.pseudo = classify(state, test_X)
            pools = _class_pools(state)

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
    pseudo-labeled test rows; C_T is the one network its state holds."""
    config = replace(config, variant="std_da")
    state, test_X, table, pools, step = _setup(base_model, test_data, config)
    log: list[tuple] = []
    half = max(1, config.batch_size // 2)
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
        out, cache = mlp_forward(state.c_t, X, update_stats=True)
        loss, ce_grad = _ce(out, labels)
        _abort_if_nonfinite(loss, {"L_clf_T": loss}, it)
        mlp_backward(state.c_t, cache, ce_grad, input_grad=False)
        step({"c_t": [cache]})
        row = (it, 0.0, 0.0, 0.0, loss, 0.0, state.phase)
        log.append(row)
    state.iteration = config.n_steps
    return state, log


def map_prototypes(state: AdaState, table: GaussianTable, n_samples: int,
                   seed: int) -> dict[int, np.ndarray]:
    """Per-class mean of G_T over label-augmented class-conditional draws,
    each class drawn from its row of ``table`` as in ``augmented_draws``.

    Covariances are deliberately left at the base model's values; only
    the class means move.  G_T's output layer is affine (``MlpSpec.dense``
    puts no batchnorm, dropout or activation on it), and the mean of
    ``h @ W + b`` over rows is ``mean(h) @ W + b``, so the hidden layers
    run once per block of ``augmented_draws`` and the output layer once
    per class (``mean_forward_eval``), whose running sum carries a class
    across the blocks it spans.  A prototype has the bits of
    ``.mean(axis=0)`` over the class's rows of G_T's last hidden
    activations of every class's draws in one batch, then the output
    layer, wherever a row of those activations has the same bits in its
    block as in that one batch (see ``mean_forward_eval``); it differs
    from the mean of G_T's outputs only in rounding.
    """
    means = mean_forward_eval(state.g_t, augmented_draws(state.unseen_ids, table, n_samples,
                                                         named_seed(seed, "proto")))
    return {state.unseen_ids[j]: mean for j, mean in means.items()}


@dataclass(frozen=True, kw_only=True)
class AdaStateMeta:
    """An ``ada_state`` checkpoint's meta, in the order it is written."""

    kind: str = "ada_state"
    config: AdaConfig
    variant: str
    phase: str
    iteration: int
    unseen_ids: tuple[int, ...]
    agreement_estimate: float | None
    empty_pseudo_ids: tuple[int, ...]
    specs: dict[str, MlpSpec]
    seeds: dict[str, int]


def save_ada_state(path: str | Path, state: AdaState, config: AdaConfig) -> None:
    if config.variant != state.variant:
        raise ConfigError(f"a {state.variant} state cannot be saved with a "
                          f"{config.variant} config")
    meta = AdaStateMeta(config=config, variant=state.variant, phase=state.phase,
                        iteration=state.iteration, unseen_ids=tuple(state.unseen_ids),
                        agreement_estimate=state.agreement_estimate,
                        empty_pseudo_ids=tuple(state.empty_pseudo_ids),
                        specs={role: net.spec for role, net in state.nets.items()},
                        seeds={role: net.seed for role, net in state.nets.items()})
    arrays = {f"{role}_{part}": getattr(net, part)
              for role, net in state.nets.items() for part in ("params", "stats")}
    if state.pseudo is not None:
        arrays["pseudo"] = state.pseudo.astype(np.float64)
    save_container(path, asdict(meta), arrays)


def load_ada_state(path: str | Path) -> tuple[AdaState, AdaConfig]:
    """Rebuilds an adapted state for evaluation from its variant's
    networks.  Optimizer moments are not persisted: ``adapt`` always starts
    from fresh ones.  Any refusal is a ``BAD_CHECKPOINT`` naming the path
    and the key: meta that is not an ``AdaStateMeta``, an array, spec or
    seed that ``stored_networks`` refuses (a non-finite entry included), or
    pseudo-labels that are not unseen class ids."""
    with read_record(path, AdaStateMeta, "an adaptation checkpoint") as (meta, arrays):
        pseudo = arrays.pop("pseudo", None)
        nets = stored_networks(arrays, trained_roles(meta.variant), meta.specs, meta.seeds,
                               f"the {meta.variant} network", finite=True)
        if pseudo is not None and not np.isin(pseudo, meta.unseen_ids).all():
            raise ConfigError("array 'pseudo' holds entries that are not unseen_ids")
        state = AdaState(nets=nets, unseen_ids=meta.unseen_ids, variant=meta.variant,
                         phase=meta.phase, iteration=meta.iteration,
                         pseudo=None if pseudo is None else pseudo.astype(np.int64),
                         agreement_estimate=meta.agreement_estimate,
                         empty_pseudo_ids=list(meta.empty_pseudo_ids))
    return state, meta.config
