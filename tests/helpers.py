"""Shared builders and independent oracles for the test suite.

Everything here recomputes expected values from first principles
(plain loops, closed forms, brute force) so the tests never certify
the library with its own machinery.
"""
from __future__ import annotations

import dataclasses
import tracemalloc
import types
from typing import Union, get_args, get_origin

import numpy as np
import pytest

from zslada.ada import AdaConfig, AdaState, AlignedBatch, augment_batch, init_ada_state
from zslada.base_model import (BaseZslModel, PretrainConfig, class_params_matrix, pretrain,
                               pseudo_labels, sample_stream)
from zslada.data import ClassAttributeTable
from zslada.nn.mlp import (BN_EPS, MlpCache, MlpNetwork, MlpSpec, forward_eval,
                           init_network, param_grads, parse_activation)
from zslada.nn.optim import ADAM_BETA1, ADAM_BETA2, EPSILON, RMSPROP_BETA2, OptimizerState
from zslada.rng import named_seed
from zslada.synthetic import SyntheticWorld, SyntheticWorldSpec, make_synthetic_world


def numeric_grad(fn, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences, one coordinate at a time, no shortcuts."""
    params = np.asarray(params, dtype=np.float64)
    out = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return out


def max_rel_err(a, b) -> float:
    """Max entrywise |a-b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def peak_traced_bytes(fn) -> int:
    """Peak bytes allocated while ``fn`` runs; numpy reports its array
    buffers to ``tracemalloc``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tape_grads(nets: dict[str, MlpNetwork],
               tapes: dict[str, list[MlpCache]]) -> dict[str, np.ndarray]:
    """Each taped role's parameter gradient, in a fresh array."""
    return {role: param_grads(nets[role], caches, np.empty_like(nets[role].params))
            for role, caches in tapes.items()}


def reference_param_grads(net: MlpNetwork, caches: list[MlpCache]) -> np.ndarray:
    """Summed parameter gradient of backpropagated caches by the plain
    rule: start from zeros and add each cache's gradient in list order."""
    out = np.zeros_like(net.params)
    spans = {label: slice(start, stop) for label, start, stop in net.spec.param_layout()}
    for cache in caches:
        for i, tape in enumerate(cache.layers):
            W = out[spans[f"layer{i}.W"]].reshape(tape["h_in"].shape[1], -1)
            W += tape["h_in"].T @ tape["delta"]
            for key in ("b", "gamma", "beta"):
                if f"layer{i}.{key}" in spans:
                    out[spans[f"layer{i}.{key}"]] += tape[key]
    return out


def reference_adam_step(params: np.ndarray, grads: np.ndarray,
                        state: OptimizerState) -> tuple[np.ndarray, OptimizerState]:
    """Whole-vector Adam in one expression per quantity; returns fresh
    (params, state) and leaves its inputs alone."""
    hp = state.hyper
    t = state.step_count + 1
    m = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    update = m_hat / (np.sqrt(v_hat) + EPSILON)
    if hp.weight_decay:
        update = update + hp.weight_decay * params
    return params - hp.learning_rate * update, OptimizerState(
        kind="adam", step_count=t, first_moment=m, second_moment=v, hyper=hp)


def reference_rmsprop_step(params: np.ndarray, grads: np.ndarray,
                           state: OptimizerState) -> tuple[np.ndarray, OptimizerState]:
    """Whole-vector rmsprop, same conventions as ``reference_adam_step``."""
    hp = state.hyper
    v = RMSPROP_BETA2 * state.second_moment + (1.0 - RMSPROP_BETA2) * grads * grads
    update = grads / (np.sqrt(v) + EPSILON)
    if hp.weight_decay:
        update = update + hp.weight_decay * params
    return params - hp.learning_rate * update, OptimizerState(
        kind="rmsprop", step_count=state.step_count + 1,
        first_moment=state.first_moment, second_moment=v, hyper=hp)


def reference_stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Sigmoid by masked writes: ``1 / (1 + exp(-z))`` where ``z >= 0`` and
    ``exp(z) / (1 + exp(z))`` elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_gaussian_loglik(x: np.ndarray, mean: np.ndarray, precision: np.ndarray,
                              include_logdet: bool = True) -> float:
    """Unnormalized log-likelihood of one sample under one diagonal
    Gaussian, ``sum(log p) - sum(p * (x - mu)^2)``, by the plain formula."""
    quad = float(np.sum(precision * (x - mean) ** 2))
    return float(np.sum(np.log(precision))) - quad if include_logdet else -quad


def reference_draw_gaussian(mean: np.ndarray, precision: np.ndarray, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    """n draws as one out-of-place expression: ``mean + noise / sqrt(p)``."""
    return mean + rng.standard_normal((n, mean.shape[0])) / np.sqrt(precision)


def reference_export_draws(model: BaseZslModel, state: AdaState | None, n: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Export's (labels, draws, G_T rows) in one batch: every unseen class's
    draws from the rows of one Gaussian table in id order, stacked in the
    attribute table's order, then all of them augmented with their
    one-hots and transformed at once."""
    unseen = model.attribute_table.unseen_ids
    ids = sorted(unseen)
    means, precisions = class_params_matrix(model, ids)
    generated = np.vstack([
        reference_draw_gaussian(means[ids.index(c)], precisions[ids.index(c)], n,
                                sample_stream(seed, c))
        for c in unseen])
    labels = np.asarray([c for c in unseen for _ in range(n)], dtype=np.int64)
    if state is None:
        return labels, generated, None
    index_of = {c: j for j, c in enumerate(state.unseen_ids)}
    idx = np.asarray([index_of[c] for c in labels], dtype=np.int64)
    return labels, generated, forward_eval(state.g_t,
                                           augment_batch(generated, idx, state.n_unseen))


def reference_map_prototypes(state: AdaState, base_model: BaseZslModel, n_samples: int,
                             seed: int) -> dict[int, np.ndarray]:
    """Per-class prototypes in one shot: ``n_samples`` draws of every
    unseen class from its row of the unseen classes' Gaussian table,
    stacked in class order, augmented and run through G_T's hidden layers
    in one batch; each class's rows averaged with ``.mean(axis=0)``, then
    G_T's affine output layer."""
    means, precisions = class_params_matrix(base_model, state.unseen_ids)
    last = state.g_t.spec.n_layers - 1
    draws = np.vstack([reference_draw_gaussian(means[j], precisions[j], n_samples,
                                               sample_stream(named_seed(seed, "proto"), cid))
                       for j, cid in enumerate(state.unseen_ids)])
    labels = np.repeat(np.arange(state.n_unseen), n_samples)
    hidden = reference_inference(state.g_t, augment_batch(draws, labels, state.n_unseen),
                                 n_layers=last)
    return {cid: hidden[j * n_samples:(j + 1) * n_samples].mean(axis=0) @ state.g_t.weight(last)
            + state.g_t.bias(last)
            for j, cid in enumerate(state.unseen_ids)}


def count_class_params_matrix(monkeypatch, *modules) -> list[list[int]]:
    """Records the class ids of every ``class_params_matrix`` call made
    under its name in ``modules`` (a module's own import of it included)."""
    calls = []

    def counted(model, class_ids):
        calls.append(list(class_ids))
        return class_params_matrix(model, class_ids)

    for module in modules:
        monkeypatch.setattr(module, "class_params_matrix", counted)
    return calls


def toy_table(S: int = 2, U: int = 2, attr_dim: int = 3,
              seed: int = 0) -> ClassAttributeTable:
    rng = np.random.default_rng(seed)
    n = S + U
    return ClassAttributeTable(
        attributes=rng.uniform(-1.0, 1.0, (n, attr_dim)),
        class_ids=list(range(n)),
        seen_mask=np.array([i < S for i in range(n)]),
    )


def exact_net(spec: MlpSpec, params: np.ndarray) -> MlpNetwork:
    return MlpNetwork(spec, np.asarray(params, dtype=np.float64),
                      np.zeros(spec.n_stats()))


def reference_inference(net: MlpNetwork, X: np.ndarray,
                        n_layers: int | None = None) -> np.ndarray:
    """The inference pass, one whole out-of-place expression per layer,
    stopped after ``n_layers`` layers (all by default): ``act(gamma * ((X
    @ W + b - mean) * (1 / sqrt(var + eps))) + beta)`` with the running
    statistics and no dropout at all, where ``act`` is ``np.maximum(z,
    0)``, ``np.where(z > 0, z, slope * z)``, ``np.where(z >= 0, 1 / (1 +
    e), e / (1 + e))`` with ``e = exp(-|z|)``, ``z - max - log(sum(exp(z -
    max)))`` or the identity.  The statistics are read in spec order,
    (mean, var) per batchnorm layer."""
    spec = net.spec
    span = {label: slice(start, stop) for label, start, stop in spec.param_layout()}
    at = 0
    h = np.asarray(X, dtype=np.float64)
    for i in range(spec.n_layers if n_layers is None else n_layers):
        width = spec.layer_widths[i + 1]
        W = net.params[span[f"layer{i}.W"]].reshape(-1, width)
        z = h @ W + net.params[span[f"layer{i}.b"]]
        if spec.batchnorm[i]:
            mean, var = net.stats[at:at + width], net.stats[at + width:at + 2 * width]
            at += 2 * width
            z = (net.params[span[f"layer{i}.gamma"]] * ((z - mean) * (1.0 / np.sqrt(var + BN_EPS)))
                 + net.params[span[f"layer{i}.beta"]])
        h = reference_activation(spec.activations[i], z)
    return h


def reference_activation(activation: str, z: np.ndarray) -> np.ndarray:
    """``activation`` of ``z`` as one out-of-place expression, the rule of
    :func:`reference_inference`."""
    kind, slope = parse_activation(activation)
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "leaky_relu":
        return np.where(z > 0, z, slope * z)
    if kind == "sigmoid":
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if kind == "log_softmax":
        zs = z - z.max(axis=1, keepdims=True)
        return zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    return z


def zero_param_model(table: ClassAttributeTable, d: int,
                     include_logdet: bool = True) -> BaseZslModel:
    """Both heads all-zero: every mean is 0, every precision exactly 1."""
    spec = MlpSpec.dense((table.attr_dim, d))
    return BaseZslModel(
        mean_net=exact_net(spec, np.zeros(spec.n_params())),
        prec_net=exact_net(spec, np.zeros(spec.n_params())),
        attribute_table=table,
        include_logdet=include_logdet,
    )


def table_model(means, precisions, n_seen: int = 1,
                include_logdet: bool = True) -> BaseZslModel:
    """Model whose class parameters equal the given rows exactly.

    Attributes are one-hot, the heads are single linear layers, so class
    c reads off row c of each weight matrix; precisions must lie strictly
    inside (0.5, 1.5) for the bounded head to reach them.
    """
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    precisions = np.atleast_2d(np.asarray(precisions, dtype=np.float64))
    n, d = means.shape
    table = ClassAttributeTable(
        attributes=np.eye(n),
        class_ids=list(range(n)),
        seen_mask=np.array([i < n_seen for i in range(n)]),
    )
    spec = MlpSpec.dense((n, d))
    raw = np.log((precisions - 0.5) / (1.5 - precisions))
    return BaseZslModel(
        mean_net=exact_net(spec, np.concatenate([means.ravel(), np.zeros(d)])),
        prec_net=exact_net(spec, np.concatenate([raw.ravel(), np.zeros(d)])),
        attribute_table=table,
        include_logdet=include_logdet,
    )


def identity_generator(d: int, u: int,
                       offset: np.ndarray | float = 0.0) -> MlpNetwork:
    """Bitwise-exact identity-plus-offset on features through one relu layer.

    relu(v) - relu(-v) = v holds exactly in floats (negation is exact and
    all weights are +-1), so hidden weights [I; -I] and output weights
    [I; -I] reproduce the input bit for bit; one-hot columns are wired
    to zero.
    """
    spec = MlpSpec.dense((d + u, 2 * d, d), activation="relu")
    W0 = np.zeros((d + u, 2 * d))
    W0[:d, :d] = np.eye(d)
    W0[:d, d:] = -np.eye(d)
    W1 = np.zeros((2 * d, d))
    W1[:d, :] = np.eye(d)
    W1[d:, :] = -np.eye(d)
    bias = np.zeros(d) + np.asarray(offset, dtype=np.float64)
    params = np.concatenate([W0.ravel(), np.zeros(2 * d), W1.ravel(), bias])
    return exact_net(spec, params)


def constant_critic(d: int, value: float = 0.0) -> MlpNetwork:
    spec = MlpSpec.dense((d, 1))
    params = np.zeros(d + 1)
    params[-1] = value
    return exact_net(spec, params)


def linear_critic(d: int, weights, bias: float = 0.0) -> MlpNetwork:
    spec = MlpSpec.dense((d, 1))
    params = np.concatenate([np.asarray(weights, dtype=np.float64).ravel(), [bias]])
    return exact_net(spec, params)


def biased_classifier(d: int, u: int, favored: int, margin: float = 500.0) -> MlpNetwork:
    """Log-softmax head that puts essentially all mass on one index."""
    spec = MlpSpec.dense((d, u), out_activation="log_softmax")
    params = np.zeros(d * u + u)
    params[d * u + favored] = margin
    return exact_net(spec, params)


def uniform_classifier(d: int, u: int) -> MlpNetwork:
    spec = MlpSpec.dense((d, u), out_activation="log_softmax")
    return exact_net(spec, np.zeros(d * u + u))


def aligned(source, target, labels) -> AlignedBatch:
    """A class-aligned batch; a scalar ``labels`` labels every row."""
    if np.isscalar(labels):
        labels = np.full(np.shape(source)[0], labels, dtype=np.int64)
    return AlignedBatch(source=source, target=target, labels=labels)


# The four-seen/four-unseen 16-d benchmark every slow test shares.  The
# bounded precision head cannot represent arbitrary spreads, so worlds
# keep the default precision range inside (0.5, 1.5).
def bench_spec(seed: int, shift_magnitude: float = 0.0, **overrides) -> SyntheticWorldSpec:
    base = dict(S=8, U=4, d=16, attr_dim=4, samples_per_class=500,
                attribute_map="linear",
                shift_kind="affine" if shift_magnitude else "none",
                shift_magnitude=shift_magnitude, seed=seed)
    base.update(overrides)
    return SyntheticWorldSpec(**base)


RECOVERY_PRETRAIN = dict(learning_rate=1e-2, batch_size=128, max_epochs=300,
                         patience=60)


def linear_model(table: ClassAttributeTable, d: int, seed: int = 11,
                 include_logdet: bool = True) -> BaseZslModel:
    """Zero-hidden-layer heads: exact for linearly generated worlds and
    convex, so recovery does not depend on interpolation luck."""
    spec = MlpSpec.dense((table.attr_dim, d))
    return BaseZslModel(
        mean_net=init_network(spec, named_seed(seed, "mean_net")),
        prec_net=init_network(spec, named_seed(seed, "prec_net")),
        attribute_table=table,
        include_logdet=include_logdet,
    )


def streaming_setup(d: int = 16, seed: int = 4, reverse_table: bool = False, U: int = 3):
    """A linear base model with ``U`` unseen classes, and a state whose
    batchnorm + dropout G_T has running stats that are not the identity.
    ``reverse_table`` lists the classes in descending id order, so the
    table's unseen order differs from the state's sorted one."""
    world = make_synthetic_world(bench_spec(seed=3, S=2, U=U, d=d, attr_dim=4,
                                            samples_per_class=8))
    table = world.attributes
    if reverse_table:
        table = ClassAttributeTable(attributes=table.attributes[::-1],
                                    class_ids=table.class_ids[::-1],
                                    seen_mask=table.seen_mask[::-1])
    model = linear_model(table, d=d, seed=5)
    config = AdaConfig(gen_hidden=(48, 32), disc_hidden=(8,), use_batchnorm=True,
                       gen_dropout=0.1, seed=seed)
    state = init_ada_state(model, config)
    stats = state.g_t.stats
    stats[:] = np.random.default_rng(seed).uniform(0.5, 1.5, stats.size)
    return model, state


def train_linear_model(world: SyntheticWorld, seed: int = 11, **overrides):
    cfg = PretrainConfig(**{**RECOVERY_PRETRAIN, "seed": seed, **overrides})
    model = linear_model(world.attributes, world.dataset.dim, seed=seed)
    return pretrain(model, world.dataset, cfg)


def calibrate_shift(world_seed: int, model_seed: int = 11,
                    band: tuple[float, float] = (0.6, 0.85),
                    start: float = 4.0):
    """World whose pseudo-label agreement lands inside ``band``.

    Seen-class rows are never shifted, so one pretrained model per world
    seed scores every candidate magnitude.  Grows the magnitude by x1.5
    until agreement drops below the band's top, then bisects.
    Returns (world, model, agreement).
    """
    lo_a, hi_a = band

    def world_at(m: float) -> SyntheticWorld:
        return make_synthetic_world(bench_spec(world_seed, shift_magnitude=m))

    world = world_at(start)
    model, _ = train_linear_model(world, seed=model_seed)

    def agreement_at(m: float):
        w = world_at(m)
        return w, pseudo_labels(model, w.dataset)[1]

    m_lo, m_hi = 0.0, start
    w, a = agreement_at(start)
    for _ in range(12):
        if a < hi_a:
            break
        m_lo, m_hi = m_hi, m_hi * 1.5
        w, a = agreement_at(m_hi)
    if a >= lo_a:
        return w, model, a
    for _ in range(40):
        mid = 0.5 * (m_lo + m_hi)
        w, a = agreement_at(mid)
        if a > hi_a:
            m_lo = mid
        elif a < lo_a:
            m_hi = mid
        else:
            return w, model, a
    raise AssertionError(
        f"could not place agreement in {band} for world seed {world_seed}")


# per scalar annotation, JSON values of other types, and one of its own
WRONG = {bool: ["true"], int: [1.5, "x"], float: [True, "x"], str: [1], dict: [[], "x"]}
RIGHT = {bool: True, int: 1, float: 1.0, str: "a", dict: {}}


def wrong_values(hint) -> list:
    """JSON values the settings codec must refuse for a field annotated
    ``hint``; for an object of ``T`` values, ``{"k": v}`` with each ``v``
    it must refuse for ``T``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType) and type(None) in args and len(args) == 2:
        return wrong_values(next(a for a in args if a is not type(None)))
    if dataclasses.is_dataclass(hint):
        return [[], "x"]
    if origin is dict and args[0] is str:
        return [[], "x", *({"k": v} for v in wrong_values(args[1]))]
    if origin is tuple and args[-1] is Ellipsis and args[0] in WRONG:
        return [*([v] for v in WRONG[args[0]]), "x"]
    if origin is tuple and set(args) == {args[0]} and args[0] in WRONG:
        return [*([v] * len(args) for v in WRONG[args[0]]), [RIGHT[args[0]]] * (len(args) + 1),
                "x"]
    if hint in WRONG:
        return WRONG[hint]
    pytest.fail(f"no wrong value for {hint!r}: teach the settings codec and this grid "
                f"the annotation")
