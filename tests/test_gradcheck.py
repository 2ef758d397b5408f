"""Finite-difference verification harness, exercised on the real objectives."""
import numpy as np
import pytest

from zslada.ada import (
    AdaConfig,
    augment_batch,
    critic_objective,
    generator_objective,
    init_ada_state,
)
from zslada.base_model import BaseZslModel, pretrain_objective
from zslada.errors import ConfigError
from zslada.nn.gradcheck import grad_check, numeric_gradient
from zslada.nn.mlp import MlpSpec, init_network, mlp_backward, mlp_forward, param_grads

from .helpers import aligned, linear_model, max_rel_err, tape_grads, toy_table


def test_quadratic_in_one_variable():
    def fn(p):
        return float(p[0] ** 2), 2.0 * p

    report = grad_check(fn, np.array([3.0]), tolerance=1e-6)
    assert report.passed
    assert report.max_rel_error < 1e-6

    numeric = numeric_gradient(lambda p: float(p[0] ** 2), np.array([3.0]))
    assert abs(numeric[0] - 6.0) < 1e-6


def test_wrong_gradient_is_caught():
    def fn(p):
        return float(p[0] ** 2), 2.0 * p + 0.1

    report = grad_check(fn, np.array([3.0]), tolerance=1e-6)
    assert not report.passed
    assert report.worst_index == 0


def test_gradient_shape_mismatch_raises():
    with pytest.raises(ValueError):
        grad_check(lambda p: (0.0, np.zeros(3)), np.zeros(2), tolerance=1e-6)


def test_nonfinite_loss_fails_without_raising():
    def fn(p):
        return float("nan"), np.zeros_like(p)

    report = grad_check(fn, np.array([1.0, 2.0]), tolerance=1e-6)
    assert not report.passed
    assert report.max_rel_error == np.inf


def _joint_objective(model):
    n_mean = model.mean_net.params.size

    def fn(p):
        model.mean_net.set_params(p[:n_mean])
        model.prec_net.set_params(p[n_mean:])
        loss, tapes = pretrain_objective(model, fn.X, fn.y)
        grads = tape_grads({"mean_net": model.mean_net, "prec_net": model.prec_net}, tapes)
        return loss, np.concatenate([grads["mean_net"], grads["prec_net"]])

    return fn


def test_gaussian_objective_gradients_linear_heads():
    table = toy_table(S=3, U=1, attr_dim=3, seed=2)
    model = linear_model(table, d=2, seed=4)
    rng = np.random.default_rng(8)
    fn = _joint_objective(model)
    fn.X = rng.standard_normal((9, 2))
    fn.y = np.repeat([0, 1, 2], 3)

    p0 = np.concatenate([model.mean_net.params, model.prec_net.params])
    report = grad_check(fn, p0, tolerance=1e-4)
    assert report.passed, report


def test_gaussian_objective_gradients_hidden_layer():
    table = toy_table(S=3, U=1, attr_dim=3, seed=2)
    spec = MlpSpec.dense((3, 4, 2), activation="sigmoid")
    model = BaseZslModel(
        mean_net=init_network(spec, seed=31),
        prec_net=init_network(spec, seed=32),
        attribute_table=table,
    )
    rng = np.random.default_rng(9)
    fn = _joint_objective(model)
    fn.X = rng.standard_normal((6, 2))
    fn.y = np.repeat([0, 1, 2], 2)

    p0 = np.concatenate([model.mean_net.params, model.prec_net.params])
    report = grad_check(fn, p0, tolerance=1e-4)
    assert report.passed, report


def _toy_ada(seed=5, phase="recovery", **overrides):
    table = toy_table(S=2, U=2, attr_dim=3, seed=0)
    model = linear_model(table, d=3, seed=7)
    config = AdaConfig(**dict(gen_hidden=(4,), disc_hidden=(4,), use_batchnorm=False,
                              gen_dropout=0.0, seed=seed) | overrides)
    state = init_ada_state(model, config)
    state.phase = phase
    rng = np.random.default_rng(seed + 100)
    labels = np.array([0, 1, 0, 1])
    return state, config, aligned(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)),
                                  labels)


MISMATCHED = {"mismatched_pairs": True}
VANILLA = {"variant": "vanilla_ada"}
CYCLEGAN_WO = {"variant": "cyclegan_wo"}


@pytest.mark.parametrize("role, phase, overrides", [
    *(pytest.param(role, "recovery", {}, id=role) for role in ("g_t", "g_s", "c_t", "c_s")),
    pytest.param("c_t", "warmup", MISMATCHED, id="c_t-mismatched-warmup"),
    pytest.param("c_t", "recovery", MISMATCHED, id="c_t-mismatched"),
    pytest.param("g_t", "recovery", MISMATCHED, id="g_t-mismatched"),
    pytest.param("g_t", "recovery", VANILLA, id="g_t-vanilla_ada"),
    pytest.param("c_t", "recovery", VANILLA, id="c_t-vanilla_ada"),
    pytest.param("g_t", "recovery", CYCLEGAN_WO, id="g_t-cyclegan_wo"),
    pytest.param("g_s", "recovery", CYCLEGAN_WO, id="g_s-cyclegan_wo"),
])
def test_generator_objective_gradients(role, phase, overrides):
    state, config, batch = _toy_ada(phase=phase, **overrides)

    def fn(p):
        state.nets[role].set_params(p)
        value, _, tapes = generator_objective(state, config, batch)
        return value, tape_grads(state.nets, tapes)[role]

    report = grad_check(fn, state.nets[role].params.copy(), tolerance=1e-3)
    assert report.passed, (role, report)


@pytest.mark.parametrize("role, overrides", [
    pytest.param("d_t", {}, id="d_t"),
    pytest.param("d_s", {}, id="d_s"),
    pytest.param("d_t", VANILLA, id="d_t-vanilla_ada"),
    pytest.param("d_t", CYCLEGAN_WO, id="d_t-cyclegan_wo"),
    pytest.param("d_s", CYCLEGAN_WO, id="d_s-cyclegan_wo"),
])
def test_critic_objective_gradients(role, overrides):
    state, config, batch = _toy_ada(seed=6, **overrides)

    def fn(p):
        state.nets[role].set_params(p)
        value, _, tapes = critic_objective(state, config, batch)
        return value, tape_grads(state.nets, tapes)[role]

    report = grad_check(fn, state.nets[role].params.copy(), tolerance=1e-3)
    assert report.passed, (role, report)


def test_total_loss_gradient_assembled_from_parts():
    # In the summed objective the critic's score on translated rows
    # appears with both signs, so its pull on the generator cancels.
    # The generator-step gradient plus that one re-added term must
    # therefore match finite differences of the scalar total.
    state, config, batch = _toy_ada(seed=12)
    g_t = state.nets["g_t"]
    p0 = g_t.params.copy()

    def scalar(p):
        g_t.set_params(p)
        value, bd, _ = generator_objective(state, config, batch)
        return value + bd["L_D_T"] + bd["L_D_S"]

    numeric = numeric_gradient(scalar, p0.copy())

    g_t.set_params(p0)
    _, _, tapes = generator_objective(state, config, batch)
    gen_grads = tape_grads(state.nets, tapes)
    n = batch.labels.size
    ya = augment_batch(batch.source, batch.labels, state.n_unseen)
    fakes, cache_g = mlp_forward(g_t, ya, update_stats=False)
    _, cache_d = mlp_forward(state.nets["d_t"], fakes, update_stats=False)
    gin = mlp_backward(state.nets["d_t"], cache_d, np.full((n, 1), 1.0 / n))
    mlp_backward(g_t, cache_g, gin)
    readded = param_grads(g_t, [cache_g], np.empty_like(p0))

    analytic = gen_grads["g_t"] + readded
    assert max_rel_err(analytic, numeric) < 1e-3
    # and without the cancellation-aware correction it must NOT match
    assert max_rel_err(gen_grads["g_t"], numeric) > 1e-2


def test_std_da_has_no_adversarial_objectives():
    table = toy_table(S=2, U=2, attr_dim=3, seed=0)
    model = linear_model(table, d=3, seed=7)
    config = AdaConfig(gen_hidden=(4,), disc_hidden=(4,), use_batchnorm=False,
                       variant="std_da")
    state = init_ada_state(model, config)
    labels = np.array([0, 1])
    rng = np.random.default_rng(0)
    batch = aligned(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)), labels)
    with pytest.raises(ConfigError):
        generator_objective(state, config, batch)
    with pytest.raises(ConfigError):
        critic_objective(state, config, batch)
