"""Adam / RMSprop update rules."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import zslada.nn.mlp as mlp
import zslada.nn.optim as optim
from zslada.errors import ConfigError, NonFiniteGradient, StaleCache
from zslada.nn.mlp import GradientTape, MlpSpec, init_network, mlp_backward, mlp_forward, param_grads
from zslada.nn.optim import (
    BLOCK,
    OptimizerHyper,
    adam_step,
    init_optimizer,
    rmsprop_step,
    role_stepper,
)

from .helpers import reference_adam_step, reference_param_grads, reference_rmsprop_step

STEPS = {"adam": adam_step, "rmsprop": rmsprop_step}
REFERENCE_STEPS = {"adam": reference_adam_step, "rmsprop": reference_rmsprop_step}
# for tests whose outcome does not hinge on the learning rate
HYPERS = {"adam": OptimizerHyper(learning_rate=1e-3),
          "rmsprop": OptimizerHyper(learning_rate=1e-5)}


def _moment_bytes(state) -> tuple:
    """The state's moments as bytes; rmsprop keeps no first moment."""
    first = None if state.first_moment is None else state.first_moment.tobytes()
    return first, state.second_moment.tobytes()


def test_adam_zero_gradient_is_identity():
    params = np.array([1.0, -2.0, 0.5])
    state = init_optimizer("adam", 3, hyper=HYPERS["adam"])
    new = params.copy()
    adam_step(new, np.zeros(3), state)
    assert np.array_equal(new, params)
    assert state.step_count == 1


def test_adam_first_step_is_minus_lr_times_sign():
    state = init_optimizer("adam", 1, hyper=OptimizerHyper(learning_rate=0.1))
    new = np.array([3.0])
    adam_step(new, np.array([1.0]), state)
    # m_hat = g, v_hat = g^2, so the step is -lr * g/(|g| + eps)
    assert abs(new[0] - (3.0 - 0.1)) < 1e-8


def test_adam_decoupled_weight_decay_pulls_toward_zero():
    hyper = OptimizerHyper(learning_rate=0.1, weight_decay=0.001)
    state = init_optimizer("adam", 1, hyper=hyper)
    new = np.array([1.0])
    adam_step(new, np.array([0.0]), state)
    assert 0.0 < new[0] < 1.0
    # decay never enters the moment accumulators
    assert np.all(state.first_moment == 0.0)
    assert np.all(state.second_moment == 0.0)


def test_rmsprop_zero_gradient_is_identity():
    params = np.array([0.3, -0.7])
    state = init_optimizer("rmsprop", 2, hyper=HYPERS["rmsprop"])
    new = params.copy()
    rmsprop_step(new, np.zeros(2), state)
    assert np.array_equal(new, params)


def test_rmsprop_state_holds_no_first_moment():
    state = init_optimizer("rmsprop", 5, hyper=HYPERS["rmsprop"])
    assert state.first_moment is None
    params = np.ones(5)
    rmsprop_step(params, np.full(5, 0.5), state)
    assert state.first_moment is None and state.step_count == 1
    assert init_optimizer("adam", 5, hyper=HYPERS["adam"]).first_moment.shape == (5,)


def test_rmsprop_step_size_saturates_at_learning_rate():
    lr = 1e-3
    state = init_optimizer("rmsprop", 1, hyper=OptimizerHyper(learning_rate=lr))
    params = np.array([0.0])
    g = np.array([2.5])
    for _ in range(500):
        prev = params.copy()
        rmsprop_step(params, g, state)
    # accumulator -> g^2, so |step| -> lr regardless of gradient scale
    assert abs(abs(params[0] - prev[0]) - lr) < 0.01 * lr


def test_same_inputs_give_bitwise_identical_trajectories():
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)

    def run(rng):
        params = np.zeros(4)
        state = init_optimizer("rmsprop", 4, hyper=OptimizerHyper(learning_rate=1e-3))
        for _ in range(50):
            rmsprop_step(params, rng.standard_normal(4), state)
        return params

    assert np.array_equal(run(rng_a), run(rng_b))


@pytest.mark.parametrize("kind", sorted(STEPS))
def test_nonfinite_gradient_names_the_slice(kind):
    # the bad entry sits in the third block, so a step that checked one
    # block at a time would already have written the first two
    n = 2 * BLOCK + 6
    layout = [("layer0.W", 0, n - 2), ("layer0.b", n - 2, n)]
    state = init_optimizer(kind, n, hyper=HYPERS[kind], param_layout=layout)
    rng = np.random.default_rng(3)
    params = rng.standard_normal(n)
    STEPS[kind](params, rng.standard_normal(n), state)
    before = (params.tobytes(), _moment_bytes(state), state.step_count)
    grads = rng.standard_normal(n)
    grads[n - 1] = np.nan
    with pytest.raises(NonFiniteGradient) as err:
        STEPS[kind](params, grads, state)
    assert "layer0.b" in str(err.value)
    assert err.value.where.startswith("layer0.b")
    assert (params.tobytes(), _moment_bytes(state), state.step_count) == before


def test_kind_and_shape_mismatches_are_config_errors():
    state = init_optimizer("adam", 3, hyper=HYPERS["adam"])
    with pytest.raises(ConfigError):
        rmsprop_step(np.zeros(3), np.zeros(3), state)
    with pytest.raises(ConfigError):
        adam_step(np.zeros(4), np.zeros(4), state)
    with pytest.raises(ConfigError):
        init_optimizer("sgd", 3, hyper=HYPERS["adam"])
    with pytest.raises(ConfigError):
        OptimizerHyper(learning_rate=-1.0)
    # params the step could only update on a silent copy
    read_only = np.zeros(3)
    read_only.flags.writeable = False
    for params in ([0.0, 0.0, 0.0], np.zeros(3, dtype=np.float32),
                   np.zeros(6)[::2], read_only):
        with pytest.raises(ConfigError):
            adam_step(params, np.zeros(3), state)
    assert state.step_count == 0


@given(
    hnp.arrays(np.float64, st.integers(1, 8),
               elements=st.floats(-10, 10, allow_nan=False)),
    st.sampled_from(["adam", "rmsprop"]),
)
def test_zero_gradient_zero_decay_is_identity_for_any_params(params, kind):
    state = init_optimizer(kind, params.size, hyper=HYPERS[kind])
    step = adam_step if kind == "adam" else rmsprop_step
    new = params.copy()
    step(new, np.zeros_like(params), state)
    assert np.array_equal(new, params)


@pytest.mark.parametrize("kind", sorted(STEPS))
def test_step_updates_params_and_state_in_place(kind):
    params = np.array([1.0, 2.0])
    grads = np.array([0.5, -0.5])
    state = init_optimizer(kind, 2, hyper=HYPERS[kind])
    expected, _ = REFERENCE_STEPS[kind](params.copy(), grads,
                                        init_optimizer(kind, 2, hyper=HYPERS[kind]))
    moment = state.second_moment
    assert STEPS[kind](params, grads, state) is None
    assert np.array_equal(grads, [0.5, -0.5])
    assert np.array_equal(params, expected)
    assert not np.array_equal(params, [1.0, 2.0])
    assert state.step_count == 1
    assert state.second_moment is moment
    assert np.all(moment > 0.0)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("kind", sorted(STEPS))
def test_step_is_bitwise_the_whole_vector_formula(kind, n, weight_decay):
    hyper = OptimizerHyper(learning_rate=1e-2, weight_decay=weight_decay)
    state = init_optimizer(kind, n, hyper=hyper)
    ref_state = init_optimizer(kind, n, hyper=hyper)
    rng = np.random.default_rng(n)
    params = rng.standard_normal(n)
    ref_params = params.copy()
    for _ in range(4):
        # gradients over six decades, so every rounding path is exercised
        grads = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n)
        STEPS[kind](params, grads, state)
        ref_params, ref_state = REFERENCE_STEPS[kind](ref_params, grads, ref_state)
        assert params.tobytes() == ref_params.tobytes()
        assert _moment_bytes(state) == _moment_bytes(ref_state)
        assert state.step_count == ref_state.step_count


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_fused_clip_is_bitwise_step_then_clip(n):
    hyper = OptimizerHyper(learning_rate=1e-2)
    clip = 0.05
    state = init_optimizer("rmsprop", n, hyper=hyper)
    ref_state = init_optimizer("rmsprop", n, hyper=hyper)
    rng = np.random.default_rng(n + 1)
    # start with most entries at or beyond the bound, as critics sit
    params = rng.uniform(-2 * clip, 2 * clip, n)
    ref_params = params.copy()
    for _ in range(4):
        grads = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n)
        rmsprop_step(params, grads, state, clip=clip)
        rmsprop_step(ref_params, grads, ref_state)
        np.clip(ref_params, -clip, clip, out=ref_params)
        assert params.tobytes() == ref_params.tobytes()
        assert _moment_bytes(state) == _moment_bytes(ref_state)
    assert np.abs(params).max() <= clip


def test_fused_clip_writes_nothing_on_a_nonfinite_gradient():
    n = BLOCK + 3
    state = init_optimizer("rmsprop", n, hyper=HYPERS["rmsprop"])
    params = np.full(n, 1.0)
    grads = np.ones(n)
    grads[-1] = np.inf
    with pytest.raises(NonFiniteGradient):
        rmsprop_step(params, grads, state, clip=0.01)
    assert np.all(params == 1.0) and np.all(state.second_moment == 0.0)


# ---------------------------------------------------------------- steps from tapes


def _taped_net(widths, window: int, batchnorm: bool, n_caches: int, seed: int):
    """A train-mode net whose spec was cut into windows of at most
    ``window`` entries, and ``n_caches`` backpropagated caches of it."""
    with mock.patch.object(mlp, "WINDOW", window):
        spec = MlpSpec.dense(widths, activation="leaky_relu:0.2", batchnorm=batchnorm)
    net = init_network(spec, seed=seed)
    rng = np.random.default_rng(seed)
    caches = []
    for rows in range(3, 3 + n_caches):
        _, cache = mlp_forward(net, rng.standard_normal((rows, spec.in_dim)), update_stats=False)
        mlp_backward(net, cache, rng.standard_normal((rows, spec.out_dim)), input_grad=False)
        caches.append(cache)
    return net, caches


def _step_kwargs(kind: str, clip: float | None) -> dict:
    return {"clip": clip} if kind == "rmsprop" and clip is not None else {}


@given(st.lists(st.integers(1, 12), min_size=2, max_size=4), st.sampled_from([16, 40, 4096]),
       st.booleans(), st.integers(0, 3), st.sampled_from(sorted(STEPS)),
       st.sampled_from([None, 0.05]), st.integers(0, 1000))
def test_step_from_a_tape_is_bitwise_param_grads_then_the_array_step(
        widths, window, batchnorm, n_caches, kind, clip, seed):
    # small windows cut most of these nets into several windows and their
    # weights into pieces of a few rows
    net, caches = _taped_net(widths, window, batchnorm, n_caches, seed)
    grads = param_grads(net, caches, np.full_like(net.params, np.nan))
    assert grads.tobytes() == reference_param_grads(net, caches).tobytes()
    hyper = OptimizerHyper(learning_rate=1e-2, weight_decay=1e-3)
    state = init_optimizer(kind, net.params.size, hyper=hyper)
    ref_state = init_optimizer(kind, net.params.size, hyper=hyper)
    params, ref = net.params.copy(), net.params.copy()
    window_buffer = np.full(net.spec.max_window, np.nan)
    for _ in range(2):
        STEPS[kind](params, GradientTape(net, caches, window_buffer), state,
                    **_step_kwargs(kind, clip))
        STEPS[kind](ref, grads, ref_state, **_step_kwargs(kind, clip))
        assert params.tobytes() == ref.tobytes()
        assert _moment_bytes(state) == _moment_bytes(ref_state)
        assert state.step_count == ref_state.step_count


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("window", [24, 4096])
@pytest.mark.parametrize("poison", ["nan", "overflow"])
@pytest.mark.parametrize("kind", sorted(STEPS))
def test_nonfinite_tape_writes_nothing_and_names_the_layer(kind, poison, window):
    # the bad entries sit in the last layer: a step of several windows
    # that checked each window as it went would already have written the
    # earlier ones
    net, caches = _taped_net((6, 8, 8, 3), window, batchnorm=True, n_caches=2, seed=5)
    assert (len(GradientTape(net, caches).windows) > 3) == (window == 24)
    tape = caches[1].layers[2]
    if poison == "nan":
        tape["delta"][1, 2] = np.nan
    else:
        # every entry finite, but their products overflow
        tape["h_in"] = np.full_like(tape["h_in"], 1e200)
        tape["delta"] = np.full_like(tape["delta"], -1e200)
    assert not GradientTape(net, caches).bound() < 1e300
    state = init_optimizer(kind, net.params.size, hyper=HYPERS[kind],
                           param_layout=net.spec.param_layout())
    params = net.params.copy()
    STEPS[kind](params, GradientTape(net, caches[:1]), state)
    before = (params.tobytes(), _moment_bytes(state), state.step_count)
    with pytest.raises(NonFiniteGradient) as err:
        STEPS[kind](params, GradientTape(net, caches), state)
    assert err.value.where.startswith("layer2.W")
    assert (params.tobytes(), _moment_bytes(state), state.step_count) == before


def test_tape_window_buffer_must_hold_the_largest_window():
    net, caches = _taped_net((6, 8, 3), 24, batchnorm=False, n_caches=1, seed=0)
    with pytest.raises(ConfigError):
        GradientTape(net, caches, np.empty(net.spec.max_window - 1))
    state = init_optimizer("rmsprop", net.params.size, hyper=HYPERS["rmsprop"])
    with pytest.raises(ConfigError):
        rmsprop_step(np.zeros(net.params.size + 1), GradientTape(net, caches), state)


# ---------------------------------------------------------------- role_stepper


def _backprop(net, rng, n_caches: int) -> list:
    caches = []
    for rows in range(2, 2 + n_caches):
        X = rng.standard_normal((rows, net.spec.in_dim))
        _, cache = mlp_forward(net, X, update_stats=True)
        mlp_backward(net, cache, rng.standard_normal((rows, net.spec.out_dim)), input_grad=False)
        caches.append(cache)
    return caches


@given(st.sampled_from(sorted(STEPS)), st.sampled_from([None, 0.05]),
       st.permutations(["a", "b", "c"]), st.integers(1, 3), st.integers(0, 1000))
def test_role_stepper_is_the_per_role_step_on_each_tape(kind, clip, order, n_taped, seed):
    # three roles of different shapes, windows and hyperparameters; the
    # first n_taped roles of `order` are stepped, in that order
    with mock.patch.object(mlp, "WINDOW", 40):
        nets = {"a": init_network(MlpSpec.dense((3, 9, 2), batchnorm=True), seed=seed),
                "b": init_network(MlpSpec.dense((5, 4)), seed=seed + 1),
                "c": init_network(MlpSpec.dense((2, 6, 6, 3)), seed=seed + 2)}
    hypers = {role: OptimizerHyper(learning_rate=lr, weight_decay=wd)
              for role, lr, wd in (("a", 1e-2, 0.0), ("b", 3e-3, 1e-3), ("c", 1e-3, 0.0))}
    step = role_stepper(kind, nets, hypers)
    if kind == "adam":
        with pytest.raises(ConfigError):
            step({}, clip=0.05)
        clip = None
    kwargs = _step_kwargs(kind, clip)
    ref_states = {role: init_optimizer(kind, net.params.size, hyper=hypers[role])
                  for role, net in nets.items()}
    rng = np.random.default_rng(seed)
    taped = order[:n_taped]
    for _ in range(2):
        untaped = {role: (net.params.tobytes(), net.version)
                   for role, net in nets.items() if role not in taped}
        tapes, expected = {}, {}
        for role in taped:
            net = nets[role]
            tapes[role] = caches = _backprop(net, rng, 1 + len(tapes))
            expected[role] = net.params.copy()
            STEPS[kind](expected[role], GradientTape(net, caches), ref_states[role], **kwargs)
        held = dict(tapes)
        seen = []

        def watched(params, *args, **kw):
            seen.append(next(role for role, net in nets.items() if net.params is params))
            return STEPS[kind](params, *args, **kw)

        with mock.patch.object(optim, f"{kind}_step", watched):
            step(tapes, clip=clip)
        assert tapes == {}
        assert seen == taped
        for role in taped:
            assert nets[role].params.tobytes() == expected[role].tobytes()
            with pytest.raises(StaleCache):
                GradientTape(nets[role], held[role])
        for role, before in untaped.items():
            assert (nets[role].params.tobytes(), nets[role].version) == before
