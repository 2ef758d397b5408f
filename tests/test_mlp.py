"""Forward/backward correctness of the dense network engine."""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zslada.errors import ConfigError, DimensionMismatch, StaleCache
from zslada.nn.mlp import (
    GradientTape,
    MlpCache,
    MlpNetwork,
    MlpSpec,
    dropout_seed,
    forward_eval,
    init_network,
    mlp_backward,
    mlp_forward,
    param_grads,
    stable_sigmoid,
)
from zslada.profiles import ada_profile, preset
from zslada.rng import named_seed, named_stream
from zslada.settings import from_dict

from .helpers import (exact_net, max_rel_err, numeric_grad, reference_activation,
                      reference_inference, reference_param_grads, reference_stable_sigmoid)

# kink guard: central differences at h=1e-5 are meaningless when a relu /
# leaky pre-activation sits closer to zero than this
KINK_MARGIN = 1e-3


def _kink_safe(cache) -> bool:
    """Read before backward, which drops the pre-activations."""
    return all(np.abs(rec["z"]).min() > KINK_MARGIN
               for rec in cache.layers if "z" in rec)


def test_identity_layer_passes_input_through():
    spec = MlpSpec.dense((2, 2))
    net = exact_net(spec, np.concatenate([np.eye(2).ravel(), np.zeros(2)]))
    out, _ = mlp_forward(net, np.array([[3.0, -2.0]]))
    assert np.array_equal(out, [[3.0, -2.0]])


def test_relu_activation():
    spec = MlpSpec((2, 2), ("relu",), (False,), (0.0,))
    net = exact_net(spec, np.concatenate([np.eye(2).ravel(), np.zeros(2)]))
    out, _ = mlp_forward(net, np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])


def test_leaky_relu_slope_point_two():
    spec = MlpSpec((2, 2), ("leaky_relu:0.2",), (False,), (0.0,))
    net = exact_net(spec, np.concatenate([np.eye(2).ravel(), np.zeros(2)]))
    out, _ = mlp_forward(net, np.array([[-1.0, 2.0]]))
    assert np.allclose(out, [[-0.2, 2.0]])
    # bare name defaults to the same slope
    bare = MlpSpec((2, 2), ("leaky_relu",), (False,), (0.0,))
    net2 = exact_net(bare, net.params.copy())
    assert np.array_equal(mlp_forward(net2, np.array([[-1.0, 2.0]]))[0], out)


def test_scalar_layer_backward_analytic():
    # y = w * x with w = 1.5, x = 2, upstream 1: dL/dw = 2, dL/dx = w
    spec = MlpSpec.dense((1, 1))
    net = exact_net(spec, np.array([1.5, 0.0]))
    out, cache = mlp_forward(net, np.array([[2.0]]))
    assert out[0, 0] == 3.0
    gin = mlp_backward(net, cache, np.array([[1.0]]))
    grads = param_grads(net, [cache], np.empty_like(net.params))
    assert grads[0] == 2.0  # weight
    assert grads[1] == 1.0  # bias
    assert gin[0, 0] == 1.5


def test_relu_kills_gradient_on_negative_input():
    spec = MlpSpec((1, 1), ("relu",), (False,), (0.0,))
    net = exact_net(spec, np.array([1.0, 0.0]))
    _, cache = mlp_forward(net, np.array([[-1.0]]))
    gin = mlp_backward(net, cache, np.array([[5.0]]))
    grads = param_grads(net, [cache], np.empty_like(net.params))
    assert gin[0, 0] == 0.0
    assert np.all(grads == 0.0)


def _loss_and_grad(spec, params, X, C, rng_seed=None):
    """sum(out * C), its parameter gradient and whether the point is
    kink-safe, fresh net per call."""
    net = MlpNetwork(spec, np.asarray(params, dtype=np.float64).copy(),
                     np.zeros(spec.n_stats()))
    out, cache = mlp_forward(net, X, rng_seed=rng_seed, update_stats=False)
    safe = _kink_safe(cache)
    mlp_backward(net, cache, C)
    return float((out * C).sum()), param_grads(net, [cache], np.empty_like(net.params)), safe


def test_two_layer_net_matches_central_differences():
    spec = MlpSpec.dense((3, 5, 2), activation="relu")
    net = init_network(spec, seed=3)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 3))
    C = rng.standard_normal((4, 2))
    _, analytic, safe = _loss_and_grad(spec, net.params, X, C)
    assert safe
    numeric = numeric_grad(lambda p: _loss_and_grad(spec, p, X, C)[0], net.params)
    assert max_rel_err(analytic, numeric) < 1e-4


_LAYER_CASES = [
    ("relu", "identity", False),
    ("leaky_relu:0.2", "identity", False),
    ("sigmoid", "identity", False),
    ("identity", "identity", False),
    ("sigmoid", "log_softmax", False),
    ("relu", "identity", True),
]


@pytest.mark.parametrize("hidden,out_act,batchnorm", _LAYER_CASES)
def test_gradients_match_fd_over_100_seeds(hidden, out_act, batchnorm):
    spec = MlpSpec.dense((2, 3, 3), activation=hidden, out_activation=out_act,
                         batchnorm=batchnorm)
    checked = 0
    for seed in range(160):
        if checked == 100:
            break
        net = init_network(spec, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        X = rng.standard_normal((3, 2))
        C = rng.standard_normal((3, 3))
        _, analytic, safe = _loss_and_grad(spec, net.params, X, C)
        if not safe:
            continue
        numeric = numeric_grad(lambda p: _loss_and_grad(spec, p, X, C)[0],
                               net.params)
        assert max_rel_err(analytic, numeric) < 1e-4, f"seed {seed}"
        checked += 1
    assert checked == 100


def test_dropout_gradient_with_fixed_mask_matches_fd():
    spec = MlpSpec.dense((3, 6, 2), activation="sigmoid", dropout=0.4)
    net = init_network(spec, seed=8)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 3))
    C = rng.standard_normal((5, 2))
    _, analytic, _ = _loss_and_grad(spec, net.params, X, C, rng_seed=21)
    numeric = numeric_grad(
        lambda p: _loss_and_grad(spec, p, X, C, rng_seed=21)[0], net.params)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_batchnorm_train_mode_normalizes_and_tracks_stats():
    spec = MlpSpec((2, 2), ("identity",), (True,), (0.0,))
    params = np.concatenate([np.eye(2).ravel(), np.zeros(2),  # W, b
                             np.ones(2), np.zeros(2)])        # gamma, beta
    net = MlpNetwork(spec, params, np.zeros(4))
    X = np.array([[1.0, 10.0], [3.0, 20.0]])
    out, _ = mlp_forward(net, X, update_stats=True)
    mu, var = X.mean(axis=0), X.var(axis=0)
    expected = (X - mu) / np.sqrt(var + 1e-5)
    assert np.allclose(out, expected)
    # running stats move by one EMA step with momentum 0.1
    assert np.allclose(net.stats[:2], 0.1 * mu)
    assert np.allclose(net.stats[2:], 0.1 * var)
    # the inference pass reads the running stats instead of the batch
    single = forward_eval(net, X[:1])
    expected_eval = (X[:1] - net.stats[:2]) / np.sqrt(net.stats[2:] + 1e-5)
    assert np.allclose(single, expected_eval)


def test_log_softmax_rows_are_normalized():
    spec = MlpSpec.dense((3, 4), out_activation="log_softmax")
    net = init_network(spec, seed=1)
    out, _ = mlp_forward(net, np.random.default_rng(2).standard_normal((6, 3)))
    assert np.allclose(np.exp(out).sum(axis=1), 1.0)
    assert np.all(out <= 0.0)


def test_stable_sigmoid_extreme_inputs():
    z = np.array([-1e4, -30.0, 0.0, 30.0, 1e4])
    s = stable_sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[-1] == 1.0 and s[2] == 0.5


def test_stable_sigmoid_has_the_bits_of_the_masked_form():
    rng = np.random.default_rng(0)
    random = [scale * rng.standard_normal(1000) for scale in (1e-3, 1.0, 30.0, 800.0)]
    edges = np.array([0.0, np.inf, 709.8, 745.2, 1e-320])
    z = np.concatenate(random + [edges, -edges, [np.nan]])
    s = stable_sigmoid(z)
    ref = reference_stable_sigmoid(z)
    assert np.isnan(s[-1]) and np.isnan(ref[-1])
    assert s[:-1].tobytes() == ref[:-1].tobytes()
    assert s.shape == z.shape


def test_dimension_mismatch_names_the_layer():
    net = init_network(MlpSpec.dense((3, 2)), seed=0)
    with pytest.raises(DimensionMismatch) as err:
        mlp_forward(net, np.zeros((1, 5)))
    assert err.value.layer == 0
    assert "layer 0" in str(err.value)
    assert err.value.expected == 3 and err.value.got == 5


def test_stale_cache_rejected_after_param_update():
    net = init_network(MlpSpec.dense((2, 3, 1)), seed=0)
    _, cache = mlp_forward(net, np.ones((2, 2)))
    net.set_params(net.params + 0.1)
    with pytest.raises(StaleCache):
        mlp_backward(net, cache, np.ones((2, 1)))


def test_param_grads_refuses_a_cache_stepped_past_or_never_backpropagated():
    net = init_network(MlpSpec.dense((2, 3, 1), batchnorm=True), seed=0)
    _, cache = mlp_forward(net, np.ones((2, 2)))
    out = np.zeros_like(net.params)
    with pytest.raises(StaleCache, match="mlp_backward"):
        param_grads(net, [cache], out)
    mlp_backward(net, cache, np.ones((2, 1)))
    _, fresh = mlp_forward(net, np.ones((2, 2)))
    with pytest.raises(StaleCache, match="mlp_backward"):
        param_grads(net, [cache, fresh], out)
    assert np.all(out == 0.0)
    param_grads(net, [cache], out)
    # backward drops the activations it consumed, so it runs once per cache
    with pytest.raises(StaleCache, match="already"):
        mlp_backward(net, cache, np.ones((2, 1)))
    # the net was stepped after backward: its tape no longer describes it
    net.params -= 0.1 * out
    net.set_params(net.params)
    with pytest.raises(StaleCache):
        param_grads(net, [cache], out)


def test_upstream_row_count_must_match_cache():
    net = init_network(MlpSpec.dense((2, 1)), seed=0)
    _, cache = mlp_forward(net, np.ones((3, 2)))
    with pytest.raises(StaleCache):
        mlp_backward(net, cache, np.ones((4, 1)))


def test_spec_dict_drops_bn_momentum_and_refuses_it_by_name():
    spec = MlpSpec.dense((3, 4, 2), batchnorm=True, dropout=0.25)
    saved = dataclasses.asdict(spec)
    assert "bn_momentum" not in saved
    assert from_dict(MlpSpec, saved, "network spec") == spec
    # a spec written before the constant carried the key: it is read no more
    with pytest.raises(ConfigError, match=r"unknown network spec keys: \['bn_momentum'\]"):
        from_dict(MlpSpec, {**saved, "bn_momentum": 0.1}, "network spec")


def test_spec_validation():
    with pytest.raises(ConfigError):
        MlpSpec((3,), (), (), ())  # fewer than two widths
    with pytest.raises(ConfigError):
        MlpSpec((3, 0), ("identity",), (False,), (0.0,))
    with pytest.raises(ConfigError):
        MlpSpec((3, 2), ("identity",), (False,), (1.0,))  # dropout must be < 1
    with pytest.raises(ConfigError):
        MlpSpec((3, 2), ("tanh",), (False,), (0.0,))
    with pytest.raises(ConfigError):
        MlpSpec((3, 2), ("identity", "identity"), (False,), (0.0,))


def test_param_vector_length_is_enforced():
    spec = MlpSpec.dense((3, 2))
    with pytest.raises(ConfigError):
        MlpNetwork(spec, np.zeros(5), np.zeros(0))


def test_train_mode_dropout_requires_seed():
    net = init_network(MlpSpec.dense((2, 3, 1), dropout=0.5), seed=0)
    with pytest.raises(ConfigError):
        mlp_forward(net, np.ones((2, 2)))


def test_dropout_zero_fraction_and_survivor_scale():
    p = 0.3
    spec = MlpSpec.dense((4, 4, 4), activation="identity", dropout=p)
    eye = np.eye(4).ravel()
    params = np.concatenate([eye, np.zeros(4), eye, np.zeros(4)])
    net = exact_net(spec, params)
    out, _ = mlp_forward(net, np.ones((2500, 4)), rng_seed=5, update_stats=False)
    flat = out.ravel()  # 10^4 independent unit draws
    dropped = flat == 0.0
    assert abs(dropped.mean() - p) < 0.02
    assert np.allclose(flat[~dropped], 1.0 / (1.0 - p))


def test_eval_forward_is_bitwise_repeatable():
    spec = MlpSpec.dense((3, 8, 2), activation="relu", batchnorm=True, dropout=0.5)
    net = init_network(spec, seed=9)
    X = np.random.default_rng(3).standard_normal((7, 3))
    a = forward_eval(net, X)
    b = forward_eval(net, X)
    assert np.array_equal(a, b)
    # dropout is identity in the inference pass: no zeroed activations, no rescale
    plain = MlpSpec.dense((3, 8, 2), activation="relu", batchnorm=True)
    twin = MlpNetwork(plain, net.params.copy(), net.stats.copy())
    assert np.array_equal(a, forward_eval(twin, X))


def test_inference_pass_writes_nothing_and_leaves_caches_live():
    spec = MlpSpec.dense((3, 8, 5, 2), activation="relu", batchnorm=True, dropout=0.5)
    net = init_network(spec, seed=9)
    rng = np.random.default_rng(3)
    net.stats[:] = rng.uniform(0.5, 1.5, net.stats.size)
    X = rng.standard_normal((7, 3))
    _, cache = mlp_forward(net, X, rng_seed=4)
    params, stats, version = net.params.copy(), net.stats.copy(), net.version
    out = forward_eval(net, X)
    assert net.params.tobytes() == params.tobytes()
    assert net.stats.tobytes() == stats.tobytes()
    assert net.version == version
    assert out.tobytes() == reference_inference(net, X).tobytes()
    # the cache taken before the inference pass is still this net's
    mlp_backward(net, cache, rng.standard_normal(out.shape))
    param_grads(net, [cache], np.empty_like(net.params))


@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "leaky_relu:0", "leaky_relu:1",
                                        "leaky_relu:-0.5", "leaky_relu:1.5", "sigmoid",
                                        "log_softmax", "identity"])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
def test_inference_pass_in_place_has_the_bits_of_the_out_of_place_pass(activation, batchnorm):
    widths = (4, 6, 5, 3)
    spec = MlpSpec(widths, (activation,) * 3, (batchnorm,) * 3, (0.0, 0.5, 0.0))
    rng = np.random.default_rng(8)
    net = MlpNetwork(spec, rng.standard_normal(spec.n_params()),
                     rng.uniform(0.5, 1.5, spec.n_stats()))
    # unit 0 of layer 0 is exactly zero before batchnorm (zero weights and
    # bias); batchnorm with mean 0, gamma -1 and beta -0.0 flips its sign,
    # so the activation sees +0.0 without batchnorm and -0.0 with it
    net.weight(0)[:, 0] = 0.0
    net.bias(0)[0] = 0.0
    first = MlpSpec(widths[:2], ("identity",), (batchnorm,), (0.0,))
    if batchnorm:
        span = {label: start for label, start, _ in first.param_layout()}
        net.params[span["layer0.gamma"]] = -1.0
        net.params[span["layer0.beta"]] = -0.0
        net.stats[0] = 0.0
    X = rng.standard_normal((9, 4))
    X[0] = 0.0
    X[1] = -0.0
    X[2, :2] = (0.0, -0.0)
    X[3, 1] = np.nan
    X[4, 2] = np.inf  # +inf and -inf, by the signs of the weights
    before = X.copy(), net.params.copy(), net.stats.copy()
    out = forward_eval(net, X)
    assert out.tobytes() == reference_inference(net, X).tobytes()
    assert X.tobytes() == before[0].tobytes()
    assert net.params.tobytes() == before[1].tobytes()
    assert net.stats.tobytes() == before[2].tobytes()
    pre = reference_inference(MlpNetwork(first, net.params[:first.n_params()],
                                         net.stats[:first.n_stats()]), X)[:, 0]
    pre = np.delete(pre, [3, 4])
    assert np.all(pre == 0.0) and np.all(np.signbit(pre) == batchnorm)
    # the training pass applies the same rule to the pre-activations it
    # keeps; batch statistics spread a non-finite row over the whole batch,
    # so it also runs without those rows
    for rows in (X, np.delete(X, [3, 4], axis=0)):
        out, cache = mlp_forward(net, rows, rng_seed=5)
        after = [rec["h_in"] for rec in cache.layers[1:]] + [out]
        checked = [(rec["z"], a) for rec, a in zip(cache.layers, after)
                   if "z" in rec and "mask" not in rec]
        assert len(checked) == 2 * activation.startswith(("relu", "leaky_relu"))
        for z, a in checked:
            assert a.tobytes() == reference_activation(activation, z).tobytes()


def test_glorot_init_bounds_and_zero_biases():
    spec = MlpSpec.dense((5, 7, 2), activation="relu")
    net = init_network(spec, seed=13)
    for i, (fan_in, fan_out) in enumerate(((5, 7), (7, 2))):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(net.weight(i)) <= bound)
        assert np.all(net.bias(i) == 0.0)
    # same seed, fresh construction: identical parameters
    assert np.array_equal(net.params, init_network(spec, seed=13).params)


@pytest.mark.parametrize("widths", [(5, 7, 2), (2058, 1200, 1200, 2048), (312, 1200, 1800, 2048),
                                    (1, 3), (4, 1)])
def test_glorot_draws_in_place_equal_rng_uniform(widths):
    spec = MlpSpec.dense(widths, batchnorm=True)
    net = init_network(spec, seed=21)
    for i in range(spec.n_layers):
        n_in, n_out = widths[i], widths[i + 1]
        bound = np.sqrt(6.0 / (n_in + n_out))
        drawn = named_stream(21, "init", i).uniform(-bound, bound, n_in * n_out)
        assert net.weight(i).tobytes() == drawn.tobytes()


def test_dropout_seed_only_for_train_mode_nets_with_dropout():
    with_dropout = init_network(MlpSpec.dense((3, 4, 2), dropout=0.5), seed=0)
    without = init_network(MlpSpec.dense((3, 4, 2)), seed=0)
    assert dropout_seed(with_dropout, 9, "a", 1) == named_seed(9, "a", 1)
    assert dropout_seed(with_dropout, None, "a") is None
    assert dropout_seed(without, 9, "a") is None


def _real_specs(profile: str) -> dict[str, MlpSpec]:
    """The networks ``adapt`` and ``pretrain`` build at a profile's shapes."""
    d, u, attr = {"awa": (2048, 10, 85), "cub": (2048, 50, 312)}[profile]
    ada, base = ada_profile(profile), preset(profile)
    return {
        "generator": MlpSpec.dense((d + u, *ada.gen_hidden, d), activation="leaky_relu:0.2",
                                   batchnorm=ada.use_batchnorm),
        "critic": MlpSpec.dense((d, *ada.disc_hidden, 1), activation="leaky_relu:0.2",
                                batchnorm=ada.use_batchnorm),
        "base_head": MlpSpec.dense((attr, *base.hidden, d), batchnorm=base.batchnorm),
    }


@pytest.mark.parametrize("profile", ["awa", "cub"])
def test_piece_products_are_the_rows_of_the_whole_product_at_real_shapes(profile):
    # the tape builds each weight gradient from pieces of whole rows; with
    # OpenBLAS those give exactly the bits of the whole product's rows
    # rows: an adapt batch, and the seen classes a pretraining batch holds
    rng = np.random.default_rng(0)
    for (name, spec), n in itertools.product(_real_specs(profile).items(), (40, 64)):
        net = MlpNetwork(spec, np.zeros(spec.n_params()), np.zeros(spec.n_stats()))
        layers = []
        for i in range(spec.n_layers):
            h_in = rng.standard_normal((n, spec.layer_widths[i]))
            delta = rng.standard_normal((n, spec.layer_widths[i + 1]))
            tape = {"h_in": h_in, "delta": delta, "b": delta.sum(axis=0)}
            if spec.batchnorm[i]:
                tape["gamma"] = tape["beta"] = tape["b"]
            layers.append(tape)
        whole = [tape["h_in"].T @ tape["delta"] for tape in layers]
        tape = GradientTape(net, [MlpCache(net.version, n, layers)])
        assert len(tape.windows) > 1, name
        pieces = 0
        for k, (_, _, segments) in enumerate(tape.windows):
            window = tape.build(k)
            for key, i, r0, r1, lo, hi in segments:
                if key == "W":
                    assert window[lo:hi].tobytes() == whole[i][r0:r1].tobytes(), (name, n, i, r0)
                    pieces += 1
        assert pieces > spec.n_layers


@st.composite
def _net_cases(draw):
    n_layers = draw(st.integers(1, 3))
    widths = tuple(draw(st.integers(1, 4)) for _ in range(n_layers + 1))
    hidden = draw(st.sampled_from(["relu", "leaky_relu:0.2", "sigmoid", "identity"]))
    out_act = draw(st.sampled_from(["identity", "sigmoid", "log_softmax"]))
    batchnorm = draw(st.booleans())
    dropout = draw(st.sampled_from([0.0, 0.0, 0.25]))
    seed = draw(st.integers(0, 10_000))
    return widths, hidden, out_act, batchnorm, dropout, seed


@given(_net_cases())
def test_backward_matches_fd_on_random_architectures(case):
    widths, hidden, out_act, batchnorm, dropout, seed = case
    spec = MlpSpec.dense(widths, activation=hidden, out_activation=out_act,
                         batchnorm=batchnorm, dropout=dropout)
    net = init_network(spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    X = rng.standard_normal((3, spec.in_dim))
    C = rng.standard_normal((3, spec.out_dim))
    _, analytic, safe = _loss_and_grad(spec, net.params, X, C, rng_seed=17)
    assume(safe)
    numeric = numeric_grad(
        lambda p: _loss_and_grad(spec, p, X, C, rng_seed=17)[0], net.params)
    assert max_rel_err(analytic, numeric) < 1e-4


@given(_net_cases())
def test_backward_without_input_grad_keeps_param_grads_bitwise(case):
    widths, hidden, out_act, batchnorm, dropout, seed = case
    spec = MlpSpec.dense(widths, activation=hidden, out_activation=out_act,
                         batchnorm=batchnorm, dropout=dropout)
    net = MlpNetwork(spec, init_network(spec, seed=seed).params,
                     np.zeros(spec.n_stats()))
    rng = np.random.default_rng(seed + 1)
    X = rng.standard_normal((3, spec.in_dim))
    C = rng.standard_normal((3, spec.out_dim))
    _, cache = mlp_forward(net, X, rng_seed=17, update_stats=False)
    gin = mlp_backward(net, cache, C)
    grads = param_grads(net, [cache], np.empty_like(net.params))
    _, cache = mlp_forward(net, X, rng_seed=17, update_stats=False)
    skipped = mlp_backward(net, cache, C, input_grad=False)
    only = param_grads(net, [cache], np.empty_like(net.params))
    assert gin.shape == X.shape and skipped is None
    assert only.tobytes() == grads.tobytes()


def _forward_twice(case):
    """A net and two (cache, upstream gradient) pairs from two batches,
    for the accumulate-contract tests."""
    widths, hidden, out_act, batchnorm, dropout, seed = case
    spec = MlpSpec.dense(widths, activation=hidden, out_activation=out_act,
                         batchnorm=batchnorm, dropout=dropout)
    net = init_network(spec, seed=seed)
    rng = np.random.default_rng(seed + 2)
    pairs = []
    for rows, rng_seed in ((3, 17), (5, 18)):
        _, cache = mlp_forward(net, rng.standard_normal((rows, spec.in_dim)),
                               rng_seed=rng_seed, update_stats=False)
        pairs.append((cache, rng.standard_normal((rows, spec.out_dim))))
    return net, pairs


@given(_net_cases())
def test_backward_accumulates_into_the_buffer(case):
    # param_grads over two tapes must equal zeros-then-add, whatever the
    # buffer held before: a slice it overwrites, skips or double-adds shows
    net, ((cache_a, C_a), (cache_b, C_b)) = _forward_twice(case)
    mlp_backward(net, cache_a, C_a)
    mlp_backward(net, cache_b, C_b, input_grad=False)
    out = np.full_like(net.params, np.nan)
    assert param_grads(net, [cache_a, cache_b], out) is out
    assert np.array_equal(out, reference_param_grads(net, [cache_a, cache_b]))
    alone_a = param_grads(net, [cache_a], np.full_like(net.params, np.nan))
    alone_b = param_grads(net, [cache_b], np.full_like(net.params, np.nan))
    assert np.array_equal(out, alone_a + alone_b)
    assert np.array_equal(param_grads(net, [], out), np.zeros_like(out))


@given(_net_cases())
def test_frozen_backward_gives_the_same_input_grad(case):
    # backward alone is the frozen-net path: it writes no parameter, stat
    # or gradient, and taping the cache afterwards leaves the input grad
    net, ((cache, C), _) = _forward_twice(case)
    params, stats = net.params.copy(), net.stats.copy()
    frozen = mlp_backward(net, cache, C)
    assert np.array_equal(net.params, params) and np.array_equal(net.stats, stats)
    taped, ((cache, C), _) = _forward_twice(case)
    assert np.array_equal(mlp_backward(taped, cache, C), frozen)
    param_grads(taped, [cache], np.empty_like(taped.params))
    _, ((cache, C), _) = _forward_twice(case)
    assert mlp_backward(net, cache, C, input_grad=False) is None


def test_gradient_buffer_must_match_the_parameters():
    net = init_network(MlpSpec.dense((2, 3, 1)), seed=0)
    _, cache = mlp_forward(net, np.ones((2, 2)))
    mlp_backward(net, cache, np.ones((2, 1)))
    n = net.params.size
    for out in (np.zeros(n + 1), np.zeros((1, n)), np.zeros(2 * n)[::2], np.zeros(n, np.float32)):
        with pytest.raises(ConfigError):
            param_grads(net, [cache], out)
