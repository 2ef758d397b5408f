"""Adversarial adaptation stage: losses, state, and the training loop."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zslada.ada
from zslada.ada import (
    DRAW_CHUNK,
    VARIANTS,
    AdaConfig,
    AdaState,
    AlignedBatch,
    _abort_if_nonfinite,
    _chunk_rows,
    _class_blocks,
    _crossover_accuracy,
    adapt,
    augment_batch,
    classify,
    critic_objective,
    generator_objective,
    init_ada_state,
    load_ada_state,
    map_prototypes,
    save_ada_state,
    trained_roles,
    transformed_draws,
)
import zslada.base_model
from zslada.base_model import class_params_matrix, pseudo_labels, sample_stream
from zslada.errors import ConfigError, DataError, NumericalDivergence
from zslada.metrics import lacks_metric, m1_accuracy, m2_accuracy
from zslada.nn.checkpoint import load_container, save_container
from zslada.nn.mlp import (MlpNetwork, MlpSpec, forward_eval, init_network, mean_forward_eval,
                           param_grads)
from zslada.rng import named_seed
from zslada.synthetic import make_synthetic_world

from .helpers import (
    aligned,
    bench_spec,
    biased_classifier,
    constant_critic,
    count_class_params_matrix,
    exact_net,
    identity_generator,
    linear_critic,
    linear_model,
    peak_traced_bytes,
    reference_draw_gaussian,
    reference_map_prototypes,
    reference_param_grads,
    streaming_setup,
    table_model,
    toy_table,
    train_linear_model,
    uniform_classifier,
)


def linear_generator(d: int, u: int, shift: float):
    """Single linear layer computing v + shift on the feature part."""
    spec = MlpSpec.dense((d + u, d))
    W = np.zeros((d + u, d))
    W[:d, :d] = np.eye(d)
    params = np.concatenate([W.ravel(), np.full(d, shift)])
    return exact_net(spec, params)


# ---------------------------------------------------------------- labels


def test_augment_label_examples():
    out = augment_batch(np.array([[1.0, 2.0]]), np.array([1]), 3)
    assert np.array_equal(out, [[1.0, 2.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(augment_batch(np.array([[4.0]]), np.array([0]), 1), [[4.0, 1.0]])


def test_augment_label_errors():
    with pytest.raises(ConfigError):
        augment_batch(np.array([[1.0]]), np.array([3]), 3)
    with pytest.raises(ConfigError):
        augment_batch(np.array([[1.0]]), np.array([-1]), 3)


@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_augment_label_shape_and_structure(d, u, data):
    c = data.draw(st.integers(0, u - 1))
    x = np.arange(d, dtype=np.float64)
    out = augment_batch(x[None], np.array([c]), u)
    assert out.shape == (1, d + u)
    assert np.array_equal(out[0, :d], x)
    assert out[0, d + c] == 1.0
    assert out[0, d:].sum() == 1.0


def test_augment_batch_matches_per_row():
    X = np.arange(6, dtype=np.float64).reshape(3, 2)
    labels = np.array([2, 0, 1])
    out = augment_batch(X, labels, 3)
    for i in range(3):
        onehot = np.zeros(3)
        onehot[labels[i]] = 1.0
        assert np.array_equal(out[i], np.concatenate([X[i], onehot]))
    with pytest.raises(ConfigError):
        augment_batch(X, np.array([0, 3, 0]), 3)


def test_aligned_batch_validation():
    with pytest.raises(ConfigError):
        AlignedBatch(source=np.zeros(3), target=np.zeros(3), labels=np.zeros(3))
    with pytest.raises(ConfigError):
        AlignedBatch(source=np.zeros((2, 3)), target=np.zeros((3, 3)), labels=np.zeros(2))
    with pytest.raises(ConfigError):
        AlignedBatch(source=np.zeros((3, 2)), target=np.zeros((3, 3)), labels=np.zeros(3))
    with pytest.raises(ConfigError):
        AlignedBatch(source=np.zeros((3, 2)), target=np.zeros((3, 2)), labels=np.zeros(2))
    with pytest.raises(ConfigError):
        aligned(np.zeros((0, 2)), np.zeros((0, 2)), 0)
    batch = aligned(np.zeros((3, 2)), np.ones((3, 2)), 1)
    assert batch.labels.tolist() == [1, 1, 1] and batch.labels.dtype == np.int64
    assert batch.source.dtype == batch.target.dtype == np.float64


# ---------------------------------------------------------------- loss terms


def _exact_state(d, u, config, base_seed=0, **nets):
    """State on exact toy nets: identity generators, zero critics and
    classifiers sure of index 0, with any role replaced by ``nets``; each
    of the roles the state holds, and only those."""
    table = toy_table(S=2, U=u, attr_dim=3, seed=base_seed)
    model = linear_model(table, d=d, seed=base_seed)
    state = init_ada_state(model, config)
    exact = {"g_t": identity_generator(d, u), "g_s": identity_generator(d, u),
             "d_t": constant_critic(d, 0.0), "d_s": constant_critic(d, 0.0),
             "c_t": biased_classifier(d, u, favored=0),
             "c_s": biased_classifier(d, u, favored=0), **nets}
    assert set(nets) <= set(state.nets), f"a {config.variant} state holds no {set(nets)}"
    state.nets.update({role: exact[role] for role in state.nets})
    return state


TOY_CONFIG = dict(gen_hidden=(4,), disc_hidden=(4,), use_batchnorm=False)


def _gen_terms(batch, d, u, phase="warmup", config=None, **nets):
    """Generator-objective breakdown on an exact toy state."""
    config = config or AdaConfig(**TOY_CONFIG)
    state = _exact_state(d, u, config, **nets)
    state.phase = phase
    return generator_objective(state, config, batch)[1]


def _critic_terms(batch, d, u, **nets):
    config = AdaConfig(**TOY_CONFIG)
    return critic_objective(_exact_state(d, u, config, **nets), config, batch)[1]


def _cycle(batch, d, u, cycle_form=None, **nets):
    form = {} if cycle_form is None else {"cycle_form": cycle_form}
    config = AdaConfig(**form, **TOY_CONFIG)
    return _gen_terms(batch, d, u, config=config, **nets)["L_cyc"]


def test_generator_loss_identity_and_zero_critic():
    rng = np.random.default_rng(0)
    batch = aligned(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)), [0, 1, 0])
    config = AdaConfig(identity_weight=5.0, **TOY_CONFIG)
    assert _gen_terms(batch, 3, 2, config=config)["L_G_T"] == 0.0


def test_generator_loss_constant_critic():
    rng = np.random.default_rng(1)
    batch = aligned(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)), 0)
    config = AdaConfig(identity_weight=0.0, **TOY_CONFIG)
    bd = _gen_terms(batch, 2, 1, config=config, d_t=constant_critic(2, 2.5))
    assert bd["L_G_T"] == -2.5


def test_generator_loss_offset_toy():
    # G_T adds (1, 0); identity penalty on x = (0, 0) is exactly 1
    g_t = identity_generator(2, 1, offset=np.array([1.0, 0.0]))
    batch = aligned([[0.3, -0.4]], [[0.0, 0.0]], 0)
    config = AdaConfig(identity_weight=5.0, **TOY_CONFIG)
    assert _gen_terms(batch, 2, 1, config=config, g_t=g_t)["L_G_T"] == 5.0


def test_critic_loss_constant_critic_is_zero():
    rng = np.random.default_rng(2)
    batch = aligned(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)), 0)
    assert _critic_terms(batch, 2, 1, d_t=constant_critic(2, 0.7))["L_D_T"] == 0.0


def test_critic_loss_fakes_minus_reals():
    batch = aligned([[1.0]], [[3.0]], 0)
    assert _critic_terms(batch, 1, 1, d_t=linear_critic(1, [1.0]))["L_D_T"] == -2.0


def test_cycle_loss_identity_generators():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 3))
    labels = np.array([0, 1, 1, 0])
    batch = aligned(X, X.copy(), labels)
    assert _cycle(batch, 3, 2) == 0.0
    assert _cycle(batch, 3, 2, cycle_form="within_domain") == 0.0


def test_cycle_loss_scalar_toy_depends_on_pairing_form():
    # y=0, x=1, G_T(v)=v+1, G_S(v)=v-1.  Comparing each reconstruction
    # with its own starting row gives 0+0; the cross-domain default
    # compares with the paired row from the other domain and gives 2.
    nets = dict(g_t=linear_generator(1, 1, +1.0), g_s=linear_generator(1, 1, -1.0))
    batch = aligned([[0.0]], [[1.0]], 0)
    assert _cycle(batch, 1, 1, cycle_form="within_domain", **nets) == 0.0
    assert _cycle(batch, 1, 1, **nets) == 2.0
    assert _cycle(batch, 1, 1, cycle_form="cross_domain", **nets) == 2.0


def test_cycle_loss_isolates_second_leg():
    # G_T = relu, G_S = identity: the source leg reconstructs y >= 0
    # exactly, so the whole loss is the target leg's value.
    relu_spec = MlpSpec.dense((2, 1, 1), activation="relu")
    g_t = exact_net(relu_spec, np.array([1.0, 0.0, 0.0, 1.0, 0.0]))
    g_s = linear_generator(1, 1, 0.0)
    batch = aligned([[2.0]], [[-2.0]], 0)
    value = _cycle(batch, 1, 1, cycle_form="within_domain", g_t=g_t, g_s=g_s)
    # second leg alone: |relu(G_S(-2)) - (-2)| = |0 - (-2)|
    assert value == 2.0


def test_classifier_loss_perfect_and_uniform():
    batch = aligned(np.zeros((5, 3)), np.zeros((5, 3)), 1)

    perfect = biased_classifier(3, 4, favored=1)
    assert _gen_terms(batch, 3, 4, "warmup", c_t=perfect)["L_clf_T"] == 0.0
    assert _gen_terms(batch, 3, 4, "recovery", c_t=perfect)["L_clf_T"] == 0.0

    uniform = uniform_classifier(3, 4)
    bd = _gen_terms(batch, 3, 4, "warmup", c_t=uniform, c_s=uniform)
    assert abs(bd["L_clf_T"] - math.log(4.0)) < 1e-12
    assert bd["L_clf_S"] == bd["L_clf_T"]


def test_classifier_loss_warmup_ignores_generator():
    rng = np.random.default_rng(4)
    batch = aligned(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)), [0, 1, 0, 1])
    c_t = uniform_classifier(2, 2)
    plain = identity_generator(2, 2)
    shifted = identity_generator(2, 2, offset=np.array([10.0, -3.0]))

    warm_a = _gen_terms(batch, 2, 2, "warmup", c_t=c_t, g_t=plain)["L_clf_T"]
    warm_b = _gen_terms(batch, 2, 2, "warmup", c_t=c_t, g_t=shifted)["L_clf_T"]
    assert warm_a == warm_b
    assert abs(warm_a - math.log(2.0)) < 1e-12

    # recovery adds the generator-transformed term, so G_T now matters
    rec = _gen_terms(batch, 2, 2, "recovery", c_t=c_t, g_t=plain)["L_clf_T"]
    assert abs(rec - 2 * math.log(2.0)) < 1e-12
    state = _exact_state(2, 2, AdaConfig(**TOY_CONFIG))
    with pytest.raises(ConfigError):
        dataclasses.replace(state, phase="later")
    with pytest.raises(ConfigError):
        dataclasses.replace(state, variant="dann")


def test_classifier_loss_rejects_out_of_range_labels():
    bad = aligned(np.zeros((2, 2)), np.zeros((2, 2)), [0, 5])
    with pytest.raises(ConfigError):
        _gen_terms(bad, 2, 2, c_t=uniform_classifier(2, 2))


# ---------------------------------------------------------------- total loss


def test_total_loss_all_terms_zero():
    config = AdaConfig(**TOY_CONFIG)
    state = _exact_state(d=2, u=2, config=config)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 2))
    labels = np.zeros(4, dtype=int)
    batch = aligned(X, X.copy(), labels)
    value, breakdown, _ = generator_objective(state, config, batch)
    critic_value, critic_breakdown, _ = critic_objective(state, config, batch)
    assert value + breakdown["L_D_T"] + breakdown["L_D_S"] == 0.0
    assert critic_value == 0.0
    assert all(v == 0.0 for v in breakdown.values())
    assert all(v == 0.0 for v in critic_breakdown.values())


def test_total_loss_cycle_term_only():
    config = AdaConfig(cycle_weight=10.0, identity_weight=5.0, **TOY_CONFIG)
    state = _exact_state(d=2, u=2, config=config)
    rng = np.random.default_rng(6)
    # eighths keep x + 0.5 exact, so every term below is float-exact
    X = rng.integers(-20, 20, size=(4, 2)).astype(np.float64) / 8.0
    Y = X + np.array([0.5, 0.0])
    labels = np.zeros(4, dtype=int)
    value, breakdown, _ = generator_objective(state, config, aligned(Y, X, labels))
    assert breakdown["L_cyc"] == 1.0
    assert value + breakdown["L_D_T"] + breakdown["L_D_S"] == 10.0
    assert breakdown["L_G_T"] == breakdown["L_G_S"] == 0.0
    assert breakdown["L_D_T"] == breakdown["L_D_S"] == 0.0
    assert breakdown["L_clf_T"] == breakdown["L_clf_S"] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_total_loss_breakdown_sums_and_matches_objectives(seed):
    table = toy_table(S=2, U=2, attr_dim=3, seed=seed)
    model = linear_model(table, d=3, seed=seed)
    config = AdaConfig(seed=seed, **TOY_CONFIG)
    state = init_ada_state(model, config)
    rng = np.random.default_rng(seed + 50)
    labels = np.array([0, 1, 0, 1])
    batch = aligned(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)), labels)

    value, gen_bd, _ = generator_objective(state, config, batch)
    critic_value, crit_bd, _ = critic_objective(state, config, batch)
    assert abs(gen_bd["L_D_T"] - crit_bd["L_D_T"]) <= 1e-12
    assert abs(gen_bd["L_D_S"] - crit_bd["L_D_S"]) <= 1e-12
    assert abs(critic_value - (crit_bd["L_D_T"] + crit_bd["L_D_S"])) <= 1e-12
    rebuilt = (gen_bd["L_G_T"] + gen_bd["L_G_S"]
               + config.cycle_weight * gen_bd["L_cyc"]
               + config.classifier_weight * (gen_bd["L_clf_T"] + gen_bd["L_clf_S"]))
    assert abs(value - rebuilt) <= 1e-12


def test_variant_term_structure():
    d, u = 3, 2
    base_cfg = dict(gen_hidden=(4,), disc_hidden=(4,), use_batchnorm=False,
                    identity_weight=5.0)
    labels = np.array([0, 1])
    # zero features keep the offset generator's identity penalty exactly 1
    batch = aligned(np.zeros((2, d)), np.zeros((2, d)), labels)

    def state_for(variant):
        config = AdaConfig(variant=variant, **base_cfg)
        state = _exact_state(d=d, u=u, config=config)
        state.nets["g_t"] = identity_generator(d, u, offset=np.array([1.0, 0.0, 0.0]))
        state.nets["d_t"] = constant_critic(d, 2.0)
        return state, config

    state, config = state_for("full")
    _, bd, tapes = generator_objective(state, config, batch)
    assert set(tapes) == {"g_t", "g_s", "c_t", "c_s"}
    assert bd["L_G_T"] == 5.0 * 1.0 - 2.0

    state, config = state_for("vanilla_ada")
    _, bd, tapes = generator_objective(state, config, batch)
    assert set(tapes) == {"g_t", "c_t"}
    # no identity anchor and no cycle: plain adversarial pull only
    assert bd["L_G_T"] == -2.0
    assert bd["L_cyc"] == 0.0 and bd["L_G_S"] == 0.0 and bd["L_clf_S"] == 0.0
    _, cbd, ctapes = critic_objective(state, config, batch)
    assert set(ctapes) == {"d_t"}
    assert cbd["L_D_S"] == 0.0

    state, config = state_for("cyclegan_wo")
    _, bd, tapes = generator_objective(state, config, batch)
    assert set(tapes) == {"g_t", "g_s"}
    assert bd["L_clf_T"] == 0.0 and bd["L_clf_S"] == 0.0
    _, _, ctapes = critic_objective(state, config, batch)
    assert set(ctapes) == {"d_t", "d_s"}


def test_generator_objective_requires_aligned_sizes():
    # a batch whose halves differ in size cannot be built, so no objective sees one
    with pytest.raises(ConfigError, match="one shape"):
        AlignedBatch(source=np.zeros((2, 3)), target=np.zeros((3, 3)),
                     labels=np.zeros(2, dtype=int))


def _objective_case(d, u, n, config, phase="recovery"):
    model = linear_model(toy_table(S=2, U=u, attr_dim=3), d=d, seed=5)
    state = init_ada_state(model, config)
    state.phase = phase
    rng = np.random.default_rng(d + u)
    labels = np.arange(n) % u
    return state, aligned(rng.standard_normal((n, d)), rng.standard_normal((n, d)), labels)


@pytest.mark.parametrize("variant", ["full", "vanilla_ada", "cyclegan_wo"])
def test_objectives_sum_into_the_given_buffers(variant):
    config = AdaConfig(gen_hidden=(6, 5), disc_hidden=(4,), gen_dropout=0.2,
                       mismatched_pairs=True, variant=variant)
    state, batch = _objective_case(d=3, u=3, n=6, config=config)
    # one scratch serves every role in turn, as in adapt; it starts as NaN
    # so stale contents leaking into a sum would show
    scratch = np.full(max(net.params.size for net in state.nets.values()), np.nan)
    for objective in (generator_objective, critic_objective):
        _, _, tapes = objective(state, config, batch, rng_seed=4)
        fresh = {role: reference_param_grads(state.nets[role], caches)
                 for role, caches in tapes.items()}
        for role, caches in tapes.items():
            net = state.nets[role]
            g = param_grads(net, caches, scratch[:net.params.size])
            assert np.array_equal(g, fresh[role])
            assert np.all(np.isfinite(g)) and g.any()


def test_objectives_with_buffers_allocate_no_parameter_sized_vector():
    # the objectives return tapes and every gradient is built in one
    # shared scratch, so besides it no parameter-sized vector is allocated
    config = AdaConfig(gen_hidden=(512, 512), disc_hidden=(256,), gen_dropout=0.1)
    state, batch = _objective_case(d=256, u=4, n=16, config=config)
    scratch = np.empty(state.g_t.params.size)

    def one_step():
        for objective, seed in ((generator_objective, 1), (critic_objective, 2)):
            for role, caches in objective(state, config, batch, rng_seed=seed)[2].items():
                net = state.nets[role]
                param_grads(net, caches, scratch[:net.params.size])

    one_step()
    n_params = state.g_t.params.size  # about 530k
    # the tapes and one layer-sized product of a later cache, about
    # 1.0x; any parameter-sized allocation on top would pass 1.5x
    assert peak_traced_bytes(one_step) < 1.25 * n_params * 8


# ---------------------------------------------------------------- state


def test_init_ada_state_shapes_and_determinism():
    table = toy_table(S=2, U=3, attr_dim=3)
    model = linear_model(table, d=5, seed=2)
    config = AdaConfig(gen_hidden=(16,), disc_hidden=(8,), use_batchnorm=False,
                       learning_rate=1e-3)
    state = init_ada_state(model, config)

    assert state.g_t.spec.layer_widths == (8, 16, 5)
    assert state.nets["g_s"].spec.layer_widths == (8, 16, 5)
    assert state.nets["d_t"].spec.layer_widths == (5, 8, 1)
    assert state.c_t.spec.layer_widths == (5, 3)
    assert state.c_t.spec.activations[-1] == "log_softmax"
    assert state.phase == "warmup"
    assert state.iteration == 0
    assert state.unseen_ids == [2, 3, 4]

    again = init_ada_state(model, config)
    for role in state.nets:
        assert np.array_equal(state.nets[role].params, again.nets[role].params)
    other = init_ada_state(model, AdaConfig(gen_hidden=(16,), disc_hidden=(8,),
                                            use_batchnorm=False, seed=7))
    assert not np.array_equal(state.g_t.params, other.g_t.params)


def test_init_ada_state_requires_unseen_classes():
    model = table_model(means=[[0.0, 0.0]], precisions=[[1.0, 1.0]], n_seen=1)
    with pytest.raises(DataError) as err:
        init_ada_state(model, AdaConfig())
    assert err.value.code == "EMPTY_CLASS_SET"


def test_ada_config_validation():
    for bad in (dict(n_critic=0), dict(clip_c=0.0), dict(cycle_weight=-1.0),
                dict(recovery_trigger="never"), dict(variant="dann"),
                dict(cycle_form="loop"), dict(recovery_fraction=0.0),
                dict(gen_dropout=1.0), dict(relabel_interval=-1),
                dict(mismatched_weight=-3.0)):
        with pytest.raises(ConfigError):
            AdaConfig(**bad)


def test_abort_contract_preserves_context():
    _abort_if_nonfinite(1.0, {"L_cyc": 0.5}, 3)
    with pytest.raises(NumericalDivergence) as err:
        _abort_if_nonfinite(float("nan"), {"L_cyc": 0.5}, 7)
    assert err.value.iteration == 7
    assert err.value.breakdown == {"L_cyc": 0.5}
    with pytest.raises(NumericalDivergence):
        _abort_if_nonfinite(0.0, {"L_G_T": float("inf")}, 2)


# ---------------------------------------------------------------- adapt loop


ADAPT_CONFIG = dict(gen_hidden=(16,), disc_hidden=(16,), use_batchnorm=False,
                    learning_rate=1e-3, n_critic=2, n_steps=50, batch_size=32,
                    recovery_trigger="fixed_fraction", recovery_fraction=0.4,
                    seed=100)


@pytest.fixture(scope="module")
def small_adapted():
    world = make_synthetic_world(bench_spec(seed=21, shift_magnitude=6.0, S=3,
                                            U=2, d=6, attr_dim=3,
                                            samples_per_class=80))
    model, _ = train_linear_model(world, seed=11)
    snapshot = (model.mean_net.params.copy(), model.prec_net.params.copy())
    config = AdaConfig(**ADAPT_CONFIG)
    state, log = adapt(model, world.dataset, config)
    return world, model, snapshot, config, state, log


def test_adapt_log_is_finite_and_phase_monotone(small_adapted):
    _, _, _, config, state, log = small_adapted
    assert len(log) == config.n_steps
    phases = [row[6] for row in log]
    for row in log:
        assert all(np.isfinite(v) for v in row[1:6])
    assert state.iteration == config.n_steps
    # fixed_fraction 0.4 of 50 steps: warmup through 18, recovery from 19
    assert phases[18] == "warmup"
    assert phases[19] == "recovery"
    first = phases.index("recovery")
    assert all(p == "recovery" for p in phases[first:])


def test_adapt_leaves_base_model_untouched(small_adapted):
    _, model, snapshot, _, _, _ = small_adapted
    assert model.mean_net.params.tobytes() == snapshot[0].tobytes()
    assert model.prec_net.params.tobytes() == snapshot[1].tobytes()


def test_adapt_respects_critic_clip(small_adapted):
    _, _, _, config, state, _ = small_adapted
    assert np.max(np.abs(state.nets["d_t"].params)) <= config.clip_c
    assert np.max(np.abs(state.nets["d_s"].params)) <= config.clip_c
    # generators and classifiers are not clipped
    assert np.max(np.abs(state.g_t.params)) > config.clip_c


def test_adapt_memory_is_parameters_moments_and_tapes():
    # Besides the parameters and RMSprop second moments, a whole adapt
    # keeps the generator step's tapes (about 0.5x the largest role at
    # batch 16), the objective's own temporaries, and one gradient window
    # (here a sixteenth of the generator) with its product and block
    # scratch: 0.93x measured.  A gradient scratch sized to the largest
    # role would add 1x, and adding each later cache through a whole-layer
    # product another 0.5x.
    world = make_synthetic_world(bench_spec(seed=3, S=2, U=4, d=256, attr_dim=4,
                                            samples_per_class=8))
    model = linear_model(world.attributes, d=256, seed=5)
    config = AdaConfig(gen_hidden=(512, 512), disc_hidden=(256,), gen_dropout=0.1,
                       batch_size=16, n_critic=2, n_steps=2)
    sizes = [net.params.size for net in init_ada_state(model, config).nets.values()]
    peak = peak_traced_bytes(lambda: adapt(model, world.dataset, config))
    held = 2 * sum(sizes) * 8  # parameters and second moments of all six roles
    assert peak - held <= 1.0 * max(sizes) * 8, (peak, held, max(sizes))


@pytest.mark.parametrize("variant", ["full", "std_da"])
def test_adapt_computes_each_unseen_gaussian_once(small_adapted, monkeypatch, variant):
    # pseudo-labels, batch draws and crossover checks read one table
    world, model, _, _, _, _ = small_adapted
    calls = count_class_params_matrix(monkeypatch, zslada.ada, zslada.base_model)
    config = AdaConfig(**{**ADAPT_CONFIG, "n_steps": 6, "variant": variant,
                          "relabel_interval": 2, "recovery_trigger": "accuracy_crossover",
                          "recovery_fraction": 1.0, "crossover_interval": 2})
    state, log = adapt(model, world.dataset, config)
    assert calls == [state.unseen_ids] and len(log) == 6


@pytest.mark.parametrize("variant", ["full", "std_da"])
def test_adapt_draws_from_the_rows_pseudo_labels_score_with(small_adapted, monkeypatch,
                                                            variant):
    world, model, _, _, _, _ = small_adapted
    scored, drawn = [], []
    score, draw = zslada.base_model.gaussian_scores, zslada.base_model.draw_gaussian

    def scores(X, means, precisions, include_logdet=True):
        scored.append((means.copy(), precisions.copy()))
        return score(X, means, precisions, include_logdet)

    def draws(mean, precision, n, rng):
        drawn.append((mean.tobytes(), precision.tobytes()))
        return draw(mean, precision, n, rng)

    monkeypatch.setattr(zslada.base_model, "gaussian_scores", scores)
    monkeypatch.setattr(zslada.ada, "draw_gaussian", draws)
    config = AdaConfig(**{**ADAPT_CONFIG, "n_steps": 6, "variant": variant,
                          "recovery_trigger": "accuracy_crossover",
                          "recovery_fraction": 1.0, "crossover_interval": 2})
    adapt(model, world.dataset, config)
    assert len(scored) == 1
    rows = {(mu.tobytes(), p.tobytes()) for mu, p in zip(*scored[0])}
    assert len(rows) == len(scored[0][0])
    assert set(drawn) == rows  # every class drawn, from the scored bits only


@pytest.mark.parametrize("head", ["mean_net", "prec_net"])
def test_a_nan_head_weight_stops_pseudo_labels_adapt_and_m2(small_adapted, head):
    # a NaN weight reaches every class: each step names the first unseen one
    world, model, _, _, state, _ = small_adapted
    net = getattr(model, head)
    params = net.params.copy()
    params[0] = np.nan
    broken = dataclasses.replace(model, **{head: MlpNetwork(net.spec, params, net.stats)})
    first = f"class {state.unseen_ids[0]}: non-finite Gaussian"
    with pytest.raises(NumericalDivergence, match=first):
        pseudo_labels(broken, world.dataset)
    for variant in ("full", "std_da"):
        with pytest.raises(NumericalDivergence, match=first):
            adapt(broken, world.dataset, AdaConfig(**{**ADAPT_CONFIG, "variant": variant}))
    with pytest.raises(NumericalDivergence, match=first):
        m2_accuracy(state, broken, world.dataset, n_samples=4)


def test_adapt_is_deterministic_in_seed(small_adapted):
    world, model, _, config, state, log = small_adapted
    state2, log2 = adapt(model, world.dataset, config)
    assert log2 == log
    for role in state.nets:
        assert state.nets[role].params.tobytes() == state2.nets[role].params.tobytes()
    assert np.array_equal(state.pseudo, state2.pseudo)


def test_adapt_keeps_pseudo_labels_fixed_by_default(small_adapted):
    world, model, _, _, state, _ = small_adapted
    labels, agreement = pseudo_labels(model, world.dataset)
    assert np.array_equal(state.pseudo, labels)
    assert state.agreement_estimate == agreement


@pytest.mark.parametrize("loop", ["adapt", "train_std_da"])
def test_adaptation_refuses_a_split_without_test_rows(small_adapted, monkeypatch, loop):
    world, model, _, _, _, _ = small_adapted
    split = dataclasses.replace(world.dataset.split, test_row_indices=[])
    no_test = dataclasses.replace(world.dataset, split=split)

    def refused(*args, **kwargs):
        raise AssertionError("adaptation started on a split without test rows")

    for name in ("init_ada_state", "pseudo_labels", "class_params_matrix"):
        monkeypatch.setattr(zslada.ada, name, refused)
    with pytest.raises(DataError) as err:
        getattr(zslada.ada, loop)(model, no_test, AdaConfig(**ADAPT_CONFIG))
    assert err.value.code == "EMPTY_SPLIT"


def test_std_da_trains_only_the_target_classifier(small_adapted):
    world, model, _, _, _, _ = small_adapted
    config = AdaConfig(variant="std_da", **ADAPT_CONFIG)
    state, log = adapt(model, world.dataset, config)
    fresh = init_ada_state(model, config)
    assert list(state.nets) == list(fresh.nets) == ["c_t"]
    assert not np.array_equal(state.c_t.params, fresh.c_t.params)
    with pytest.raises(ConfigError, match="std_da state has no g_t"):
        state.g_t
    for row in log:
        assert row[1] == row[2] == row[3] == row[5] == 0.0
        assert np.isfinite(row[4])
        assert row[6] == "warmup"


# the networks each variant holds and trains, in ROLES order: its
# generators and classifiers, plus the critic of each side whose
# generator trains
VARIANT_NETS = {
    "full": ("g_t", "g_s", "d_t", "d_s", "c_t", "c_s"),
    "vanilla_ada": ("g_t", "d_t", "c_t"),
    "cyclegan_wo": ("g_t", "g_s", "d_t", "d_s"),
    "std_da": ("c_t",),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_variant_trains_exactly_the_networks_its_table_names(small_adapted, tmp_path,
                                                               variant):
    world, model, _, _, _, _ = small_adapted
    config = AdaConfig(**{**ADAPT_CONFIG, "n_steps": 4, "variant": variant,
                          "relabel_interval": 1})
    roles = VARIANT_NETS[variant]
    assert trained_roles(variant) == roles
    state, log = adapt(model, world.dataset, config)
    fresh = init_ada_state(model, config)
    assert tuple(state.nets) == tuple(fresh.nets) == roles
    assert all(not np.array_equal(state.nets[role].params, fresh.nets[role].params)
               for role in roles)
    # a network has its init bits in every variant that holds it
    full = init_ada_state(model, dataclasses.replace(config, variant="full")).nets
    assert all(fresh.nets[role].params.tobytes() == full[role].params.tobytes()
               for role in roles)
    assert lacks_metric(variant, "m1") == ("c_t" not in roles)
    assert lacks_metric(variant, "m2") == ("g_t" not in roles)
    # the checkpoint and its reload hold the same roles, in the same order
    path = tmp_path / "ada.ckpt"
    save_ada_state(path, state, config)
    meta, arrays = load_container(path)
    assert tuple(meta["specs"]) == tuple(meta["seeds"]) == roles
    assert list(arrays) == [f"{role}_{part}" for role in roles
                            for part in ("params", "stats")] + ["pseudo"]
    loaded = load_ada_state(path)[0]
    assert tuple(loaded.nets) == roles
    assert all(loaded.nets[role].params.tobytes() == state.nets[role].params.tobytes()
               for role in roles)
    if variant == "cyclegan_wo":
        # no classifier: the phase never switches and nothing relabels
        assert [row[6] for row in log] == ["warmup"] * 4
        assert np.array_equal(state.pseudo, pseudo_labels(model, world.dataset)[0])


def test_a_state_refuses_networks_its_variant_does_not_train():
    table = toy_table(S=2, U=2, attr_dim=3)
    model = linear_model(table, d=3, seed=2)
    nets = init_ada_state(model, AdaConfig(**TOY_CONFIG)).nets
    for variant, roles in VARIANT_NETS.items():
        # any order in, ROLES order kept
        state = AdaState(nets={role: nets[role] for role in reversed(roles)},
                         unseen_ids=[2, 3], variant=variant)
        assert tuple(state.nets) == roles
        # one network short, or one over
        wrongs = [dict(list(state.nets.items())[1:])]
        wrongs += [{**state.nets, role: net} for role, net in nets.items() if role not in roles]
        for wrong in wrongs:
            with pytest.raises(ConfigError, match=rf"a {variant} state holds \['"):
                AdaState(nets=wrong, unseen_ids=[2, 3], variant=variant)
    with pytest.raises(ConfigError, match="variant must be one of"):
        AdaState(nets=nets, unseen_ids=[2, 3], variant="dann")
    wo = AdaState(nets={role: nets[role] for role in VARIANT_NETS["cyclegan_wo"]},
                  unseen_ids=[2, 3], variant="cyclegan_wo")
    with pytest.raises(ConfigError, match="cyclegan_wo state has no c_t"):
        classify(wo, np.zeros((1, 3)))


def test_adapt_names_unseen_classes_without_pseudo_labelled_rows(small_adapted, monkeypatch):
    world, model, _, config, state, _ = small_adapted
    assert state.empty_pseudo_ids == []
    first, other = state.unseen_ids
    # drop the test rows the base model pseudo-labels as ``other``
    split = world.dataset.split
    kept = [i for i, c in zip(split.test_row_indices, state.pseudo) if c != other]
    pruned = dataclasses.replace(
        world.dataset, split=dataclasses.replace(split, test_row_indices=kept))
    for variant in ("full", "std_da"):
        run = dataclasses.replace(config, n_steps=3, variant=variant)
        assert adapt(model, pruned, run)[0].empty_pseudo_ids == [other], variant
    # a relabel that leaves ``other`` no row names it too
    monkeypatch.setattr(zslada.ada, "classify",
                        lambda state, X: np.full(X.shape[0], first))
    relabelled = dataclasses.replace(config, n_steps=4, relabel_interval=2)
    assert adapt(model, world.dataset, relabelled)[0].empty_pseudo_ids == [other]


# ---------------------------------------------------------------- prototypes


def _proto_setup():
    base = table_model(
        means=[[0.0, 0.0, 0.0, 0.0],
               [3.0, 1.0, -2.0, 0.5],
               [-1.0, 2.0, 0.0, 1.0]],
        precisions=np.full((3, 4), 1.0),
        n_seen=1,
    )
    config = AdaConfig(gen_hidden=(4,), disc_hidden=(4,), use_batchnorm=False)
    state = init_ada_state(base, config)
    state.nets["g_t"] = identity_generator(4, 2)
    return base, state


def test_map_prototypes_identity_recovers_means():
    base, state = _proto_setup()
    n = 10000
    means, _ = table = class_params_matrix(base, state.unseen_ids)
    protos = map_prototypes(state, table, n, seed=3)
    assert set(protos) == {1, 2}
    for j, cid in enumerate(state.unseen_ids):
        assert np.max(np.abs(protos[cid] - means[j])) < 4.0 / math.sqrt(n)


def test_map_prototypes_seeded_and_single_draw():
    base, state = _proto_setup()
    means, precisions = table = class_params_matrix(base, state.unseen_ids)
    a = map_prototypes(state, table, 64, seed=9)
    b = map_prototypes(state, table, 64, seed=9)
    for cid in a:
        assert np.array_equal(a[cid], b[cid])
    c = map_prototypes(state, table, 64, seed=10)
    assert any(not np.array_equal(a[cid], c[cid]) for cid in a)

    single = map_prototypes(state, table, 1, seed=7)
    for j, cid in enumerate(state.unseen_ids):
        draw = reference_draw_gaussian(means[j], precisions[j], 1,
                                       sample_stream(named_seed(7, "proto"), cid))[0]
        assert np.array_equal(single[cid], draw)

    with pytest.raises(ConfigError):
        map_prototypes(state, table, 0, seed=7)


def _check_blocks(blocks, n_classes: int, n: int) -> None:
    """The block contract of ``_augmented_draws``: blocks of at most
    ``DRAW_CHUNK + 1`` rows whose segments tile them; classes in index
    order with ``n`` rows each, whole in one block when ``n <= DRAW_CHUNK``
    and in ``_chunk_rows(n)`` chunks of one block each otherwise; and no
    one-row block unless one class is drawn once."""
    per_class = {}
    for rows, segments in blocks:
        assert 0 < rows <= DRAW_CHUNK + 1
        assert rows >= 2 or n_classes * n == 1, (n_classes, n, rows)
        assert [lo for _, lo, _ in segments] == [0] + [hi for _, _, hi in segments[:-1]]
        assert segments[-1][2] == rows
        if n <= DRAW_CHUNK:
            assert all(hi - lo == n for _, lo, hi in segments)
        else:
            assert len(segments) == 1
        for j, lo, hi in segments:
            per_class.setdefault(j, []).append(hi - lo)
    assert list(per_class) == list(range(n_classes))
    want = [n] if n <= DRAW_CHUNK else _chunk_rows(n)
    assert all(rows == want for rows in per_class.values()), per_class


@pytest.mark.parametrize("n_classes, n", [
    (1, 1), (2, 1), (5, 1), (DRAW_CHUNK, 1), (DRAW_CHUNK + 1, 1), (2 * DRAW_CHUNK + 1, 1),
    (3, 2), (1, 3), (DRAW_CHUNK // 2 + 1, 2), (4, DRAW_CHUNK // 3), (3, DRAW_CHUNK // 2 + 1),
    (2, DRAW_CHUNK), (2, DRAW_CHUNK + 1), (3, 2 * DRAW_CHUNK + 1)])
def test_class_blocks_pack_whole_classes_within_the_chunk_bound(n_classes, n):
    blocks = []
    for block in _class_blocks(n_classes, n):
        segments, lo = [], 0
        for j, rows in block:
            segments.append((j, lo, lo + rows))
            lo += rows
        blocks.append((lo, segments))
    _check_blocks(blocks, n_classes, n)
    if n <= DRAW_CHUNK:
        # every block but the last is full; a one-row rest joined the last
        sizes = [len(segments) for _, segments in blocks]
        per = DRAW_CHUNK // n
        assert all(size == per for size in sizes[:-1])
        assert 1 <= sizes[-1] <= per + (n == 1), sizes


# five classes leave the last block partial: 1, 2 and 3 draws pack all five
# into one block, DRAW_CHUNK // 3 packs three, then two
@pytest.mark.parametrize("n", [1, 2, 3, DRAW_CHUNK // 3, DRAW_CHUNK // 2 + 1, DRAW_CHUNK - 1,
                               DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 1])
def test_map_prototypes_streams_chunks_to_the_one_shot_bits(monkeypatch, n):
    model, state = streaming_setup(U=5)
    blocks = []

    def recorded(net, chunks):
        assert net is state.g_t

        def counted():
            for X, segments in chunks:
                blocks.append((X.shape[0], list(segments)))
                yield X, segments

        return mean_forward_eval(net, counted())

    monkeypatch.setattr(zslada.ada, "mean_forward_eval", recorded)
    table = class_params_matrix(model, state.unseen_ids)
    for seed in (0, 1):
        blocks.clear()
        streamed = map_prototypes(state, table, n, seed=seed)
        expected = reference_map_prototypes(state, model, n, seed=seed)
        assert list(streamed) == list(expected) == state.unseen_ids
        for cid in expected:
            assert streamed[cid].tobytes() == expected[cid].tobytes(), (n, seed, cid)
        _check_blocks(blocks, state.n_unseen, n)


def test_chunked_standard_normal_continues_the_one_shot_draw():
    # the streamed prototypes rest on this: numpy fills successive chunks
    # from one Generator exactly as it fills all rows at once
    whole = np.random.default_rng(11).standard_normal((2 * DRAW_CHUNK + 1, 7))
    stream = np.random.default_rng(11)
    parts = [stream.standard_normal((rows, 7)) for rows in (1, 3, DRAW_CHUNK, DRAW_CHUNK - 3)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_an_inference_row_has_the_same_bits_in_any_batch_of_two_or_more_rows():
    # packing classes into blocks rests on this: with OpenBLAS a row of
    # h @ W has the same bits in every batch of >= 2 rows, at any offset
    # (a one-row batch runs through gemv).  It holds for one BLAS build
    # and thread count; across thread counts the bits of long products
    # can move (ROADMAP item 4).
    model, state = streaming_setup()
    X = np.random.default_rng(12).standard_normal((DRAW_CHUNK, state.g_t.spec.in_dim))
    whole = forward_eval(state.g_t, X)
    for rows in (2, 3, 64, DRAW_CHUNK):
        for start in sorted({0, 1, 7, DRAW_CHUNK // 2 - 1, DRAW_CHUNK - rows}):
            if start + rows <= DRAW_CHUNK:
                part = forward_eval(state.g_t, X[start:start + rows])
                assert part.tobytes() == whole[start:start + rows].tobytes(), (rows, start)


def test_map_prototypes_reads_the_given_table_and_runs_no_head(monkeypatch):
    model, state = streaming_setup()
    table = class_params_matrix(model, state.unseen_ids)
    calls = count_class_params_matrix(monkeypatch, zslada.ada, zslada.base_model)
    nets = []
    for name, run in (("forward_eval", forward_eval), ("mean_forward_eval", mean_forward_eval)):
        def recorded(net, X, run=run):
            nets.append(net)
            return run(net, X)

        monkeypatch.setattr(zslada.ada, name, recorded)
    map_prototypes(state, table, 2 * DRAW_CHUNK + 1, seed=0)
    assert calls == [] and nets and all(net is state.g_t for net in nets)


def test_map_prototypes_is_the_mean_of_g_t_outputs_up_to_rounding():
    # a batchnorm + dropout G_T: the mean taken before its affine output
    # layer is the mean of its outputs but for rounding
    model, state = streaming_setup(seed=6)
    table = class_params_matrix(model, state.unseen_ids)
    n = 2 * DRAW_CHUNK + 1
    protos = map_prototypes(state, table, n, seed=2)
    moved_rows = {j: [] for j in range(state.n_unseen)}
    seed = named_seed(2, "proto")
    for _, moved, segments in transformed_draws(state.unseen_ids, table, n, seed, state.g_t):
        for j, lo, hi in segments:
            moved_rows[j].append(moved[lo:hi])
    for j, cid in enumerate(state.unseen_ids):
        old = np.vstack(moved_rows[j]).mean(axis=0)
        assert np.max(np.abs(protos[cid] - old)) <= 1e-12 * np.max(np.abs(old)), cid


@pytest.mark.parametrize("out_activation, batchnorm", [("relu", False), ("sigmoid", False),
                                                       ("leaky_relu", False),
                                                       ("identity", True)])
def test_map_prototypes_refuses_a_g_t_whose_output_layer_is_not_affine(out_activation,
                                                                      batchnorm):
    model, state = streaming_setup()
    spec = state.g_t.spec
    last = spec.n_layers - 1
    spec = MlpSpec(spec.layer_widths, spec.activations[:last] + (out_activation,),
                   spec.batchnorm[:last] + (batchnorm,), spec.dropout)
    state.nets["g_t"] = init_network(spec, seed=1)
    with pytest.raises(ConfigError, match="affine last layer"):
        map_prototypes(state, class_params_matrix(model, state.unseen_ids), 8, seed=0)


def test_map_prototypes_memory_does_not_grow_with_n_samples():
    # each class streams its draws in chunks, so eight times the draws
    # keep the peak of one chunk; one batch of all draws grows about 8x
    model, state = streaming_setup(d=64)
    table = class_params_matrix(model, state.unseen_ids)
    one = peak_traced_bytes(lambda: map_prototypes(state, table, DRAW_CHUNK, seed=0))
    eight = peak_traced_bytes(lambda: map_prototypes(state, table, 8 * DRAW_CHUNK, seed=0))
    assert eight <= 1.25 * one, (eight, one)


def test_map_prototypes_memory_does_not_grow_with_the_class_count():
    # at DRAW_CHUNK // 8 draws a block packs eight classes, so eight times
    # the classes keep the peak of one block (its one-hot columns grow,
    # hence the wide draws); one batch of all draws grows about 8x
    n = DRAW_CHUNK // 8

    def peak(n_classes: int) -> int:
        model, state = streaming_setup(d=512, U=n_classes)
        table = class_params_matrix(model, state.unseen_ids)
        return peak_traced_bytes(lambda: map_prototypes(state, table, n, seed=0))

    one, eight = peak(8), peak(64)
    assert eight <= 1.25 * one, (eight, one)


@pytest.mark.parametrize("n", [2, 3, 37, DRAW_CHUNK + 1])
def test_crossover_accuracy_is_the_per_class_mean_of_c_t_hits(n):
    model, state = streaming_setup(U=5)
    table = means, precisions = class_params_matrix(model, state.unseen_ids)
    config = AdaConfig(crossover_samples=n, seed=8)
    seed = named_seed(config.seed, "xover", 6)
    shares = []
    for j, cid in enumerate(state.unseen_ids):
        draws = reference_draw_gaussian(means[j], precisions[j], n, sample_stream(seed, cid))
        moved = forward_eval(state.g_t, augment_batch(draws, np.full(n, j), state.n_unseen))
        shares.append(np.count_nonzero(classify(state, moved) == cid) / n)
    assert 0 < np.mean(shares) < 1
    assert _crossover_accuracy(state, table, config, 6) == float(np.mean(shares))


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_carries_the_classes_without_pseudo_labelled_rows(tmp_path, small_adapted):
    _, _, _, config, state, _ = small_adapted
    path = tmp_path / "ada.ckpt"
    save_ada_state(path, dataclasses.replace(state, empty_pseudo_ids=[state.unseen_ids[1]]),
                   config)
    assert load_ada_state(path)[0].empty_pseudo_ids == [state.unseen_ids[1]]
    # a checkpoint written before the key existed loads with none
    meta, arrays = load_container(path)
    del meta["empty_pseudo_ids"]
    save_container(path, meta, arrays)
    assert load_ada_state(path)[0].empty_pseudo_ids == []


def test_an_older_six_network_checkpoint_loads_its_variants_networks(tmp_path, small_adapted):
    world, model, _, _, _, _ = small_adapted
    config = AdaConfig(**{**ADAPT_CONFIG, "variant": "std_da"})
    state, _ = adapt(model, world.dataset, config)
    path = tmp_path / "ada.ckpt"
    save_ada_state(path, state, config)
    meta, arrays = load_container(path)
    # the layout of a checkpoint from when every state held all six networks
    six = {**init_ada_state(model, dataclasses.replace(config, variant="full")).nets,
           "c_t": state.c_t}
    meta["specs"] = {role: dataclasses.asdict(net.spec) for role, net in six.items()}
    meta["seeds"] = {role: net.seed for role, net in six.items()}
    old = {}
    for role, net in six.items():
        old[f"{role}_params"], old[f"{role}_stats"] = net.params, net.stats
    save_container(path, meta, {**old, "pseudo": arrays["pseudo"]})
    loaded, loaded_config = load_ada_state(path)
    assert loaded_config == config
    assert list(loaded.nets) == ["c_t"]
    assert m1_accuracy(loaded, world.dataset) == m1_accuracy(state, world.dataset)


@pytest.mark.parametrize("entry", ["c_s_params", "c_t_stats", "spec", "seed"])
def test_a_checkpoint_without_one_of_its_networks_names_it(tmp_path, small_adapted, entry):
    _, _, _, config, state, _ = small_adapted
    path = tmp_path / "ada.ckpt"
    save_ada_state(path, state, config)
    meta, arrays = load_container(path)
    if entry == "spec":
        del meta["specs"]["g_s"]
    elif entry == "seed":
        del meta["seeds"]["d_t"]
    else:
        del arrays[entry]
    save_container(path, meta, arrays)
    role = {"spec": "g_s", "seed": "d_t"}.get(entry, entry[:3])
    with pytest.raises(DataError, match=f"for the full network {role}$") as err:
        load_ada_state(path)
    assert err.value.code == "BAD_CHECKPOINT"


def test_save_refuses_a_config_of_another_variant(tmp_path, small_adapted):
    _, _, _, config, state, _ = small_adapted
    path = tmp_path / "ada.ckpt"
    with pytest.raises(ConfigError, match="a full state cannot be saved with a std_da config"):
        save_ada_state(path, state, dataclasses.replace(config, variant="std_da"))
    assert not path.exists()


def test_ada_state_checkpoint_round_trip(tmp_path, small_adapted):
    _, _, _, config, state, _ = small_adapted
    path = tmp_path / "ada.ckpt"
    save_ada_state(path, state, config)
    loaded, loaded_config = load_ada_state(path)

    assert loaded_config == config
    assert loaded.variant == state.variant
    assert loaded.phase == state.phase
    assert loaded.iteration == state.iteration
    assert loaded.unseen_ids == state.unseen_ids
    assert loaded.agreement_estimate == state.agreement_estimate
    assert np.array_equal(loaded.pseudo, state.pseudo)
    for role in state.nets:
        assert np.array_equal(loaded.nets[role].params, state.nets[role].params)
        assert np.array_equal(loaded.nets[role].stats, state.nets[role].stats)
        assert loaded.nets[role].spec == state.nets[role].spec

    X = np.random.default_rng(1).standard_normal((5, state.g_t.spec.in_dim))
    assert np.array_equal(forward_eval(loaded.g_t, X), forward_eval(state.g_t, X))
