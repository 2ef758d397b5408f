"""Scoring: per-class top-1, M1/M2 protocols, reports, ablation table."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import zslada.base_model
import zslada.metrics
from zslada.ada import AdaConfig, init_ada_state
from zslada.base_model import class_params_matrix
from zslada.data import FeatureDataset, SplitSpec
from zslada.errors import ConfigError, DataError
from zslada.metrics import (
    EvalReport,
    ablation_run,
    base_model_hash,
    eval_workers,
    inductive_accuracy,
    m1_accuracy,
    m2_accuracy,
    parallel_rows,
    per_class_top1,
    write_report_csv,
)
from zslada.nn.mlp import MlpSpec
from zslada.synthetic import make_synthetic_world

from .helpers import (
    bench_spec,
    count_class_params_matrix,
    exact_net,
    identity_generator,
    linear_model,
    peak_traced_bytes,
    table_model,
    train_linear_model,
    uniform_classifier,
)


def _test_dataset(X, labels, seen_ids, unseen_ids):
    """All rows are test rows; labels must come from the unseen set."""
    n = X.shape[0]
    return FeatureDataset(features=np.asarray(X, dtype=np.float64),
                          labels=np.asarray(labels, dtype=np.int64),
                          split=SplitSpec(seen_class_ids=list(seen_ids),
                                          unseen_class_ids=list(unseen_ids),
                                          train_row_indices=[],
                                          test_row_indices=list(range(n))),
                          provenance="unit fixture")


# ---------------------------------------------------------------- top-1


def test_per_class_top1_balanced_example():
    report = per_class_top1([0, 1, 0, 1], [0, 1, 1, 0])
    assert report.per_class_acc == {0: 0.5, 1: 0.5}
    assert report.mean_per_class_acc == 0.5
    assert report.n_per_class == {0: 2, 1: 2}
    assert report.excluded == ()


def test_per_class_mean_is_not_row_mean():
    # 9 of 10 rows correct, but the single class-1 row is missed: the
    # row-level rate is 0.9 while the class mean is 0.5
    preds = [0] * 10
    truth = [0] * 9 + [1]
    report = per_class_top1(preds, truth)
    assert np.mean(np.asarray(preds) == np.asarray(truth)) == 0.9
    assert report.per_class_acc == {0: 1.0, 1: 0.0}
    assert report.mean_per_class_acc == 0.5


def test_per_class_top1_perfect_and_empty():
    report = per_class_top1([2, 3, 2], [2, 3, 2])
    assert report.mean_per_class_acc == 1.0
    with pytest.raises(ConfigError):
        per_class_top1([], [])


def test_per_class_top1_label_space_exclusion():
    report = per_class_top1([4, 5], [4, 5], label_space=[4, 5, 6])
    assert report.excluded == (6,)
    assert sorted(report.per_class_acc) == [4, 5]
    assert report.mean_per_class_acc == 1.0
    with pytest.raises(ConfigError):
        per_class_top1([4, 9], [4, 9], label_space=[4, 5])


def test_per_class_top1_shape_errors():
    with pytest.raises(ConfigError):
        per_class_top1([0, 1], [0])
    with pytest.raises(ConfigError):
        per_class_top1(np.zeros((2, 2)), np.zeros((2, 2)))


def test_eval_report_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        EvalReport(per_class_acc={0: 1.0}, mean_per_class_acc=1.0,
                   n_per_class={0: 1}, metric_kind="m3")


@given(st.integers(5, 40), st.integers(0, 10_000))
def test_per_class_top1_is_permutation_invariant(n, seed):
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 5, n)
    truth = rng.integers(0, 5, n)
    perm = rng.permutation(n)
    a = per_class_top1(preds, truth)
    b = per_class_top1(preds[perm], truth[perm])
    assert a.per_class_acc == b.per_class_acc
    assert a.mean_per_class_acc == b.mean_per_class_acc
    assert a.n_per_class == b.n_per_class


@given(st.integers(5, 40), st.integers(0, 10_000))
def test_per_class_top1_is_relabel_invariant(n, seed):
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 5, n)
    truth = rng.integers(0, 5, n)
    a = per_class_top1(preds, truth)
    b = per_class_top1(9 - preds, 9 - truth)
    for c, acc in a.per_class_acc.items():
        assert b.per_class_acc[9 - c] == acc
        assert b.n_per_class[9 - c] == a.n_per_class[c]
    assert abs(a.mean_per_class_acc - b.mean_per_class_acc) < 1e-12


# ---------------------------------------------------------------- M1


@pytest.fixture(scope="module")
def m1_world():
    world = make_synthetic_world(bench_spec(seed=33, S=4, U=4, d=8,
                                            samples_per_class=100))
    base = linear_model(world.attributes, d=8, seed=3)
    config = AdaConfig(gen_hidden=(4,), disc_hidden=(4,), use_batchnorm=False)
    return world, base, config


def _nearest_mean_classifier(means):
    """Linear log-softmax head whose argmax is the nearest Euclidean mean."""
    mu = np.asarray(means, dtype=np.float64)
    u, d = mu.shape
    W = 2.0 * mu.T
    b = -np.sum(mu * mu, axis=1)
    spec = MlpSpec.dense((d, u), out_activation="log_softmax")
    return exact_net(spec, np.concatenate([W.ravel(), b]))


def test_m1_matches_nearest_mean_oracle(m1_world):
    world, base, config = m1_world
    unseen = world.attributes.unseen_ids
    mu = world.truth.class_means[np.asarray(unseen)]
    state = init_ada_state(base, config)
    state.nets["c_t"] = _nearest_mean_classifier(mu)
    state.iteration = 1

    report = m1_accuracy(state, world.dataset)
    assert report.metric_kind == "m1"
    assert report.mean_per_class_acc >= 0.99

    X, truth = world.dataset.test_rows()
    dist = np.sum((X[:, None, :] - mu[None, :, :]) ** 2, axis=2)
    picks = np.asarray(unseen)[np.argmin(dist, axis=1)]
    oracle = per_class_top1(picks, truth, label_space=unseen, metric_kind="m1")
    assert report == oracle


def test_m1_uniform_classifier_scores_one_class(m1_world):
    world, base, config = m1_world
    state = init_ada_state(base, config)
    state.nets["c_t"] = uniform_classifier(8, 4)
    state.iteration = 1
    report = m1_accuracy(state, world.dataset)
    # equal logits break ties toward the first unseen id, so exactly one
    # of the four balanced classes scores
    first = min(world.attributes.unseen_ids)
    assert report.per_class_acc[first] == 1.0
    assert report.mean_per_class_acc == 0.25
    again = m1_accuracy(state, world.dataset)
    assert report == again


def test_m1_requires_trained_classifier(m1_world):
    world, base, config = m1_world
    fresh = init_ada_state(base, config)
    with pytest.raises(ConfigError):
        m1_accuracy(fresh, world.dataset)

    from dataclasses import replace

    wo = init_ada_state(base, replace(config, variant="cyclegan_wo"))
    wo.iteration = 1
    with pytest.raises(ConfigError):
        m1_accuracy(wo, world.dataset)


def test_scoring_requires_ground_truth(m1_world):
    world, base, config = m1_world
    state = init_ada_state(base, config)
    state.iteration = 1
    X = world.dataset.test_rows()[0]
    unlabeled = FeatureDataset(features=X, labels=None,
                               split=SplitSpec(world.dataset.split.seen_class_ids,
                                               world.dataset.split.unseen_class_ids,
                                               [], list(range(X.shape[0]))),
                               provenance="unit fixture")
    with pytest.raises(DataError) as err:
        m1_accuracy(state, unlabeled)
    assert err.value.code == "BAD_VALUE"


# ---------------------------------------------------------------- M2


def _m2_setup():
    base = table_model(
        means=[[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0]],
        precisions=np.full((3, 3), 1.0),
        n_seen=1,
    )
    config = AdaConfig(gen_hidden=(4,), disc_hidden=(4,), use_batchnorm=False)
    state = init_ada_state(base, config)
    state.nets["g_t"] = identity_generator(3, 2)
    rng = np.random.default_rng(8)
    labels = np.repeat([1, 2], 20)
    X = np.vstack([rng.normal(loc=[4.0, 0.0, 0.0], scale=0.3, size=(20, 3)),
                   rng.normal(loc=[0.0, 4.0, 0.0], scale=0.3, size=(20, 3))])
    data = _test_dataset(X, labels, seen_ids=[0], unseen_ids=[1, 2])
    return base, state, data


def test_m2_equal_precisions_match_euclidean_brute_force():
    from zslada.ada import map_prototypes

    base, state, data = _m2_setup()
    report = m2_accuracy(state, base, data, n_samples=64, seed=5)
    assert report.metric_kind == "m2"
    assert report.mean_per_class_acc == 1.0

    protos = map_prototypes(state, class_params_matrix(base, state.unseen_ids), 64, seed=5)
    ids = sorted(protos)
    mu = np.vstack([protos[c] for c in ids])
    X, truth = data.test_rows()
    dist = np.sum((X[:, None, :] - mu[None, :, :]) ** 2, axis=2)
    picks = np.asarray(ids)[np.argmin(dist, axis=1)]
    assert report == per_class_top1(picks, truth, label_space=ids,
                                    metric_kind="m2")


def test_m2_scoring_is_exact_and_memory_bounded(monkeypatch):
    # fixed prototypes isolate the scoring; m2_accuracy reaches
    # map_prototypes and per_class_top1 through its module globals
    n, C, d = 400, 40, 256
    rng = np.random.default_rng(9)
    ids = list(range(1, C + 1))
    precisions = rng.uniform(0.55, 1.45, (C + 1, d))
    precisions[C] = precisions[1]
    base = table_model(rng.standard_normal((C + 1, d)), precisions)
    state = init_ada_state(base, AdaConfig(gen_hidden=(4,), disc_hidden=(4,),
                                           use_batchnorm=False))
    protos = {c: rng.standard_normal(d) for c in ids}
    protos[C] = protos[1]
    truth = np.repeat(ids, n // C)
    X = np.vstack([protos[c] for c in truth]) + 0.6 * rng.standard_normal((n, d))
    data = _test_dataset(X, truth, seen_ids=[0], unseen_ids=ids)
    seen = {}
    top1 = zslada.metrics.per_class_top1

    def recording_top1(picks, *args, **kwargs):
        seen["picks"] = picks
        return top1(picks, *args, **kwargs)

    monkeypatch.setattr(zslada.metrics, "map_prototypes", lambda *args: protos)
    monkeypatch.setattr(zslada.metrics, "per_class_top1", recording_top1)
    monkeypatch.delenv("ZSLADA_THREADS", raising=False)
    peak = peak_traced_bytes(lambda: m2_accuracy(state, base, data, n_samples=1))
    assert peak <= 4 * n * d * 8

    mu = np.vstack([protos[c] for c in ids])
    p = class_params_matrix(base, ids)[1]
    logdet = np.log(p).sum(axis=1)
    ref = [ids[int(np.argmin(np.sum(p * (x - mu) ** 2, axis=1) - logdet))] for x in X]
    assert np.array_equal(seen["picks"], ref)
    assert np.any(seen["picks"] == 1) and not np.any(seen["picks"] == C)


def test_m2_builds_one_gaussian_table(monkeypatch):
    # the prototypes' draws and the scorer's precisions come from one call
    base, state, data = _m2_setup()
    calls = count_class_params_matrix(monkeypatch, zslada.metrics, zslada.base_model)
    m2_accuracy(state, base, data, n_samples=16, seed=3)
    assert calls == [state.unseen_ids]


def test_m2_is_seeded():
    base, state, data = _m2_setup()
    a = m2_accuracy(state, base, data, n_samples=32, seed=11)
    b = m2_accuracy(state, base, data, n_samples=32, seed=11)
    assert a == b


def test_m2_rejects_std_da():
    base, state, data = _m2_setup()
    config = AdaConfig(gen_hidden=(4,), disc_hidden=(4,), use_batchnorm=False,
                       variant="std_da")
    std = init_ada_state(base, config)
    with pytest.raises(ConfigError):
        m2_accuracy(std, base, data)


# ---------------------------------------------------------------- inductive


def test_inductive_accuracy_on_trained_model(world19, model19):
    model, _ = model19
    report = inductive_accuracy(model, world19.dataset)
    assert report.metric_kind == "inductive"
    assert report.excluded == ()
    assert sorted(report.per_class_acc) == list(world19.attributes.unseen_ids)
    assert report.mean_per_class_acc >= 0.9


# ---------------------------------------------------------------- parallel


def test_eval_workers_env(monkeypatch):
    monkeypatch.delenv("ZSLADA_THREADS", raising=False)
    assert eval_workers() == 1
    monkeypatch.setenv("ZSLADA_THREADS", "4")
    assert eval_workers() == 4
    monkeypatch.setenv("ZSLADA_THREADS", "zero")
    with pytest.raises(ConfigError):
        eval_workers()
    monkeypatch.setenv("ZSLADA_THREADS", "0")
    with pytest.raises(ConfigError):
        eval_workers()


def test_parallel_rows_preserves_order():
    X = np.arange(40, dtype=np.float64).reshape(20, 2)
    assert np.array_equal(parallel_rows(lambda r: r * 2, X, workers=3), X * 2)
    assert np.array_equal(parallel_rows(lambda r: r.sum(axis=1), X, workers=3),
                          X.sum(axis=1))
    # fewer rows than twice the worker count runs serially
    small = X[:4]
    assert np.array_equal(parallel_rows(lambda r: r * 2, small, workers=8),
                          small * 2)


def test_m1_is_thread_count_invariant(m1_world, monkeypatch):
    world, base, config = m1_world
    unseen = world.attributes.unseen_ids
    state = init_ada_state(base, config)
    state.nets["c_t"] = _nearest_mean_classifier(
        world.truth.class_means[np.asarray(unseen)])
    state.iteration = 1
    monkeypatch.delenv("ZSLADA_THREADS", raising=False)
    serial = m1_accuracy(state, world.dataset)
    monkeypatch.setenv("ZSLADA_THREADS", "3")
    threaded = m1_accuracy(state, world.dataset)
    assert serial == threaded


# ---------------------------------------------------------------- reports


def test_report_csv_round_trip(tmp_path):
    report = EvalReport(per_class_acc={0: 1.0, 1: 2.0 / 3.0, 5: 0.25},
                        mean_per_class_acc=float(np.mean([1.0, 2.0 / 3.0, 0.25])),
                        n_per_class={0: 4, 1: 3, 5: 8},
                        metric_kind="m1", excluded=(3,))
    path = write_report_csv(report, tmp_path / "report.csv")
    assert path.read_text().splitlines() == [
        "class_id,n,correct,acc", "0,4,4,1.0", f"1,3,2,{2.0 / 3.0!r}", "3,0,0,NA",
        "5,8,2,0.25", f"MEAN,15,8,{report.mean_per_class_acc!r}"]


# ---------------------------------------------------------------- ablation


@pytest.fixture(scope="module")
def small_ablation():
    world = make_synthetic_world(bench_spec(seed=21, shift_magnitude=6.0, S=3,
                                            U=2, d=6, attr_dim=3,
                                            samples_per_class=80))
    model, _ = train_linear_model(world, seed=11)
    config = AdaConfig(gen_hidden=(16,), disc_hidden=(16,), use_batchnorm=False,
                       learning_rate=1e-3, n_critic=2, n_steps=50, batch_size=32,
                       recovery_trigger="fixed_fraction", recovery_fraction=0.4,
                       seed=100)
    table = ablation_run(model, world.dataset, config, n_samples=300, seed=4)
    return world, model, table


def test_ablation_na_pattern(small_ablation):
    _, model, table = small_ablation
    assert [r.variant for r in table.rows] == ["std_da", "vanilla_ada",
                                               "cyclegan_wo", "full"]
    assert table.row("std_da").m2 is None
    assert table.row("cyclegan_wo").m1 is None
    for variant in ("std_da", "vanilla_ada", "full"):
        assert 0.0 <= table.row(variant).m1 <= 1.0
    for variant in ("vanilla_ada", "cyclegan_wo", "full"):
        assert 0.0 <= table.row(variant).m2 <= 1.0
    assert table.base_model_hash == base_model_hash(model)
    with pytest.raises(ConfigError):
        table.row("dann")


def test_base_model_hash_tracks_model_content():
    means = [[0.0, 1.0], [2.0, 3.0]]
    precisions = np.full((2, 2), 1.0)
    a = table_model(means=means, precisions=precisions)
    b = table_model(means=means, precisions=precisions)
    assert base_model_hash(a) == base_model_hash(b)
    c = table_model(means=[[0.0, 1.0 + 1e-12], [2.0, 3.0]], precisions=precisions)
    assert base_model_hash(a) != base_model_hash(c)
    d = table_model(means=means, precisions=precisions, include_logdet=False)
    assert base_model_hash(a) != base_model_hash(d)
