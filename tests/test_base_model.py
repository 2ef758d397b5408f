"""Attribute-conditioned Gaussian classifier: parameters, scoring, training."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zslada.base_model
from zslada.base_model import (
    BaseZslModel,
    PretrainConfig,
    class_params_matrix,
    dataset_mean_loglik,
    draw_gaussian,
    gaussian_scores,
    load_base_model,
    loglik_matrix,
    predict,
    pretrain,
    pseudo_labels,
    raw_to_precision,
    sample_class,
    save_base_model,
)
from zslada.data import FeatureDataset, SplitSpec
from zslada.errors import (ConfigError, DataError, DimensionMismatch, NumericalDivergence,
                           UnknownClass)
from zslada.rng import named_stream
from zslada.synthetic import make_synthetic_world

from .helpers import (
    bench_spec,
    linear_model,
    peak_traced_bytes,
    reference_draw_gaussian,
    reference_gaussian_loglik,
    table_model,
    toy_table,
    zero_param_model,
)


def test_zero_weight_model_gives_unit_gaussians():
    table = toy_table(S=2, U=2, attr_dim=3)
    model = zero_param_model(table, d=4)
    means, precisions = class_params_matrix(model, table.class_ids)
    assert np.array_equal(means, np.zeros((len(table.class_ids), 4)))
    assert np.array_equal(precisions, np.ones((len(table.class_ids), 4)))


def test_precision_bounds():
    # extreme raw values saturate at the limits but never escape them
    p = raw_to_precision(np.array([1e4, -1e4, 0.0]))
    assert np.all(p >= 0.5) and np.all(p <= 1.5)
    assert np.all(p > 0)
    assert p[2] == 1.0
    assert np.all(np.isfinite(p))
    # moderately large raw stays strictly inside
    p = raw_to_precision(np.array([30.0, -30.0]))
    assert 0.5 < p[1] < p[0] < 1.5


def test_class_params_deterministic_in_seed():
    table = toy_table(S=2, U=2, attr_dim=3)
    a = linear_model(table, d=3, seed=7)
    b = linear_model(table, d=3, seed=7)
    for tables in zip(class_params_matrix(a, table.class_ids),
                      class_params_matrix(b, table.class_ids)):
        assert tables[0].tobytes() == tables[1].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_class_params_matrix_names_the_first_nonfinite_class():
    # one huge mean weight overflows only class 2, whose attribute is large
    table = toy_table(S=2, U=2, attr_dim=3)
    table.attributes[:, 1] = [0.1, 0.2, 4.0, 0.3]
    model = linear_model(table, d=4, seed=7)
    model.mean_net.params[1 * 4 + 2] = 1e308  # W[1, 2]
    assert np.isfinite(class_params_matrix(model, [0, 1, 3])[0]).all()
    with pytest.raises(NumericalDivergence, match="class 2:"):
        class_params_matrix(model, [0, 3, 2, 1])
    # a NaN precision weight reaches every class: the first one asked for
    model = linear_model(table, d=4, seed=7)
    model.prec_net.params[0] = np.nan
    with pytest.raises(NumericalDivergence, match="class 3:"):
        class_params_matrix(model, [3, 0])


def test_gaussian_loglik_exact_values():
    def score(x, mean, precision, include_logdet=True):
        return gaussian_scores(np.atleast_2d(x), np.atleast_2d(mean),
                               np.atleast_2d(precision), include_logdet)[0, 0]

    assert score(np.zeros(1), np.zeros(1), np.ones(1)) == 0.0
    assert abs(score([2.0], [1.0], [2.0]) - (math.log(2.0) - 2.0)) < 1e-12
    assert abs(score([2.0], [1.0], [2.0], include_logdet=False) - (-2.0)) < 1e-12
    assert score(np.ones(2), np.zeros(2), np.ones(2)) == -2.0

    model = table_model(means=[[0.0, 0.0]], precisions=[[1.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        loglik_matrix(model, np.zeros(3), [0])


def test_predict_picks_nearest_under_equal_precisions():
    model = table_model(means=[[0.0, 0.0], [3.0, 3.0]],
                        precisions=[[1.0, 1.0], [1.0, 1.0]])
    assert predict(model, np.array([0.2, -0.1])) == 0
    assert predict(model, np.array([2.9, 3.3])) == 1


def test_predict_breaks_ties_toward_smaller_id():
    model = table_model(means=[[0.0], [2.0]], precisions=[[1.0], [1.0]])
    assert predict(model, np.array([1.0])) == 0


def test_predict_weighs_precision_not_just_distance():
    # Sharp class at 0 (precision 0.6 would be wide; use 1.4 there and
    # 0.6 at 2) -- the score is sum(log p) - sum(p (x-mu)^2), so the
    # wide class wins far away even when its mean is not the closest.
    model = table_model(means=[[0.0], [2.0]], precisions=[[0.6], [1.4]])

    def score(x, mu, p):
        return math.log(p) - p * (x - mu) ** 2

    for x in np.linspace(-1.0, 8.0, 37):
        expected = int(score(x, 2.0, 1.4) > score(x, 0.0, 0.6))
        assert predict(model, np.array([x])) == expected

    assert predict(model, np.array([0.9])) == 0
    assert predict(model, np.array([1.05])) == 1
    # nearest-mean would say class 1 here; the wide class 0 wins
    assert predict(model, np.array([6.5])) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_predict_matches_bruteforce_argmax(seed):
    rng = np.random.default_rng(seed)
    table = toy_table(S=2, U=2, attr_dim=3, seed=seed % 17)
    model = linear_model(table, d=3, seed=seed % 23)
    X = rng.standard_normal((5, 3)) * 3.0
    picks = predict(model, X)
    ids = sorted(table.class_ids)
    for i, x in enumerate(X):
        scores = [reference_gaussian_loglik(x, *(rows[0] for rows in
                                                 class_params_matrix(model, [c])))
                  for c in ids]
        assert picks[i] == ids[int(np.argmax(scores))]


@pytest.mark.parametrize("include_logdet", [True, False])
def test_loglik_matrix_matches_per_class_loop_at_scale(include_logdet):
    # realistic n x C x d; the last class repeats class 0's (mu, p) exactly
    n, C, d = 300, 50, 512
    rng = np.random.default_rng(5)
    means = rng.standard_normal((C, d))
    precisions = rng.uniform(0.55, 1.45, (C, d))
    means[-1], precisions[-1] = means[0], precisions[0]
    model = table_model(means, precisions, include_logdet=include_logdet)
    truth = rng.integers(C - 1, size=n)
    X = means[truth] + rng.standard_normal((n, d)) / np.sqrt(precisions[truth])

    ll = loglik_matrix(model, X, range(C))
    mus, ps = class_params_matrix(model, range(C))
    ref = np.array([[reference_gaussian_loglik(x, mu, p, include_logdet)
                     for mu, p in zip(mus, ps)] for x in X])
    assert np.max(np.abs(ll - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert np.array_equal(np.argmax(ll, axis=1), np.argmax(ref, axis=1))
    assert np.array_equal(ll[:, 0], ll[:, -1])
    picks = predict(model, X)
    assert np.any(picks == 0) and not np.any(picks == C - 1)
    assert np.array_equal(picks, np.argmax(ref, axis=1))


def test_loglik_matrix_peak_memory_is_a_few_row_blocks():
    # an n x C x d temporary would be 40x one n x d block
    n, C, d = 400, 40, 256
    rng = np.random.default_rng(6)
    model = table_model(rng.standard_normal((C, d)), rng.uniform(0.55, 1.45, (C, d)))
    X = rng.standard_normal((n, d))
    peak = peak_traced_bytes(lambda: loglik_matrix(model, X, range(C)))
    assert peak <= 4 * n * d * 8


def test_predict_label_space_handling():
    table = toy_table(S=2, U=2, attr_dim=3)
    model = linear_model(table, d=3, seed=7)
    x = np.zeros(3)
    assert predict(model, x, label_space="unseen") in table.unseen_ids
    assert predict(model, x, label_space="seen") in table.seen_ids
    assert predict(model, x, label_space=[1]) == 1
    with pytest.raises(ConfigError):
        predict(model, x, label_space="everything")
    with pytest.raises(UnknownClass):
        predict(model, x, label_space=[99])


def test_draw_gaussian_statistics():
    n = 4000
    draws = draw_gaussian(np.array([5.0, -3.0]), np.array([2.0, 0.5]), n, named_stream(3, "t"))
    assert draws.shape == (n, 2)
    # variances are 1/p = (0.5, 2.0); allow 4.5 sigma of the estimators
    sd = np.sqrt(np.array([0.5, 2.0]) / n)
    assert np.all(np.abs(draws.mean(axis=0) - [5.0, -3.0]) < 4.5 * sd)
    var = draws.var(axis=0)
    assert abs(var[0] - 0.5) < 0.05
    assert abs(var[1] - 2.0) < 0.20


def test_sample_class_is_deterministic_in_seed():
    model = table_model(means=[[5.0, -3.0]], precisions=[[1.4, 0.6]])
    draws = sample_class(model, 0, 200, seed=3)
    assert np.array_equal(draws, sample_class(model, 0, 200, seed=3))
    assert not np.array_equal(draws, sample_class(model, 0, 200, seed=4))
    sd = np.sqrt(np.array([1 / 1.4, 1 / 0.6]) / 200)
    assert np.all(np.abs(draws.mean(axis=0) - [5.0, -3.0]) < 4.5 * sd)


def test_draw_gaussian_validates_count():
    mean, precision = np.zeros(1), np.ones(1)
    with pytest.raises(ConfigError):
        draw_gaussian(mean, precision, 0, named_stream(0, "x"))
    one = draw_gaussian(mean, precision, 1, named_stream(0, "x"))
    assert one.shape == (1, 1)


@pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (200, 64), (1025, 17)])
def test_draw_gaussian_in_place_has_the_bits_of_the_plain_expression(n, d):
    rng = np.random.default_rng([n, d])
    mean = rng.standard_normal(d) * 10.0
    precision = rng.uniform(0.5, 1.5, d)
    for seed in range(3):
        drawn = draw_gaussian(mean, precision, n, named_stream(seed, "t"))
        expected = reference_draw_gaussian(mean, precision, n, named_stream(seed, "t"))
        assert drawn.tobytes() == expected.tobytes()


def test_pseudo_labels_agree_without_shift(world19, model19):
    model, _ = model19
    labels, agreement = pseudo_labels(model, world19.dataset)
    assert agreement is not None
    assert agreement >= 0.9
    unseen = set(world19.attributes.unseen_ids)
    assert set(int(v) for v in labels) <= unseen
    assert labels.shape == (len(world19.dataset.split.test_row_indices),)


def test_pseudo_labels_degrade_under_shift(world19, model19):
    model, _ = model19
    plain = pseudo_labels(model, world19.dataset)[1]
    shifted_world = make_synthetic_world(bench_spec(seed=19, shift_magnitude=12.0))
    shifted = pseudo_labels(model, shifted_world.dataset)[1]
    assert shifted < plain - 0.1


def test_pseudo_labels_single_unseen_class():
    model = table_model(means=[[0.0], [4.0]], precisions=[[1.0], [1.0]], n_seen=1)
    split = SplitSpec(seen_class_ids=[0], unseen_class_ids=[1],
                      train_row_indices=[0, 1], test_row_indices=[2, 3])
    data = FeatureDataset(features=np.array([[0.1], [-0.2], [9.0], [4.2]]),
                          labels=np.array([0, 0, 1, 1]), split=split)
    labels, agreement = pseudo_labels(model, data)
    assert agreement == 1.0
    assert labels.tolist() == [1, 1]
    wide = FeatureDataset(features=np.zeros((4, 2)), labels=data.labels, split=split)
    with pytest.raises(DimensionMismatch):
        pseudo_labels(model, wide)


def _labeled_dataset(X, y, seen_ids):
    split = SplitSpec(seen_class_ids=list(seen_ids), unseen_class_ids=[99],
                      train_row_indices=list(range(X.shape[0])),
                      test_row_indices=[])
    return FeatureDataset(features=X, labels=y, split=split)


def test_pretrain_rejects_bad_label_sets():
    table = toy_table(S=2, U=1, attr_dim=3)
    model = linear_model(table, d=2, seed=1)
    X = np.zeros((4, 2))
    cfg = PretrainConfig(max_epochs=1)

    with pytest.raises(DataError) as err:
        pretrain(model, _labeled_dataset(X, np.zeros(4, dtype=int), [0, 1]), cfg)
    assert err.value.code == "EMPTY_CLASS"

    split = SplitSpec(seen_class_ids=[0], unseen_class_ids=[99],
                      train_row_indices=[0, 1, 2, 3], test_row_indices=[])
    data = FeatureDataset(features=X, labels=np.array([0, 0, 99, 99]), split=split)
    with pytest.raises(DataError) as err:
        pretrain(model, data, cfg)
    assert err.value.code == "UNKNOWN_CLASS"

    data = FeatureDataset(features=X, labels=None, split=split)
    with pytest.raises(DataError) as err:
        pretrain(model, data, cfg)
    assert err.value.code == "BAD_VALUE"


def test_pretrain_config_validation():
    with pytest.raises(ConfigError):
        PretrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        PretrainConfig(holdout_fraction=1.0)
    with pytest.raises(ConfigError):
        PretrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        PretrainConfig(mean_weight_decay=-1e-3)


def test_loss_trace_finite_with_nonincreasing_moving_average(model19):
    _, trace = model19
    assert len(trace) >= 10
    arr = np.array(trace, dtype=np.float64)
    assert np.all(np.isfinite(arr))
    loss = -arr[:, 1]
    window = np.convolve(loss, np.ones(10) / 10, mode="valid")
    # minibatch noise wiggles the converged plateau; bound the rises
    # relative to the loss scale instead of demanding exact monotonicity
    slack = 2e-3 * (1.0 + np.abs(window[:-1]))
    assert np.all(np.diff(window) <= slack)


def test_pretrain_improves_heldout_loglik_on_generated_data():
    """Fit the same family the data came from; fresh-model training
    should beat its initialization on untouched rows in >=19/20 runs."""
    wins = 0
    for seed in range(20):
        table = toy_table(S=3, U=1, attr_dim=3, seed=seed)
        truth = linear_model(table, d=4, seed=1000 + seed)
        parts, labels = [], []
        for c in table.seen_ids:
            parts.append(sample_class(truth, c, 40, seed=seed))
            labels.append(np.full(40, c))
        X = np.vstack(parts)
        y = np.concatenate(labels)
        eval_X = np.vstack([sample_class(truth, c, 20, seed=seed + 500)
                            for c in table.seen_ids])
        eval_y = np.concatenate([np.full(20, c) for c in table.seen_ids])

        model = linear_model(table, d=4, seed=seed)
        before = dataset_mean_loglik(model, eval_X, eval_y)
        pretrain(model, _labeled_dataset(X, y, table.seen_ids),
                 PretrainConfig(learning_rate=1e-2, batch_size=32,
                                max_epochs=15, patience=15, seed=seed))
        after = dataset_mean_loglik(model, eval_X, eval_y)
        wins += int(after > before)
    assert wins >= 19


@pytest.mark.parametrize("include_logdet", [True, False])
def test_dataset_mean_loglik_scores_each_row_only_against_its_own_class(
        monkeypatch, include_logdet):
    n, C, d = 240, 12, 32
    rng = np.random.default_rng(8)
    means = rng.standard_normal((C, d)) * 3.0
    precisions = rng.uniform(0.55, 1.45, (C, d))
    model = table_model(means, precisions, n_seen=C, include_logdet=include_logdet)
    y = rng.integers(C, size=n)
    X = means[y] + rng.standard_normal((n, d)) / np.sqrt(precisions[y])
    ids = sorted(set(int(c) for c in y))
    ll = loglik_matrix(model, X, ids)
    reference = float(ll[np.arange(n), np.searchsorted(ids, y)].mean())

    def refused(*args, **kwargs):
        raise AssertionError("dataset_mean_loglik built an n x C table")

    monkeypatch.setattr(zslada.base_model, "loglik_matrix", refused)
    monkeypatch.setattr(zslada.base_model, "gaussian_scores", refused)
    got = dataset_mean_loglik(model, X, y)
    assert abs(got - reference) <= 1e-12 * abs(reference)


def test_trained_precisions_respect_bounds(world19, model19):
    model, _ = model19
    _, precisions = class_params_matrix(model, world19.attributes.class_ids)
    assert np.all(precisions > 0.5)
    assert np.all(precisions < 1.5)


def test_checkpoint_round_trip(tmp_path, world19, model19):
    model, _ = model19
    path = tmp_path / "base.ckpt"
    save_base_model(path, model)
    loaded = load_base_model(path, world19.attributes)

    assert np.array_equal(loaded.mean_net.params, model.mean_net.params)
    assert np.array_equal(loaded.prec_net.params, model.prec_net.params)
    assert loaded.include_logdet == model.include_logdet
    X, _ = world19.dataset.test_rows()
    assert np.array_equal(predict(loaded, X[:20]), predict(model, X[:20]))

    other = toy_table(S=2, U=2, attr_dim=4, seed=5)
    with pytest.raises(DataError) as err:
        load_base_model(path, other)
    assert err.value.code == "BAD_CHECKPOINT"


def test_include_logdet_flag_changes_scores():
    model = table_model(means=[[0.0], [0.0]], precisions=[[0.6], [1.4]])
    flat = BaseZslModel(mean_net=model.mean_net, prec_net=model.prec_net,
                        attribute_table=model.attribute_table,
                        include_logdet=False)
    # same means: with the log-det term the sharper class wins at the
    # shared mean, without it the tie goes to the smaller id
    assert predict(model, np.array([0.0])) == 1
    assert predict(flat, np.array([0.0])) == 0
