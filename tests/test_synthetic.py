"""Synthetic world generator: ground truth, separation, shift behavior."""
import json

import numpy as np
import pytest

from zslada.errors import ConfigError
from zslada.settings import from_dict
from zslada.synthetic import SyntheticWorldSpec, make_synthetic_world, save_synthetic_world

from .helpers import bench_spec


def _truth_scores(truth, X):
    diff = X[:, None, :] - truth.class_means[None, :, :]
    quad = np.einsum("ncd,cd->nc", diff * diff, truth.class_precisions)
    return np.log(truth.class_precisions).sum(axis=1)[None, :] - quad


@pytest.mark.parametrize("seed", [3, 19])
def test_bayes_classifier_is_near_perfect_without_shift(seed):
    world = make_synthetic_world(bench_spec(seed=seed))
    X, y = world.dataset.features, world.dataset.labels
    picks = np.argmax(_truth_scores(world.truth, X), axis=1)
    assert np.mean(picks == y) >= 0.99


def test_min_class_separation_is_six_sigma_max():
    spec = bench_spec(seed=7)
    world = make_synthetic_world(spec)
    means = world.truth.class_means
    diffs = means[:, None, :] - means[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(-1))
    dist[np.diag_indices(means.shape[0])] = np.inf
    expected = 6.0 / np.sqrt(spec.precision_range[0])
    assert abs(dist.min() - expected) < 1e-9


def test_same_spec_same_world():
    a = make_synthetic_world(bench_spec(seed=4, shift_magnitude=3.0))
    b = make_synthetic_world(bench_spec(seed=4, shift_magnitude=3.0))
    assert a.dataset.features.tobytes() == b.dataset.features.tobytes()
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    assert a.attributes.table_hash() == b.attributes.table_hash()
    assert a.truth.class_means.tobytes() == b.truth.class_means.tobytes()

    c = make_synthetic_world(bench_spec(seed=5, shift_magnitude=3.0))
    assert a.dataset.features.tobytes() != c.dataset.features.tobytes()


def test_split_partitions_rows_and_classes():
    spec = bench_spec(seed=0, samples_per_class=50)
    world = make_synthetic_world(spec)
    split = world.dataset.split
    assert split.seen_class_ids == list(range(spec.S))
    assert split.unseen_class_ids == list(range(spec.S, spec.S + spec.U))
    all_rows = sorted(split.train_row_indices + split.test_row_indices)
    assert all_rows == list(range(world.dataset.n_rows))

    _, y_train = world.dataset.train_rows()
    _, y_test = world.dataset.test_rows()
    assert set(int(v) for v in y_train) == set(split.seen_class_ids)
    assert set(int(v) for v in y_test) == set(split.unseen_class_ids)


def test_cluster_means_match_truth_without_shift():
    spec = bench_spec(seed=11)
    world = make_synthetic_world(spec)
    X, y = world.dataset.features, world.dataset.labels
    n = spec.samples_per_class
    for c in range(spec.n_classes):
        emp = X[y == c].mean(axis=0)
        sd = 1.0 / np.sqrt(world.truth.class_precisions[c] * n)
        assert np.all(np.abs(emp - world.truth.class_means[c]) < 4.5 * sd)


def test_affine_shift_displaces_unseen_clusters_by_magnitude():
    m = 9.0
    spec = bench_spec(seed=6, shift_magnitude=m)
    world = make_synthetic_world(spec)
    truth = world.truth
    assert abs(np.linalg.norm(truth.shift_offset) - m) < 1e-9

    X, y = world.dataset.features, world.dataset.labels
    n = spec.samples_per_class
    for c in range(spec.S, spec.n_classes):
        emp = X[y == c].mean(axis=0)
        expected = truth.class_means[c] + truth.shift_offset
        sd = 1.0 / np.sqrt(truth.class_precisions[c] * n)
        assert np.all(np.abs(emp - expected) < 4.5 * sd)
        displacement = np.linalg.norm(emp - truth.class_means[c])
        assert abs(displacement - m) < 0.5


def test_shift_touches_only_test_rows():
    plain = make_synthetic_world(bench_spec(seed=2))
    shifted = make_synthetic_world(bench_spec(seed=2, shift_magnitude=12.0))
    tr_a, _ = plain.dataset.train_rows()
    tr_b, _ = shifted.dataset.train_rows()
    assert tr_a.tobytes() == tr_b.tobytes()
    te_a, _ = plain.dataset.test_rows()
    te_b, _ = shifted.dataset.test_rows()
    assert not np.array_equal(te_a, te_b)
    # the affine form is a pure translation of every test row
    assert np.allclose(te_b - te_a, shifted.truth.shift_offset)


def test_nonlinear_shift_is_bounded_by_magnitude():
    spec = bench_spec(seed=8, shift_magnitude=5.0, shift_kind="nonlinear")
    world = make_synthetic_world(spec)
    plain = make_synthetic_world(bench_spec(seed=8))
    te_a, _ = plain.dataset.test_rows()
    te_b, _ = world.dataset.test_rows()
    delta = te_b - te_a
    assert not np.allclose(delta, 0.0)
    # tanh keeps each coordinate displacement inside [-magnitude, magnitude]
    assert np.all(np.abs(delta) <= 5.0 + 1e-12)


def test_mlp_attribute_map_differs_from_linear():
    linear = make_synthetic_world(bench_spec(seed=1))
    mlp = make_synthetic_world(bench_spec(seed=1, attribute_map="mlp"))
    assert not np.array_equal(linear.truth.class_means, mlp.truth.class_means)


def test_spec_validation():
    with pytest.raises(ConfigError):
        bench_spec(seed=0, S=0)
    with pytest.raises(ConfigError):
        bench_spec(seed=0, shift_kind="rotate")
    with pytest.raises(ConfigError):
        bench_spec(seed=0, attribute_map="resnet")
    with pytest.raises(ConfigError):
        bench_spec(seed=0, precision_range=(1.4, 0.6))
    with pytest.raises(ConfigError):
        bench_spec(seed=0, shift_magnitude=-1.0)
    with pytest.raises(ConfigError):
        bench_spec(seed=0, samples_per_class=0)


def test_world_save_and_truth_round_trip(tmp_path):
    world = make_synthetic_world(bench_spec(seed=10, shift_magnitude=4.0,
                                            samples_per_class=20))
    save_synthetic_world(tmp_path, world)
    record = json.loads((tmp_path / "truth.json").read_text())
    assert from_dict(SyntheticWorldSpec, record["spec"], "synthetic-world") == world.spec
    truth = record["truth"]
    for name in ("class_means", "class_precisions", "shift_offset"):
        assert np.array_equal(np.asarray(truth[name]), getattr(world.truth, name)), name


def test_truth_json_leaves_the_nonlinear_weights_to_the_spec(tmp_path):
    world = make_synthetic_world(bench_spec(seed=4, S=2, U=2, d=256, samples_per_class=10,
                                            shift_kind="nonlinear", shift_magnitude=2.0))
    save_synthetic_world(tmp_path, world)
    assert (tmp_path / "truth.json").stat().st_size < (tmp_path / "features.csv").stat().st_size
    record = json.loads((tmp_path / "truth.json").read_text())
    assert "nonlinear_weights" not in record["truth"]
    rebuilt = make_synthetic_world(from_dict(SyntheticWorldSpec, record["spec"], "synthetic-world"))
    assert rebuilt.truth.nonlinear_weights.tobytes() == world.truth.nonlinear_weights.tobytes()
