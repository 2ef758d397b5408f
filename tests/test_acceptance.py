"""Release gate: one test per promised behavior, with stated tolerances.

These run the full recipes, so the module is slower than the unit files;
each test prints one pass/fail line under ``pytest -v``.
"""
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from zslada.ada import AdaConfig, adapt, critic_objective, generator_objective, init_ada_state
from zslada.base_model import class_params_matrix, predict
from zslada.metrics import ablation_run, inductive_accuracy, m1_accuracy, m2_accuracy
from zslada.nn.gradcheck import grad_check
from zslada.profiles import ada_profile

from .helpers import (
    bench_spec,
    identity_generator,
    linear_model,
    table_model,
    tape_grads,
    toy_table,
    train_linear_model,
)
from .test_gradcheck import _joint_objective, _toy_ada

GEN_ROLES = ("g_t", "g_s", "c_t", "c_s")
CRITIC_ROLES = ("d_t", "d_s")


def test_gradient_suite_50_seeds_under_60s():
    start = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)

        table = toy_table(S=3, U=1, attr_dim=3, seed=seed)
        model = linear_model(table, d=2, seed=seed + 1)
        fn = _joint_objective(model)
        fn.X = rng.standard_normal((6, 2))
        fn.y = np.repeat([0, 1, 2], 2)
        p0 = np.concatenate([model.mean_net.params, model.prec_net.params])
        report = grad_check(fn, p0, tolerance=1e-4)
        assert report.passed, (seed, "base", report)

        cycle_form = "cross_domain" if seed % 2 == 0 else "within_domain"
        phase = "recovery" if seed % 2 == 0 else "warmup"
        state, config, batch = _toy_ada(seed=seed, cycle_form=cycle_form,
                                                 phase=phase)
        role = GEN_ROLES[seed % len(GEN_ROLES)]

        def gen_fn(p):
            state.nets[role].set_params(p)
            value, _, tapes = generator_objective(state, config, batch)
            return value, tape_grads(state.nets, tapes)[role]

        report = grad_check(gen_fn, state.nets[role].params.copy(), tolerance=1e-3)
        assert report.passed, (seed, role, report)

        crole = CRITIC_ROLES[seed % len(CRITIC_ROLES)]

        def critic_fn(p):
            state.nets[crole].set_params(p)
            value, _, tapes = critic_objective(state, config, batch)
            return value, tape_grads(state.nets, tapes)[crole]

        report = grad_check(critic_fn, state.nets[crole].params.copy(),
                            tolerance=1e-3)
        assert report.passed, (seed, crole, report)
    assert time.perf_counter() - start < 60.0


def test_gaussian_recovery_on_benchmark_world(world19):
    start = time.perf_counter()
    model, _ = train_linear_model(world19, seed=11)

    ids = world19.attributes.class_ids
    fitted_means, _ = class_params_matrix(model, ids)
    true_means = world19.truth.class_means[np.asarray(ids)]
    errors = np.linalg.norm(fitted_means - true_means, axis=1) / np.sqrt(16.0)
    assert errors.max() < 0.1, dict(zip(ids, errors.round(4)))

    report = inductive_accuracy(model, world19.dataset)
    assert report.mean_per_class_acc >= 0.90
    assert time.perf_counter() - start < 300.0


def test_domain_shift_recovery_4_of_5_seeds(calibrated):
    margins = {}
    wins = 0
    for world_seed in range(5):
        start = time.perf_counter()
        world, model, agreement = calibrated(world_seed)
        assert 0.6 <= agreement <= 0.85
        state, _ = adapt(model, world.dataset, ada_profile("synth-small"))
        m1 = m1_accuracy(state, world.dataset).mean_per_class_acc
        margins[world_seed] = round(m1 - agreement, 4)
        wins += m1 >= agreement + 0.05
        assert time.perf_counter() - start < 900.0
    assert wins >= 4, margins


def test_ablation_ordering_matches_reference_pattern(calibrated):
    world, model, _ = calibrated(2)
    table = ablation_run(model, world.dataset, ada_profile("synth-small"),
                         n_samples=2000, seed=5)
    assert table.row("std_da").m2 is None
    assert table.row("cyclegan_wo").m1 is None
    assert table.row("std_da").m1 is not None
    assert table.row("cyclegan_wo").m2 is not None
    assert table.row("vanilla_ada").m1 is not None
    assert table.row("vanilla_ada").m2 is not None
    assert table.row("full").m1 is not None
    assert table.row("full").m2 is not None

    assert table.row("full").m1 >= table.row("std_da").m1
    assert table.row("full").m2 >= table.row("vanilla_ada").m2


def test_identity_generator_reduces_m2_to_inductive(world19, model19):
    model, _ = model19
    config = AdaConfig(gen_hidden=(4,), disc_hidden=(4,), use_batchnorm=False)
    state = init_ada_state(model, config)
    state.nets["g_t"] = identity_generator(16, 4)

    m2 = m2_accuracy(state, model, world19.dataset,
                     n_samples=100_000, seed=0).mean_per_class_acc
    inductive = inductive_accuracy(model, world19.dataset).mean_per_class_acc
    assert abs(m2 - inductive) <= 0.005, (m2, inductive)


def test_equal_precision_predict_is_nearest_mean():
    rng = np.random.default_rng(17)
    means = rng.standard_normal((5, 6)) * 4.0
    model = table_model(means=means, precisions=np.full((5, 6), 1.0), n_seen=2)
    X = rng.standard_normal((400, 6)) * 3.0

    picks = predict(model, X, label_space=[0, 1, 2, 3, 4])
    dist = np.sum((X[:, None, :] - means[None, :, :]) ** 2, axis=2)
    assert np.array_equal(picks, np.argmin(dist, axis=1))


def test_pipeline_is_byte_deterministic(tmp_path):
    spec = {"S": 4, "U": 3, "d": 8, "attr_dim": 3,
            "samples_per_class": 150, "seed": 100}
    spec_path = tmp_path / "world.json"
    spec_path.write_text(json.dumps(spec) + "\n")
    eval_path = tmp_path / "eval.json"
    eval_path.write_text(json.dumps({"eval": {"n_samples": 2000, "seed": 0}}) + "\n")

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "zslada", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    outputs = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        world, pre, ada, ev = (root / n for n in ("world", "pre", "ada", "eval"))
        run(["synth", "--config", str(spec_path), "--out", str(world)])
        run(["pretrain", "--data", str(world), "--out", str(pre), "--seed", "0"])
        run(["adapt", "--config", str(eval_path), "--data", str(world),
             "--base", str(pre / "base_model.ckpt"), "--seed", "100",
             "--out", str(ada)])
        run(["eval", "--config", str(eval_path), "--data", str(world),
             "--base", str(pre / "base_model.ckpt"),
             "--ada", str(ada / "ada_state.ckpt"),
             "--metric", "all", "--out", str(ev)])
        outputs.append({
            "inductive": pre / "report_inductive.csv",
            "trace": pre / "loss_trace.csv",
            "log": ada / "training_log.csv",
            "summary": ada / "summary.csv",
            "eval_inductive": ev / "report_inductive.csv",
            "eval_m1": ev / "report_m1.csv",
            "eval_m2": ev / "report_m2.csv",
        })
    first, second = outputs
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), name


def test_weight_decay_grid_moves_accuracy_at_most_5_points(world19):
    accs = {}
    for mean_wd in (1e-5, 1e-4, 1e-3):
        for prec_wd in (1e-5, 1e-4, 1e-3):
            model, _ = train_linear_model(world19, seed=11,
                                          mean_weight_decay=mean_wd,
                                          prec_weight_decay=prec_wd)
            acc = inductive_accuracy(model, world19.dataset).mean_per_class_acc
            accs[(mean_wd, prec_wd)] = acc
    spread = max(accs.values()) - min(accs.values())
    assert spread <= 0.05, accs
