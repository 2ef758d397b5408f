"""End-to-end command-line runs on a small synthetic world."""
import dataclasses
import json
import shutil
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import zslada.base_model
import zslada.cli
from zslada.ada import DRAW_CHUNK, AdaConfig, AdaStateMeta, load_ada_state, save_ada_state
from zslada.base_model import BaseModelMeta, load_base_model, pseudo_labels, save_base_model
from zslada.cli import RUNS, main
from zslada.data import FeatureDataset, SplitSpec, export_embeddings, load_dataset, save_dataset
from zslada.nn.checkpoint import load_container, save_container
from zslada.profiles import build_base_model

from .helpers import (count_class_params_matrix, peak_traced_bytes, reference_export_draws,
                      streaming_setup, wrong_values)

WORLD_SPEC = {"S": 4, "U": 3, "d": 8, "attr_dim": 3,
              "samples_per_class": 150, "seed": 100}


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def _report_mean(path: Path) -> float:
    """The accuracy column of a report CSV's closing ``MEAN`` row."""
    lines = path.read_text().splitlines()
    assert lines[0] == "class_id,n,correct,acc"
    assert lines[-1].startswith("MEAN,")
    return float(lines[-1].rsplit(",", 1)[1])


def _summary_rows(path: Path) -> dict[str, str]:
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,value"
    return dict(line.split(",", 1) for line in lines[1:])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> pretrain -> adapt on one no-shift world, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    world = root / "world"
    pre = root / "pretrain"
    ada = root / "adapt"
    spec_cfg = _write_json(root / "world_spec.json", WORLD_SPEC)

    assert main(["synth", "--config", spec_cfg, "--out", str(world)]) == 0
    assert main(["pretrain", "--data", str(world), "--out", str(pre),
                 "--profile", "synth-small", "--seed", "0"]) == 0
    adapt_cfg = _write_json(root / "adapt.json",
                            {"eval": {"n_samples": 2000, "seed": 0}})
    assert main(["adapt", "--config", adapt_cfg, "--data", str(world),
                 "--base", str(pre / "base_model.ckpt"),
                 "--out", str(ada)]) == 0
    return {"root": root, "world": world, "pre": pre, "ada": ada,
            "spec_cfg": spec_cfg}


def test_synth_writes_world_files(pipeline):
    world = pipeline["world"]
    for name in ("features.csv", "attributes.csv", "split.json",
                 "truth.json", "resolved_config.json"):
        assert (world / name).exists(), name
    resolved = json.loads((world / "resolved_config.json").read_text())
    assert resolved["command"] == "synth"
    assert resolved["world"]["S"] == 4


def test_synth_same_seed_same_bytes(pipeline, tmp_path):
    out = tmp_path / "again"
    assert main(["synth", "--config", pipeline["spec_cfg"],
                 "--out", str(out)]) == 0
    world = pipeline["world"]
    for name in ("features.csv", "attributes.csv", "split.json", "truth.json"):
        assert (out / name).read_bytes() == (world / name).read_bytes(), name


def test_pretrain_outputs_and_accuracy(pipeline):
    pre = pipeline["pre"]
    assert (pre / "base_model.ckpt").exists()
    trace = (pre / "loss_trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,train_loglik,heldout_loglik"
    assert len(trace) > 10
    assert _report_mean(pre / "report_inductive.csv") >= 0.90
    rows = (pre / "report_inductive.csv").read_text().splitlines()[1:-1]
    assert [int(row.split(",", 1)[0]) for row in rows] == [4, 5, 6]


def test_pretrain_rerun_loads_checkpoint(pipeline, capsys):
    pre = pipeline["pre"]
    before = (pre / "report_inductive.csv").read_bytes()
    assert main(["pretrain", "--data", str(pipeline["world"]),
                 "--out", str(pre), "--profile", "synth-small",
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "loaded existing checkpoint" in out
    assert "mean per-class" in out
    assert (pre / "report_inductive.csv").read_bytes() == before


def test_pretrain_rerun_with_other_settings_is_refused(pipeline, tmp_path, capsys):
    out = tmp_path / "pre"
    args = ["--data", str(pipeline["world"]), "--out", str(out), "--seed", "0"]
    short = _write_json(tmp_path / "short.json", {"pretrain": {"max_epochs": 3}})
    longer = _write_json(tmp_path / "long.json", {"pretrain": {"max_epochs": 40}})
    assert main(["pretrain", "--config", short, *args]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(["pretrain", "--config", longer, *args]) == 2
    err = capsys.readouterr().err
    assert "max_epochs 3 (asked 40)" in err and "learning_rate" not in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written

    # a checkpoint that records no settings is refused as well
    ckpt = out / "base_model.ckpt"
    save_base_model(ckpt, load_base_model(ckpt, load_dataset(pipeline["world"]).attributes))
    written["base_model.ckpt"] = ckpt.read_bytes()
    assert main(["pretrain", "--config", short, *args]) == 2
    assert "records no pretrain settings" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written


@pytest.mark.parametrize("flag", [True, False])
def test_pretrain_snapshot_names_the_dataset_it_loaded(pipeline, tmp_path, flag):
    # --data wins over the config's "data"; the config's other directory
    # need not exist, because with the flag given it is never loaded
    world = str(pipeline["world"])
    cfg_data = str(tmp_path / "elsewhere") if flag else world
    cfg = _write_json(tmp_path / "pre.json", {"data": cfg_data})
    out = tmp_path / "pre"
    out.mkdir()
    shutil.copyfile(pipeline["pre"] / "base_model.ckpt", out / "base_model.ckpt")
    args = ["pretrain", "--config", cfg, "--out", str(out), "--seed", "0"]
    assert main(args + (["--data", world] if flag else [])) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["data"] == world


def test_adapt_outputs(pipeline):
    ada = pipeline["ada"]
    assert (ada / "ada_state.ckpt").exists()
    log = (ada / "training_log.csv").read_text().splitlines()
    assert log[0] == "iter,L_adv_T,L_adv_S,L_cyc,L_clf_T,L_clf_S,phase"
    assert len(log) == 1001
    assert log[-1].split(",")[-1] in ("warmup", "recovery")

    rows = _summary_rows(ada / "summary.csv")
    agreement = float(rows["pseudo_label_agreement"])
    assert agreement >= 0.9
    assert float(rows["M1"]) >= 0.9
    assert 0.0 <= float(rows["M2"]) <= 1.0


def test_eval_all_writes_three_reports(pipeline, tmp_path, capsys):
    cfg = _write_json(tmp_path / "eval.json",
                      {"eval": {"n_samples": 2000, "seed": 0}})
    out = tmp_path / "eval"
    assert main(["eval", "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--ada", str(pipeline["ada"] / "ada_state.ckpt"),
                 "--metric", "all", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    for name in ("inductive", "m1", "m2"):
        assert (out / f"report_{name}.csv").exists()
        assert f"{name} mean per-class:" in printed
        assert 0.0 <= _report_mean(out / f"report_{name}.csv") <= 1.0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert sorted(resolved["reports"]) == ["report_inductive.csv",
                                           "report_m1.csv", "report_m2.csv"]


def test_adapt_prints_unseen_classes_without_pseudo_labelled_rows(pipeline, tmp_path, capsys):
    # the test rows the base model pseudo-labels as the last unseen class
    # are left out, so adaptation never pairs that class with target rows
    bundle = load_dataset(pipeline["world"])
    model = load_base_model(pipeline["pre"] / "base_model.ckpt", bundle.attributes)
    dropped = bundle.attributes.unseen_ids[-1]
    split = bundle.dataset.split
    kept = [i for i, c in zip(split.test_row_indices,
                              pseudo_labels(model, bundle.dataset)[0]) if c != dropped]
    pruned = tmp_path / "pruned"
    save_dataset(pruned, FeatureDataset(
        features=bundle.dataset.features, labels=bundle.dataset.labels,
        split=dataclasses.replace(split, test_row_indices=kept)), bundle.attributes)
    cfg = _write_json(tmp_path / "short.json",
                      {"ada": {"n_steps": 5}, "eval": {"n_samples": 50, "seed": 0}})
    line = "unseen classes with no pseudo-labelled test row"
    for world, named in ((pipeline["world"], []), (pruned, [dropped])):
        out = tmp_path / world.name
        assert main(["adapt", "--config", cfg, "--data", str(world),
                     "--base", str(pipeline["pre"] / "base_model.ckpt"),
                     "--out", str(out)]) == 0
        printed = [text for text in capsys.readouterr().out.splitlines() if line in text]
        assert printed == ([f"{line}: {named}"] if named else [])
        assert load_ada_state(out / "ada_state.ckpt")[0].empty_pseudo_ids == named


def test_variant_run_marks_missing_metric_na(pipeline, tmp_path, capsys):
    cfg = _write_json(tmp_path / "std.json",
                      {"ada": {"n_steps": 30},
                       "eval": {"n_samples": 500, "seed": 0}})
    out = tmp_path / "std_da"
    assert main(["adapt", "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--variant", "std-da", "--out", str(out)]) == 0
    assert "M2: NA" in capsys.readouterr().out
    rows = _summary_rows(out / "summary.csv")
    assert rows["M2"] == "NA"
    assert rows["M1"] != "NA"

    eval_out = tmp_path / "std_eval"
    assert main(["eval", "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--ada", str(out / "ada_state.ckpt"),
                 "--metric", "all", "--out", str(eval_out)]) == 0
    printed = capsys.readouterr().out
    assert "m2: NA (variant std_da)" in printed
    assert (eval_out / "report_m1.csv").exists()
    assert not (eval_out / "report_m2.csv").exists()


def test_export_writes_embeddings(pipeline, tmp_path):
    cfg = _write_json(tmp_path / "export.json",
                      {"eval": {"n_samples": 50, "seed": 0}})
    out = tmp_path / "export"
    assert main(["export", "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--ada", str(pipeline["ada"] / "ada_state.ckpt"),
                 "--out", str(out)]) == 0
    lines = (out / "embeddings.csv").read_text().splitlines()
    assert lines[0].endswith(",label,origin")
    origins = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert origins == {"real", "generated", "transformed"}
    # 450 test rows + 3 unseen classes x 50 generated x 2 (raw, transformed)
    assert len(lines) == 1 + 450 + 2 * 3 * 50
    assert (out / "embeddings.csv").read_bytes() == _reference_csv(pipeline, tmp_path, 50, 0)


def _reference_csv(pipeline, tmp_path: Path, n: int, seed: int, with_ada: bool = True) -> bytes:
    """The embeddings file the one-batch reference writes for the fixture."""
    bundle = load_dataset(pipeline["world"])
    model = load_base_model(pipeline["pre"] / "base_model.ckpt", bundle.attributes)
    state = load_ada_state(pipeline["ada"] / "ada_state.ckpt")[0] if with_ada else None
    labels, generated, transformed = reference_export_draws(model, state, n, seed)
    X, truth = bundle.dataset.test_rows()
    matrices = {"real": X, "generated": generated}
    label_map = {"real": truth, "generated": labels}
    if state is not None:
        matrices["transformed"] = transformed
        label_map["transformed"] = labels
    return export_embeddings(matrices, label_map, tmp_path / "reference.csv").read_bytes()


def test_export_without_ada_matches_the_reference(pipeline, tmp_path):
    cfg = _write_json(tmp_path / "export.json", {"eval": {"n_samples": 3, "seed": 5}})
    out = tmp_path / "export"
    assert main(["export", "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"), "--out", str(out)]) == 0
    written = (out / "embeddings.csv").read_bytes()
    assert written == _reference_csv(pipeline, tmp_path, 3, 5, with_ada=False)
    assert b",transformed" not in written


@pytest.mark.parametrize("with_ada", [True, False])
def test_export_refuses_zero_draws(pipeline, tmp_path, capsys, with_ada):
    cfg = _write_json(tmp_path / "export.json", {"eval": {"n_samples": 0, "seed": 0}})
    ada = ["--ada", str(pipeline["ada"] / "ada_state.ckpt")] if with_ada else []
    assert main(["export", "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--out", str(tmp_path / "out")] + ada) == 2
    assert "need n >= 1 draws, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_export_builds_one_gaussian_table(pipeline, tmp_path, monkeypatch):
    # unlabeled test rows make export pseudo-label them as well: the
    # pseudo-labels, the draws and their G_T rows all read one table
    bundle = load_dataset(pipeline["world"])
    world = tmp_path / "unlabeled"
    save_dataset(world, FeatureDataset(features=bundle.dataset.features, labels=None,
                                       split=bundle.dataset.split), bundle.attributes)
    calls = count_class_params_matrix(monkeypatch, zslada.cli, zslada.base_model)
    cfg = _write_json(tmp_path / "export.json", {"eval": {"n_samples": 3, "seed": 0}})
    assert main(["export", "--config", cfg, "--data", str(world),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--ada", str(pipeline["ada"] / "ada_state.ckpt"),
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == [[4, 5, 6]]


def _export_run(tmp_path: Path, monkeypatch, model, state, n: int, seed: int):
    """``zslada export`` on ``model`` and ``state`` (no ``--ada`` when it is
    None), both saved under ``tmp_path``.  Returns a callable that runs it
    and returns the ``(matrices, labels)`` it hands to ``export_embeddings``,
    stubbed here to write nothing."""
    table = model.attribute_table
    split = SplitSpec(seen_class_ids=table.seen_ids, unseen_class_ids=table.unseen_ids,
                      train_row_indices=[], test_row_indices=[0])
    dataset = FeatureDataset(features=np.zeros((1, model.dim)),
                             labels=table.unseen_ids[:1], split=split)
    save_dataset(tmp_path / "world", dataset, table)
    save_base_model(tmp_path / "base.ckpt", model)
    args = ["export", "--config", _write_json(tmp_path / "export.json",
                                              {"eval": {"n_samples": n, "seed": seed}}),
            "--data", str(tmp_path / "world"), "--base", str(tmp_path / "base.ckpt"),
            "--out", str(tmp_path / "out")]
    if state is not None:
        save_ada_state(tmp_path / "ada.ckpt", state, AdaConfig())
        args += ["--ada", str(tmp_path / "ada.ckpt")]
    handed = []
    monkeypatch.setattr(zslada.cli, "export_embeddings",
                        lambda matrices, labels, path: handed.append((matrices, labels)))

    def run():
        handed.clear()
        assert main(args) == 0
        return handed[0]

    return run


@pytest.mark.parametrize("reverse_table", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, DRAW_CHUNK + 1])
def test_export_streams_to_the_one_batch_bits(tmp_path, monkeypatch, n, reverse_table):
    model, state = streaming_setup(reverse_table=reverse_table)
    table_order = state.unseen_ids[::-1] if reverse_table else state.unseen_ids
    assert model.attribute_table.unseen_ids == table_order
    for seed in (0, 1):
        for adapted in (state, None):
            where = tmp_path / f"{seed}-{adapted is None}"
            matrices, labels = _export_run(where, monkeypatch, model, adapted, n, seed)()
            want_labels, generated, transformed = reference_export_draws(model, adapted, n,
                                                                         seed)
            assert labels["generated"].tobytes() == want_labels.tobytes()
            assert matrices["generated"].tobytes() == generated.tobytes(), (n, seed)
            if adapted is None:
                assert "transformed" not in matrices
            else:
                assert matrices["transformed"].tobytes() == transformed.tobytes(), (n, seed)


def test_export_memory_does_not_grow_with_n(tmp_path, monkeypatch):
    # each class streams its draws, and with a state their G_T rows, in
    # chunks, so beyond its outputs, eight times the draws keep the peak of
    # one chunk; the one-batch reference grows about 8x
    model, state = streaming_setup(d=64)

    def overhead(adapted, n: int) -> int:
        run = _export_run(tmp_path / f"{adapted is None}-{n}", monkeypatch, model, adapted,
                          n, 0)
        handed = []
        peak = peak_traced_bytes(lambda: handed.append(run()))
        matrices, labels = handed[0]
        output = sum(matrix.nbytes for tag, matrix in matrices.items() if tag != "real")
        output += labels["generated"].nbytes
        return peak - output

    for adapted in (state, None):
        one, eight = overhead(adapted, DRAW_CHUNK), overhead(adapted, 8 * DRAW_CHUNK)
        assert eight <= 1.25 * one, (adapted is None, eight, one)


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize("command", ["synth", "pretrain", "adapt", "eval", "export"])
def test_snapshot_replays_to_the_same_bytes(pipeline, tmp_path, command):
    # the first run mixes flags and a config; the replay reads only its snapshot
    cfg = _write_json(tmp_path / "run.json", {"pretrain": {"max_epochs": 5},
                                              "ada": {"n_steps": 40},
                                              "eval": {"n_samples": 100, "seed": 2}})
    data = ["--data", str(pipeline["world"])]
    base = ["--base", str(pipeline["pre"] / "base_model.ckpt")]
    ada = ["--ada", str(pipeline["ada"] / "ada_state.ckpt")]
    args = {"synth": ["--config", pipeline["spec_cfg"], "--seed", "3"],
            "pretrain": ["--config", cfg, *data, "--seed", "1"],
            "adapt": ["--config", cfg, *data, *base, "--variant", "cyclegan-wo", "--seed", "5"],
            "eval": ["--config", cfg, *data, *base, *ada],
            "export": ["--config", cfg, *data, *base, *ada]}[command]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([command, *args, "--out", str(first)]) == 0
    assert main([command, "--config", str(first / "resolved_config.json"),
                 "--out", str(again)]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        if name != "resolved_config.json":
            assert (again / name).read_bytes() == (first / name).read_bytes(), name
    snapshots = [json.loads((out / "resolved_config.json").read_text()) for out in (first, again)]
    assert [snapshot.pop("out") for snapshot in snapshots] == [str(first), str(again)]
    assert snapshots[0] == snapshots[1]


def test_synth_requires_out(tmp_path, capsys):
    cfg = _write_json(tmp_path / "spec.json", WORLD_SPEC)
    assert main(["synth", "--config", cfg]) == 2
    assert "--out" in capsys.readouterr().err


def test_malformed_config_names_the_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"S": 4,,}')
    assert main(["synth", "--config", str(bad), "--out",
                 str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "broken.json" in err


def test_unknown_world_key_is_named(tmp_path, capsys):
    cfg = _write_json(tmp_path / "spec.json", {**WORLD_SPEC, "flavor": 3})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "w")]) == 2
    assert "flavor" in capsys.readouterr().err


def test_missing_dataset_dir_fails_cleanly(tmp_path, capsys):
    assert main(["pretrain", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_attribute_file_fails_cleanly(pipeline, tmp_path, capsys):
    partial = tmp_path / "partial"
    partial.mkdir()
    for name in ("features.csv", "split.json"):
        (partial / name).write_bytes((pipeline["world"] / name).read_bytes())
    assert main(["pretrain", "--data", str(partial),
                 "--out", str(tmp_path / "out")]) == 2
    assert "attributes" in capsys.readouterr().err


def test_adapt_requires_base(pipeline, tmp_path, capsys):
    assert main(["adapt", "--data", str(pipeline["world"]),
                 "--out", str(tmp_path / "out")]) == 2
    assert "--base" in capsys.readouterr().err


def test_adapt_rejects_a_split_without_test_rows(pipeline, tmp_path, capsys):
    world = tmp_path / "no_test"
    world.mkdir()
    for name in ("features.csv", "attributes.csv"):
        (world / name).write_bytes((pipeline["world"] / name).read_bytes())
    split = json.loads((pipeline["world"] / "split.json").read_text())
    split["test_rows"] = []
    (world / "split.json").write_text(json.dumps(split))
    assert main(["adapt", "--data", str(world),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "test rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["adapt", "eval"])
def test_zero_eval_draws_are_refused_before_any_work(pipeline, tmp_path, capsys, command):
    # a config error is never reported as a metric the variant lacks, and
    # adapt refuses it before training
    cfg = _write_json(tmp_path / "zero.json",
                      {"ada": {"n_steps": 5}, "eval": {"n_samples": 0, "seed": 0}})
    ada = ["--ada", str(pipeline["ada"] / "ada_state.ckpt")] if command == "eval" else []
    assert main([command, "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--out", str(tmp_path / "out")] + ada) == 2
    captured = capsys.readouterr()
    assert "need n >= 1 draws, got 0" in captured.err
    assert "NA" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [2.7, True, "7"])
@pytest.mark.parametrize("command, key", [("adapt", "n_samples"), ("eval", "n_samples"),
                                          ("export", "n_samples"), ("eval", "seed")])
def test_a_non_integer_eval_value_is_refused_before_any_work(pipeline, tmp_path, capsys,
                                                             command, key, value):
    cfg = _write_json(tmp_path / "typed.json",
                      {"ada": {"n_steps": 5}, "eval": {"n_samples": 50, key: value}})
    ada = ["--ada", str(pipeline["ada"] / "ada_state.ckpt")] if command != "adapt" else []
    assert main([command, "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--out", str(tmp_path / "out")] + ada) == 2
    assert f"eval key '{key}' must be an integer, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, payload, message", [
    ("adapt", {"ada": {"use_batchnorm": "false"}},
     "adaptation config key 'use_batchnorm' must be true or false, got 'false'"),
    ("adapt", {"ada": {"mismatched_pairs": "no"}},
     "adaptation config key 'mismatched_pairs' must be true or false, got 'no'"),
    ("adapt", {"ada": {"gen_hidden": [48.7]}},
     "adaptation config key 'gen_hidden' must be a list of integers, got [48.7]"),
    ("adapt", {"ada": {"seed": 1.9}}, "adaptation config key 'seed' must be an integer, got 1.9"),
    ("adapt", {"ada": {"n_steps": 2.5}},
     "adaptation config key 'n_steps' must be an integer, got 2.5"),
    ("pretrain", {"pretrain": {"seed": "7"}},
     "pretrain config key 'seed' must be an integer, got '7'"),
    ("pretrain", {"pretrian": {"max_epochs": 1}, "profil": "awa"},
     "unknown pretrain --config keys: ['pretrian', 'profil']"),
    ("synth", {**WORLD_SPEC, "precision_range": [0.6, 1.0, 1.4]},
     "synthetic-world key 'precision_range' must be a list of 2 numbers, got [0.6, 1.0, 1.4]"),
    ("synth", {**WORLD_SPEC, "S": 3.0}, "synthetic-world key 'S' must be an integer, got 3.0"),
], ids=["use_batchnorm", "mismatched_pairs", "gen_hidden", "ada_seed", "n_steps", "pretrain_seed",
        "top_level_typos", "precision_range", "S"])
def test_a_mistyped_config_is_refused_by_name_before_any_work(pipeline, tmp_path, capsys,
                                                              command, payload, message):
    cfg = _write_json(tmp_path / "typed.json", payload)
    data = ["--data", str(pipeline["world"])]
    args = {"synth": [], "pretrain": data,
            "adapt": [*data, "--base", str(pipeline["pre"] / "base_model.ckpt")]}[command]
    assert main([command, "--config", cfg, *args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [
    (command, key) for command, run in sorted(RUNS.items())
    for key in ("ouut", "metric", "profile") if key not in {f.name for f in dataclasses.fields(run)}])
def test_a_top_level_key_the_command_does_not_take_is_refused(tmp_path, capsys, command, key):
    # a misspelling, or a key another command takes
    cfg = _write_json(tmp_path / "typo.json", {"world": WORLD_SPEC, key: "m1"})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: unknown {command} --config keys: [{key!r}]\n"
    assert not (tmp_path / "out").exists()


# the pseudo-labels, which a state saved before set-up does not hold
READ_WITH_A_DEFAULT = {"pseudo"}
RECORDS = {"base_model": BaseModelMeta, "ada_state": AdaStateMeta}


def _mutations(kind: str, meta: dict, arrays: dict) -> list:
    """``(key, meta, arrays)``: one refused change each to a checkpoint's
    entries, and the key that names it."""
    cases = [(key, meta, {k: v for k, v in arrays.items() if k != key})
             if key in arrays else (key, {k: v for k, v in meta.items() if k != key}, arrays)
             for key in sorted({*meta, *arrays} - READ_WITH_A_DEFAULT)]
    cases += [(key, {**meta, key: value}, arrays)
              for key, hint in get_type_hints(RECORDS[kind]).items()
              for value in wrong_values(hint)]
    # one entry off; the dataset gives the length of the pseudo-labels, one per test row
    cases += [(name, meta, {**arrays, name: a[:-1] if a.size else np.zeros(1)})
              for name, a in arrays.items()]
    cases.append(("unexpected", meta, {**arrays, "unexpected": np.zeros(1)}))
    if kind == "base_model":
        return cases + [("attr_table_hash", {**meta, "attr_table_hash": "0" * 64}, arrays)]
    cases += [(name, meta, {**arrays, name: np.where(np.arange(a.size) == a.size // 2, bad, a)})
              for name, a in arrays.items() if a.size for bad in (np.nan, np.inf)]
    return cases + [
        ("phase", {**meta, "phase": "x"}, arrays), ("variant", {**meta, "variant": "x"}, arrays),
        ("config", {**meta, "config": {**meta["config"], "n_steps": 2.5}}, arrays),
        ("pseudo", meta, {**arrays, "pseudo": arrays["pseudo"] + 0.5})]


@pytest.mark.parametrize("kind", ["base_model", "ada_state"])
def test_a_checkpoint_without_one_of_its_entries_names_the_path_and_the_key(
        pipeline, tmp_path, capsys, kind):
    # and with one of another type, length or value: every case is refused
    # before any work, by a message naming the file and the key
    source = pipeline["pre" if kind == "base_model" else "ada"] / f"{kind}.ckpt"
    meta, arrays = load_container(source)
    # the pipeline's base model records the settings that trained it
    assert meta["kind"] == kind and (kind == "ada_state" or "pretrain" in meta)
    for i, (key, changed, changed_arrays) in enumerate(_mutations(kind, meta, arrays)):
        out = tmp_path / f"{i}-{key}"
        out.mkdir()
        path = out / f"{kind}.ckpt"
        save_container(path, changed, changed_arrays)
        data = ["--data", str(pipeline["world"]), "--out", str(out)]
        if kind == "base_model":
            # a rerun of pretrain reads every entry, its settings included
            argv = ["pretrain", *data, "--profile", "synth-small", "--seed", "0"]
        else:
            argv = ["eval", *data, "--base", str(pipeline["pre"] / "base_model.ckpt"),
                    "--ada", str(path), "--metric", "all"]
        assert main(argv) == 2, key
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and key in err, (key, err)
        assert sorted(p.name for p in out.iterdir()) == [path.name], key


def test_export_refuses_a_state_without_a_trained_generator(pipeline, tmp_path, capsys):
    # std_da trains no G_T, so it has no transformed rows, as it has no M2
    cfg = _write_json(tmp_path / "std.json", {"ada": {"n_steps": 5}})
    base = ["--data", str(pipeline["world"]), "--base", str(pipeline["pre"] / "base_model.ckpt")]
    assert main(["adapt", "--config", cfg, *base, "--variant", "std-da",
                 "--out", str(tmp_path / "std_da")]) == 0
    capsys.readouterr()
    out = tmp_path / "export"
    assert main(["export", *base, "--ada", str(tmp_path / "std_da" / "ada_state.ckpt"),
                 "--out", str(out)]) == 2
    assert "std_da state, which trains no G_T" in capsys.readouterr().err
    assert not (out / "embeddings.csv").exists()
    assert not out.exists()


@pytest.mark.parametrize("command", ["adapt", "eval", "export"])
def test_an_unknown_eval_key_is_refused_before_any_work(pipeline, tmp_path, capsys, command):
    cfg = _write_json(tmp_path / "typo.json", {"ada": {"n_steps": 5}, "eval": {"n_sample": 1}})
    ada = ["--ada", str(pipeline["ada"] / "ada_state.ckpt")] if command != "adapt" else []
    assert main([command, "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--out", str(tmp_path / "out")] + ada) == 2
    assert "unknown eval keys: ['n_sample']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_export_fails_on_a_nonfinite_base_model(pipeline, tmp_path, capsys):
    bundle = load_dataset(pipeline["world"])
    model = load_base_model(pipeline["pre"] / "base_model.ckpt", bundle.attributes)
    model.mean_net.params[0] = np.nan
    save_base_model(tmp_path / "nan.ckpt", model)
    assert main(["export", "--data", str(pipeline["world"]),
                 "--base", str(tmp_path / "nan.ckpt"), "--out", str(tmp_path / "out")]) == 3
    assert "class 4: non-finite Gaussian" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_rejects_swapped_checkpoints(pipeline, tmp_path, capsys):
    assert main(["eval", "--data", str(pipeline["world"]),
                 "--base", str(pipeline["ada"] / "ada_state.ckpt"),
                 "--ada", str(pipeline["pre"] / "base_model.ckpt"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "base-model checkpoint" in capsys.readouterr().err


@pytest.fixture(scope="module")
def other_world(pipeline):
    """A world with more seen and fewer unseen classes than the fixture's
    (unseen ids 5-6 against 4-6), and an untrained base model for it."""
    root = pipeline["root"] / "other"
    spec_cfg = _write_json(pipeline["root"] / "other_spec.json",
                           {**WORLD_SPEC, "S": 5, "U": 2, "samples_per_class": 20})
    assert main(["synth", "--config", spec_cfg, "--out", str(root / "world")]) == 0
    bundle = load_dataset(root / "world")
    save_base_model(root / "base_model.ckpt",
                    build_base_model(bundle.attributes, bundle.dataset.dim,
                                     profile="synth-small", seed=0))
    return root


@pytest.mark.parametrize("command", ["eval", "export"])
def test_ada_adapted_on_other_unseen_classes_is_refused(pipeline, other_world, tmp_path,
                                                        capsys, command):
    assert main([command, "--data", str(other_world / "world"),
                 "--base", str(other_world / "base_model.ckpt"),
                 "--ada", str(pipeline["ada"] / "ada_state.ckpt"),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "[4, 5, 6]" in err and "[5, 6]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("metric, variant, message", [
    ("m1", None, "--metric m1 needs --ada PATH"),
    ("m2", "std-da", "--metric m2: a std_da state has no M2")])
def test_eval_refuses_a_metric_it_cannot_score_before_creating_out(
        pipeline, tmp_path, capsys, metric, variant, message):
    base = ["--data", str(pipeline["world"]), "--base", str(pipeline["pre"] / "base_model.ckpt")]
    ada = []
    if variant:
        cfg = _write_json(tmp_path / "short.json", {"ada": {"n_steps": 5}})
        assert main(["adapt", "--config", cfg, *base, "--variant", variant,
                     "--out", str(tmp_path / variant)]) == 0
        ada = ["--ada", str(tmp_path / variant / "ada_state.ckpt")]
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["eval", *base, *ada, "--metric", metric, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("metric", ["m1", "all"])
def test_eval_refuses_an_untrained_classifier_before_creating_out(pipeline, tmp_path, capsys,
                                                                 metric):
    meta, arrays = load_container(pipeline["ada"] / "ada_state.ckpt")
    save_container(tmp_path / "untrained.ckpt", {**meta, "iteration": 0}, arrays)
    out = tmp_path / "out"
    assert main(["eval", "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--ada", str(tmp_path / "untrained.ckpt"), "--metric", metric,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: classifier has not been trained yet\n"
    assert not out.exists()


def test_eval_metric_needs_matching_checkpoint(pipeline, tmp_path, capsys):
    assert main(["eval", "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--metric", "m1", "--out", str(tmp_path / "out")]) == 2
    assert "--ada" in capsys.readouterr().err


def test_unknown_metric_flag_rejected(pipeline, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--data", str(pipeline["world"]),
              "--base", str(pipeline["pre"] / "base_model.ckpt"),
              "--metric", "m3", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--profile", "cub"), ("synth", "--data", "/nonexistent"),
    ("eval", "--seed", "7"), ("eval", "--profile", "awa"),
    ("export", "--seed", "7"), ("export", "--profile", "awa"),
])
def test_a_command_refuses_flags_it_does_not_read(tmp_path, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_unknown_metric_in_config_rejected(pipeline, tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"metric": "m3"})
    assert main(["eval", "--config", cfg, "--data", str(pipeline["world"]),
                 "--base", str(pipeline["pre"] / "base_model.ckpt"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "unknown metric" in capsys.readouterr().err


def test_bad_thread_env_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZSLADA_THREADS", "many")
    cfg = _write_json(tmp_path / "spec.json", WORLD_SPEC)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "w")]) == 2
    assert "ZSLADA_THREADS" in capsys.readouterr().err
