"""End-to-end command-line runs on a small synthetic world."""
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from zslada.cli import main

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


# ---------------------------------------------------------------- errors


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


def test_eval_rejects_swapped_checkpoints(pipeline, tmp_path, capsys):
    assert main(["eval", "--data", str(pipeline["world"]),
                 "--base", str(pipeline["ada"] / "ada_state.ckpt"),
                 "--ada", str(pipeline["pre"] / "base_model.ckpt"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "base-model checkpoint" in capsys.readouterr().err


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
