"""Subcommand front-end: synthesize worlds, pretrain, adapt, evaluate, export.

Precedence for every setting is profile defaults, then the ``--config``
JSON file, then explicit flags.  Each run writes a resolved-config
snapshot next to its outputs so it can be replayed byte-for-byte.
Exit codes: 0 success, 2 user/config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .ada import (LOG_COLUMNS, VARIANTS, AdaConfig, adapt, load_ada_state, save_ada_state,
                  transformed_draws)
from .base_model import (PretrainConfig, class_params_matrix, load_base_model, pretrain,
                         pseudo_labels, save_base_model)
from .data import DatasetBundle, export_embeddings, load_dataset, write_csv
from .errors import ConfigError, DataError, NonFiniteGradient, NumericalDivergence, ZsladaError
from .metrics import (eval_workers, inductive_accuracy, lacks_metric, m1_accuracy,
                      m2_accuracy, write_report_csv)
from .profiles import PROFILE_NAMES, ada_profile, build_base_model, pretrain_config
from .settings import from_dict
from .synthetic import SyntheticWorldSpec, make_synthetic_world, save_synthetic_world

METRIC_CHOICES = ("inductive", "m1", "m2", "all")

# flag spelling uses dashes; config files and the library use underscores
_VARIANT_FLAGS = {v.replace("_", "-"): v for v in VARIANTS}


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise DataError("MISSING_FILE", f"no such file: {path}")
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return payload


def _out_dir(args, cfg: dict, command: str) -> Path:
    # Path("") renders as "." and would pass a truthiness check on the Path
    raw = args.out or cfg.get("out")
    if not raw:
        raise ConfigError(f"{command} needs --out DIR")
    return Path(raw)


def _write_snapshot(out_dir: Path, resolved: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def _load_bundle(args, cfg: dict) -> tuple[str | None, DatasetBundle]:
    """The dataset: ``--data`` over the config's ``data``, else its world.
    Returns the directory it loaded (``None`` for a world) with it, so the
    snapshot records the data the run used."""
    data = args.data or cfg.get("data")
    if data:
        return data, load_dataset(data)
    if cfg.get("world"):
        spec = from_dict(SyntheticWorldSpec, cfg["world"], "synthetic-world")
        world = make_synthetic_world(spec)
        return None, world.bundle
    raise ConfigError("need a dataset: pass --data DIR or a 'world' spec in --config")


def _load_base(args, cfg: dict, bundle: DatasetBundle, command: str):
    """The required ``--base`` checkpoint: its path and the model."""
    path = args.base or cfg.get("base")
    if not path:
        raise ConfigError(f"{command} needs --base PATH to a pretrained checkpoint")
    return path, load_base_model(path, bundle.attributes)


def _load_ada(args, cfg: dict, bundle: DatasetBundle):
    """The optional ``--ada`` checkpoint: its path and state, or two Nones.
    Refuses a state adapted on other unseen classes than the dataset's."""
    path = args.ada or cfg.get("ada_state")
    state = load_ada_state(path)[0] if path else None
    unseen = sorted(bundle.attributes.unseen_ids)
    if state is not None and state.unseen_ids != unseen:
        raise DataError("BAD_CHECKPOINT", f"{path} was adapted on unseen classes "
                        f"{state.unseen_ids}, the dataset's are {unseen}")
    return path, state


@dataclasses.dataclass(frozen=True)
class EvalSettings:
    """The ``eval`` block: draws per unseen class and their seed, for M2's
    prototypes and for exported embeddings."""

    n_samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("n_samples", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"eval key {key!r} must be an integer, got {value!r}")
        if self.n_samples < 1:
            raise ConfigError(f"need n >= 1 draws, got {self.n_samples}")


def _world_spec(cfg: dict, seed: int | None) -> SyntheticWorldSpec:
    payload = cfg.get("world")
    if payload is None:
        # bare spec file: drop run-level keys, keep world keys ("seed" is both,
        # and in a bare spec it belongs to the world)
        payload = {k: v for k, v in cfg.items()
                   if k not in ("data", "profile", "out", "ada", "pretrain",
                                "eval", "base", "ada_state", "metric")}
    if not payload:
        raise ConfigError("synth needs a world spec in --config")
    spec = from_dict(SyntheticWorldSpec, payload, "synthetic-world")
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return spec


def cmd_synth(args, cfg: dict) -> int:
    spec = _world_spec(cfg, args.seed)
    out = _out_dir(args, cfg, "synth")
    world = make_synthetic_world(spec)
    save_synthetic_world(out, world)
    _write_snapshot(out, {"command": "synth", "world": dataclasses.asdict(spec),
                          "out": str(out)})
    print(f"world written to {out} "
          f"({spec.n_classes} classes, {spec.samples_per_class} samples/class)")
    return 0


def _report_lines(report) -> list[str]:
    lines = []
    for cid, acc in sorted(report.per_class_acc.items()):
        lines.append(f"  class {cid}: {acc:.4f} (n={report.n_per_class[cid]})")
    lines.append(f"  mean per-class: {report.mean_per_class_acc:.4f}")
    return lines


def cmd_pretrain(args, cfg: dict) -> int:
    profile = args.profile or cfg.get("profile") or "synth-small"
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out = _out_dir(args, cfg, "pretrain")
    data, bundle = _load_bundle(args, cfg)
    train_cfg = from_dict(PretrainConfig, cfg.get("pretrain") or {}, "pretrain config",
                          base=pretrain_config(profile, seed=seed))

    ckpt = out / "base_model.ckpt"
    if ckpt.exists():
        model = load_base_model(ckpt, bundle.attributes, pretrain=train_cfg)
        print(f"loaded existing checkpoint {ckpt}")
    else:
        model = build_base_model(bundle.attributes, bundle.dataset.dim,
                                 profile=profile, seed=seed)
        model, trace = pretrain(model, bundle.dataset, train_cfg)
        out.mkdir(parents=True, exist_ok=True)
        save_base_model(ckpt, model, pretrain=train_cfg)
        write_csv(out / "loss_trace.csv", ("epoch", "train_loglik", "heldout_loglik"), trace)
    report = inductive_accuracy(model, bundle.dataset)
    write_report_csv(report, out / "report_inductive.csv")
    _write_snapshot(out, {"command": "pretrain", "profile": profile,
                          "seed": seed, "data": data,
                          "world": cfg.get("world"),
                          "pretrain": dataclasses.asdict(train_cfg),
                          "out": str(out)})
    print("inductive per-class unseen accuracy:")
    print("\n".join(_report_lines(report)))
    return 0


def _fmt_metric(value) -> str:
    return "NA" if value is None else f"{value:.4f}"


def cmd_adapt(args, cfg: dict) -> int:
    profile = args.profile or cfg.get("profile") or "synth-small"
    out = _out_dir(args, cfg, "adapt")
    data, bundle = _load_bundle(args, cfg)
    base_path, model = _load_base(args, cfg, bundle, "adapt")

    ada_cfg = from_dict(AdaConfig, cfg.get("ada") or {}, "adaptation config",
                        base=ada_profile(profile))
    if args.variant:
        ada_cfg = dataclasses.replace(ada_cfg, variant=_VARIANT_FLAGS[args.variant])
    if args.seed is not None:
        # default stays the config/profile seed (100) when the flag is unset
        ada_cfg = dataclasses.replace(ada_cfg, seed=args.seed)
    evals = from_dict(EvalSettings, cfg.get("eval") or {}, "eval",
                      base=EvalSettings(10_000))

    state, log = adapt(model, bundle.dataset, ada_cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_ada_state(out / "ada_state.ckpt", state, ada_cfg)
    write_csv(out / "training_log.csv", LOG_COLUMNS, log)

    m1 = m2 = None
    if not lacks_metric(state.variant, "m1"):
        m1 = m1_accuracy(state, bundle.dataset).mean_per_class_acc
    if not lacks_metric(state.variant, "m2"):
        m2 = m2_accuracy(state, model, bundle.dataset,
                         n_samples=evals.n_samples, seed=evals.seed).mean_per_class_acc
    agreement = state.agreement_estimate
    write_csv(out / "summary.csv", ("metric", "value"),
              [("pseudo_label_agreement", agreement), ("M1", m1), ("M2", m2)])
    _write_snapshot(out, {"command": "adapt", "profile": profile,
                          "data": data,
                          "world": cfg.get("world"), "base": str(base_path),
                          "ada": dataclasses.asdict(ada_cfg), "out": str(out),
                          "eval": dataclasses.asdict(evals)})
    agree_s = "NA" if agreement is None else f"{agreement:.4f}"
    print(f"variant {state.variant}, final phase {state.phase}")
    if state.empty_pseudo_ids:
        print(f"unseen classes with no pseudo-labelled test row: {state.empty_pseudo_ids}")
    print(f"pseudo-label agreement: {agree_s}")
    print(f"M1: {_fmt_metric(m1)}")
    print(f"M2: {_fmt_metric(m2)}")
    return 0


def cmd_eval(args, cfg: dict) -> int:
    out = _out_dir(args, cfg, "eval")
    metric = args.metric or cfg.get("metric") or "all"
    if metric not in METRIC_CHOICES:
        raise ConfigError(f"unknown metric {metric!r}, expected one of {METRIC_CHOICES}")
    data, bundle = _load_bundle(args, cfg)
    base_path, model = _load_base(args, cfg, bundle, "eval")
    ada_path, state = _load_ada(args, cfg, bundle)
    evals = from_dict(EvalSettings, cfg.get("eval") or {}, "eval",
                      base=EvalSettings(10_000))

    wanted = ("inductive", "m1", "m2") if metric == "all" else (metric,)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in wanted:
        if name == "inductive":
            report = inductive_accuracy(model, bundle.dataset)
        else:
            if state is None:
                if metric == "all":
                    print(f"{name}: NA (no adapted checkpoint given)")
                    continue
                raise ConfigError(f"--metric {name} needs --ada PATH")
            if metric == "all" and lacks_metric(state.variant, name):
                print(f"{name}: NA (variant {state.variant})")
                continue
            if name == "m1":
                report = m1_accuracy(state, bundle.dataset)
            else:
                report = m2_accuracy(state, model, bundle.dataset,
                                     n_samples=evals.n_samples, seed=evals.seed)
        path = out / f"report_{name}.csv"
        write_report_csv(report, path)
        written.append(path.name)
        print(f"{name} mean per-class: {report.mean_per_class_acc:.4f}")
    _write_snapshot(out, {"command": "eval", "metric": metric,
                          "data": data,
                          "world": cfg.get("world"), "base": str(base_path),
                          "ada_state": str(ada_path) if ada_path else None,
                          "eval": dataclasses.asdict(evals),
                          "out": str(out), "reports": written})
    return 0


def cmd_export(args, cfg: dict) -> int:
    out = _out_dir(args, cfg, "export")
    data, bundle = _load_bundle(args, cfg)
    base_path, model = _load_base(args, cfg, bundle, "export")
    ada_path, state = _load_ada(args, cfg, bundle)
    if state is not None and lacks_metric(state.variant, "m2"):
        raise ConfigError(f"{ada_path} holds a {state.variant} state, which trains no G_T: "
                          f"it has no transformed rows to export")
    evals = from_dict(EvalSettings, cfg.get("eval") or {}, "eval", base=EvalSettings(200))
    n, seed = evals.n_samples, evals.seed
    X, labels = bundle.dataset.test_rows()
    unseen = model.attribute_table.unseen_ids
    # one Gaussian table in id order, the state's unseen order when given
    ids = sorted(unseen)
    table = class_params_matrix(model, ids)
    if labels is None:
        labels = pseudo_labels(model, bundle.dataset, table)[0]
    gen_labels = np.repeat(np.asarray(unseen, dtype=np.int64), n)
    generated = np.empty((gen_labels.size, model.dim))
    matrices = {"real": X, "generated": generated}
    label_map = {"real": labels, "generated": gen_labels}
    if state is not None:
        matrices["transformed"] = transformed = np.empty_like(generated)
        label_map["transformed"] = gen_labels
    # the draws, and their G_T rows when a state is given, stream into the
    # preallocated matrices block by block; class index j's rows start at
    # its place in the attribute table's order
    blocks = transformed_draws(ids, table, n, seed, None if state is None else state.g_t)
    start = [unseen.index(cid) * n for cid in ids]
    for draws, moved, segments in blocks:
        for j, lo, hi in segments:
            stop = start[j] + hi - lo
            generated[start[j]:stop] = draws[lo:hi]
            if moved is not None:
                transformed[start[j]:stop] = moved[lo:hi]
            start[j] = stop
    out.mkdir(parents=True, exist_ok=True)
    path = out / "embeddings.csv"
    export_embeddings(matrices, label_map, path)
    _write_snapshot(out, {"command": "export", "data": data,
                          "world": cfg.get("world"), "base": str(base_path),
                          "ada_state": str(ada_path) if ada_path else None,
                          "eval": dataclasses.asdict(evals), "out": str(out)})
    print(f"embeddings written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zslada",
        description="attribute-conditioned zero-shot classifier with "
                    "cycle-consistent adversarial adaptation")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes --config and --out, and the flags it reads
    flags = {
        "--seed": dict(type=int, default=None),
        "--profile": dict(choices=PROFILE_NAMES),
        "--data": dict(help="dataset directory"),
        "--base": dict(help="pretrained base-model checkpoint"),
        "--ada": dict(help="adapted-state checkpoint"),
        "--variant": dict(choices=sorted(_VARIANT_FLAGS)),
        "--metric": dict(choices=METRIC_CHOICES),
    }
    for name, fn, help_text, own in (
            ("synth", cmd_synth, "write a synthetic benchmark world", ("--seed",)),
            ("pretrain", cmd_pretrain, "fit the attribute-conditioned Gaussians",
             ("--seed", "--profile", "--data")),
            ("adapt", cmd_adapt, "adversarial adaptation on unlabeled test data",
             ("--seed", "--profile", "--data", "--base", "--variant")),
            ("eval", cmd_eval, "write per-class accuracy reports",
             ("--data", "--base", "--ada", "--metric")),
            ("export", cmd_export, "dump real/generated/transformed embeddings",
             ("--data", "--base", "--ada"))):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--out", help="output directory")
        for flag in own:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        eval_workers()  # fail fast on a bad ZSLADA_THREADS value
        return args.fn(args, _load_json(args.config) if args.config else {})
    except (NumericalDivergence, NonFiniteGradient) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ZsladaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # contract: never panic to the shell
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
