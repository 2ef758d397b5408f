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

from .ada import VARIANTS, adapt, load_ada_state, save_ada_state, transformed_draws
from .base_model import (class_params_matrix, draw_gaussian, load_base_model, pretrain,
                         pseudo_labels, sample_stream, save_base_model)
from .data import DatasetBundle, export_embeddings, load_dataset
from .errors import ConfigError, DataError, NonFiniteGradient, NumericalDivergence, ZsladaError
from .metrics import (eval_workers, inductive_accuracy, lacks_metric, m1_accuracy,
                      m2_accuracy, write_report_csv)
from .profiles import PROFILE_NAMES, ada_profile, build_base_model, pretrain_config
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
        spec = SyntheticWorldSpec.from_dict(cfg["world"])
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


def _eval_settings(cfg: dict, n_samples: int = 10000) -> tuple[int, int]:
    """``(n_samples, seed)`` of the config's ``eval`` block; refuses fewer
    than one draw per class."""
    eval_cfg = cfg.get("eval", {})
    n = int(eval_cfg.get("n_samples", n_samples))
    if n < 1:
        raise ConfigError(f"need n >= 1 draws, got {n}")
    return n, int(eval_cfg.get("seed", 0))


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
    spec = SyntheticWorldSpec.from_dict(payload)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return spec


def _merge(profile_cfg, file_dict: dict | None):
    if not file_dict:
        return profile_cfg
    known = {f.name for f in dataclasses.fields(profile_cfg)}
    bad = sorted(set(file_dict) - known)
    if bad:
        raise ConfigError(f"unknown config keys: {', '.join(bad)}")
    return dataclasses.replace(profile_cfg, **file_dict)


def cmd_synth(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    spec = _world_spec(cfg, args.seed)
    out = _out_dir(args, cfg, "synth")
    world = make_synthetic_world(spec)
    save_synthetic_world(out, world)
    _write_snapshot(out, {"command": "synth", "world": spec.to_dict(),
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


def cmd_pretrain(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    profile = args.profile or cfg.get("profile") or "synth-small"
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out = _out_dir(args, cfg, "pretrain")
    data, bundle = _load_bundle(args, cfg)
    train_cfg = _merge(pretrain_config(profile, seed=seed), cfg.get("pretrain"))

    ckpt = out / "base_model.ckpt"
    if ckpt.exists():
        model = load_base_model(ckpt, bundle.attributes)
        print(f"loaded existing checkpoint {ckpt}")
    else:
        model = build_base_model(bundle.attributes, bundle.dataset.dim,
                                 profile=profile, seed=seed)
        model, trace = pretrain(model, bundle.dataset, train_cfg)
        out.mkdir(parents=True, exist_ok=True)
        save_base_model(ckpt, model)
        with open(out / "loss_trace.csv", "w") as fh:
            fh.write("epoch,train_loglik,heldout_loglik\n")
            for epoch, tr, he in trace:
                fh.write(f"{epoch},{tr!r},{he!r}\n")
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


def cmd_adapt(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    profile = args.profile or cfg.get("profile") or "synth-small"
    out = _out_dir(args, cfg, "adapt")
    data, bundle = _load_bundle(args, cfg)
    base_path, model = _load_base(args, cfg, bundle, "adapt")

    ada_cfg = _merge(ada_profile(profile), cfg.get("ada"))
    if args.variant:
        ada_cfg = dataclasses.replace(ada_cfg, variant=_VARIANT_FLAGS[args.variant])
    if args.seed is not None:
        # default stays the config/profile seed (100) when the flag is unset
        ada_cfg = dataclasses.replace(ada_cfg, seed=args.seed)
    n_samples, eval_seed = _eval_settings(cfg)

    state, log = adapt(model, bundle.dataset, ada_cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_ada_state(out / "ada_state.ckpt", state, ada_cfg)
    with open(out / "training_log.csv", "w") as fh:
        fh.write("iter,L_adv_T,L_adv_S,L_cyc,L_clf_T,L_clf_S,phase\n")
        for row in log:
            vals = ",".join(repr(float(v)) for v in row[1:6])
            fh.write(f"{row[0]},{vals},{row[6]}\n")

    m1 = m2 = None
    if not lacks_metric(state.variant, "m1"):
        m1 = m1_accuracy(state, bundle.dataset).mean_per_class_acc
    if not lacks_metric(state.variant, "m2"):
        m2 = m2_accuracy(state, model, bundle.dataset,
                         n_samples=n_samples, seed=eval_seed).mean_per_class_acc
    agreement = state.agreement_estimate
    with open(out / "summary.csv", "w") as fh:
        fh.write("metric,value\n")
        fh.write(f"pseudo_label_agreement,{'NA' if agreement is None else repr(agreement)}\n")
        fh.write(f"M1,{'NA' if m1 is None else repr(m1)}\n")
        fh.write(f"M2,{'NA' if m2 is None else repr(m2)}\n")
    _write_snapshot(out, {"command": "adapt", "profile": profile,
                          "data": data,
                          "world": cfg.get("world"), "base": str(base_path),
                          "ada": ada_cfg.to_dict(), "out": str(out),
                          "eval": {"n_samples": n_samples, "seed": eval_seed}})
    agree_s = "NA" if agreement is None else f"{agreement:.4f}"
    print(f"variant {state.variant}, final phase {state.phase}")
    print(f"pseudo-label agreement: {agree_s}")
    print(f"M1: {_fmt_metric(m1)}")
    print(f"M2: {_fmt_metric(m2)}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    out = _out_dir(args, cfg, "eval")
    metric = args.metric or cfg.get("metric") or "all"
    if metric not in METRIC_CHOICES:
        raise ConfigError(f"unknown metric {metric!r}, expected one of {METRIC_CHOICES}")
    data, bundle = _load_bundle(args, cfg)
    base_path, model = _load_base(args, cfg, bundle, "eval")
    ada_path, state = _load_ada(args, cfg, bundle)
    n_samples, eval_seed = _eval_settings(cfg)

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
                                     n_samples=n_samples, seed=eval_seed)
        path = out / f"report_{name}.csv"
        write_report_csv(report, path)
        written.append(path.name)
        print(f"{name} mean per-class: {report.mean_per_class_acc:.4f}")
    _write_snapshot(out, {"command": "eval", "metric": metric,
                          "data": data,
                          "world": cfg.get("world"), "base": str(base_path),
                          "ada_state": str(ada_path) if ada_path else None,
                          "eval": {"n_samples": n_samples, "seed": eval_seed},
                          "out": str(out), "reports": written})
    return 0


def cmd_export(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    out = _out_dir(args, cfg, "export")
    data, bundle = _load_bundle(args, cfg)
    base_path, model = _load_base(args, cfg, bundle, "export")
    ada_path, state = _load_ada(args, cfg, bundle)
    n, seed = _eval_settings(cfg, n_samples=200)
    X, labels = bundle.dataset.test_rows()
    unseen = model.attribute_table.unseen_ids
    # one Gaussian table in id order, the state's unseen order when given
    ids = sorted(unseen)
    table = class_params_matrix(model, ids)
    if labels is None:
        labels = pseudo_labels(model, bundle.dataset, table).labels
    gen_labels = np.repeat(np.asarray(unseen, dtype=np.int64), n)
    generated = np.empty((gen_labels.size, model.dim))
    matrices = {"real": X, "generated": generated}
    label_map = {"real": labels, "generated": gen_labels}
    if state is not None:
        matrices["transformed"] = transformed = np.empty_like(generated)
        label_map["transformed"] = gen_labels
    # each unseen class in table order; its draws and their G_T rows stream
    # into the preallocated matrices chunk by chunk
    for k, cid in enumerate(unseen):
        j = ids.index(cid)
        if state is None:
            generated[k * n:(k + 1) * n] = draw_gaussian(table[0][j], table[1][j], n,
                                                         sample_stream(seed, cid))
            continue
        start = k * n
        for draws, moved in transformed_draws(state, table, j, n, seed):
            stop = start + draws.shape[0]
            generated[start:stop] = draws
            transformed[start:stop] = moved
            start = stop
    out.mkdir(parents=True, exist_ok=True)
    path = out / "embeddings.csv"
    export_embeddings(matrices, label_map, path)
    _write_snapshot(out, {"command": "export", "data": data,
                          "world": cfg.get("world"), "base": str(base_path),
                          "ada_state": str(ada_path) if ada_path else None,
                          "eval": {"n_samples": n, "seed": seed}, "out": str(out)})
    print(f"embeddings written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zslada",
        description="attribute-conditioned zero-shot classifier with "
                    "cycle-consistent adversarial adaptation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_variant=False, with_metric=False, with_ckpts=False):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory")
        p.add_argument("--profile", choices=PROFILE_NAMES)
        p.add_argument("--data", help="dataset directory")
        if with_ckpts:
            p.add_argument("--base", help="pretrained base-model checkpoint")
            p.add_argument("--ada", help="adapted-state checkpoint")
        if with_variant:
            p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS))
        if with_metric:
            p.add_argument("--metric", choices=METRIC_CHOICES)

    p = sub.add_parser("synth", help="write a synthetic benchmark world")
    common(p)
    p.set_defaults(fn=cmd_synth)
    p = sub.add_parser("pretrain", help="fit the attribute-conditioned Gaussians")
    common(p)
    p.set_defaults(fn=cmd_pretrain)
    p = sub.add_parser("adapt", help="adversarial adaptation on unlabeled test data")
    common(p, with_variant=True)
    p.add_argument("--base", help="pretrained base-model checkpoint")
    p.set_defaults(fn=cmd_adapt)
    p = sub.add_parser("eval", help="write per-class accuracy reports")
    common(p, with_metric=True, with_ckpts=True)
    p.set_defaults(fn=cmd_eval)
    p = sub.add_parser("export", help="dump real/generated/transformed embeddings")
    common(p, with_ckpts=True)
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        eval_workers()  # fail fast on a bad ZSLADA_THREADS value
        return args.fn(args)
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
