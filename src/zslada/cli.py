"""Subcommand front-end: synthesize worlds, pretrain, adapt, evaluate, export.

Precedence for every setting is profile defaults, then the ``--config``
JSON file, then explicit flags.  Each command's top-level ``--config``
keys are the fields of its class in :data:`RUNS`, and the other stages'
blocks, which it lets through unread: an unknown key, or a value of
another type, is refused by name before any work, as an unknown flag is.
Each run writes a resolved-config snapshot of the same class next to its
outputs, so it can be replayed byte-for-byte.
Exit codes: 0 success, 2 user/config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .ada import (LOG_COLUMNS, VARIANTS, AdaConfig, adapt, augmented_draws, load_ada_state,
                  save_ada_state)
from .base_model import (PretrainConfig, class_params_matrix, load_base_model, pretrain,
                         pseudo_labels, save_base_model)
from .data import DatasetBundle, export_embeddings, load_dataset, write_csv
from .errors import ConfigError, DataError, NonFiniteGradient, NumericalDivergence, ZsladaError
from .metrics import (eval_workers, inductive_accuracy, lacks_metric, m1_accuracy,
                      m2_accuracy, write_report_csv)
from .nn.mlp import forward_eval
from .profiles import PROFILE_NAMES, ada_profile, build_base_model, pretrain_config
from .settings import from_dict
from .synthetic import SyntheticWorldSpec, make_synthetic_world, save_synthetic_world

METRIC_CHOICES = ("inductive", "m1", "m2", "all")

# flag spelling uses dashes; config files and the library use underscores
_VARIANT_FLAGS = {v.replace("_", "-"): v for v in VARIANTS}


def _load_json(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError("MISSING_FILE", f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return payload


# Every top-level --config key: its type and default.  A block (world,
# pretrain, ada, eval) is an object that the command using it reads into
# its own settings class, against the profile's defaults.
_RUN_KEYS = {**dict.fromkeys(("command", "out", "data", "base", "ada_state"), (str | None, None)),
             **dict.fromkeys(("world", "pretrain", "ada", "eval"), (dict | None, None)),
             "profile": (str, "synth-small"), "seed": (int, 0), "metric": (str, "all"),
             "reports": (tuple[str, ...], ())}
# Each command's run settings: the keys its --config takes and its
# snapshot records, read through the settings codec.
RUNS = {command: dataclasses.make_dataclass(
            f"{command.capitalize()}Run",
            [(key, _RUN_KEYS[key][0], dataclasses.field(default=_RUN_KEYS[key][1]))
             for key in ("command", "out", "world", *keys)], frozen=True)
        for command, keys in (
            ("synth", ()), ("pretrain", ("data", "profile", "seed", "pretrain")),
            ("adapt", ("data", "profile", "base", "ada", "eval")),
            ("eval", ("data", "base", "ada_state", "eval", "metric", "reports")),
            ("export", ("data", "base", "ada_state", "eval")))}


def _read_run(args, cfg: dict):
    """The ``--config`` object read as the command's run, past the stage
    blocks it does not read, then each flag given over its key.  A bare
    world spec stands for a ``synth`` config's ``world`` ("seed" included)."""
    if args.command == "synth" and "world" not in cfg:
        world = {f.name for f in dataclasses.fields(SyntheticWorldSpec)}
        cfg = {**{k: v for k, v in cfg.items() if k not in world},
               "world": {k: v for k, v in cfg.items() if k in world} or None}
    own = {f.name for f in dataclasses.fields(RUNS[args.command])}
    # one run config may hold the block of every stage; a command reads its own
    cfg = {k: v for k, v in cfg.items() if k in own or k not in ("pretrain", "ada", "eval")}
    run = from_dict(RUNS[args.command], cfg, f"{args.command} --config")
    # each flag's dest is the key it sets
    return dataclasses.replace(run, **{k: v for k, v in vars(args).items()
                                       if k in own and v is not None})


def _out_dir(run) -> Path:
    # Path("") renders as "." and would pass a truthiness check on the Path
    if not run.out:
        raise ConfigError(f"{run.command} needs --out DIR")
    return Path(run.out)


def _write_snapshot(out_dir: Path, run, **resolved) -> None:
    """``run`` and the settings the command resolved, as ``--config`` JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = dataclasses.asdict(dataclasses.replace(run, out=str(out_dir), **resolved))
    (out_dir / "resolved_config.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


def _load_bundle(run) -> DatasetBundle:
    """The dataset: ``--data`` over the config's ``data``, else its world."""
    if run.data:
        return load_dataset(run.data)
    if run.world:
        return make_synthetic_world(from_dict(SyntheticWorldSpec, run.world,
                                              "synthetic-world")).bundle
    raise ConfigError("need a dataset: pass --data DIR or a 'world' spec in --config")


def _load_inputs(run):
    """The dataset, the required ``--base`` checkpoint's model and the
    optional ``--ada`` checkpoint's state (``None`` without one; ``adapt``
    takes none).  Refuses a state adapted on other unseen classes than the
    dataset's, or whose pseudo-labels are not one per test row."""
    bundle = _load_bundle(run)
    if not run.base:
        raise ConfigError(f"{run.command} needs --base PATH to a pretrained checkpoint")
    model = load_base_model(run.base, bundle.attributes)
    path = getattr(run, "ada_state", None)
    state = load_ada_state(path)[0] if path else None
    unseen = sorted(bundle.attributes.unseen_ids)
    if state is not None and state.unseen_ids != unseen:
        raise DataError("BAD_CHECKPOINT", f"{path} was adapted on unseen classes "
                        f"{state.unseen_ids}, the dataset's are {unseen}")
    n_test = len(bundle.dataset.split.test_row_indices)
    if state is not None and state.pseudo is not None and state.pseudo.size != n_test:
        raise DataError("BAD_CHECKPOINT", f"{path}: array 'pseudo' holds {state.pseudo.size} "
                        f"entries, not one for each of the dataset's {n_test} test rows")
    return bundle, model, state


@dataclasses.dataclass(frozen=True)
class EvalSettings:
    """The ``eval`` block: draws per unseen class and their seed, for M2's
    prototypes and for exported embeddings."""

    n_samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigError(f"need n >= 1 draws, got {self.n_samples}")


def cmd_synth(args, run) -> int:
    if not run.world:
        raise ConfigError("synth needs a world spec in --config")
    spec = from_dict(SyntheticWorldSpec, run.world, "synthetic-world")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out = _out_dir(run)
    save_synthetic_world(out, make_synthetic_world(spec))
    _write_snapshot(out, run, world=dataclasses.asdict(spec))
    print(f"world written to {out} "
          f"({spec.n_classes} classes, {spec.samples_per_class} samples/class)")
    return 0


def cmd_pretrain(args, run) -> int:
    out = _out_dir(run)
    train_cfg = from_dict(PretrainConfig, run.pretrain or {}, "pretrain config",
                          base=pretrain_config(run.profile, seed=run.seed))
    bundle = _load_bundle(run)

    ckpt = out / "base_model.ckpt"
    if ckpt.exists():
        model = load_base_model(ckpt, bundle.attributes, pretrain=train_cfg)
        print(f"loaded existing checkpoint {ckpt}")
    else:
        model = build_base_model(bundle.attributes, bundle.dataset.dim,
                                 profile=run.profile, seed=run.seed)
        model, trace = pretrain(model, bundle.dataset, train_cfg)
        out.mkdir(parents=True, exist_ok=True)
        save_base_model(ckpt, model, pretrain=train_cfg)
        write_csv(out / "loss_trace.csv", ("epoch", "train_loglik", "heldout_loglik"), trace)
    report = inductive_accuracy(model, bundle.dataset)
    write_report_csv(report, out / "report_inductive.csv")
    _write_snapshot(out, run, pretrain=dataclasses.asdict(train_cfg))
    print("inductive per-class unseen accuracy:")
    for cid, acc in sorted(report.per_class_acc.items()):
        print(f"  class {cid}: {acc:.4f} (n={report.n_per_class[cid]})")
    print(f"  mean per-class: {report.mean_per_class_acc:.4f}")
    return 0


def cmd_adapt(args, run) -> int:
    out = _out_dir(run)
    ada_cfg = from_dict(AdaConfig, run.ada or {}, "adaptation config",
                        base=ada_profile(run.profile))
    flags = {"variant": _VARIANT_FLAGS.get(args.variant), "seed": args.seed}
    ada_cfg = dataclasses.replace(ada_cfg, **{k: v for k, v in flags.items() if v is not None})
    evals = from_dict(EvalSettings, run.eval or {}, "eval", base=EvalSettings(10_000))
    bundle, model, _ = _load_inputs(run)

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
    _write_snapshot(out, run, ada=dataclasses.asdict(ada_cfg), eval=dataclasses.asdict(evals))
    print(f"variant {state.variant}, final phase {state.phase}")
    if state.empty_pseudo_ids:
        print(f"unseen classes with no pseudo-labelled test row: {state.empty_pseudo_ids}")
    for name, value in (("pseudo-label agreement", agreement), ("M1", m1), ("M2", m2)):
        print(f"{name}: {'NA' if value is None else f'{value:.4f}'}")
    return 0


def cmd_eval(args, run) -> int:
    out = _out_dir(run)
    if run.metric not in METRIC_CHOICES:
        raise ConfigError(f"unknown metric {run.metric!r}, expected one of {METRIC_CHOICES}")
    if run.metric in ("m1", "m2") and not run.ada_state:
        raise ConfigError(f"--metric {run.metric} needs --ada PATH")
    evals = from_dict(EvalSettings, run.eval or {}, "eval", base=EvalSettings(10_000))
    bundle, model, state = _load_inputs(run)
    if state is not None and run.metric != "all" and lacks_metric(state.variant, run.metric):
        raise ConfigError(f"--metric {run.metric}: a {state.variant} state has no "
                          f"{run.metric.upper()}")

    wanted = ("inductive", "m1", "m2") if run.metric == "all" else (run.metric,)
    # every report is computed, and any refusal raised, before --out is made
    reports = {}
    for name in wanted:
        if name == "inductive":
            reports[name] = inductive_accuracy(model, bundle.dataset)
        elif state is None or lacks_metric(state.variant, name):
            why = "no adapted checkpoint given" if state is None else f"variant {state.variant}"
            print(f"{name}: NA ({why})")
        elif name == "m1":
            reports[name] = m1_accuracy(state, bundle.dataset)
        else:
            reports[name] = m2_accuracy(state, model, bundle.dataset,
                                        n_samples=evals.n_samples, seed=evals.seed)
    out.mkdir(parents=True, exist_ok=True)
    for name, report in reports.items():
        write_report_csv(report, out / f"report_{name}.csv")
        print(f"{name} mean per-class: {report.mean_per_class_acc:.4f}")
    _write_snapshot(out, run, eval=dataclasses.asdict(evals),
                    reports=tuple(f"report_{name}.csv" for name in reports))
    return 0


def cmd_export(args, run) -> int:
    out = _out_dir(run)
    evals = from_dict(EvalSettings, run.eval or {}, "eval", base=EvalSettings(200))
    bundle, model, state = _load_inputs(run)
    if state is not None and lacks_metric(state.variant, "m2"):
        raise ConfigError(f"{run.ada_state} holds a {state.variant} state, which trains no G_T: "
                          f"it has no transformed rows to export")
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
    start = [unseen.index(cid) * n for cid in ids]
    for block, segments in augmented_draws(ids, table, n, seed):
        moved = None if state is None else forward_eval(state.g_t, block)
        for j, lo, hi in segments:
            stop = start[j] + hi - lo
            generated[start[j]:stop] = block[lo:hi, :model.dim]
            if moved is not None:
                transformed[start[j]:stop] = moved[lo:hi]
            start[j] = stop
    out.mkdir(parents=True, exist_ok=True)
    path = out / "embeddings.csv"
    export_embeddings(matrices, label_map, path)
    _write_snapshot(out, run, eval=dataclasses.asdict(evals))
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
        "--ada": dict(dest="ada_state", help="adapted-state checkpoint"),
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
    args = build_parser().parse_args(argv)
    try:
        eval_workers()  # fail fast on a bad ZSLADA_THREADS value
        return args.fn(args, _read_run(args, _load_json(args.config) if args.config else {}))
    except (NumericalDivergence, NonFiniteGradient) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ZsladaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # contract: never panic to the shell
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
