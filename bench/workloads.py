"""The benchmark's three workloads: inputs, timed stages and output checks.

Each workload has a ``setup`` (builds the inputs; timed as ``setup_s``),
a ``run`` (one repetition of the timed stages; returns stage times and
the outputs) and a ``check`` (one ``(name, passed)`` pair per output
check).  Why each workload exists, and which layer metric should move
which end-to-end metric on it, is written down in ``README.md``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from zslada.ada import adapt, init_ada_state, load_ada_state, save_ada_state
from zslada.base_model import (class_params_matrix, load_base_model, predict, pretrain,
                               save_base_model)
from zslada.data import (ClassAttributeTable, DatasetBundle, FeatureDataset, SplitSpec,
                         load_dataset, save_dataset)
import zslada.metrics
from zslada.metrics import inductive_accuracy, m1_accuracy, m2_accuracy
from zslada.profiles import ada_profile, build_base_model, pretrain_config
from zslada.synthetic import SyntheticWorldSpec, make_synthetic_world

clock = time.perf_counter


@dataclass
class Rep:
    """One repetition: stage metrics plus what the checks and digests read."""

    stages: dict[str, float]
    outputs: dict


class Recorder:
    """Keeps what ``zslada.metrics`` hands to ``per_class_top1`` and gets
    back from ``map_prototypes``, so the checks can compare the picks a
    metric scored.  It adds one Python call per metric call."""

    def __init__(self) -> None:
        self.picks: dict[str, np.ndarray] = {}
        self.prototypes: dict[int, np.ndarray] | None = None
        self._saved: list[tuple[str, object]] = []

    def __enter__(self) -> "Recorder":
        top1 = zslada.metrics.per_class_top1
        protos = zslada.metrics.map_prototypes
        self._saved = [("per_class_top1", top1), ("map_prototypes", protos)]

        def per_class_top1(predictions, ground_truth, label_space=None,
                           metric_kind="inductive"):
            self.picks[metric_kind] = np.asarray(predictions, dtype=np.int64)
            return top1(predictions, ground_truth, label_space, metric_kind)

        def map_prototypes(*args, **kwargs):
            self.prototypes = protos(*args, **kwargs)
            return self.prototypes

        zslada.metrics.per_class_top1 = per_class_top1
        zslada.metrics.map_prototypes = map_prototypes
        return self

    def __exit__(self, *exc) -> None:
        for attr, original in self._saved:
            setattr(zslada.metrics, attr, original)


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _finite_rows(rows) -> bool:
    return all(np.isfinite(v) for row in rows for v in row
               if isinstance(v, (float, np.floating)))


def _net_arrays(nets: dict) -> list[np.ndarray]:
    return [a for role in sorted(nets) for a in (nets[role].params, nets[role].stats)]


def random_bundle(seed: int, d: int, attr_dim: int, n_seen: int, n_unseen: int,
                  n_test: int) -> DatasetBundle:
    """Random tensors at a dataset's split shapes: uniform attributes,
    non-negative features like pooled ResNet outputs, and balanced
    labelled test rows over the unseen classes."""
    rng = np.random.default_rng([seed, d, attr_dim])
    n_classes = n_seen + n_unseen
    table = ClassAttributeTable(
        attributes=rng.uniform(0.0, 1.0, (n_classes, attr_dim)),
        class_ids=list(range(n_classes)),
        seen_mask=np.arange(n_classes) < n_seen)
    labels = n_seen + rng.permutation(np.arange(n_test) % n_unseen)
    split = SplitSpec(seen_class_ids=list(range(n_seen)),
                      unseen_class_ids=list(range(n_seen, n_classes)),
                      train_row_indices=[], test_row_indices=list(range(n_test)))
    dataset = FeatureDataset(features=np.abs(rng.standard_normal((n_test, d))),
                             labels=labels, split=split,
                             provenance=f"random tensors seed={seed}")
    return DatasetBundle(dataset=dataset, attributes=table)


# ---------------------------------------------------------------- synth-pipeline
@dataclass(frozen=True)
class SynthSize:
    samples_per_class: int = 500
    ada_steps: int = 1000
    m2_draws: int = 10_000
    max_epochs: int | None = None


class SynthPipeline:
    """``synth-small`` pretrain to early stop, a 1000-step ``full`` adapt,
    then inductive, M1 and M2, on the ``bench_spec``-sized world.

    World, pretraining and adaptation keep the CLI's default seeds (0, 0
    and the profile's 100): on that world inductive accuracy is 0.8775,
    so adaptation has room to move M1 and M2 (0.93 and 0.92).  The run
    seed drives the M2 prototype draws.  The adaptation seed stays fixed
    because M2 falls below inductive accuracy on some adaptation seeds
    (see README.md), and because the step of the phase switch, and with
    it the work done, depends on that seed.
    """

    stages = {"pretrain_s": "s", "adapt_iter_ms": "ms", "eval_s": "s",
              "inductive_acc": "fraction", "m1_acc": "fraction", "m2_acc": "fraction"}

    def __init__(self, size: SynthSize = SynthSize()) -> None:
        self.size = size

    def setup(self, seed: int, workdir: Path):
        spec = SyntheticWorldSpec(S=8, U=4, d=16, attr_dim=4,
                                  samples_per_class=self.size.samples_per_class,
                                  shift_kind="affine", shift_magnitude=6.0, seed=0)
        return make_synthetic_world(spec)

    def run(self, world, seed: int, tracer=None) -> Rep:
        model = build_base_model(world.attributes, world.dataset.dim,
                                 profile="synth-small", seed=0)
        pre_cfg = pretrain_config("synth-small", seed=0)
        if self.size.max_epochs is not None:
            pre_cfg = dataclasses.replace(pre_cfg, max_epochs=self.size.max_epochs)
        ada_cfg = dataclasses.replace(ada_profile("synth-small"),
                                      n_steps=self.size.ada_steps)
        if tracer is not None:
            tracer.register_model(model)
        ds = world.dataset
        t0 = clock()
        model, pre_trace = pretrain(model, ds, pre_cfg)
        t1 = clock()
        state, log = adapt(model, ds, ada_cfg)
        t2 = clock()
        ind = inductive_accuracy(model, ds)
        m1 = m1_accuracy(state, ds)
        m2 = m2_accuracy(state, model, ds, n_samples=self.size.m2_draws, seed=seed)
        t3 = clock()
        stages = {"pretrain_s": t1 - t0, "adapt_iter_ms": (t2 - t1) * 1e3 / ada_cfg.n_steps,
                  "eval_s": t3 - t2, "wall_s": t3 - t0,
                  "inductive_acc": ind.mean_per_class_acc, "m1_acc": m1.mean_per_class_acc,
                  "m2_acc": m2.mean_per_class_acc}
        return Rep(stages, {"pre_trace": pre_trace, "log": log, "state": state,
                            "model": model, "reports": (ind, m1, m2)})

    def check(self, world, rep: Rep) -> list[tuple[str, bool]]:
        out = rep.outputs
        ind, m1, m2 = (r.mean_per_class_acc for r in out["reports"])
        return [
            ("pretrain_losses_finite", _finite_rows(out["pre_trace"])),
            ("adapt_losses_finite", _finite_rows(out["log"])),
            ("final_phase_recovery",
             out["state"].phase == "recovery" and out["log"][-1][6] == "recovery"),
            ("m1_not_below_inductive", m1 >= ind),
            ("m2_not_below_inductive", m2 >= ind),
        ]

    def digest(self, rep: Rep) -> dict[str, str]:
        out = rep.outputs
        model = out["model"]
        return {"log_rows": _sha256(out["pre_trace"], out["log"]),
                "final_params": _sha256(model.mean_net.params, model.mean_net.stats,
                                        model.prec_net.params, model.prec_net.stats,
                                        *_net_arrays(out["state"].nets))}


# ---------------------------------------------------------------- awa-adapt
@dataclass(frozen=True)
class AwaSize:
    d: int = 2048
    attr_dim: int = 85
    n_seen: int = 40
    n_unseen: int = 10
    n_test: int = 1000
    base_profile: str = "awa"
    # Four steps: the fixed-fraction trigger switches at step 1 of 4, so
    # one warmup step and three recovery steps run.
    n_steps: int = 4
    gen_hidden: tuple[int, ...] | None = None
    disc_hidden: tuple[int, ...] | None = None


def _sized_ada_config(profile: str, size, n_steps: int, seed: int):
    cfg = dataclasses.replace(ada_profile(profile), n_steps=n_steps, seed=seed)
    if size.gen_hidden is not None:
        cfg = dataclasses.replace(cfg, gen_hidden=size.gen_hidden,
                                  disc_hidden=size.disc_hidden)
    return cfg


class AwaAdapt:
    """``adapt`` at AWA shapes on random tensors: an untrained ``awa``
    base model and the ``awa`` adaptation profile."""

    stages = {"adapt_iter_ms": "ms"}

    def __init__(self, size: AwaSize = AwaSize()) -> None:
        self.size = size
        self._initial: dict[str, str] | None = None

    def setup(self, seed: int, workdir: Path):
        s = self.size
        bundle = random_bundle(seed, s.d, s.attr_dim, s.n_seen, s.n_unseen, s.n_test)
        base = build_base_model(bundle.attributes, s.d, profile=s.base_profile, seed=seed)
        return bundle, base, _sized_ada_config("awa", s, s.n_steps, seed)

    def run(self, inputs, seed: int, tracer=None) -> Rep:
        bundle, base, cfg = inputs
        if tracer is not None:
            tracer.register_model(base)
        t0 = clock()
        state, log = adapt(base, bundle.dataset, cfg)
        t1 = clock()
        return Rep({"adapt_iter_ms": (t1 - t0) * 1e3 / cfg.n_steps, "wall_s": t1 - t0},
                   {"state": state, "log": log})

    def check(self, inputs, rep: Rep) -> list[tuple[str, bool]]:
        _, base, cfg = inputs
        if self._initial is None:
            initial = init_ada_state(base, cfg)
            self._initial = {role: _sha256(net.params) for role, net in initial.nets.items()}
        state = rep.outputs["state"]
        return [
            ("adapt_losses_finite", _finite_rows(rep.outputs["log"])),
            ("critic_params_within_clip",
             all(np.all(np.abs(state.nets[r].params) <= cfg.clip_c) for r in ("d_t", "d_s"))),
            ("every_role_moved",
             all(_sha256(net.params) != self._initial[r] for r, net in state.nets.items())),
        ]

    def digest(self, rep: Rep) -> dict[str, str]:
        return {"log_rows": _sha256(rep.outputs["log"]),
                "final_params": _sha256(*_net_arrays(rep.outputs["state"].nets))}


# ---------------------------------------------------------------- cub-eval
@dataclass(frozen=True)
class CubSize:
    d: int = 2048
    attr_dim: int = 312
    n_seen: int = 150
    n_unseen: int = 50
    n_test: int = 1000
    base_profile: str = "cub"
    m2_draws: int = 200
    check_rows: int = 64
    gen_hidden: tuple[int, ...] | None = None
    disc_hidden: tuple[int, ...] | None = None


class CubEval:
    """The calls ``zslada eval --metric all`` makes, at CUB shapes.

    Set-up writes an ``.npy`` dataset, an untrained ``cub`` base
    checkpoint and the adaptation checkpoint a one-step ``cub`` adapt
    leaves (M1 refuses a classifier that never trained).
    """

    stages = {"load_s": "s", "eval_s": "s"}

    def __init__(self, size: CubSize = CubSize()) -> None:
        self.size = size

    def setup(self, seed: int, workdir: Path):
        s = self.size
        bundle = random_bundle(seed, s.d, s.attr_dim, s.n_seen, s.n_unseen, s.n_test)
        paths = {"data": workdir / "data", "base": workdir / "base_model.ckpt",
                 "ada": workdir / "ada_state.ckpt"}
        save_dataset(paths["data"], bundle.dataset, bundle.attributes, binary=True)
        base = build_base_model(bundle.attributes, s.d, profile=s.base_profile, seed=seed)
        save_base_model(paths["base"], base)
        cfg = _sized_ada_config("cub", s, 1, seed)
        state, _ = adapt(base, bundle.dataset, cfg)
        save_ada_state(paths["ada"], state, cfg)
        return paths

    def run(self, paths, seed: int, tracer=None) -> Rep:
        t0 = clock()
        bundle = load_dataset(paths["data"])
        model = load_base_model(paths["base"], bundle.attributes)
        state, _ = load_ada_state(paths["ada"])
        t1 = clock()
        if tracer is not None:
            tracer.register_model(model)
            tracer.register_state(state)
        ds = bundle.dataset
        with Recorder() as rec:
            reports = (inductive_accuracy(model, ds), m1_accuracy(state, ds),
                       m2_accuracy(state, model, ds, n_samples=self.size.m2_draws, seed=seed))
        t2 = clock()
        return Rep({"load_s": t1 - t0, "eval_s": t2 - t1, "wall_s": t2 - t0},
                   {"bundle": bundle, "model": model, "state": state, "reports": reports,
                    "picks": rec.picks, "prototypes": rec.prototypes, "seed": seed})

    def check(self, paths, rep: Rep) -> list[tuple[str, bool]]:
        out = rep.outputs
        model = out["model"]
        X, truth = out["bundle"].dataset.test_rows()
        ids = sorted(model.attribute_table.unseen_ids)
        means, precisions = class_params_matrix(model, ids)
        logdet = np.log(precisions).sum(axis=1) if model.include_logdet else np.zeros(len(ids))

        # predict on a fixed sample of rows against a per-class loop;
        # strict ">" keeps the first maximum, i.e. the smallest class id
        rows = np.random.default_rng([out["seed"], 7]).choice(
            X.shape[0], size=min(self.size.check_rows, X.shape[0]), replace=False)
        brute = []
        for x in X[rows]:
            best, best_ll = None, -np.inf
            for j, cid in enumerate(ids):
                ll = logdet[j] - float(np.sum(precisions[j] * (x - means[j]) ** 2))
                if ll > best_ll:
                    best, best_ll = cid, ll
            brute.append(best)
        predicted = predict(model, X[rows], label_space="unseen")

        # M2: nearest prototype row by row, from map_prototypes' own output
        protos = out["prototypes"]
        proto_ids = sorted(protos)
        mu = np.vstack([protos[c] for c in proto_ids])
        ref = np.empty(X.shape[0], dtype=np.int64)
        for i, x in enumerate(X):
            dist = np.sum(precisions * (x - mu) ** 2, axis=1) - logdet
            ref[i] = proto_ids[int(np.argmin(dist))]
        return [
            ("predict_matches_bruteforce", np.array_equal(predicted, brute)),
            ("inductive_picks_match_predict",
             np.array_equal(out["picks"]["inductive"][rows], predicted)),
            ("m2_picks_match_reference", proto_ids == ids
             and np.array_equal(out["picks"]["m2"], ref)),
        ]

    def digest(self, rep: Rep) -> dict[str, str]:
        out = rep.outputs
        model = out["model"]
        rows = [(r.metric_kind, sorted(r.per_class_acc.items())) for r in out["reports"]]
        return {"log_rows": _sha256(rows),
                "final_params": _sha256(model.mean_net.params, model.mean_net.stats,
                                        model.prec_net.params, model.prec_net.stats,
                                        *_net_arrays(out["state"].nets))}


WORKLOADS = {"synth-pipeline": SynthPipeline, "awa-adapt": AwaAdapt, "cub-eval": CubEval}

# Toy sizes for the harness self-test: same code paths, seconds per run.
TOY_SIZES = {
    "synth-pipeline": SynthSize(samples_per_class=60, ada_steps=20, m2_draws=200,
                                max_epochs=3),
    "awa-adapt": AwaSize(d=24, attr_dim=6, n_seen=4, n_unseen=3, n_test=60,
                         base_profile="synth-small", gen_hidden=(16, 16), disc_hidden=(16,)),
    "cub-eval": CubSize(d=24, attr_dim=8, n_seen=5, n_unseen=4, n_test=60,
                        base_profile="synth-small", m2_draws=50, check_rows=16,
                        gen_hidden=(16, 16), disc_hidden=(16,)),
}
