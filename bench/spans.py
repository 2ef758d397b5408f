"""Span tracer installed around the calls into each zslada module.

The tracer patches module attributes from outside the package: every
module-level name, in ``zslada`` or in a caller module passed to
``install``, that refers to a traced function is replaced by a wrapper,
so a call is caught under whatever name its caller imported it by
(``zslada.ada.mlp_forward``, ``zslada.base_model.forward_eval``,
``zslada.metrics.classify``, ...).
``uninstall`` puts the originals back, so untraced repetitions in the
same process run the unmodified code.

Each span is ``(span_id, label, start, end, parent_id, run_id)``.  Spans
stay in memory and are written out once, at the end of the run.  The
parent is the innermost open span, which is exact while scoring runs on
one thread (``ZSLADA_THREADS`` at its default of 1).
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (defining module, function, tagged by the network role it receives)
TRACED = (
    ("zslada.nn.mlp", "mlp_forward", True),
    ("zslada.nn.mlp", "mlp_backward", True),
    ("zslada.nn.mlp", "forward_eval", False),
    ("zslada.nn.optim", "rmsprop_step", False),
    ("zslada.nn.optim", "adam_step", False),
    ("zslada.ada", "adapt", False),
    ("zslada.ada", "init_ada_state", False),
    ("zslada.ada", "generator_objective", False),
    ("zslada.ada", "critic_objective", False),
    ("zslada.ada", "map_prototypes", False),
    ("zslada.ada", "classify", False),
    ("zslada.base_model", "pretrain", False),
    ("zslada.base_model", "pretrain_objective", False),
    ("zslada.base_model", "sample_class", False),
    ("zslada.base_model", "class_params_matrix", False),
    ("zslada.base_model", "loglik_matrix", False),
    ("zslada.base_model", "pseudo_labels", False),
    ("zslada.metrics", "inductive_accuracy", False),
    ("zslada.metrics", "m1_accuracy", False),
    ("zslada.metrics", "m2_accuracy", False),
    ("zslada.metrics", "parallel_rows", False),
    # save_container is not traced: the only checkpoint writes are in
    # cub-eval's set-up, so their cost shows in setup_s instead.
    ("zslada.nn.checkpoint", "load_container", False),
    ("zslada.data", "load_dataset", False),
    ("zslada.rng", "named_seed", False),
    ("zslada.rng", "named_stream", False),
)
ROLES = ("g_t", "g_s", "d_t", "d_s", "c_t", "c_s", "mean_net", "prec_net")
STATS = {"calls": "count", "busy_s": "s", "self_s": "s"}
UNKNOWN_ROLE = "unknown"


def _label(module: str, fn: str) -> str:
    return f"{module.removeprefix('zslada.')}.{fn}"


LABELS = tuple(f"{_label(m, fn)}.{role}" if by_role else _label(m, fn)
               for m, fn, by_role in TRACED
               for role in (ROLES if by_role else (None,)))


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    return [f"{label}.{stat}" for label in LABELS for stat in STATS]


def metric_unit(name: str) -> str:
    return STATS[name.rsplit(".", 1)[1]]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack = [0]
        self._next_id = 1
        self._nets: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- network roles -------------------------------------------------
    def register_model(self, model) -> None:
        self._nets["mean_net"] = model.mean_net
        self._nets["prec_net"] = model.prec_net

    def register_state(self, state) -> None:
        self._nets.update(state.nets)

    def role_of(self, net) -> str:
        # forward_eval wraps a net in a throwaway eval-mode view that
        # shares the parameter vector, so match on either.
        for role, known in self._nets.items():
            if net is known or net.params is known.params:
                return role
        return UNKNOWN_ROLE

    # -- patching -------------------------------------------------------
    def _wrap(self, fn, label: str, by_role: bool):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        after = self.register_state if fn.__name__ == "init_ada_state" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{label}.{tracer.role_of(args[0])}" if by_role else label
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, tracer.run_id))
            if after is not None:
                after(result)
            return result

        return traced

    def install(self, callers=()) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "zslada" or name.startswith("zslada.")) and m is not None]
        modules += list(callers)
        for module_name, fn_name, by_role in TRACED:
            original = getattr(importlib.import_module(module_name), fn_name)
            wrapper = self._wrap(original, _label(module_name, fn_name), by_role)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------
    def per_run(self) -> dict[int, dict[str, list[float]]]:
        """``{run_id: {label: [calls, busy_s, self_s]}}`` over recorded spans."""
        covered: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        out: dict[int, dict[str, list[float]]] = {}
        for span_id, name, start, end, _, run_id in self.spans:
            acc = out.setdefault(run_id, {}).setdefault(name, [0, 0.0, 0.0])
            busy = end - start
            acc[0] += 1
            acc[1] += busy
            acc[2] += busy - covered.get(span_id, 0.0)
        return out

    def layer_metrics(self) -> tuple[dict[str, float], bool]:
        """Per-layer metrics over the traced runs, and whether every run
        made exactly the same calls.  Times are medians across runs."""
        runs = list(self.per_run().values())
        counts = [{name: acc[0] for name, acc in run.items()} for run in runs]
        same_calls = all(c == counts[0] for c in counts)
        metrics = {}
        for label in LABELS:
            accs = [run.get(label, [0, 0.0, 0.0]) for run in runs]
            metrics[f"{label}.calls"] = accs[0][0]
            metrics[f"{label}.busy_s"] = statistics.median(a[1] for a in accs)
            metrics[f"{label}.self_s"] = statistics.median(a[2] for a in accs)
        return metrics, same_calls

    def unknown_role_spans(self) -> int:
        suffix = f".{UNKNOWN_ROLE}"
        return sum(1 for span in self.spans if span[1].endswith(suffix))

    def write(self, path: Path) -> None:
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path,
                 names=np.asarray(names, dtype=str),
                 span_id=np.asarray(cols[0], dtype=np.int64),
                 name=np.asarray([index[n] for n in cols[1]], dtype=np.int32),
                 start=np.asarray(cols[2], dtype=np.float64),
                 end=np.asarray(cols[3], dtype=np.float64),
                 parent=np.asarray(cols[4], dtype=np.int64),
                 run_id=np.asarray(cols[5], dtype=np.int32))
