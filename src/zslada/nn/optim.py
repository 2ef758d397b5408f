"""First-order optimizers over flat parameter vectors.

Both update rules share one state container and one contract, so a
training loop can swap optimizers without touching its bookkeeping: a
step updates the caller's ``params`` and the state's moments in place,
advances ``step_count`` and returns ``None``.  The whole gradient is
known to be finite before anything is written, so a step that raises
``NonFiniteGradient`` leaves ``params`` and the state exactly as they
were.  Weight decay is decoupled: the ``weight_decay * theta`` term is
added to the scaled update directly and never enters the moment
accumulators.

The gradient is either an array or a :class:`~zslada.nn.mlp.GradientTape`.
A tape is stepped window by window: each window is built from the tape
and consumed at once, so no parameter-sized gradient ever exists.  A
window holds at most ``mlp.WINDOW`` entries (262,144, 2 MiB) and at most
a sixteenth of the network's parameters (never fewer than
``mlp.WINDOW // 8``).  It is made of whole segments: a bias/batchnorm
vector, or a piece of whole rows of one weight matrix whose gradient is
``h_in[:, r0:r1].T @ delta`` summed over the caches in list order.
Pieces of two or more rows give exactly the bits of the whole product,
so a step from a tape is bitwise the step from the materialised
gradient.  32K-entry pieces made an AWA-shape step 15-20% slower
than 256K-entry ones: the GEMMs got too small.

Finiteness from a tape: a role that fits in one window is built,
checked and then stepped.  For a role of several windows the tape is
bounded first: ``GradientTape.bound`` sums ``n_rows * max|h_in| *
max|delta|`` over the caches of each layer, plus the largest bias and
batchnorm entries.  Below ``FINITE_BOUND`` (1e300, far from float64
overflow) no entry can overflow, and finite tape entries make NaN
impossible, so the windows are stepped as they are built.  Otherwise
(a non-finite tape entry, or a product that might overflow) a dry pass
builds and checks every window before the real pass, so the error
still names the first bad slice and nothing is written.

A step walks each window in blocks of ``BLOCK`` entries through one
scratch buffer.  At the paper's network shapes a parameter vector holds
millions of floats, and whole-vector temporaries would stream every
intermediate through main memory.  A block of 32,768 float64 entries is
256 KiB per operand, so the five or six operands of one block (about
1.5 MiB) stay in a core's L2 cache.  On a 2-vCPU Xeon with 2 MiB of L2
per core, at 6.4M entries, this size was the fastest of 4,096 to
131,072 for both rules: rmsprop took 50 ms (52-69 ms at the other
sizes, 107 ms as one whole-vector block) and Adam 68 ms (73-104 ms,
150 ms).  Each block applies the same element-wise operations in the
same order as the whole-vector formula, so the result is bitwise the
same for any block or window size.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigError, NonFiniteGradient
from .mlp import GradientTape

_KINDS = ("adam", "rmsprop")

BLOCK = 32_768
# A tape whose bound stays below this cannot produce a non-finite entry.
FINITE_BOUND = 1e300


@dataclass(frozen=True)
class OptimizerHyper:
    """Hyperparameters shared by both update rules.

    ``beta1``/``beta2`` are the Adam moment decays; rmsprop reads only
    ``beta2`` (its squared-gradient smoothing, default overridden to 0.99
    by :func:`init_optimizer`) and ignores ``beta1``.
    """

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name, value, lo, hi in (
            ("beta1", self.beta1, 0.0, 1.0),
            ("beta2", self.beta2, 0.0, 1.0),
        ):
            if not lo <= value < hi:
                raise ConfigError(f"{name} must lie in [0, 1), got {value}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class OptimizerState:
    kind: str
    step_count: int
    # adam's moving mean of the gradient; rmsprop keeps none
    first_moment: np.ndarray | None
    second_moment: np.ndarray
    hyper: OptimizerHyper
    # Optional (label, start, stop) triples used to name the offending
    # slice when a non-finite gradient aborts a step.
    param_layout: list[tuple[str, int, int]] | None = field(default=None)


def init_optimizer(
    kind: str,
    n_params: int,
    hyper: OptimizerHyper | None = None,
    learning_rate: float | None = None,
    param_layout: list[tuple[str, int, int]] | None = None,
) -> OptimizerState:
    """Fresh zeroed state.

    With no explicit hyper, adam defaults to (lr 1e-3, 0.9, 0.999) and
    rmsprop to (lr 1e-5, smoothing 0.99).  ``learning_rate`` overrides
    just the rate on top of whichever hyper block applies.
    """
    if kind not in _KINDS:
        raise ConfigError(f"unknown optimizer kind {kind!r}, expected one of {_KINDS}")
    if n_params <= 0:
        raise ConfigError(f"n_params must be positive, got {n_params}")
    if hyper is None:
        if kind == "adam":
            hyper = OptimizerHyper(learning_rate=1e-3)
        else:
            hyper = OptimizerHyper(learning_rate=1e-5, beta2=0.99)
    if learning_rate is not None:
        hyper = replace(hyper, learning_rate=learning_rate)
    return OptimizerState(
        kind=kind,
        step_count=0,
        first_moment=np.zeros(n_params, dtype=np.float64) if kind == "adam" else None,
        second_moment=np.zeros(n_params, dtype=np.float64),
        hyper=hyper,
        param_layout=param_layout,
    )


def _check_finite(grads: np.ndarray, state: OptimizerState, offset: int = 0) -> None:
    """Raise ``NonFiniteGradient`` naming the first bad entry; ``grads``
    holds the entries from flat index ``offset`` on."""
    bad = ~np.isfinite(grads)
    if not bad.any():
        return
    index = offset + int(np.argmax(bad))
    where = f"parameter index {index}"
    if state.param_layout:
        for label, start, stop in state.param_layout:
            if start <= index < stop:
                where = f"{label} (flat index {index})"
                break
    raise NonFiniteGradient(where)


def _gradient_windows(grads: np.ndarray | GradientTape, state: OptimizerState):
    """Yield ``(start, window)`` over the gradient, once all of it is
    known to be finite (see the module docstring)."""
    if not isinstance(grads, GradientTape):
        _check_finite(grads, state)
        yield 0, grads
        return
    windows = grads.windows
    if len(windows) == 1:
        window = grads.build(0)
        _check_finite(window, state)
        yield 0, window
        return
    if not grads.bound() < FINITE_BOUND:
        for k, (start, _, _) in enumerate(windows):
            _check_finite(grads.build(k), state, start)
    for k, (start, _, _) in enumerate(windows):
        yield start, grads.build(k)


def _blocks(params: np.ndarray, grads: np.ndarray | GradientTape, state: OptimizerState,
            kind: str):
    """Validate a step's inputs, then yield ``(slice, g, update, tmp)`` per
    block: ``slice`` indexes ``params`` and the moments, ``g`` is the
    block's gradient and ``update``/``tmp`` are two scratch rows of its
    length.  Raises before the first block if anything is wrong.

    ``params`` is written through, so a list, another dtype or a strided
    view (which ``np.asarray`` would silently copy) is refused.
    """
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64
            and params.flags.c_contiguous and params.flags.writeable):
        raise ConfigError(
            "params must be a writeable, C-contiguous float64 ndarray "
            "(the step updates it in place)")
    if state.kind != kind:
        raise ConfigError(f"state was initialized for {state.kind!r}, not {kind!r}")
    if isinstance(grads, GradientTape):
        shape = (grads.size,)
    else:
        grads = np.asarray(grads, dtype=np.float64)
        shape = grads.shape
    if params.shape != shape or params.shape != state.second_moment.shape:
        raise ConfigError(
            "parameter/gradient/state length mismatch: "
            f"{params.shape} vs {shape} vs {state.second_moment.shape}")
    scratch = np.empty((2, min(BLOCK, params.size)))
    for start, window in _gradient_windows(grads, state):
        for lo in range(0, window.size, BLOCK):
            hi = min(lo + BLOCK, window.size)
            upd, tmp = scratch[:, :hi - lo]
            yield slice(start + lo, start + hi), window[lo:hi], upd, tmp


def _decay_square(v: np.ndarray, g: np.ndarray, beta2: float, tmp: np.ndarray) -> None:
    """v = beta2 * v + (1 - beta2) * g * g, in place."""
    np.multiply(g, 1.0 - beta2, out=tmp)
    np.multiply(tmp, g, out=tmp)
    np.multiply(v, beta2, out=v)
    np.add(v, tmp, out=v)


def _apply(p: np.ndarray, upd: np.ndarray, tmp: np.ndarray, hp: OptimizerHyper) -> None:
    """p = p - lr * (update + weight_decay * p), in place."""
    if hp.weight_decay:
        np.multiply(p, hp.weight_decay, out=tmp)
        np.add(upd, tmp, out=upd)
    np.multiply(upd, hp.learning_rate, out=upd)
    np.subtract(p, upd, out=p)


def adam_step(params: np.ndarray, grads: np.ndarray | GradientTape,
              state: OptimizerState) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    ``params`` must be a writeable, C-contiguous float64 vector; ``grads``
    is an array or a tape over the same parameters.  Raises
    ``NonFiniteGradient`` (naming the slice when the state has a layout)
    before writing anything.
    """
    hp = state.hyper
    t = state.step_count + 1
    m_scale = 1.0 - hp.beta1 ** t
    v_scale = 1.0 - hp.beta2 ** t
    for sl, g, upd, tmp in _blocks(params, grads, state, "adam"):
        m, v = state.first_moment[sl], state.second_moment[sl]
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(g, 1.0 - hp.beta1, out=tmp)
        np.multiply(m, hp.beta1, out=m)
        np.add(m, tmp, out=m)
        _decay_square(v, g, hp.beta2, tmp)
        # update = (m / m_scale) / (sqrt(v / v_scale) + epsilon)
        np.divide(v, v_scale, out=upd)
        np.sqrt(upd, out=upd)
        np.add(upd, hp.epsilon, out=upd)
        np.divide(m, m_scale, out=tmp)
        np.divide(tmp, upd, out=upd)
        _apply(params[sl], upd, tmp, hp)
    state.step_count = t


def rmsprop_step(params: np.ndarray, grads: np.ndarray | GradientTape,
                 state: OptimizerState, clip: float | None = None) -> None:
    """One rmsprop update of ``params`` and ``state``, in place, with
    ``beta2`` as the squared-gradient decay.

    With ``clip`` set, each block of ``params`` is clipped to
    ``[-clip, clip]`` right after its update, in the same pass (the WGAN
    critics' weight clip).  Same contract as :func:`adam_step`: nothing
    is written when it raises.
    """
    hp = state.hyper
    for sl, g, upd, tmp in _blocks(params, grads, state, "rmsprop"):
        v, p = state.second_moment[sl], params[sl]
        _decay_square(v, g, hp.beta2, tmp)
        # update = g / (sqrt(v) + epsilon)
        np.sqrt(v, out=upd)
        np.add(upd, hp.epsilon, out=upd)
        np.divide(g, upd, out=upd)
        _apply(p, upd, tmp, hp)
        if clip is not None:
            np.clip(p, -clip, clip, out=p)
    state.step_count += 1
