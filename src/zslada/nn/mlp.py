"""Feed-forward network with hand-written exact backward pass.

A network is a stack of layers, each ``linear -> batchnorm? -> activation
-> dropout?``. Parameters live in one flat float64 vector so optimizers and
checkpoints can treat every network uniformly; per-layer weight matrices are
zero-copy views into that vector.

Supported activations: ``relu``, ``leaky_relu:<slope>`` (bare ``leaky_relu``
means slope 0.2), ``sigmoid``, ``log_softmax``, ``identity``.

A network has two passes, and the function called picks one.
:func:`mlp_forward` is the training pass: batchnorm normalises by the
batch's statistics (and moves the running ones), dropout draws masks, and
the returned cache is what :func:`mlp_backward` reads.  :func:`forward_eval`
is the inference pass: batchnorm reads the running statistics, dropout is
the identity, nothing is cached and nothing is written.
:func:`mean_forward_eval` is the inference pass averaged over groups of
rows, with the affine last layer applied once per group, to its mean.

Backward materialises no parameter gradient: a :class:`GradientTape`
builds it from backpropagated caches one window at a time, a weight
matrix in pieces of whole rows.  With OpenBLAS a piece of two or more
rows gives exactly the bits of those rows of the whole product, while a
one-row piece or an ``n_out = 1`` product runs through gemv and may not;
so ``n_out = 1`` weights stay whole and no piece has a single row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from zslada.errors import ConfigError, DimensionMismatch, StaleCache
from zslada.rng import named_seed, named_stream
from zslada.settings import from_dict

BN_EPS = 1e-5
# weight of the batch's statistics in each running-average update
BN_MOMENTUM = 0.1

# Most entries per gradient window (2 MiB of float64): pieces this big
# keep the weight-gradient GEMMs efficient (32K-entry pieces made an
# AWA-shape step 15-20% slower), and a window stays in L2 while the
# optimizer consumes it.
WINDOW = 1 << 18

_ACTIVATIONS = ("relu", "leaky_relu", "sigmoid", "log_softmax", "identity")


def parse_activation(name: str) -> tuple[str, float]:
    """Split an activation string into (kind, slope)."""
    if name.startswith("leaky_relu"):
        _, _, slope = name.partition(":")
        return "leaky_relu", float(slope) if slope else 0.2
    if name not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation {name!r}")
    return name, 0.0


def _leaky_relu(z: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """The bits of ``np.where(z > 0, z, slope * z)`` into ``out`` (``z`` itself, say), by
    numpy's faster ``max(z, slope * z)`` when 0 < slope <= 1 (slope 0 maps +inf to NaN)."""
    if 0 < slope <= 1:
        return np.maximum(z, z * slope, out=out)
    return np.multiply(z, slope, out=z.copy() if out is None else out, where=~(z > 0))


def stable_sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sigmoid without overflow at either tail: one ``exp`` of ``-|z|``,
    which never exceeds 1, then ``1 / (1 + e)`` where ``z >= 0`` and
    ``e / (1 + e)`` elsewhere.  ``out`` (``z`` itself, say) receives the
    result; by default a new array does."""
    z = np.asarray(z, dtype=np.float64)
    positive = z >= 0
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = e + 1.0
    np.divide(e, denominator, out=e, where=~positive)
    np.divide(1.0, denominator, out=e, where=positive)
    return e


@dataclass(frozen=True)
class MlpSpec:
    """Architecture description: widths input -> output plus per-layer knobs."""

    layer_widths: tuple[int, ...]
    activations: tuple[str, ...]
    batchnorm: tuple[bool, ...]
    dropout: tuple[float, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        object.__setattr__(self, "activations", tuple(self.activations))
        object.__setattr__(self, "batchnorm", tuple(bool(b) for b in self.batchnorm))
        object.__setattr__(self, "dropout", tuple(float(p) for p in self.dropout))
        n = self.n_layers
        if n < 1:
            raise ConfigError("need at least one layer (two widths)")
        if any(w <= 0 for w in widths):
            raise ConfigError(f"layer widths must be positive, got {widths}")
        for seq, label in ((self.activations, "activations"),
                           (self.batchnorm, "batchnorm"),
                           (self.dropout, "dropout")):
            if len(seq) != n:
                raise ConfigError(f"{label} must have {n} entries, got {len(seq)}")
        if any(not (0.0 <= p < 1.0) for p in self.dropout):
            raise ConfigError("dropout probabilities must lie in [0, 1)")
        # derived once per spec: forward/backward and every step read these
        object.__setattr__(self, "_acts", tuple(parse_activation(a) for a in self.activations))
        object.__setattr__(self, "has_dropout", any(p > 0 for p in self.dropout))
        object.__setattr__(self, "_layout", _build_layout(self))
        windows = _window_plan(self)
        object.__setattr__(self, "_windows", windows)
        object.__setattr__(self, "max_window", max(stop - start for start, stop, _ in windows))

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def in_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def out_dim(self) -> int:
        return self.layer_widths[-1]

    @classmethod
    def dense(cls, widths, activation="relu", out_activation="identity",
              batchnorm=False, dropout=0.0) -> "MlpSpec":
        """Uniform hidden layers with a separate output activation.

        Batchnorm and dropout apply to hidden layers only; the output layer
        is always plain linear + ``out_activation``.
        """
        widths = tuple(int(w) for w in widths)
        n = len(widths) - 1
        acts = tuple([activation] * (n - 1) + [out_activation])
        bn = tuple([bool(batchnorm)] * (n - 1) + [False])
        dp = tuple([float(dropout)] * (n - 1) + [0.0])
        return cls(widths, acts, bn, dp)

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        """The spec ``dataclasses.asdict`` wrote, read by
        :func:`zslada.settings.from_dict`.  Older checkpoints also carry
        ``bn_momentum``, which must be :data:`BN_MOMENTUM`."""
        d = dict(d)
        momentum = d.pop("bn_momentum", BN_MOMENTUM)
        if float(momentum) != BN_MOMENTUM:
            raise ConfigError(f"bn_momentum {momentum!r} is not the supported {BN_MOMENTUM}")
        return from_dict(cls, d, "network spec")

    def n_params(self) -> int:
        return self._layout[1]

    def n_stats(self) -> int:
        return self._layout[2]

    def param_layout(self) -> tuple[tuple[str, int, int], ...]:
        """(label, start, stop) for every parameter slice, for error reports."""
        out = []
        for i, sl in enumerate(self._layout[0]):
            for key in ("W", "b", "gamma", "beta"):
                s = getattr(sl, key)
                if s is not None:
                    out.append((f"layer{i}.{key}", s.start, s.stop))
        return tuple(out)


@dataclass
class _LayerSlices:
    W: slice
    b: slice
    gamma: slice | None
    beta: slice | None
    r_mean: slice | None
    r_var: slice | None


def _build_layout(spec: MlpSpec):
    """Slices of the flat parameter/stat vectors and their lengths."""
    slices = []
    p = s = 0
    for i in range(spec.n_layers):
        n_in, n_out = spec.layer_widths[i], spec.layer_widths[i + 1]
        W = slice(p, p + n_in * n_out); p = W.stop
        b = slice(p, p + n_out); p = b.stop
        gamma = beta = r_mean = r_var = None
        if spec.batchnorm[i]:
            gamma = slice(p, p + n_out); p = gamma.stop
            beta = slice(p, p + n_out); p = beta.stop
            r_mean = slice(s, s + n_out); s = r_mean.stop
            r_var = slice(s, s + n_out); s = r_var.stop
        slices.append(_LayerSlices(W, b, gamma, beta, r_mean, r_var))
    return tuple(slices), p, s


def _window_plan(spec: MlpSpec) -> tuple:
    """``(start, stop, segments)`` per gradient window, in flat order.

    Each segment is ``(key, layer, r0, r1, lo, hi)``: weight rows
    ``r0:r1`` (``key == "W"``) or a whole vector, written to
    ``window[lo:hi]``.  Consecutive segments share a window while it stays
    within the spec's limit; a larger segment gets a window of its own.
    The limit is a sixteenth of the parameters, so the gradient a step
    holds stays small next to what it updates, clamped to
    ``[WINDOW // 8, WINDOW]``: a small net stays in one window and a large
    one keeps GEMM-sized pieces.
    """
    limit = min(WINDOW, max(WINDOW // 8, spec._layout[1] // 16))
    segments = []
    for i, sl in enumerate(spec._layout[0]):
        n_in, n_out = spec.layer_widths[i], spec.layer_widths[i + 1]
        rows = n_in if n_out == 1 else max(2, limit // n_out)
        cuts = list(range(0, n_in, rows))
        if n_in - cuts[-1] == 1 and len(cuts) > 1:
            cuts.pop()  # never a one-row piece
        for r0, r1 in zip(cuts, cuts[1:] + [n_in]):
            segments.append(("W", i, r0, r1, sl.W.start + r0 * n_out, sl.W.start + r1 * n_out))
        for key in ("b", "gamma", "beta"):
            where = getattr(sl, key)
            if where is not None:
                segments.append((key, i, 0, 0, where.start, where.stop))
    windows = []
    for seg in segments:
        if windows and seg[5] - windows[-1][0] <= limit:
            windows[-1][1] = seg[5]
            windows[-1][2].append(seg)
        else:
            windows.append([seg[4], seg[5], [seg]])
    return tuple((start, stop, tuple((key, i, r0, r1, lo - start, hi - start)
                                     for key, i, r0, r1, lo, hi in segs))
                 for start, stop, segs in windows)


class MlpNetwork:
    """A spec plus its flat parameter vector and running stats."""

    def __init__(self, spec: MlpSpec, params: np.ndarray, stats: np.ndarray,
                 seed: int = 0):
        slices, n_params, n_stats = spec._layout
        if params.shape != (n_params,):
            raise ConfigError(
                f"parameter vector has length {params.shape}, spec needs {n_params}")
        if stats.shape != (n_stats,):
            raise ConfigError(
                f"stats vector has length {stats.shape}, spec needs {n_stats}")
        self.spec = spec
        self.params = np.asarray(params, dtype=np.float64)
        self.stats = np.asarray(stats, dtype=np.float64)
        self.seed = int(seed)
        self._slices = slices
        self._version = 0

    @property
    def version(self) -> int:
        return self._version

    def set_params(self, params: np.ndarray) -> None:
        """Install ``params`` and bump ``version``.

        Call it also after updating ``self.params`` in place, so caches
        from earlier forward passes are refused as stale.
        """
        params = np.asarray(params, dtype=np.float64)
        if params.shape != self.params.shape:
            raise ConfigError("parameter vector length changed")
        self.params = params
        self._version += 1

    def weight(self, i: int) -> np.ndarray:
        n_in, n_out = self.spec.layer_widths[i], self.spec.layer_widths[i + 1]
        return self.params[self._slices[i].W].reshape(n_in, n_out)

    def bias(self, i: int) -> np.ndarray:
        return self.params[self._slices[i].b]


def init_network(spec: MlpSpec, seed: int) -> MlpNetwork:
    """Fresh network: Glorot-uniform weights, zero biases, identity batchnorm.

    The weights are drawn in place: ``rng.uniform(low, high)`` computes
    ``low + (high - low) * u`` from ``rng.random()``'s ``u``, so scaling
    and shifting the draws where they lie gives the same bits without a
    layer-sized temporary.
    """
    slices, n_params, n_stats = spec._layout
    params = np.zeros(n_params)
    stats = np.zeros(n_stats)
    for i, sl in enumerate(slices):
        n_in, n_out = spec.layer_widths[i], spec.layer_widths[i + 1]
        bound = np.sqrt(6.0 / (n_in + n_out))
        w = params[sl.W]
        named_stream(seed, "init", i).random(out=w)
        w *= bound - (-bound)
        w += -bound
        if sl.gamma is not None:
            params[sl.gamma] = 1.0
            stats[sl.r_var] = 1.0
    return MlpNetwork(spec, params, stats, seed=seed)


@dataclass
class MlpCache:
    """Saved activations from one training pass, sufficient for backward;
    after backward, the tape :func:`param_grads` reads."""

    version: int
    n_rows: int
    layers: list = field(default_factory=list)


def dropout_seed(net: MlpNetwork, root: int | None, *path) -> int | None:
    """``named_seed(root, *path)`` for a training pass that draws dropout
    masks: a net with dropout.  ``None`` otherwise (and when ``root`` is
    ``None``), since no other pass reads a seed."""
    if root is None or not net.spec.has_dropout:
        return None
    return named_seed(root, *path)


def mlp_forward(net: MlpNetwork, batch: np.ndarray, rng_seed: int | None = None,
                update_stats: bool = True) -> tuple[np.ndarray, MlpCache]:
    """The training pass: run the network on a batch, keeping what
    backward needs.

    Batchnorm normalises by the batch's statistics.  ``rng_seed`` drives
    the dropout masks and is required when any layer has dropout.
    ``update_stats=False`` leaves the running averages alone (used when a
    frozen net appears inside another net's loss).
    """
    if rng_seed is None and net.spec.has_dropout:
        raise ConfigError("training forward with dropout needs rng_seed")
    layers: list = []
    out = _layers(net, batch, layers, rng_seed, update_stats)
    return out, MlpCache(version=net.version, n_rows=out.shape[0], layers=layers)


def forward_eval(net: MlpNetwork, batch: np.ndarray) -> np.ndarray:
    """The inference pass: batchnorm reads the running statistics,
    dropout is the identity, and nothing is cached or written, so it
    leaves the net (and any cache taken from it) as it found it.

    Each layer works in place on the fresh array its product ``h @ W``
    returns, never on ``batch`` or the net's vectors, and gives the bits
    of the training pass's out-of-place expressions."""
    return _layers(net, batch, None)


def mean_forward_eval(net: MlpNetwork, blocks) -> dict:
    """Row means of the inference pass over groups of rows, ``{key: mean}``.
    ``blocks`` yields ``(batch, segments)``, each ``(key, lo, hi)`` putting
    rows ``lo:hi`` of ``batch`` in group ``key``; a group may run on into
    later blocks.  The last layer must be affine, so it runs once per
    group, on the mean of its inputs; the other layers run once per
    block, and memory is that of one block.  A mean has the bits of
    ``.mean(axis=0)`` over one batch of the group's rows: numpy sums a
    C-contiguous matrix down axis 0 row by row, so a group's running sum
    rides as the leading row of its next segment's sum.  (A one-column
    matrix is summed pairwise instead, and its last bits can differ.)
    """
    spec = net.spec
    last = spec.n_layers - 1
    if spec.batchnorm[last] or spec._acts[last][0] != "identity":
        raise ConfigError(f"the mean passes through an affine last layer only, got "
                          f"{spec.activations[last]!r} with batchnorm {spec.batchnorm[last]}")
    totals, n_rows = {}, {}
    for batch, segments in blocks:
        hidden = _layers(net, batch, None, n_layers=last)
        for key, lo, hi in segments:
            rows = hidden[lo:hi]
            if key in totals:
                rows = np.concatenate([totals[key][None], rows])
            totals[key] = np.add.reduce(rows, axis=0)
            n_rows[key] = n_rows.get(key, 0) + hi - lo
        hidden = rows = None  # the next block's layers run beside none of these
    if not totals:
        raise ConfigError("need at least one row to average")
    return {key: (total / n_rows[key]) @ net.weight(last) + net.bias(last)
            for key, total in totals.items()}


def _layers(net: MlpNetwork, batch: np.ndarray, layers: list | None,
            rng_seed: int | None = None, update_stats: bool = False,
            n_layers: int | None = None) -> np.ndarray:
    """The layer loop behind both passes: the training pass when
    ``layers`` is a list, which receives one record per layer, and the
    inference pass when it is ``None``.  ``n_layers`` stops it after that
    many layers (all by default)."""
    spec = net.spec
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        x = x.reshape(1, -1)
    if x.shape[1] != spec.in_dim:
        raise DimensionMismatch(0, spec.in_dim, x.shape[1])
    h = x
    for i in range(spec.n_layers if n_layers is None else n_layers):
        z = h @ net.weight(i)
        z += net.bias(i)
        if layers is None:
            _infer_in_place(net, i, z)
            h = z
            continue
        sl = net._slices[i]
        rec = {"h_in": h}
        if spec.batchnorm[i]:
            gamma = net.params[sl.gamma]
            mu = z.mean(axis=0)
            var = z.var(axis=0)
            inv = 1.0 / np.sqrt(var + BN_EPS)
            if update_stats:
                m = BN_MOMENTUM
                net.stats[sl.r_mean] = (1 - m) * net.stats[sl.r_mean] + m * mu
                net.stats[sl.r_var] = (1 - m) * net.stats[sl.r_var] + m * var
            xhat = (z - mu) * inv
            z = gamma * xhat + net.params[sl.beta]
            rec["xhat"] = xhat
            rec["inv"] = inv
            rec["gamma"] = gamma
        kind, slope = spec._acts[i]
        if kind == "relu":
            a = np.maximum(z, 0.0)
            rec["z"] = z
        elif kind == "leaky_relu":
            a = _leaky_relu(z, slope)
            rec["z"] = z
        elif kind == "sigmoid":
            a = stable_sigmoid(z)
            rec["a"] = a
        elif kind == "log_softmax":
            zs = z - z.max(axis=1, keepdims=True)
            a = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
            rec["a"] = a
        else:
            a = z
        p = spec.dropout[i]
        if p > 0:
            rng = named_stream(rng_seed, "dropout", i)
            mask = (rng.random(a.shape) >= p) / (1.0 - p)
            a = a * mask
            rec["mask"] = mask
        layers.append(rec)
        h = a
    return h


def _infer_in_place(net: MlpNetwork, i: int, z: np.ndarray) -> None:
    """Layer ``i`` of the inference pass after its affine part, written
    into ``z``: batchnorm by the running statistics as
    ``gamma * ((z - mean) * inv) + beta`` and the activation, each with
    the bits of the out-of-place expression the training pass uses."""
    spec, sl = net.spec, net._slices[i]
    if spec.batchnorm[i]:
        z -= net.stats[sl.r_mean]
        z *= 1.0 / np.sqrt(net.stats[sl.r_var] + BN_EPS)
        z *= net.params[sl.gamma]
        z += net.params[sl.beta]
    kind, slope = spec._acts[i]
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    elif kind == "leaky_relu":
        _leaky_relu(z, slope, out=z)
    elif kind == "sigmoid":
        stable_sigmoid(z, out=z)
    elif kind == "log_softmax":
        z -= z.max(axis=1, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=1, keepdims=True))


def mlp_backward(net: MlpNetwork, cache: MlpCache, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
    """Backpropagate ``grad_out`` through the forward pass behind ``cache``.

    Computes no weight gradient: each layer record on ``cache`` becomes a
    tape entry holding ``h_in`` and ``delta`` (the signal after the
    activation and batchnorm; the weight gradient is ``h_in.T @ delta``)
    plus the small ``b``/``gamma``/``beta`` gradients, from which
    :func:`param_grads` builds the parameter gradient.  The activations
    only backward reads are dropped, so a cache is backpropagated once.
    ``delta`` may alias ``grad_out``: do not change it in place before
    ``param_grads``.  Returns the gradient wrt the batch, or ``None`` and
    never computed when ``input_grad`` is false.  Raises ``StaleCache`` if
    the network changed since the forward pass or ``cache`` was already
    backpropagated.
    """
    spec = net.spec
    _check_cache(net, cache)
    if "delta" in cache.layers[-1]:
        raise StaleCache("activation cache was already backpropagated")
    g = np.asarray(grad_out, dtype=np.float64)
    if g.ndim != 2:
        g = g.reshape(1, -1)
    if g.shape[0] != cache.n_rows:
        raise StaleCache(
            f"upstream gradient has {g.shape[0]} rows, cache saw {cache.n_rows}")
    if g.shape[1] != spec.out_dim:
        raise DimensionMismatch(spec.n_layers - 1, spec.out_dim, g.shape[1])
    for i in reversed(range(spec.n_layers)):
        rec = cache.layers[i]
        tape = {"h_in": rec["h_in"]}
        if "mask" in rec:
            g = g * rec["mask"]
        kind, slope = spec._acts[i]
        if kind == "relu":
            g = g * (rec["z"] > 0)
        elif kind == "leaky_relu":
            g = np.where(rec["z"] > 0, g, slope * g)
        elif kind == "sigmoid":
            a = rec["a"]
            g = g * a * (1.0 - a)
        elif kind == "log_softmax":
            soft = np.exp(rec["a"])
            g = g - soft * g.sum(axis=1, keepdims=True)
        if spec.batchnorm[i]:
            xhat, inv, gamma = rec["xhat"], rec["inv"], rec["gamma"]
            tape["gamma"] = (g * xhat).sum(axis=0)
            tape["beta"] = g.sum(axis=0)
            gx = g * gamma
            # gradient through the batch mean/variance
            n = cache.n_rows
            g = (inv / n) * (n * gx - gx.sum(axis=0)
                             - xhat * (gx * xhat).sum(axis=0))
        tape["delta"] = g
        tape["b"] = g.sum(axis=0)
        cache.layers[i] = tape
        if i or input_grad:
            g = g @ net.weight(i).T
    return g if input_grad else None


def _check_cache(net: MlpNetwork, cache: MlpCache) -> None:
    if cache.version != net.version:
        raise StaleCache("activation cache does not match the network state")
    if len(cache.layers) != net.spec.n_layers:
        raise StaleCache("activation cache has the wrong number of layers")


class GradientTape:
    """A role's summed parameter gradient over backpropagated ``caches``,
    built on demand one window at a time.

    ``windows`` is the spec's plan, ``(start, stop, segments)`` per
    window.  :meth:`build` writes the gradient entries ``start:stop``:
    for each segment, the first cache's product is written straight into
    the window (``np.matmul(..., out=)``, no zero-fill) and each later
    cache's is added in list order, so every entry is the same sum of the
    same terms whatever window holds it.  ``buffer``, when given, is the
    window :meth:`build` fills by default; one buffer of the largest
    ``spec.max_window`` serves every role of a training loop.
    """

    def __init__(self, net: MlpNetwork, caches: list[MlpCache],
                 buffer: np.ndarray | None = None):
        for cache in caches:
            _check_cache(net, cache)
            if "delta" not in cache.layers[0]:
                raise StaleCache("activation cache has not been through mlp_backward")
        if buffer is not None and buffer.size < net.spec.max_window:
            raise ConfigError(f"gradient window buffer holds {buffer.size} entries, "
                              f"the spec needs {net.spec.max_window}")
        self.caches = caches
        self.size = net.params.size
        self.windows = net.spec._windows
        self._spec = net.spec
        self._buffer = buffer

    def build(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """Write the gradient entries of window ``k`` into ``out`` (by
        default the start of the buffer) and return it."""
        start, stop, segments = self.windows[k]
        if out is None:
            if self._buffer is None:
                self._buffer = np.empty(self._spec.max_window)
            out = self._buffer[:stop - start]
        if not self.caches:
            out.fill(0.0)
        for key, i, r0, r1, lo, hi in segments:
            dst = out[lo:hi]
            if key == "W":
                dst = dst.reshape(r1 - r0, -1)
            for c, cache in enumerate(self.caches):
                tape = cache.layers[i]
                if key == "W":
                    h_in = tape["h_in"][:, r0:r1].T
                    if c == 0:
                        np.matmul(h_in, tape["delta"], out=dst)
                    else:
                        dst += h_in @ tape["delta"]
                elif c == 0:
                    dst[...] = tape[key]
                else:
                    dst += tape[key]
        return out

    def bound(self) -> float:
        """An upper bound on the magnitude of every gradient entry: per
        layer, ``sum_c n_rows_c * max|h_in_c| * max|delta_c|`` plus the
        largest ``b``/``gamma``/``beta`` entries, maximised over layers.
        NaN or inf when any tape entry is not finite."""
        per_layer = np.zeros(self._spec.n_layers)
        with np.errstate(over="ignore", invalid="ignore"):
            for cache in self.caches:
                for i, tape in enumerate(cache.layers):
                    per_layer[i] += (cache.n_rows * np.abs(tape["h_in"]).max()
                                     * np.abs(tape["delta"]).max())
                    for key in ("b", "gamma", "beta"):
                        if key in tape:
                            per_layer[i] += np.abs(tape[key]).max()
        return float(per_layer.max())


def param_grads(net: MlpNetwork, caches: list[MlpCache], out: np.ndarray) -> np.ndarray:
    """Write the summed parameter gradient of backpropagated ``caches``
    into ``out``, a float64 vector shaped like the parameters, and return
    it: every window of a :class:`GradientTape` built straight into its
    slice of ``out``.  An empty list writes zeros."""
    if out.shape != net.params.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ConfigError(f"gradient buffer must be a contiguous float64 vector shaped "
                          f"{net.params.shape}, got {out.dtype} {out.shape}")
    tape = GradientTape(net, caches)
    for k, (start, stop, _) in enumerate(tape.windows):
        tape.build(k, out[start:stop])
    return out
