"""Tape-based reverse-mode automatic differentiation over dense numpy buffers.

Activations use NCHW layout. Ops executed while a Tape is active (as a
context manager on the current thread) are recorded in forward order;
``Tape.backward`` replays them in reverse and consumes the tape: each
record and the state its vjp saved are dropped as soon as that vjp has
run, and a second backward on the same tape raises ``ContractError``.
The tape holds no tensors. A recorded op's output carries a node (tape
token, op index), and a record names its inputs as a leaf tensor, a
producer index or nothing, so an activation that no vjp saved is freed as
soon as the forward drops it. With no active tape the same ops run as
plain numpy forwards.

Leaf gradients accumulate across backward calls, and so across tapes;
``ParamSet.zero_grad`` resets them. A tensor recorded on another tape is a
constant to this one. A tape and its tensors belong to one logical
execution context and must not be shared between threads.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)
F64 = np.dtype(np.float64)


class AutodiffError(Exception):
    pass


class DimensionError(AutodiffError):
    """Input shapes violate an op's contract."""


class DegenerateShapeError(DimensionError):
    """An op would produce or reduce over a zero-size extent."""


class ContractError(AutodiffError):
    """API misuse: non-scalar loss, missing grad, foreign tape, ..."""


class NumericError(AutodiffError):
    """Non-finite values surfaced during forward; carries the layer path."""

    def __init__(self, path: str):
        super().__init__(f"non-finite values at {path}")
        self.path = path


class Tensor:
    """Dense array with an optional grad buffer and a tape handle.

    Values are immutable after creation by an op; only ``grad`` mutates
    (and ``values`` of explicitly designated state buffers, e.g. batch
    norm running statistics, which are never recorded on a tape).
    ``node`` is (tape token, op index) when a tape recorded the op that
    made this tensor, else None.
    """

    __slots__ = ("values", "grad", "requires_grad", "node")

    def __init__(self, values: np.ndarray, requires_grad: bool = False):
        self.values = values
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node: tuple[object, int] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def parameter(values, dtype=None) -> Tensor:
    arr = np.asarray(values)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if arr.dtype not in FLOAT_DTYPES:
        raise ContractError(f"parameters must be f32/f64, got {arr.dtype}")
    return Tensor(arr.copy(), requires_grad=True)


_tls = threading.local()


def active_tape() -> "Tape | None":
    return getattr(_tls, "tape", None)


class Tape:
    """Ordered record of primitive ops for one forward pass.

    Each entry keeps the op's inputs, each as a leaf tensor, the index of
    the entry that produced it, or None for a constant, and a closure
    holding the saved intermediates for the backward pass. Recording order
    is topological by construction; backward pops the entries in reverse.
    """

    def __init__(self):
        self._token = object()
        self._ops: list[tuple[tuple[Tensor | int | None, ...], Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise ContractError("a tape is already active on this thread")
        _tls.tape = self
        return self

    def __exit__(self, *exc):
        _tls.tape = None
        return False

    def is_live(self, t: Tensor) -> bool:
        return t.requires_grad or (t.node is not None and t.node[0] is self._token)

    def _ref(self, t: Tensor) -> Tensor | int | None:
        if t.requires_grad:
            return t
        return t.node[1] if self.is_live(t) else None

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> None:
        if self._consumed:
            raise ContractError("op recorded on a tape that backward has consumed")
        out.node = (self._token, len(self._ops))
        self._ops.append((tuple(self._ref(t) for t in inputs), vjp))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad,
        consuming the tape.

        Leaf grads add (+=) across calls so multiple losses sum their
        gradients; intermediate grads are local to this call.
        """
        if self._consumed:
            raise ContractError("backward on a tape that backward has consumed")
        if loss.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        if not self.is_live(loss):
            raise ContractError("loss tensor was not recorded on this tape")
        self._consumed = True
        ones = np.ones(loss.shape, dtype=loss.dtype)
        grads: dict[int, np.ndarray] = {}  # by producing op index

        def _leaf_accumulate(t: Tensor, d: np.ndarray) -> None:
            if t.grad is None:
                t.grad = d.astype(t.dtype, copy=True)
            else:
                t.grad = np.asarray(t.grad + d)  # a 0-d sum is a numpy scalar

        if loss.requires_grad:
            _leaf_accumulate(loss, ones)
        else:
            grads[loss.node[1]] = ones
        ops = self._ops
        while ops:
            inputs, vjp = ops.pop()
            g = grads.pop(len(ops), None)
            if g is None:
                continue
            dins = vjp(g)
            del vjp, g  # the record's saved state goes before the grads accumulate
            for ref, d in zip(inputs, dins):
                if d is None or ref is None:
                    continue
                if isinstance(ref, Tensor):
                    _leaf_accumulate(ref, d)
                else:
                    prev = grads.get(ref)
                    grads[ref] = d if prev is None else prev + d


def _apply(inputs: Sequence[Tensor], out_values: np.ndarray, vjp_builder: Callable) -> Tensor:
    """Wrap a forward result, recording a vjp when the active tape needs one.

    ``vjp_builder(needs)`` receives per-input need flags and returns the
    backward closure; it is only called when at least one input is live.
    """
    out = Tensor(out_values)
    tape = active_tape()
    if tape is not None:
        needs = tuple(tape.is_live(t) for t in inputs)
        if any(needs):
            tape.record(out, tuple(inputs), vjp_builder(needs))
    return out


def _same_dtype(*ts: Tensor) -> None:
    d = ts[0].dtype
    for t in ts[1:]:
        if t.dtype != d:
            raise DimensionError(f"dtype mismatch: {d} vs {t.dtype}")


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    _same_shape(a, b, "add")
    return _apply([a, b], a.values + b.values,
                  lambda needs: lambda g: (g if needs[0] else None, g if needs[1] else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    _same_shape(a, b, "sub")
    return _apply([a, b], a.values - b.values,
                  lambda needs: lambda g: (g if needs[0] else None, -g if needs[1] else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    _same_shape(a, b, "mul")
    av, bv = a.values, b.values
    return _apply([a, b], av * bv,
                  lambda needs: lambda g: (g * bv if needs[0] else None, g * av if needs[1] else None))


def scale(x: Tensor, c: float) -> Tensor:
    c = np.asarray(float(c), dtype=x.dtype)
    return _apply([x], x.values * c, lambda needs: lambda g: (g * c,))


def add_scalar(x: Tensor, c: float) -> Tensor:
    return _apply([x], x.values + np.asarray(float(c), dtype=x.dtype),
                  lambda needs: lambda g: (g,))


def neg(x: Tensor) -> Tensor:
    return scale(x, -1.0)


def relu(x: Tensor) -> Tensor:
    xv = x.values

    def vjp_builder(needs):
        mask = xv > 0  # the backward keeps this, not x
        return lambda g: (g * mask,)

    return _apply([x], np.maximum(xv, 0), vjp_builder)


def abs_(x: Tensor) -> Tensor:
    xv = x.values
    return _apply([x], np.abs(xv),
                  lambda needs: lambda g: (g * np.sign(xv),))


def exp(x: Tensor) -> Tensor:
    ov = np.exp(x.values)
    return _apply([x], ov, lambda needs: lambda g: (g * ov,))


def _sigmoid(xv: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), computed without overflow for large |x|."""
    ov = np.empty_like(xv)
    pos = xv >= 0
    ov[pos] = 1.0 / (1.0 + np.exp(-xv[pos]))
    e = np.exp(xv[~pos])
    ov[~pos] = e / (1.0 + e)
    return ov


def sigmoid(x: Tensor) -> Tensor:
    ov = _sigmoid(x.values)
    return _apply([x], ov, lambda needs: lambda g: (g * ov * (1.0 - ov),))


def tanh(x: Tensor) -> Tensor:
    ov = np.tanh(x.values)
    return _apply([x], ov, lambda needs: lambda g: (g * (1.0 - ov * ov),))


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed without overflow for large |x|."""
    xv = x.values
    ov = np.log1p(np.exp(-np.abs(xv))) + np.maximum(xv, 0)
    return _apply([x], ov, lambda needs: lambda g: (g * _sigmoid(xv),))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; at ties the subgradient routes to the first input."""
    _same_dtype(a, b)
    _same_shape(a, b, "minimum")
    take_a = a.values <= b.values
    return _apply([a, b], np.where(take_a, a.values, b.values),
                  lambda needs: lambda g: (g * take_a if needs[0] else None,
                                           g * ~take_a if needs[1] else None))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; zero subgradient outside the open interval."""
    xv = x.values
    inside = (xv > lo) & (xv < hi)
    return _apply([x], np.clip(xv, lo, hi),
                  lambda needs: lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.shape
    return _apply([x], x.values.reshape(shape),
                  lambda needs: lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(int(i) for i in np.argsort(axes))
    return _apply([x], x.values.transpose(axes),
                  lambda needs: lambda g: (g.transpose(inv),))


def pad2d(x: Tensor, p: int) -> Tensor:
    """Zero-pad the two trailing spatial axes of an NCHW tensor by p."""
    if x.values.ndim != 4:
        raise DimensionError("pad2d expects NCHW input")
    n, c, h, w = x.shape
    ov = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    ov[:, :, p:p + h, p:p + w] = x.values
    return _apply([x], ov,
                  lambda needs: lambda g: (g[:, :, p:g.shape[2] - p, p:g.shape[3] - p] if p else g,))


def pad2d_replicate(x: Tensor, p: int) -> Tensor:
    """Edge-replicate padding of the trailing spatial axes; keeps constant
    inputs constant, unlike zero padding."""
    if x.values.ndim != 4:
        raise DimensionError("pad2d_replicate expects NCHW input")
    h, w = x.shape[2:]
    ri, ci = (np.clip(np.arange(-p, s + p), 0, s - 1) for s in (h, w))
    ov = x.values[:, :, ri][:, :, :, ci]
    return _apply([x], ov, lambda needs: lambda g: (_fold_edges(_fold_edges(g, p, 2), p, 3),))


def _fold_edges(g: np.ndarray, p: int, axis: int) -> np.ndarray:
    """Adjoint of edge replication by p along ``axis``: each padded slab is
    added onto its edge in index order, so every element sums its terms in
    the order ``np.add.at`` over the clipped index would."""
    size = g.shape[axis] - 2 * p
    at = (slice(None),) * axis
    out = np.zeros(g.shape[:axis] + (size,) + g.shape[axis + 1:], dtype=g.dtype)
    for r in range(p):
        out[at + (0,)] += g[at + (r,)]
    out += g[at + (slice(p, p + size),)]
    for r in range(p + size, size + 2 * p):
        out[at + (size - 1,)] += g[at + (r,)]
    return out


def concat_channels(xs: Sequence[Tensor]) -> Tensor:
    if not xs:
        raise DimensionError("concat of empty list")
    _same_dtype(*xs)
    n, _, h, w = xs[0].shape
    for t in xs[1:]:
        if t.values.ndim != 4 or t.shape[0] != n or t.shape[2] != h or t.shape[3] != w:
            raise DimensionError(f"concat: incompatible shape {t.shape} vs {xs[0].shape}")
    sizes = [t.shape[1] for t in xs]
    bounds = np.cumsum([0] + sizes)
    ov = np.concatenate([t.values for t in xs], axis=1)

    def vjp_builder(needs):
        def vjp(g):
            return tuple(g[:, bounds[i]:bounds[i + 1]] if need else None
                         for i, need in enumerate(needs))
        return vjp

    return _apply(list(xs), ov, vjp_builder)


# ---------------------------------------------------------------------------
# reductions and softmax
# ---------------------------------------------------------------------------


def _norm_axes(axes, ndim) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(a % ndim for a in axes)


def reduce(x: Tensor, op: str, axes=None, keepdims: bool = False) -> Tensor:
    """Sum or mean over the given axes."""
    if op not in ("sum", "mean"):
        raise ContractError(f"unknown reduce op {op!r}")
    ax = _norm_axes(axes, x.values.ndim)
    count = 1
    for a in ax:
        if x.shape[a] == 0:
            raise DegenerateShapeError(f"reduce over empty axis {a}")
        count *= x.shape[a]
    ov = x.values.sum(axis=ax, keepdims=keepdims)
    if op == "mean":
        ov = ov / np.asarray(count, dtype=x.dtype)
    in_shape, dtype = x.shape, x.dtype
    kept = tuple(1 if a in ax else s for a, s in enumerate(in_shape))

    def vjp_builder(needs):
        def vjp(g):
            gg = g if keepdims else g.reshape(kept)
            d = np.broadcast_to(gg, in_shape)
            if op == "mean":
                d = d / np.asarray(count, dtype=dtype)
            else:
                d = d.copy()
            return (d,)
        return vjp

    return _apply([x], ov, vjp_builder)


def reduce_sum(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    return reduce(x, "sum", axes, keepdims)


def reduce_mean(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    return reduce(x, "mean", axes, keepdims)


def softmax_log(x: Tensor, axis: int) -> Tensor:
    """Numerically stable log-softmax along one axis."""
    xv = x.values
    m = xv.max(axis=axis, keepdims=True)
    s = xv - m
    lse = np.log(np.exp(s).sum(axis=axis, keepdims=True))
    ov = s - lse

    def vjp_builder(needs):
        def vjp(g):
            return (g - np.exp(ov) * g.sum(axis=axis, keepdims=True),)
        return vjp

    return _apply([x], ov, vjp_builder)


def l2_normalize(x: Tensor, axis: int = 1, eps: float = 1e-12) -> Tensor:
    """x / ||x||_2 along one axis; eps keeps the zero vector finite."""
    xv = x.values
    n = np.sqrt((xv * xv).sum(axis=axis, keepdims=True) + np.asarray(eps, dtype=x.dtype))
    ov = xv / n

    def vjp_builder(needs):
        def vjp(g):
            dot = (g * xv).sum(axis=axis, keepdims=True)
            return (g / n - xv * (dot / (n * n * n)),)
        return vjp

    return _apply([x], ov, vjp_builder)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 2-D or leading-batched 3-D operands."""
    _same_dtype(a, b)
    av, bv = a.values, b.values
    if av.ndim not in (2, 3) or bv.ndim not in (2, 3):
        raise DimensionError("matmul supports 2-D or 3-D operands")
    if av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul: inner dims {av.shape} @ {bv.shape}")
    ov = np.matmul(av, bv)

    def vjp_builder(needs):
        def vjp(g):
            da = db = None
            if needs[0]:
                da = np.matmul(g, bv.swapaxes(-1, -2))
                while da.ndim > av.ndim:
                    da = da.sum(axis=0)
            if needs[1]:
                db = np.matmul(av.swapaxes(-1, -2), g)
                while db.ndim > bv.ndim:
                    db = db.sum(axis=0)
            return (da, db)
        return vjp

    return _apply([a, b], ov, vjp_builder)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w + b for 2-D x (rows are batch items); bias broadcasts over rows."""
    _same_dtype(x, w)
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise DimensionError(f"linear: {xv.shape} @ {wv.shape}")
    ov = xv @ wv
    inputs = [x, w]
    if b is not None:
        if b.shape != (wv.shape[1],):
            raise DimensionError(f"linear bias shape {b.shape}")
        ov = ov + b.values
        inputs.append(b)

    def vjp_builder(needs):
        def vjp(g):
            outs = [g @ wv.T if needs[0] else None,
                    xv.T @ g if needs[1] else None]
            if b is not None:
                outs.append(g.sum(axis=0) if needs[2] else None)
            return tuple(outs)
        return vjp

    return _apply(inputs, ov, vjp_builder)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; the backward scatter-adds into the table's grad."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise DimensionError("embedding ids out of range")
    ov = table.values[ids]

    def vjp_builder(needs):
        def vjp(g):
            dt = np.zeros_like(table.values)
            np.add.at(dt, ids, g)
            return (dt,)
        return vjp

    return _apply([table], ov, vjp_builder)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv_out_size(h: int, k: int, stride: int, dilation: int, pad: int) -> int:
    return (h + 2 * pad - dilation * (k - 1) - 1) // stride + 1


@lru_cache(maxsize=256)
def _im2col_index(c: int, h: int, w: int, k: int, stride: int, dilation: int, pad: int):
    """Gather index (C*k*k, L) into a flattened padded (C, Hp, Wp) image."""
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = conv_out_size(h, k, stride, dilation, pad)
    wo = conv_out_size(w, k, stride, dilation, pad)
    ci = np.repeat(np.arange(c), k * k)
    ky = np.tile(np.repeat(np.arange(k), k), c)
    kx = np.tile(np.arange(k), c * k)
    oy = stride * np.repeat(np.arange(ho), wo)
    ox = stride * np.tile(np.arange(wo), ho)
    rows = ky[:, None] * dilation + oy[None, :]
    cols = kx[:, None] * dilation + ox[None, :]
    idx = (ci[:, None] * hp + rows) * wp + cols
    return idx.astype(np.intp), hp, wp, ho, wo


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, stride: int = 1,
           dilation: int = 1, groups: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution, x:(N,C,H,W) w:(O,I,k,k) with I = C/groups.

    A depthwise conv (groups == C == O) at stride 1 runs per-tap windowed
    multiply-adds; every other conv runs im2col and a grouped matmul.
    """
    xv, wv = x.values, w.values
    if xv.ndim != 4 or wv.ndim != 4:
        raise DimensionError("conv2d expects NCHW input and OIkk weight")
    _same_dtype(x, w)
    n, c, h, ww = xv.shape
    o, i, k, k2 = wv.shape
    if k != k2:
        raise DimensionError("conv2d kernels must be square")
    if min(k, stride, dilation) < 1 or pad < 0:
        raise DimensionError("conv2d: k, stride, dilation must be >= 1 and pad >= 0")
    if c % groups or o % groups:
        raise DimensionError(f"conv2d: channels {c}/{o} not divisible by groups {groups}")
    if i != c // groups:
        raise DimensionError(f"conv2d: weight expects {i} input channels/group, x has {c // groups}")
    ho = conv_out_size(h, k, stride, dilation, pad)
    wo = conv_out_size(ww, k, stride, dilation, pad)
    if ho < 1 or wo < 1:
        raise DegenerateShapeError(f"conv2d output {ho}x{wo} for input {h}x{ww}")
    if groups == c == o and stride == 1:
        ov, x_w_grads = _depthwise_conv2d(xv, wv, dilation, pad, ho, wo)
    else:
        ov, x_w_grads = _im2col_conv2d(xv, wv, stride, dilation, groups, pad, ho, wo)
    inputs = [x, w]
    if b is not None:
        if b.shape != (o,):
            raise DimensionError(f"conv2d bias shape {b.shape}, expected ({o},)")
        ov = ov + b.values.reshape(1, o, 1, 1)
        inputs.append(b)

    def vjp_builder(needs):
        def vjp(g):
            outs = list(x_w_grads(g, needs[0], needs[1]))
            if b is not None:
                outs.append(g.sum(axis=(0, 2, 3)) if needs[2] else None)
            return tuple(outs)
        return vjp

    return _apply(inputs, ov, vjp_builder)


def _im2col_conv2d(xv, wv, stride, dilation, groups, pad, ho, wo):
    """conv2d's general kernel; returns y and grads(g, need_x, need_w) -> (dx, dw).

    Forward gathers a C-contiguous im2col matrix and runs one grouped
    matmul. The backward folds the column gradient back (col2im) with k*k
    strided slice-adds into a float64 buffer, one per kernel tap in
    (ky, kx) order, so each input pixel sums its terms in a fixed order.
    """
    n, c, h, ww = xv.shape
    o, i, k, _ = wv.shape
    dtype = xv.dtype  # the backward keeps this, and not xv itself
    # pointwise fast path: the column matrix is just a reshape of x
    pointwise = k == 1 and stride == 1 and pad == 0
    if pointwise:
        hp = wp = None
        col = xv.reshape(n, c, ho * wo)
    else:
        idx, hp, wp, _, _ = _im2col_index(c, h, ww, k, stride, dilation, pad)
        xp = xv
        if pad:
            xp = np.zeros((n, c, hp, wp), dtype=xv.dtype)
            xp[:, :, pad:pad + h, pad:pad + ww] = xv
        col = np.take(xp.reshape(n, c * hp * wp), idx.ravel(), axis=1)
    og, ckkg = o // groups, i * k * k
    colg = col.reshape(n, groups, ckkg, ho * wo)
    wg = wv.reshape(groups, og, ckkg)
    ov = np.matmul(wg[None], colg).reshape(n, o, ho, wo)

    def grads(g, need_x, need_w):
        gg = g.reshape(n, groups, og, ho * wo)
        dx = dw = None
        if need_w:
            dw = np.matmul(gg, colg.swapaxes(-1, -2)).sum(axis=0).reshape(o, i, k, k)
        if need_x:
            dcol = np.matmul(wg.swapaxes(-1, -2)[None], gg)
            if pointwise:
                dx = dcol.reshape(n, c, h, ww)
            else:
                # channels-last buffer: each slice-add runs its inner loop over n*c
                taps = dcol.reshape(n * c, k, k, ho, wo).transpose(1, 2, 3, 4, 0)
                dxp = np.zeros((hp, wp, n * c))
                ey, ex = stride * (ho - 1) + 1, stride * (wo - 1) + 1
                for ky in range(k):
                    for kx in range(k):
                        y0, x0 = ky * dilation, kx * dilation
                        dxp[y0:y0 + ey:stride, x0:x0 + ex:stride] += taps[ky, kx]
                dx = (dxp[pad:pad + h, pad:pad + ww].transpose(2, 0, 1)
                      .astype(dtype, order="C").reshape(n, c, h, ww))
        return dx, dw

    return ov, grads


def _depthwise_conv2d(xv, wv, dilation, pad, ho, wo):
    """conv2d's kernel for groups == C == O at stride 1, returning as
    ``_im2col_conv2d`` does: per-tap multiply-adds of each channel's weight
    with the window of x the tap reads. Taps that read only padding are
    skipped. dx adds the products w*g into a float64 buffer in (ky, kx)
    order, as col2im does, so it is bitwise equal to it."""
    n, c, h, ww = xv.shape
    k = wv.shape[-1]
    taps = []  # (tap, output window, input window)
    for t in range(k * k):
        sy, sx = (t // k) * dilation - pad, (t % k) * dilation - pad  # input shift
        y0, y1, x0, x1 = max(0, -sy), min(ho, h - sy), max(0, -sx), min(wo, ww - sx)
        if y0 < y1 and x0 < x1:
            taps.append((t, (..., slice(y0, y1), slice(x0, x1)),
                         (..., slice(y0 + sy, y1 + sy), slice(x0 + sx, x1 + sx))))
    wt = wv.reshape(1, c, k * k, 1, 1)  # wt[:, :, t] is tap t's (1, C, 1, 1) weight
    ov = np.zeros((n, c, ho, wo), dtype=xv.dtype)
    for t, out_win, in_win in taps:
        ov[out_win] += wt[:, :, t] * xv[in_win]

    def grads(g, need_x, need_w):
        dx = dw = None
        if need_w:
            dw = np.zeros((c, k * k), dtype=wv.dtype)
            for t, out_win, in_win in taps:
                dw[:, t] = (g[out_win] * xv[in_win]).sum(axis=(0, 2, 3))
            dw = dw.reshape(wv.shape)
        if need_x:
            acc = np.zeros((n, c, h, ww))
            for t, out_win, in_win in taps:
                acc[in_win] += wt[:, :, t] * g[out_win]
            dx = acc.astype(xv.dtype)
        return dx, dw

    return ov, grads


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
               running_var: Tensor, *, mode: str, eps: float = 1e-5,
               momentum: float = 0.1) -> Tensor:
    """Per-channel batch norm on NCHW input.

    Train mode normalizes by batch statistics and updates the running
    buffers in place (exponential moving average, never taped); eval
    mode normalizes by the running buffers and has no backward, so it
    raises ContractError under a tape that would need one.
    """
    xv = x.values
    if xv.ndim != 4:
        raise DimensionError("batch_norm expects NCHW input")
    n, c, h, w = xv.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError("batch_norm affine params must be shape (C,)")
    if eps <= 0:
        raise ContractError("batch_norm eps must be positive")
    if n * h * w == 0:
        raise DegenerateShapeError("batch_norm over an empty batch")
    if mode not in ("train", "eval"):
        raise ContractError(f"batch_norm mode {mode!r}")

    gv = gamma.values.reshape(1, c, 1, 1)
    bv = beta.values.reshape(1, c, 1, 1)
    if mode == "eval":
        inv = 1.0 / np.sqrt(running_var.values + np.asarray(eps, dtype=xv.dtype))
        xhat = (xv - running_mean.values.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
        ov = gv * xhat + bv

        def vjp_builder(needs):
            raise ContractError("batch_norm has no backward in eval mode")

        return _apply([x, gamma, beta], ov, vjp_builder)

    m = n * h * w
    mu = xv.mean(axis=(0, 2, 3))
    xc = xv - mu.reshape(1, c, 1, 1)
    # the sums and divisions np.var makes, without forming xc a second time
    var = np.square(xc).sum(axis=(0, 2, 3)) / m
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=xv.dtype))
    xhat = xc * inv.reshape(1, c, 1, 1)
    ov = gv * xhat + bv
    mom = np.asarray(momentum, dtype=running_mean.dtype)
    running_mean.values[...] = (1 - mom) * running_mean.values + mom * mu
    running_var.values[...] = (1 - mom) * running_var.values + mom * var

    def vjp_builder(needs):
        def vjp(g):
            dgamma = (g * xhat).sum(axis=(0, 2, 3)) if needs[1] else None
            dbeta = g.sum(axis=(0, 2, 3)) if needs[2] else None
            dx = None
            if needs[0]:
                dxhat = g * gv
                s1 = dxhat.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
                s2 = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
                dx = (dxhat - s1 / m - xhat * s2 / m) * inv.reshape(1, c, 1, 1)
            return (dx, dgamma, dbeta)
        return vjp

    return _apply([x, gamma, beta], ov, vjp_builder)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _resize_matrix(in_size: int, out_size: int, dtype: np.dtype) -> np.ndarray:
    """Read-only (out, in) bilinear interpolation matrix for one axis: row o
    is the tent function around o's half-pixel source position, so it holds
    the two source weights 1 - f and f."""
    src = np.clip((np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5, 0.0, in_size - 1.0)
    r = np.maximum(0.0, 1.0 - np.abs(src[:, None] - np.arange(in_size))).astype(dtype)
    r.flags.writeable = False
    return r


def bilinear_resize_array(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Plain-numpy bilinear resize of the trailing two axes (half-pixel
    centers), as the separable product Ry @ arr @ Rx^T."""
    h, w = arr.shape[-2], arr.shape[-1]
    ry = _resize_matrix(h, out_h, arr.dtype)
    rx = _resize_matrix(w, out_w, arr.dtype)
    return ry @ (arr @ rx.T)


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize of an NCHW tensor with half-pixel sample centers.

    The op is linear and separable, Y = Ry X Rx^T with one cached
    interpolation matrix per axis; the backward is Ry^T G Rx, computed in
    float64 and cast back to the input dtype.
    """
    if out_h < 1 or out_w < 1:
        raise DimensionError("bilinear_resize: output size must be >= 1")
    xv = x.values
    if xv.ndim != 4:
        raise DimensionError("bilinear_resize expects NCHW input")
    h, w = xv.shape[2:]
    dtype = xv.dtype  # the backward keeps this, and not xv itself
    ov = bilinear_resize_array(xv, out_h, out_w)

    def vjp(g):
        ry, rx = _resize_matrix(h, out_h, F64), _resize_matrix(w, out_w, F64)
        return ((ry.T @ (g.astype(F64, copy=False) @ rx)).astype(dtype, copy=False),)

    return _apply([x], ov, lambda needs: vjp)


# Elements per bincount in grid_sample_bilinear's backward. Its index,
# float64 weights and their float32 source take 20 bytes an element, so a
# block's temporaries stay near 5 MB.
_BINCOUNT_BLOCK = 1 << 18


def grid_sample_bilinear(x: Tensor, points: Tensor) -> Tensor:
    """Bilinear reads of x:(N,C,H,W) at points:(N,M,2) in (row, col) pixel
    coordinates. Out-of-bounds points clamp to the border (saturating the
    coordinate gradient there). Output is (N,C,M).

    The forward builds one (4, N, M) index of the four corner pixels and
    reads the corners one at a time, each as rows of a channels-last
    (N*H*W, C) copy of x. The backward keeps the two (N, C, M) corner
    differences the point gradient needs instead of the four corners, and
    folds dx back with one bincount per corner and block of channels.
    """
    xv, pv = x.values, points.values
    if xv.ndim != 4 or pv.ndim != 3 or pv.shape[-1] != 2:
        raise DimensionError("grid_sample expects NCHW input and (N,M,2) points")
    if pv.shape[0] != xv.shape[0]:
        raise DimensionError("grid_sample batch mismatch")
    _same_dtype(x, points)
    n, c, h, w = xv.shape
    dtype = xv.dtype  # the backward keeps this, and not xv itself
    py = np.clip(pv[:, :, 0], 0.0, h - 1.0)
    px = np.clip(pv[:, :, 1], 0.0, w - 1.0)
    y0 = np.floor(py).astype(np.intp)
    x0 = np.floor(px).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (py - y0).astype(dtype)[:, None, :]
    wx = (px - x0).astype(dtype)[:, None, :]
    uy, ux = 1 - wy, 1 - wx
    # corner pixels within their sample, in (y0x0, y0x1, y1x0, y1x1) order
    pix = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1])
    rows = xv.transpose(0, 2, 3, 1).reshape(n * h * w, c)
    first_row = np.arange(0, n * h * w, h * w)[:, None]
    v00, v01, v10, v11 = (np.take(rows, i + first_row, axis=0).transpose(0, 2, 1).copy()
                          for i in pix)
    ov = v00 * uy * ux + v01 * uy * wx + v10 * wy * ux + v11 * wy * wx

    def vjp_builder(needs):
        if needs[1]:
            along_y = (v10 - v00) * ux + (v11 - v01) * wx
            along_x = (v01 - v00) * uy + (v11 - v10) * wy

        def vjp(g):
            dx = dp = None
            if needs[0]:
                # whole channels per block: _BINCOUNT_BLOCK elements or one channel
                cb = max(1, min(c, _BINCOUNT_BLOCK // max(1, pix[0].size)))
                acc = np.zeros((n, c, h * w))
                for corner, wgt in zip(pix, (uy * ux, uy * wx, wy * ux, wy * wx)):
                    for c0 in range(0, c, cb):
                        nb = min(cb, c - c0)
                        base = np.arange(0, n * nb * h * w, h * w).reshape(n, nb, 1)
                        acc[:, c0:c0 + nb] += np.bincount(
                            (corner[:, None, :] + base).ravel(),
                            weights=(g[:, c0:c0 + nb] * wgt).ravel().astype(np.float64),
                            minlength=n * nb * h * w).reshape(n, nb, h * w)
                dx = acc.reshape(n, c, h, w).astype(dtype)
            if needs[1]:
                inner_y = ((pv[:, :, 0] > 0) & (pv[:, :, 0] < h - 1)).astype(dtype)
                inner_x = ((pv[:, :, 1] > 0) & (pv[:, :, 1] < w - 1)).astype(dtype)
                dpy = (g * along_y).sum(axis=1)
                dpx = (g * along_x).sum(axis=1)
                dp = np.stack([dpy * inner_y, dpx * inner_x], axis=-1)
            return (dx, dp)
        return vjp

    return _apply([x, points], ov, vjp_builder)


# ---------------------------------------------------------------------------
# parameter registry
# ---------------------------------------------------------------------------

TAG_SHARED = "shared"
TAG_CONTROLLER = "controller"


def tag_task(t: int) -> str:
    return f"task:{t}"


def tag_aux(t: int) -> str:
    return f"aux:{t}"


class ParamSet:
    """Named map from parameter path to Tensor, each path carrying exactly
    one ownership tag (shared / task:t / aux:t / controller). Non-trainable
    entries hold state buffers such as batch-norm running statistics."""

    def __init__(self):
        self._items: dict[str, Tensor] = {}
        self._tags: dict[str, str] = {}

    def add(self, path: str, values: np.ndarray, tag: str, trainable: bool = True) -> Tensor:
        if path in self._items:
            raise ContractError(f"duplicate parameter path {path!r}")
        t = Tensor(np.asarray(values), requires_grad=trainable)
        self._items[path] = t
        self._tags[path] = tag
        return t

    def __getitem__(self, path: str) -> Tensor:
        return self._items[path]

    def __contains__(self, path: str) -> bool:
        return path in self._items

    def __len__(self) -> int:
        return len(self._items)

    def paths(self) -> list[str]:
        return list(self._items)

    def items(self):
        return self._items.items()

    def tag(self, path: str) -> str:
        return self._tags[path]

    def trainable(self, path: str) -> bool:
        return self._items[path].requires_grad

    def trainable_items(self):
        """(path, tensor) per trainable entry, in registration order; an
        entry without a gradient raises."""
        for p, t in self._items.items():
            if not t.requires_grad:
                continue
            if t.grad is None:
                raise ContractError(f"missing gradient for {p!r}")
            yield p, t

    def freeze(self, prefixes: Iterable[str]) -> None:
        """Make every entry whose path starts with one of ``prefixes`` not
        trainable: zero_grad and sgd_step skip it and the tape gives it no
        gradient."""
        prefixes = tuple(prefixes)
        for p, t in self._items.items():
            if p.startswith(prefixes):
                t.requires_grad = False

    def tagged(self, *tags: str) -> list[str]:
        want = set(tags)
        return [p for p, t in self._tags.items() if t in want]

    def zero_grad(self) -> None:
        for t in self._items.values():
            if not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.zeros_like(t.values)
            else:
                t.grad[...] = 0

    def filtered(self, keep) -> "ParamSet":
        """New ParamSet sharing tensors for paths where keep(path, tag) holds."""
        out = ParamSet()
        for p, t in self._items.items():
            if keep(p, self._tags[p]):
                out._items[p] = t
                out._tags[p] = self._tags[p]
        return out

    def load_state_dict(self, state: dict[str, np.ndarray], paths: Iterable[str] | None = None) -> None:
        for p in (paths if paths is not None else self._items):
            if p not in state:
                raise ContractError(f"checkpoint is missing parameter {p!r}")
            src = state[p]
            dst = self._items[p]
            if src.shape != dst.shape:
                raise DimensionError(f"{p!r}: checkpoint shape {src.shape} vs model {dst.shape}")
            dst.values[...] = src.astype(dst.dtype, copy=False)


def check_finite(t: Tensor, path: str) -> Tensor:
    if not np.isfinite(t.values).all():
        raise NumericError(path)
    return t
