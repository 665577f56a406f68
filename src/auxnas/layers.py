"""Composite layers: the six adaptor operators, the two aggregators, ASPP,
and the conv/BN building blocks shared by the main networks and the
auxiliary modules.

Operator index order is frozen; it defines the controller token semantics
and the meaning of serialized genotypes.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor


class GenotypeError(Exception):
    """A genotype violates a structural rule (availability, skip channels)."""


class AdaptorOp(IntEnum):
    SEP_CONV3X3 = 0
    CONV1X1 = 1
    SEP_CONV3X3_DIL3 = 2
    SEP_CONV3X3_DIL6 = 3
    SKIP_CONNECT = 4
    DEFORM_CONV3X3 = 5


class AggOp(IntEnum):
    SUM = 0
    CONCAT = 1


ADAPTOR_OP_NAMES = ("sep_conv3x3", "conv1x1", "sep_conv3x3_dil3",
                    "sep_conv3x3_dil6", "skip_connect", "deform_conv3x3")
AGG_OP_NAMES = ("sum", "concat")


class BuildCtx:
    """Bundles the registry, init rng, and dtype used while wiring a network."""

    def __init__(self, ps: ParamSet, rng: np.random.Generator, dtype=np.float32):
        self.ps = ps
        self.rng = rng
        self.dtype = dtype

    def he_conv(self, cout, cin_per_group, k):
        std = np.sqrt(2.0 / (cin_per_group * k * k))
        return (std * self.rng.standard_normal((cout, cin_per_group, k, k))).astype(self.dtype)


class ConvBN:
    """conv (no bias) -> batch norm -> ReLU."""

    def __init__(self, ctx: BuildCtx, prefix: str, tag: str, cin: int, cout: int, k: int,
                 *, stride: int = 1, dilation: int = 1, groups: int = 1, pad: int = 0):
        self.w = ctx.ps.add(f"{prefix}.w", ctx.he_conv(cout, cin // groups, k), tag)
        self.gamma = ctx.ps.add(f"{prefix}.bn_g", np.ones(cout, dtype=ctx.dtype), tag)
        self.beta = ctx.ps.add(f"{prefix}.bn_b", np.zeros(cout, dtype=ctx.dtype), tag)
        self.rmean = ctx.ps.add(f"{prefix}.bn_rm", np.zeros(cout, dtype=ctx.dtype), tag,
                                trainable=False)
        self.rvar = ctx.ps.add(f"{prefix}.bn_rv", np.ones(cout, dtype=ctx.dtype), tag,
                               trainable=False)
        self.stride, self.dilation, self.groups, self.pad = stride, dilation, groups, pad

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        y = ad.conv2d(x, self.w, stride=self.stride, dilation=self.dilation,
                      groups=self.groups, pad=self.pad)
        return self.normalize(y, mode)

    def normalize(self, y: Tensor, mode: str) -> Tensor:
        """The block's BN, then ReLU, on a conv output."""
        y = ad.batch_norm(y, self.gamma, self.beta, self.rmean, self.rvar, mode=mode)
        return ad.relu(y)


class Conv:
    """Plain conv with bias, used by prediction heads and the offset predictor."""

    def __init__(self, ctx: BuildCtx, prefix: str, tag: str, cin: int, cout: int, k: int,
                 *, pad: int = 0, zero_init: bool = False):
        w0 = np.zeros((cout, cin, k, k), dtype=ctx.dtype) if zero_init \
            else ctx.he_conv(cout, cin, k)
        self.w = ctx.ps.add(f"{prefix}.w", w0, tag)
        self.b = ctx.ps.add(f"{prefix}.b", np.zeros(cout, dtype=ctx.dtype), tag)
        self.pad = pad

    def __call__(self, x: Tensor, mode: str = "train") -> Tensor:
        return ad.conv2d(x, self.w, self.b, pad=self.pad)


class SepConv:
    """Depthwise 3x3 (given dilation) then pointwise 1x1, each conv+BN+ReLU."""

    def __init__(self, ctx: BuildCtx, prefix: str, tag: str, cin: int, cout: int, dilation: int):
        self.depthwise = ConvBN(ctx, f"{prefix}.dw", tag, cin, cin, 3,
                                dilation=dilation, groups=cin, pad=dilation)
        self.pointwise = ConvBN(ctx, f"{prefix}.pw", tag, cin, cout, 1)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        return self.pointwise(self.depthwise(x, mode), mode)


class Identity:
    def __call__(self, x: Tensor, mode: str) -> Tensor:
        return x


@lru_cache(maxsize=64)
def _deform_base_grid(h: int, w: int, dtype_name: str):
    """Sampling anchors (9*h*w, 2) into a 1-padded image for zero offsets,
    tap-major: all pixels of tap 0, then of tap 1, ..."""
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    ky, kx = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    # padded coordinate = output coord + kernel tap - 1 (taps span -1..1) + 1 (pad shift)
    py = ky.reshape(9, 1) + ys.reshape(1, h * w)
    px = kx.reshape(9, 1) + xs.reshape(1, h * w)
    return np.stack([py, px], axis=-1).reshape(9 * h * w, 2).astype(dtype_name)


def deform_conv3x3(x: Tensor, offsets: Tensor, w: Tensor) -> Tensor:
    """3x3 convolution sampled at offset locations via bilinear reads.

    offsets is (N, 18, H, W) with channels (dy_0, dx_0, ..., dy_8, dx_8) per
    kernel tap in row-major tap order. The input is zero-padded by one pixel
    before sampling, so zero offsets reproduce an ordinary 3x3 conv with
    pad=1; samples pushed further out clamp into the zero ring. The points
    are tap-major, so the (N, C, 9*H*W) samples are already the (N, C*9, H*W)
    column matrix of the weight's (O, C*9) view.
    """
    n, c, h, ww = x.shape
    cout = w.shape[0]
    if offsets.shape != (n, 18, h, ww):
        raise ad.DimensionError(f"deform offsets shape {offsets.shape}")
    xpad = ad.pad2d(x, 1)
    off = ad.reshape(offsets, (n, 9, 2, h, ww))
    off = ad.transpose(off, (0, 1, 3, 4, 2))
    off = ad.reshape(off, (n, 9 * h * ww, 2))
    base = _deform_base_grid(h, ww, np.dtype(x.dtype).name)
    pts = ad.add(off, Tensor(np.broadcast_to(base, (n, 9 * h * ww, 2)).copy()))
    col = ad.reshape(ad.grid_sample_bilinear(xpad, pts), (n, c * 9, h * ww))
    out = ad.matmul(ad.reshape(w, (cout, c * 9)), col)
    return ad.reshape(out, (n, cout, h, ww))


class DeformConv:
    """Deformable 3x3 conv: a zero-initialized plain 3x3 conv predicts the 18
    offset channels, then the offset samples feed a ConvBN's 3x3 weight, BN,
    ReLU (at zero offsets, exactly that ConvBN with pad=1)."""

    def __init__(self, ctx: BuildCtx, prefix: str, tag: str, cin: int, cout: int):
        self.offset = Conv(ctx, f"{prefix}.off", tag, cin, 18, 3, pad=1, zero_init=True)
        self.conv = ConvBN(ctx, prefix, tag, cin, cout, 3, pad=1)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        y = deform_conv3x3(x, self.offset(x), self.conv.w)
        return self.conv.normalize(y, mode)


def build_adaptor_op(op: AdaptorOp, ctx: BuildCtx, prefix: str, tag: str,
                     cin: int, c_aux: int):
    """Instantiate one searched adaptor operator mapping cin -> c_aux channels.

    skip_connect is a true identity and therefore only legal when the input
    already carries c_aux channels; that rule is what invalidates genotypes
    wiring skip directly to a raw encoder tap.
    """
    op = AdaptorOp(op)
    if op == AdaptorOp.SEP_CONV3X3:
        return SepConv(ctx, prefix, tag, cin, c_aux, 1)
    if op == AdaptorOp.CONV1X1:
        return ConvBN(ctx, prefix, tag, cin, c_aux, 1)
    if op == AdaptorOp.SEP_CONV3X3_DIL3:
        return SepConv(ctx, prefix, tag, cin, c_aux, 3)
    if op == AdaptorOp.SEP_CONV3X3_DIL6:
        return SepConv(ctx, prefix, tag, cin, c_aux, 6)
    if op == AdaptorOp.SKIP_CONNECT:
        if cin != c_aux:
            raise GenotypeError(
                f"skip_connect needs {c_aux} input channels, got {cin} (raw tap?)")
        return Identity()
    if op == AdaptorOp.DEFORM_CONV3X3:
        return DeformConv(ctx, prefix, tag, cin, c_aux)
    raise GenotypeError(f"unknown adaptor op {op}")


class SumAgg:
    def __call__(self, a: Tensor, b: Tensor, mode: str) -> Tensor:
        return ad.add(a, b)


class ConcatAgg:
    """Channel concat then a 1x1 projection back to the aux width."""

    def __init__(self, ctx: BuildCtx, prefix: str, tag: str, c_aux: int):
        self.proj = ConvBN(ctx, f"{prefix}.proj", tag, 2 * c_aux, c_aux, 1)

    def __call__(self, a: Tensor, b: Tensor, mode: str) -> Tensor:
        return self.proj(ad.concat_channels([a, b]), mode)


def build_aggregator(op: AggOp, ctx: BuildCtx, prefix: str, tag: str, c_aux: int):
    op = AggOp(op)
    if op == AggOp.SUM:
        return SumAgg()
    return ConcatAgg(ctx, prefix, tag, c_aux)


class Aspp:
    """Four parallel context branches (1x1, two dilated 3x3, global pool)
    concatenated and projected back to the input channel count. Dilation
    rates are scaled down for toy-resolution feature maps. The dilated
    branches pad by edge replication so constant inputs stay constant."""

    def __init__(self, ctx: BuildCtx, prefix: str, tag: str, cin: int,
                 rates: tuple[int, int] = (2, 4)):
        cb = max(cin // 2, 4)
        self.rates = rates
        self.b0 = ConvBN(ctx, f"{prefix}.b0", tag, cin, cb, 1)
        self.b1 = ConvBN(ctx, f"{prefix}.b1", tag, cin, cb, 3, dilation=rates[0])
        self.b2 = ConvBN(ctx, f"{prefix}.b2", tag, cin, cb, 3, dilation=rates[1])
        self.b3 = ConvBN(ctx, f"{prefix}.pool", tag, cin, cb, 1)
        self.proj = ConvBN(ctx, f"{prefix}.proj", tag, 4 * cb, cin, 1)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        h, w = x.shape[2], x.shape[3]
        pooled = ad.reduce_mean(x, axes=(2, 3), keepdims=True)
        ctx_branch = ad.bilinear_resize(self.b3(pooled, mode), h, w)
        parts = [self.b0(x, mode),
                 self.b1(ad.pad2d_replicate(x, self.rates[0]), mode),
                 self.b2(ad.pad2d_replicate(x, self.rates[1]), mode),
                 ctx_branch]
        return self.proj(ad.concat_channels(parts), mode)


class TaskHead:
    """1x1 conv to the task channel count, bilinear resize to the label size,
    then the task output transform (softplus for depth positivity, per-pixel
    L2 normalization for surface normals)."""

    def __init__(self, ctx: BuildCtx, prefix: str, tag: str, cin: int, cout: int, kind: str):
        self.conv = Conv(ctx, prefix, tag, cin, cout, 1)
        self.kind = kind

    def __call__(self, x: Tensor, out_h: int, out_w: int, mode: str = "train") -> Tensor:
        y = self.conv(x)
        if y.shape[2] != out_h or y.shape[3] != out_w:
            y = ad.bilinear_resize(y, out_h, out_w)
        if self.kind == "depth":
            return ad.softplus(y)
        if self.kind == "normal":
            return ad.l2_normalize(y, axis=1)
        return y
