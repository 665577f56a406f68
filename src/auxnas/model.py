"""Hard-parameter-sharing networks: a shared encoder exposing P taps plus
per-task decoders, in Baseline / Context / U-shape variants.

Every parameter carries exactly one ownership tag; task isolation and the
aux-removal guarantee follow from the tag partition.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor, check_finite
from .data import FormatError, read_exact, read_tensor_stream, write_tensor_stream
from .layers import Aspp, BuildCtx, ConvBN, TaskHead

TAP_CHANNELS = (8, 16, 24, 32)
P_TAPS = 4
STEM_CHANNELS = 8
VARIANTS = ("baseline", "context", "ushape")
TASK_KINDS = ("seg", "depth", "normal")


class ConfigError(Exception):
    """Invalid model / strategy / CLI configuration."""


@dataclass(frozen=True)
class TaskSpec:
    """One prediction task. kind determines the head width and metrics."""

    kind: str
    classes: int = 0  # segmentation class count; unused otherwise

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.kind == "seg" and self.classes < 2:
            raise ConfigError("segmentation needs at least 2 classes")

    @property
    def out_channels(self) -> int:
        return {"seg": self.classes, "depth": 1, "normal": 3}[self.kind]


@dataclass
class MtlModel:
    variant: str
    tasks: list[TaskSpec]
    params: ParamSet
    stem: ConvBN = None
    stages: list[ConvBN] = field(default_factory=list)
    aspp: Aspp | None = None
    decoders: dict[int, object] = field(default_factory=dict)

    @property
    def tap_channels(self) -> tuple[int, ...]:
        return TAP_CHANNELS

    def forward(self, x: np.ndarray, mode: str = "train") -> tuple[dict[int, Tensor], list[Tensor]]:
        """Main-path forward: per-task predictions plus the P encoder taps.

        Predictions depend only on shared and task(t) parameters; the taps
        feed auxiliary modules downstream.
        """
        xt = x if isinstance(x, Tensor) else Tensor(x)
        h, w = xt.shape[2], xt.shape[3]
        feat = self.stem(xt, mode)
        taps = []
        for i, stage in enumerate(self.stages):
            feat = check_finite(stage(feat, mode), f"encoder.stage{i + 1}")
            taps.append(feat)
        dec_in = taps[-1]
        if self.aspp is not None:
            dec_in = check_finite(self.aspp(dec_in, mode), "encoder.aspp")
        preds = {}
        for t, dec in self.decoders.items():
            preds[t] = check_finite(dec(dec_in, taps, h, w, mode), f"decoder.t{t}")
        return preds, taps


class BaselineDecoder:
    """Two 3x3 conv blocks on the final representation, then the task head."""

    def __init__(self, ctx: BuildCtx, prefix: str, tag: str, cin: int, task: TaskSpec):
        self.c1 = ConvBN(ctx, f"{prefix}.c1", tag, cin, cin, 3, pad=1)
        self.c2 = ConvBN(ctx, f"{prefix}.c2", tag, cin, cin, 3, pad=1)
        self.head = TaskHead(ctx, f"{prefix}.head", tag, cin, task.out_channels, task.kind)

    def __call__(self, dec_in: Tensor, taps: list[Tensor], h: int, w: int, mode: str) -> Tensor:
        y = self.c2(self.c1(dec_in, mode), mode)
        return self.head(y, h, w, mode)


class UshapeDecoder:
    """Three upsample-concat-conv fusion steps over taps 3, 2, 1, then the head."""

    def __init__(self, ctx: BuildCtx, prefix: str, tag: str, task: TaskSpec):
        chans = TAP_CHANNELS
        self.fuse = []
        cprev = chans[3]
        for step, tap_idx in enumerate((2, 1, 0)):
            cout = chans[tap_idx]
            self.fuse.append(ConvBN(ctx, f"{prefix}.fuse{step}", tag,
                                    cprev + chans[tap_idx], cout, 3, pad=1))
            cprev = cout
        self.head = TaskHead(ctx, f"{prefix}.head", tag, cprev, task.out_channels, task.kind)

    def __call__(self, dec_in: Tensor, taps: list[Tensor], h: int, w: int, mode: str) -> Tensor:
        y = dec_in
        for step, tap_idx in enumerate((2, 1, 0)):
            tap = taps[tap_idx]
            y = ad.bilinear_resize(y, tap.shape[2], tap.shape[3])
            y = self.fuse[step](ad.concat_channels([y, tap]), mode)
        return self.head(y, h, w, mode)


def build_model(variant: str, tasks: list[TaskSpec], rng: np.random.Generator,
                dtype=np.float32, input_hw: tuple[int, int] | None = None) -> MtlModel:
    """Assemble a model: stem conv 3->8, four stride-2 encoder stages with
    channels (8, 16, 24, 32) whose outputs are the taps, and one decoder per
    task. The U-shape fusion steps need the input size divisible by 2^P.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if not 1 <= len(tasks) <= 3:
        raise ConfigError(f"need 1..3 tasks, got {len(tasks)}")
    kinds = [t.kind for t in tasks]
    if len(set(kinds)) != len(kinds):
        raise ConfigError("duplicate task kinds are not supported")
    if input_hw is not None:
        h, w = input_hw
        if h < 2 or w < 2:
            raise ConfigError("input must be at least 2x2")
        if variant == "ushape" and (h % (2 ** P_TAPS) or w % (2 ** P_TAPS)):
            raise ConfigError(f"ushape needs input divisible by {2 ** P_TAPS}, got {h}x{w}")

    ps = ParamSet()
    ctx = BuildCtx(ps, rng, dtype)
    model = MtlModel(variant=variant, tasks=list(tasks), params=ps)
    model.stem = ConvBN(ctx, "encoder.stem", ad.TAG_SHARED, 3, STEM_CHANNELS, 3, pad=1)
    cin = STEM_CHANNELS
    for i, cout in enumerate(TAP_CHANNELS):
        model.stages.append(ConvBN(ctx, f"encoder.stage{i + 1}", ad.TAG_SHARED,
                                   cin, cout, 3, stride=2, pad=1))
        cin = cout
    if variant == "context":
        model.aspp = Aspp(ctx, "encoder.aspp", ad.TAG_SHARED, TAP_CHANNELS[-1])
    for t, task in enumerate(tasks, start=1):
        tag = ad.tag_task(t)
        if variant == "ushape":
            model.decoders[t] = UshapeDecoder(ctx, f"decoder.t{t}", tag, task)
        else:
            model.decoders[t] = BaselineDecoder(ctx, f"decoder.t{t}", tag,
                                                TAP_CHANNELS[-1], task)
    return model


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"CKPT"
_CKPT_VERSION = 1


def save_checkpoint(path: str, params: ParamSet, variant: str, tasks: list[TaskSpec]) -> None:
    """Single-file container: JSON header then one TNSR block per parameter."""
    names = sorted(params.paths())
    header = {
        "version": _CKPT_VERSION,
        "variant": variant,
        "tasks": [{"kind": t.kind, "classes": t.classes} for t in tasks],
        "tap_channels": list(TAP_CHANNELS),
        "params": [{"name": n, "tag": params.tag(n), "trainable": params.trainable(n)}
                   for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + struct.pack("<IQ", _CKPT_VERSION, len(blob)) + blob)
        for n in names:
            write_tensor_stream(fh, params[n].values)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        if fh.read(4) != _CKPT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file")
        version, hlen = struct.unpack("<IQ", read_exact(fh, 12, "checkpoint header"))
        if version != _CKPT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {version}")
        header = json.loads(read_exact(fh, hlen, "checkpoint header"))
        if header.get("tap_channels") != list(TAP_CHANNELS):
            raise ConfigError(f"{path}: tap_channels {header.get('tap_channels')}, "
                              f"expected {list(TAP_CHANNELS)}")
        state = {}
        for entry in header["params"]:
            state[entry["name"]] = read_tensor_stream(fh)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last tensor")
    return header, state
