"""Auxiliary modules: train-time-only networks reading the encoder taps,
supervised by task losses, and removable at inference.

Information flows one way (main -> aux), so main predictions never depend
on aux parameters. Searched modules are described by a Genotype: per task,
P cells of (two input locations, two adaptor ops, one aggregator); it
validates itself on construction, and from_tokens is its one parser. Cells
are instantiated task-major and every cell output joins a shared location
list, which is what lets later tasks tap earlier tasks' cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor, tag_aux
from .data import write_json
from .layers import (
    AdaptorOp,
    AggOp,
    BuildCtx,
    ConvBN,
    GenotypeError,
    TaskHead,
    build_adaptor_op,
    build_aggregator,
)
from .model import TaskSpec

OP_VOCAB_VERSION = 1


@dataclass(frozen=True)
class AuxCell:
    """Five tokens: two input locations, two adaptor ops, one aggregator."""

    in1: int
    in2: int
    op1: int
    op2: int
    agg: int

    def tokens(self) -> list[int]:
        return [self.in1, self.in2, self.op1, self.op2, self.agg]


def available_locations(p_taps: int, t: int, p: int) -> list[int]:
    """Legal input locations for cell p of task t (0-based).

    The P taps are always available; a cell output (t2, p2) is available
    when p2 < p and t2 <= t, so a cell reads earlier cells of its own task
    and of every earlier task. Location index of cell (t2, p2) is
    P + t2*P + p2, matching task-major generation order.
    """
    locs = list(range(p_taps))
    for t2 in range(t + 1):
        for p2 in range(p):
            locs.append(p_taps + t2 * p_taps + p2)
    return locs


@dataclass(frozen=True)
class Genotype:
    """Per task, exactly P cells in order; flattens to 5*P*T tokens.
    Construction checks the shape, location availability and op ranges; a
    skip_connect on an input narrower or wider than c_aux fails at build."""

    p: int
    t: int
    cells: tuple[tuple[AuxCell, ...], ...]

    def __post_init__(self):
        if len(self.cells) != self.t or any(len(c) != self.p for c in self.cells):
            raise GenotypeError(f"genotype needs {self.t} x {self.p} cells")
        for t, task_cells in enumerate(self.cells):
            for p, cell in enumerate(task_cells):
                avail = set(available_locations(self.p, t, p))
                for loc in (cell.in1, cell.in2):
                    if loc not in avail:
                        raise GenotypeError(
                            f"cell (task {t}, pos {p}): location {loc} unavailable")
                for op in (cell.op1, cell.op2):
                    if not 0 <= op < len(AdaptorOp):
                        raise GenotypeError(f"adaptor op {op} out of range")
                if not 0 <= cell.agg < len(AggOp):
                    raise GenotypeError(f"aggregator {cell.agg} out of range")

    @classmethod
    def from_tokens(cls, p: int, t: int, seq) -> Genotype:
        """Five tokens per cell in task-major order; the inverse of tokens()."""
        seq = [int(x) for x in seq]
        if len(seq) != 5 * p * t:
            raise GenotypeError(f"expected {5 * p * t} tokens ({p * t} cells), got {len(seq)}")
        cells = [AuxCell(*seq[i:i + 5]) for i in range(0, len(seq), 5)]
        return cls(p, t, tuple(tuple(cells[ti * p:(ti + 1) * p]) for ti in range(t)))

    def flat_cells(self) -> list[AuxCell]:
        return [c for task_cells in self.cells for c in task_cells]

    def tokens(self) -> list[int]:
        return [tok for c in self.flat_cells() for tok in c.tokens()]

    def live_cells(self) -> set[int]:
        """Flat indices of the cells that reach a head: each task's last cell
        (location P + t*P + P-1) and every cell it reads through in1/in2."""
        flat = self.flat_cells()
        stack = [t * self.p + self.p - 1 for t in range(self.t)]
        live: set[int] = set()
        while stack:
            i = stack.pop()
            if i not in live:
                live.add(i)
                stack.extend(loc - self.p for loc in (flat[i].in1, flat[i].in2)
                             if loc >= self.p)
        return live


def genotype_to_json(g: Genotype) -> dict:
    return {"P": g.p, "T": g.t, "op_vocab_version": OP_VOCAB_VERSION,
            "cells": [c.tokens() for c in g.flat_cells()]}


def genotype_from_json(doc) -> Genotype:
    """Inverse of genotype_to_json; a malformed document raises GenotypeError."""
    if not isinstance(doc, dict):
        raise GenotypeError(f"genotype document must be an object, got {type(doc).__name__}")
    if doc.get("op_vocab_version") != OP_VOCAB_VERSION:
        raise GenotypeError(f"op_vocab_version {doc.get('op_vocab_version')} unsupported")
    p, t, rows = doc.get("P"), doc.get("T"), doc.get("cells")
    if not (type(p) is int and type(t) is int):
        raise GenotypeError(f"genotype P and T must be integers, got {p!r} and {t!r}")
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == 5 and all(type(x) is int for x in r)
            for r in rows):
        raise GenotypeError("genotype cells must be a list of five-integer rows")
    return Genotype.from_tokens(p, t, [tok for row in rows for tok in row])


def save_genotype(path: str, g: Genotype) -> None:
    write_json(path, genotype_to_json(g))


def load_genotype(path: str) -> Genotype:
    with open(path) as fh:
        return genotype_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# module construction
# ---------------------------------------------------------------------------


def _align(x: Tensor, ref_hw: tuple[int, int]) -> Tensor:
    """Bilinear-resize x to ref_hw unless it already has that size."""
    if x.shape[2:] != ref_hw:
        return ad.bilinear_resize(x, *ref_hw)
    return x


class BasicAuxSet:
    """Hand-designed modules for a chosen subset of tasks. Task t's chain
    adapts the first tap, then folds in each later tap through an aggregator
    (h_p = h_{p-1} (+) D_p(O_{p+1})); chains[t] holds its adaptors (1x1
    conv -> BN -> ReLU into the aux width), aggregators and head."""

    def __init__(self, ctx: BuildCtx, task_indices: list[int], tasks: list[TaskSpec],
                 tap_channels: tuple[int, ...], c_aux: int, agg: AggOp):
        self.chains: dict[int, tuple[list[ConvBN], list, TaskHead]] = {}
        for t in task_indices:
            tag, prefix, task = tag_aux(t), f"aux.t{t}", tasks[t - 1]
            adaptors = [ConvBN(ctx, f"{prefix}.adapt{p}", tag, cin, c_aux, 1)
                        for p, cin in enumerate(tap_channels)]
            aggs = [build_aggregator(agg, ctx, f"{prefix}.agg{p}", tag, c_aux)
                    for p in range(len(tap_channels) - 1)]
            head = TaskHead(ctx, f"{prefix}.head", tag, c_aux, task.out_channels, task.kind)
            self.chains[t] = (adaptors, aggs, head)

    def forward(self, taps: list[Tensor], out_hw: tuple[int, int],
                mode: str) -> dict[int, Tensor]:
        ref_hw = taps[0].shape[2:]
        preds = {}
        for t, (adaptors, aggs, head) in self.chains.items():
            h = _align(adaptors[0](taps[0], mode), ref_hw)
            for p in range(1, len(taps)):
                h = aggs[p - 1](h, _align(adaptors[p](taps[p], mode), ref_hw), mode)
            preds[t] = head(h, out_hw[0], out_hw[1], mode)
        return preds


class GenotypeAuxSet:
    """All tasks' searched modules, instantiated in generation order so a
    shared location list (taps then cell outputs) resolves every input.

    Every cell is built, draws its parameters and counts for validity, but
    forward evaluates only the live cells (Genotype.live_cells). A cell no
    head reads is never evaluated and its parameters are registered as not
    trainable, so its weights and BN running statistics keep their initial
    values. built[i] is flat cell i as (cell, op1, op2, agg).
    """

    def __init__(self, genotype: Genotype, tasks: list[TaskSpec], ctx: BuildCtx,
                 tap_channels: tuple[int, ...], c_aux: int):
        if genotype.t != len(tasks):
            raise GenotypeError(f"genotype supervises {genotype.t} tasks, model has {len(tasks)}")
        if genotype.p != len(tap_channels):
            raise GenotypeError(f"genotype has {genotype.p} cells/task, model exposes "
                                f"{len(tap_channels)} taps")
        self.genotype = genotype
        self.c_aux = c_aux
        self.live = genotype.live_cells()
        loc_channels = list(tap_channels)
        self.built: list[tuple] = []
        self.heads: dict[int, TaskHead] = {}
        for ti, task_cells in enumerate(genotype.cells):
            tag = tag_aux(ti + 1)
            for pi, cell in enumerate(task_cells):
                prefix = f"aux.t{ti + 1}.cell{pi}"
                op1 = build_adaptor_op(AdaptorOp(cell.op1), ctx, f"{prefix}.op1", tag,
                                       loc_channels[cell.in1], c_aux)
                op2 = build_adaptor_op(AdaptorOp(cell.op2), ctx, f"{prefix}.op2", tag,
                                       loc_channels[cell.in2], c_aux)
                agg = build_aggregator(AggOp(cell.agg), ctx, f"{prefix}.agg", tag, c_aux)
                self.built.append((cell, op1, op2, agg))
                loc_channels.append(c_aux)
            task = tasks[ti]
            self.heads[ti + 1] = TaskHead(ctx, f"aux.t{ti + 1}.head", tag, c_aux,
                                          task.out_channels, task.kind)
        p = genotype.p
        ctx.ps.freeze(f"aux.t{i // p + 1}.cell{i % p}." for i in range(len(self.built))
                      if i not in self.live)

    def forward(self, taps: list[Tensor], out_hw: tuple[int, int],
                mode: str) -> dict[int, Tensor]:
        if len(taps) != self.genotype.p:
            raise GenotypeError(f"expected {self.genotype.p} taps, got {len(taps)}")
        ref_hw = taps[0].shape[2:]
        locs = list(taps)
        p = self.genotype.p
        for i, (cell, op1, op2, agg) in enumerate(self.built):
            if i not in self.live:
                locs.append(None)
                continue
            a1 = _align(op1(locs[cell.in1], mode), ref_hw)
            a2 = _align(op2(locs[cell.in2], mode), ref_hw)
            locs.append(agg(a1, a2, mode))
        preds = {}
        for t, head in self.heads.items():
            last = locs[len(taps) + (t - 1) * p + (p - 1)]
            preds[t] = head(last, out_hw[0], out_hw[1], mode)
        return preds


def build_basic_aux(params: ParamSet, rng: np.random.Generator, task_indices: list[int],
                    tasks: list[TaskSpec], tap_channels: tuple[int, ...], c_aux: int,
                    agg: AggOp = AggOp.SUM, dtype=np.float32) -> BasicAuxSet:
    return BasicAuxSet(BuildCtx(params, rng, dtype), task_indices, tasks, tap_channels,
                       c_aux, AggOp(agg))


def build_from_genotype(params: ParamSet, rng: np.random.Generator, genotype: Genotype,
                        tasks: list[TaskSpec], tap_channels: tuple[int, ...], c_aux: int,
                        dtype=np.float32) -> GenotypeAuxSet:
    ctx = BuildCtx(params, rng, dtype)
    return GenotypeAuxSet(genotype, tasks, ctx, tap_channels, c_aux)


def strip_aux(params: ParamSet) -> ParamSet:
    """Drop every aux-tagged parameter; the remainder is the inference model."""
    return params.filtered(lambda path, tag: not tag.startswith("aux:"))
