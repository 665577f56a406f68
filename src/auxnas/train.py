"""Losses, schedules, optimizer, the training-strategy matrix, evaluation,
and gradient-flow instrumentation.

Strategies: Single(t), Joint, Prior(t), DeepSupervision(t), Kendall,
AuxiSingle(t), AuxiBoth, AuxiNAS(genotype). Prior and AuxiSingle start
from a donor single-task checkpoint's shared weights and divide the
initial learning rate by 10.
"""

from __future__ import annotations

import csv
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, ParamSet, Tape, Tensor
from .auxiliary import Genotype, build_basic_aux, build_from_genotype, strip_aux
from .data import IGNORE_LABEL, SyntheticDataset, augment, collate
from .layers import AggOp, BuildCtx, TaskHead
from .metrics import task_metrics
from .model import ConfigError, TaskSpec, build_model, load_checkpoint, save_checkpoint
from .procs import batch_source, keep_freed_heap

DS_SCALE = 0.1
PRIOR_LR_DIVISOR = 10.0
DEFAULT_PROBE_LAYERS = ("encoder.stage1.w", "encoder.stage2.w", "encoder.stage3.w")
LABEL_KEY = {"seg": "seg", "depth": "dep", "normal": "nrm"}


class DataError(Exception):
    """Labels violate their domain (segmentation class range, depth sign)."""


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def loss_segmentation(logits: Tensor, labels: np.ndarray, ignore: int = IGNORE_LABEL) -> Tensor:
    """Mean cross entropy over non-ignored pixels; 0 when everything is ignored."""
    k = logits.shape[1]
    valid = labels != ignore
    if ((labels >= k) & valid).any() or (labels < 0).any():
        raise DataError(f"segmentation labels outside 0..{k - 1}")
    n_valid = int(valid.sum())
    if n_valid == 0:
        return Tensor(np.zeros((), dtype=logits.dtype))
    onehot = ((labels[:, None] == np.arange(k).reshape(1, k, 1, 1)) & valid[:, None])
    logp = ad.softmax_log(logits, axis=1)
    picked = ad.mul(logp, Tensor(onehot.astype(logits.dtype)))
    return ad.scale(ad.reduce_sum(picked), -1.0 / n_valid)


def loss_depth(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Mean absolute depth error."""
    if (gt <= 0).any():
        raise DataError("depth ground truth must be positive")
    return ad.reduce_mean(ad.abs_(ad.sub(pred, Tensor(gt.astype(pred.dtype)))))


def loss_normal(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Mean (1 - cos) between predicted and ground-truth unit normals."""
    dot = ad.reduce_sum(ad.mul(pred, Tensor(gt.astype(pred.dtype))), axes=(1,))
    return ad.add_scalar(ad.scale(ad.reduce_mean(dot), -1.0), 1.0)


def task_loss(kind: str, pred: Tensor, batch: dict) -> Tensor:
    loss = {"seg": loss_segmentation, "depth": loss_depth, "normal": loss_normal}[kind]
    return loss(pred, batch[LABEL_KEY[kind]])


# ---------------------------------------------------------------------------
# schedule and optimizer
# ---------------------------------------------------------------------------


def poly_lr(it: int, max_iter: int, lr0: float) -> float:
    """lr0 * (1 - it/max_iter)^0.9"""
    if not 0 <= it <= max_iter:
        raise ContractError(f"iteration {it} outside 0..{max_iter}")
    return lr0 * (1.0 - it / max_iter) ** 0.9


def sgd_step(params: ParamSet, lr: float, momentum: float = 0.9,
             weight_decay: float = 1e-4, state: dict | None = None) -> dict:
    """v <- m*v + g + wd*theta; theta <- theta - lr*v (per trainable entry)."""
    if state is None:
        state = {}
    for path, t in params.trainable_items():
        v = state.get(path)
        if v is None:
            v = np.zeros_like(t.values)
        v = momentum * v + t.grad + weight_decay * t.values
        state[path] = v
        t.values -= (lr * v).astype(t.dtype, copy=False)
    return state


# ---------------------------------------------------------------------------
# training strategies
# ---------------------------------------------------------------------------

# kind -> CLI name; a name ending in "-t" takes the task index ("auxi-t2")
STRATEGY_KINDS = {"single": "single-t", "joint": "joint", "prior": "prior-t", "ds": "ds-t",
                  "kendall": "kendall", "auxi_single": "auxi-t", "auxi_both": "auxi-both",
                  "auxi_nas": "auxi-nas"}


@dataclass(frozen=True)
class Strategy:
    kind: str
    task: int = 0
    genotype: Genotype | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        if STRATEGY_KINDS[self.kind].endswith("-t") and self.task < 1:
            raise ConfigError(f"strategy {self.kind} needs a task index")

    @property
    def needs_donor(self) -> bool:
        return self.kind in ("prior", "auxi_single")

    @property
    def has_aux_modules(self) -> bool:
        return self.kind in ("auxi_single", "auxi_both", "auxi_nas")

    def uses_genotype(self, aux_mode: str) -> bool:
        """Searched modules for auxi-nas, and for auxi-both under aux mode
        "genotype"; every other aux strategy trains basic modules."""
        return self.kind == "auxi_nas" or (self.kind == "auxi_both"
                                           and aux_mode == "genotype")

    @property
    def name(self) -> str:
        base = STRATEGY_KINDS[self.kind]
        return f"{base}{self.task}" if base.endswith("-t") else base


def parse_strategy(name: str) -> Strategy:
    """Map a CLI strategy name (e.g. 'auxi-t2', 'joint') to a Strategy."""
    name = name.strip().lower()
    for kind, base in STRATEGY_KINDS.items():
        if name == base:  # a per-task kind without its index fails in Strategy
            return Strategy(kind)
        if base.endswith("-t") and name.startswith(base):
            try:
                return Strategy(kind, task=int(name[len(base):]))
            except ValueError:
                break
    raise ConfigError(f"unknown strategy {name!r}")


@dataclass
class TrainSetup:
    """Everything joint_objective needs besides the batch."""

    model: object
    strategy: Strategy
    task_map: dict[int, int]  # model task index -> config task index
    aux_set: object | None = None
    ds_heads: dict[int, TaskHead] = field(default_factory=dict)  # tap index -> head
    kendall_s: dict[int, Tensor] = field(default_factory=dict)


def joint_objective(setup: TrainSetup, batch: dict, mode: str = "train") -> tuple[Tensor, dict]:
    """Assemble the strategy's objective for one batch.

    Returns the scalar loss tensor and a breakdown of component values
    (keyed by config task index) for run records.
    """
    st = setup.strategy
    model = setup.model
    img = batch["img"]
    h, w = img.shape[2:]
    preds, taps = model.forward(img, mode)
    parts: dict[str, float] = {}
    terms: list[Tensor] = []

    for mt, task in enumerate(model.tasks, start=1):
        loss = task_loss(task.kind, preds[mt], batch)
        ct = setup.task_map[mt]
        parts[f"loss_t{ct}"] = float(loss.values)
        if st.kind == "kendall":
            s = setup.kendall_s[mt]
            parts[f"kendall_s_t{ct}"] = float(s.values)
            loss = ad.add(ad.mul(ad.exp(ad.neg(s)), loss), ad.scale(s, 0.5))
        terms.append(loss)

    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)

    if st.has_aux_modules:
        if setup.aux_set is None:
            raise ConfigError(f"strategy {st.name} requires auxiliary modules")
        aux_preds = setup.aux_set.forward(taps, (h, w), mode)
        for mt in sorted(aux_preds):
            aux_loss = task_loss(model.tasks[mt - 1].kind, aux_preds[mt], batch)
            parts[f"loss_aux_t{setup.task_map[mt]}"] = float(aux_loss.values)
            total = ad.add(total, aux_loss)
    elif setup.aux_set is not None:
        raise ConfigError(f"strategy {st.name} must not carry auxiliary modules")

    if st.kind == "ds":
        mt = st.task
        task = model.tasks[mt - 1]
        ds_sum = None
        for p, head in sorted(setup.ds_heads.items()):
            l_p = task_loss(task.kind, head(taps[p], h, w, mode), batch)
            parts[f"loss_ds_t{setup.task_map[mt]}_tap{p + 1}"] = float(l_p.values)
            ds_sum = l_p if ds_sum is None else ad.add(ds_sum, l_p)
        total = ad.add(total, ad.scale(ds_sum, DS_SCALE))

    parts["loss_total"] = float(total.values)
    return total, parts


def grad_probe(params: ParamSet, layer_paths: tuple[str, ...],
               probe_indices: dict[str, np.ndarray]) -> dict[str, float]:
    """Mean |grad| over each tracked layer's fixed parameter subset."""
    out = {}
    for path in layer_paths:
        if path not in params:
            raise ConfigError(f"probe layer {path!r} not in model")
        g = params[path].grad
        idx = probe_indices[path]
        out[f"probe_{path}"] = 0.0 if g is None else float(np.abs(g.reshape(-1)[idx]).mean())
    return out


def probe_subsets(params: ParamSet, layer_paths: tuple[str, ...],
                  probe_seed: int = 20240501, count: int = 64) -> dict[str, np.ndarray]:
    """Seeded per-layer entry subsets, identical across runs for comparability."""
    subsets = {}
    for path in layer_paths:
        if path not in params:
            raise ConfigError(f"probe layer {path!r} not in model")
        n = params[path].size
        rng = np.random.default_rng(
            np.random.SeedSequence([probe_seed, zlib.crc32(path.encode())]))
        subsets[path] = rng.choice(n, size=min(count, n), replace=False)
    return subsets


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------


@dataclass
class TrainCfg:
    iters: int = 2000
    lr0: float = 0.01
    batch: int = 12
    seed: int = 0
    eval_every: int = 500
    augment: bool = True
    probe_layers: tuple[str, ...] = DEFAULT_PROBE_LAYERS


@dataclass
class AuxCfg:
    mode: str = "basic"  # basic | genotype
    agg: int = int(AggOp.SUM)
    c_aux: int = 16
    genotype: Genotype | None = None


@dataclass
class RunResult:
    strategy: Strategy
    records: list[dict]
    final_metrics: dict | None
    diverged: bool
    model: object
    ckpt_path: str | None = None


def _build_setup(strategy: Strategy, variant: str, cfg_tasks: list[TaskSpec],
                 aux_cfg: AuxCfg, rng_init: np.random.Generator,
                 rng_aux: np.random.Generator, input_hw: tuple[int, int]) -> TrainSetup:
    if strategy.task > len(cfg_tasks):
        raise ConfigError(f"strategy {strategy.name}: config has {len(cfg_tasks)} tasks")
    if strategy.kind == "single":
        model_tasks = [cfg_tasks[strategy.task - 1]]
        task_map = {1: strategy.task}
    else:
        model_tasks = list(cfg_tasks)
        task_map = {i: i for i in range(1, len(cfg_tasks) + 1)}
    model = build_model(variant, model_tasks, rng_init, input_hw=input_hw)
    setup = TrainSetup(model=model, strategy=strategy, task_map=task_map)

    if strategy.has_aux_modules:
        if strategy.kind == "auxi_single":
            aux_tasks = [strategy.task]
        else:
            aux_tasks = list(range(1, len(model_tasks) + 1))
        genotype = strategy.genotype or aux_cfg.genotype
        if strategy.uses_genotype(aux_cfg.mode):
            if genotype is None:
                raise ConfigError(f"strategy {strategy.name} needs a genotype")
            setup.aux_set = build_from_genotype(
                model.params, rng_aux, genotype, model_tasks, model.tap_channels,
                aux_cfg.c_aux)
        else:
            setup.aux_set = build_basic_aux(
                model.params, rng_aux, aux_tasks, model_tasks, model.tap_channels,
                aux_cfg.c_aux, AggOp(aux_cfg.agg))
    elif strategy.kind == "ds":
        ctx = BuildCtx(model.params, rng_aux)
        task = model_tasks[strategy.task - 1]
        for p, cin in enumerate(model.tap_channels):
            setup.ds_heads[p] = TaskHead(ctx, f"ds.t{strategy.task}.tap{p + 1}",
                                         ad.tag_aux(strategy.task), cin,
                                         task.out_channels, task.kind)
    elif strategy.kind == "kendall":
        for mt in range(1, len(model_tasks) + 1):
            setup.kendall_s[mt] = model.params.add(
                f"kendall.s_t{mt}", np.zeros((), dtype=np.float32), ad.tag_aux(mt))
    return setup


def evaluate_split(setup: TrainSetup, ds: SyntheticDataset, split: str,
                   batch_size: int) -> dict[int, dict[str, float]]:
    """Main-head metrics over one split, keyed by config task index."""
    idx = ds.splits[split]
    preds_by_task = {mt: [] for mt in setup.task_map}
    for s in range(0, len(idx), batch_size):
        preds, _ = setup.model.forward(ds.arrays["img"][idx[s:s + batch_size]], "eval")
        for mt in preds_by_task:
            preds_by_task[mt].append(preds[mt].values)
    out = {}
    for mt, task in enumerate(setup.model.tasks, start=1):
        stacked = np.concatenate(preds_by_task[mt])
        gt = ds.arrays[LABEL_KEY[task.kind]][idx]
        if task.kind == "depth":
            gt = gt[:, None]  # the depth head predicts (N, 1, H, W)
        out[setup.task_map[mt]] = task_metrics(task.kind, stacked, gt, ds.k)
    return out


def evaluate_checkpoint(ckpt_path: str, ds: SyntheticDataset, split: str = "val",
                        batch_size: int = 12) -> dict[int, dict[str, float]]:
    """Rebuild the checkpointed model and evaluate it on one split."""
    header, state = load_checkpoint(ckpt_path)
    tasks = [TaskSpec(t["kind"], t["classes"]) for t in header["tasks"]]
    model = build_model(header["variant"], tasks, np.random.default_rng(0))
    model.params.load_state_dict(state)
    setup = TrainSetup(model=model, strategy=Strategy("joint"),
                       task_map={i: i for i in range(1, len(tasks) + 1)})
    return evaluate_split(setup, ds, split, batch_size)


def _batches(ds: SyntheticDataset, train_idx, train_cfg: TrainCfg,
             rng_data: np.random.Generator, rng_augment: np.random.Generator):
    """The run's training batches in order: draw, read, augment, collate."""
    replace = len(train_idx) < train_cfg.batch
    for _ in range(train_cfg.iters):
        picks = rng_data.choice(len(train_idx), size=train_cfg.batch, replace=replace)
        samples = [ds.sample(train_idx[int(i)]) for i in picks]
        if train_cfg.augment:
            samples = [augment(s, rng_augment, (ds.h, ds.w)) for s in samples]
        yield collate(samples)


def run_strategy(strategy: Strategy, ds: SyntheticDataset, variant: str,
                 cfg_tasks: list[TaskSpec], train_cfg: TrainCfg, aux_cfg: AuxCfg,
                 donor_state: dict | None = None, out_dir: str | None = None,
                 train_split: str = "train", eval_split: str = "val") -> RunResult:
    """Execute one full training schedule and (optionally) write artifacts.

    Prior/AuxiSingle require donor_state (a checkpoint state dict); they
    load its shared parameters and divide the learning rate by 10. The
    training batches are built ahead in a forked producer process when a CPU
    is spare (``procs.batch_source``); the outputs are the same either way.
    """
    for split in (train_split, eval_split):
        if not ds.splits.get(split):
            raise ConfigError(f"split {split!r} is empty")
    keep_freed_heap()
    ss = np.random.SeedSequence([train_cfg.seed, 0xA01])
    rng_init, rng_aux, rng_data, rng_augment = [
        np.random.default_rng(c) for c in ss.spawn(4)]

    setup = _build_setup(strategy, variant, cfg_tasks, aux_cfg, rng_init, rng_aux,
                         (ds.h, ds.w))
    model = setup.model
    lr0 = train_cfg.lr0
    if strategy.needs_donor:
        if donor_state is None:
            raise ConfigError(f"strategy {strategy.name} requires a donor checkpoint")
        model.params.load_state_dict(donor_state, paths=model.params.tagged("shared"))
        lr0 = train_cfg.lr0 / PRIOR_LR_DIVISOR

    probe_layers = tuple(train_cfg.probe_layers)
    probe_idx = probe_subsets(model.params, probe_layers)
    train_idx = ds.splits[train_split]

    records: list[dict] = []
    eval_rows: list[dict] = []
    sgd_state: dict = {}
    diverged = False

    def run_eval(it):
        metrics = evaluate_split(setup, ds, eval_split, train_cfg.batch)
        row = {"iter": it}
        for ct in sorted(metrics):
            for name, v in metrics[ct].items():
                row[name] = v
        eval_rows.append(row)
        return metrics

    with batch_source(_batches(ds, train_idx, train_cfg, rng_data, rng_augment),
                      train_cfg.iters) as batches:
        for it, batch in enumerate(batches):
            model.params.zero_grad()
            try:
                with Tape() as tape:
                    total, parts = joint_objective(setup, batch, "train")
                    if not np.isfinite(total.values):
                        raise ad.NumericError("loss")
                    tape.backward(total)
            except ad.NumericError as e:
                diverged = True
                records.append({"iter": it, "lr": poly_lr(it, train_cfg.iters, lr0),
                                "loss_total": float("nan"), "diverged_at": e.path})
                break

            lr = poly_lr(it, train_cfg.iters, lr0)
            row = {"iter": it, "lr": lr, "loss_total": parts["loss_total"]}
            row.update({k: v for k, v in parts.items() if k != "loss_total"})
            row.update(grad_probe(model.params, probe_layers, probe_idx))
            records.append(row)
            sgd_step(model.params, lr, state=sgd_state)

            if train_cfg.eval_every and (it + 1) % train_cfg.eval_every == 0 \
                    and (it + 1) < train_cfg.iters:
                run_eval(it + 1)

    final_metrics = None if diverged else run_eval(train_cfg.iters)
    ckpt_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stripped = strip_aux(model.params)
        ckpt_path = os.path.join(out_dir, "model.ckpt")
        save_checkpoint(ckpt_path, stripped, model.variant, model.tasks)
        _write_csv(os.path.join(out_dir, "run.csv"), records)
        _write_csv(os.path.join(out_dir, "eval.csv"), eval_rows)
    return RunResult(strategy=strategy, records=records, final_metrics=final_metrics,
                     diverged=diverged, model=model, ckpt_path=ckpt_path)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str, rows: list[dict]) -> None:
    """Comma-separated, '.' decimals, LF endings, repr-exact floats."""
    cols: list[str] = []
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[k]) if k in row else "" for k in cols])
