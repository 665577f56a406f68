"""Reward shaping, PPO controller updates, candidate evaluation, and the
search loop.

The reward is the geometric mean of per-task scores: accuracy-like metrics
pass through, error-like metrics map through 1/(1+e), and angular errors
are divided by 180 degrees first. Invalid or diverged candidates score 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tape
from .auxiliary import Genotype
from .controller import ControllerPolicy, SampleBatch
from .layers import ADAPTOR_OP_NAMES, AGG_OP_NAMES, GenotypeError
from .metrics import METRIC_REWARD_KIND, PRIMARY_METRIC
from .model import TaskSpec
from .procs import job_pool
from .train import AuxCfg, Strategy, TrainCfg, run_strategy


def score_metric(value: float, kind: str) -> float:
    """Normalize one metric into [0, 1] (monotone: better is always higher)."""
    if kind == "higher":
        return float(value)
    if kind == "lower":
        return 1.0 / (1.0 + float(value))
    if kind == "angle":
        return 1.0 / (1.0 + float(value) / 180.0)
    raise ContractError(f"unknown metric kind {kind!r}")


def compute_reward(metrics: list[tuple[float, str]]) -> tuple[float, bool]:
    """Geometric mean of normalized scores; NaN anywhere means diverged."""
    if not metrics:
        raise ContractError("reward needs at least one metric")
    vals = np.array([v for v, _ in metrics], dtype=np.float64)
    if not np.isfinite(vals).all():
        return 0.0, True
    scores = np.array([score_metric(v, kind) for v, kind in metrics])
    return float(np.prod(scores) ** (1.0 / len(scores))), False


@dataclass
class RewardRecord:
    candidate_id: int
    seed: int
    genotype: Genotype
    metrics: dict[str, float]
    reward: float
    diverged: bool
    budget_iters: int
    wall_ms: int
    valid: bool = True  # False when the genotype never built/trained


# ---------------------------------------------------------------------------
# PPO
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class PpoCfg:
    clip: float = 0.2
    epochs: int = 4
    entropy_coef: float = 0.01
    lr: float = 1e-3
    baseline_decay: float = 0.95


@dataclass
class PpoState:
    baseline: float | None = None
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def _adam_step(params, cfg: PpoCfg, state: PpoState) -> None:
    state.step += 1
    t = state.step
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    for path, tensor in params.trainable_items():
        g = tensor.grad
        m = state.m.get(path)
        if m is None:
            m = np.zeros_like(tensor.values)
            state.v[path] = np.zeros_like(tensor.values)
        v = state.v[path]
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        state.m[path], state.v[path] = m, v
        update = cfg.lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
        tensor.values -= update.astype(tensor.dtype, copy=False)


def ppo_update(policy: ControllerPolicy, batch: list[tuple[np.ndarray, np.ndarray, float]],
               state: PpoState, cfg: PpoCfg = PpoCfg()) -> list[float]:
    """Clipped-surrogate PPO on one batch of (tokens, old log-probs, reward).

    Advantages subtract an EMA baseline (initialized to the first batch's
    mean reward, updated after the epochs). Returns the surrogate loss per
    epoch for diagnostics.
    """
    if not batch:
        raise ContractError("ppo_update needs a non-empty batch")
    tokens = np.stack([b[0] for b in batch])
    old_logp = np.stack([b[1] for b in batch])
    rewards = np.array([b[2] for b in batch], dtype=np.float64)
    if state.baseline is None:
        state.baseline = float(rewards.mean())
    adv = rewards - state.baseline

    n, length = tokens.shape
    dt = policy.embed.dtype
    adv_col = adv.astype(dt)
    losses = []
    for _ in range(cfg.epochs):
        policy.params.zero_grad()
        with Tape() as tape:
            chosen, entropies = policy.score_tokens(tokens)
            min_sum = None
            ent_sum = None
            for pos in range(length):
                ratio = ad.exp(ad.sub(chosen[pos],
                                      ad.Tensor(old_logp[:, pos].astype(dt))))
                adv_t = ad.Tensor(adv_col)
                unclipped = ad.mul(ratio, adv_t)
                clipped = ad.mul(ad.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip), adv_t)
                term = ad.reduce_sum(ad.minimum(unclipped, clipped))
                min_sum = term if min_sum is None else ad.add(min_sum, term)
                ent_sum = entropies[pos] if ent_sum is None else ad.add(ent_sum, entropies[pos])
            surrogate = ad.scale(min_sum, -1.0 / (n * length))
            loss = ad.add(surrogate, ad.scale(ent_sum, -cfg.entropy_coef / length))
            tape.backward(loss)
        losses.append(float(surrogate.values))
        _adam_step(policy.params, cfg, state)
    state.baseline = cfg.baseline_decay * state.baseline \
        + (1 - cfg.baseline_decay) * float(rewards.mean())
    return losses


# ---------------------------------------------------------------------------
# candidate evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalCfg:
    dataset: object            # SyntheticDataset
    variant: str
    tasks: list[TaskSpec]
    short_iters: int = 200
    batch: int = 12
    lr0: float = 0.01
    c_aux: int = 16
    augment: bool = True


def candidate_seed(search_seed: int, candidate_id: int) -> int:
    return search_seed * 1_000_003 + candidate_id


def evaluate_candidate(genotype: Genotype, cfg: EvalCfg, seed: int,
                       candidate_id: int = 0) -> RewardRecord:
    """Train one candidate briefly on meta-train and score the MAIN heads on
    meta-val. Invalid genotypes short-circuit to reward 0 with zero budget.
    """
    t0 = time.monotonic()

    def record(metrics, reward, diverged, budget, valid=True):
        return RewardRecord(candidate_id=candidate_id, seed=seed, genotype=genotype,
                            metrics=metrics, reward=reward, diverged=diverged,
                            budget_iters=budget,
                            wall_ms=int((time.monotonic() - t0) * 1000), valid=valid)

    train_cfg = TrainCfg(iters=cfg.short_iters, lr0=cfg.lr0, batch=cfg.batch,
                         seed=seed, eval_every=0, augment=cfg.augment,
                         probe_layers=())
    aux_cfg = AuxCfg(mode="genotype", c_aux=cfg.c_aux, genotype=genotype)
    try:
        result = run_strategy(Strategy("auxi_nas", genotype=genotype), cfg.dataset,
                              cfg.variant, cfg.tasks, train_cfg, aux_cfg,
                              train_split="meta_train", eval_split="meta_val")
    except GenotypeError:
        return record({}, 0.0, False, 0, valid=False)
    if result.diverged or result.final_metrics is None:
        return record({}, 0.0, True, cfg.short_iters)
    flat_metrics: dict[str, float] = {}
    primary: list[tuple[float, str]] = []
    for ct, task in enumerate(cfg.tasks, start=1):
        for name, v in result.final_metrics[ct].items():
            flat_metrics[f"t{ct}_{name}"] = v
        pm = PRIMARY_METRIC[task.kind]
        primary.append((result.final_metrics[ct][pm], METRIC_REWARD_KIND[pm]))
    reward, diverged = compute_reward(primary)
    return record(flat_metrics, reward, diverged, cfg.short_iters)


# ---------------------------------------------------------------------------
# the search loop
# ---------------------------------------------------------------------------


@dataclass
class SearchCfg:
    candidates: int = 200
    batch: int = 16
    seed: int = 0


@dataclass
class SearchResult:
    best_genotype: Genotype | None
    best_reward: float
    records: list[RewardRecord]
    opstats: list[dict]


def operator_frequencies(genotypes: list[Genotype]) -> dict[str, float]:
    """Fractions of each adaptor / aggregator choice across a batch."""
    ad_counts = np.zeros(len(ADAPTOR_OP_NAMES))
    ag_counts = np.zeros(len(AGG_OP_NAMES))
    for g in genotypes:
        for cell in g.flat_cells():
            ad_counts[cell.op1] += 1
            ad_counts[cell.op2] += 1
            ag_counts[cell.agg] += 1
    out = {}
    ad_total = max(ad_counts.sum(), 1.0)
    ag_total = max(ag_counts.sum(), 1.0)
    for name, c in zip(ADAPTOR_OP_NAMES, ad_counts):
        out[f"freq_{name}"] = float(c / ad_total)
    for name, c in zip(AGG_OP_NAMES, ag_counts):
        out[f"freq_{name}"] = float(c / ag_total)
    return out


def search_loop(policy: ControllerPolicy, search_cfg: SearchCfg, eval_cfg: EvalCfg | None,
                evaluator=None) -> SearchResult:
    """Sample-evaluate-update until the candidate budget is spent.

    ``evaluator(genotype, candidate_id)`` scores a candidate, by default
    ``evaluate_candidate`` at ``candidate_seed``. Each PPO batch's
    candidates are scored in a ``procs.job_pool`` forked once per call, with
    at most ``search_cfg.batch`` workers, so the evaluator runs in the
    workers, or here with one usable CPU. Records come back in candidate
    order, and a candidate gets its own model, tape and rng stream, so the
    results do not depend on the worker count. The controller, PPO and the
    best-candidate tracking run in the calling process.
    """
    if evaluator is None:
        if eval_cfg is None:
            raise ContractError("search_loop needs an eval_cfg or an evaluator")

        def evaluator(genotype, cid):
            return evaluate_candidate(genotype, eval_cfg,
                                      candidate_seed(search_cfg.seed, cid), cid)

    rng = np.random.default_rng(np.random.SeedSequence([search_cfg.seed, 0x5EA]))
    ppo_state = PpoState()
    records: list[RewardRecord] = []
    opstats: list[dict] = []
    best: tuple[float, Genotype | None] = (-1.0, None)
    remaining = search_cfg.candidates
    with job_pool(evaluator, search_cfg.batch) as evaluate:
        while remaining > 0:
            n = min(search_cfg.batch, remaining)
            sample: SampleBatch = policy.sample(rng, n)
            genotypes = [policy.decode(tokens) for tokens in sample.tokens]
            batch_records = evaluate([(g, len(records) + i) for i, g in enumerate(genotypes)])
            records.extend(batch_records)
            for rec, g in zip(batch_records, genotypes):
                # only candidates that actually built and trained are eligible
                if rec.valid and not rec.diverged and rec.reward > best[0]:
                    best = (rec.reward, g)
            ppo_batch = [(sample.tokens[i], sample.log_probs[i], batch_records[i].reward)
                         for i in range(n)]
            ppo_update(policy, ppo_batch, ppo_state)
            row = {"update": len(opstats), "candidates": n,
                   "invalid": sum(not r.valid for r in batch_records),
                   "mean_reward": float(np.mean([r.reward for r in batch_records])),
                   "best_reward": max(best[0], 0.0)}
            row.update(operator_frequencies(genotypes))
            opstats.append(row)
            remaining -= n
    return SearchResult(best_genotype=best[1], best_reward=max(best[0], 0.0),
                        records=records, opstats=opstats)
