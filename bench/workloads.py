"""The benchmark's workloads, driven through the program's Python API.

A run generates and loads its dataset (several times, for ``setup_s``),
repeats identical rounds until its time is spent, and then times the
set-up as many times again. A training round is
one ``run_strategy`` call with an output directory, an ``evaluate_checkpoint``
pass over the aux-stripped checkpoint, and the output checks. A search round
is one ``search_loop`` call, its checks, a retraining of the best wiring with
its own candidate seed, and the same deploy pass and checks for that wiring.
Every round of a run uses the same seeds, so every round must reproduce the
first one's outputs.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from auxnas import search, train
from auxnas.controller import ControllerPolicy
from auxnas.data import SyntheticDataset, gen_synthetic
from auxnas.layers import ADAPTOR_OP_NAMES
from auxnas.metrics import METRIC_REWARD_KIND, PRIMARY_METRIC, task_metrics
from auxnas.model import P_TAPS, TAP_CHANNELS, TaskSpec, build_model, load_checkpoint

import checks
from tracing import Tracer, layer_metrics

BATCH = 12
LR0 = 0.01
C_AUX = 16
SIZE = 32
CLASSES = 5
# Set-up is timed this many times before the rounds and as many times after
# them, so that its median samples the whole run.
SETUP_REPEATS = 5
# The controller seed is part of the search workload, like its variant: with
# it fixed every run samples the same first PPO batch of wirings, and --seed
# changes the dataset and hence the rewards, which steer the later batches.
# Seeding the controller from --seed made the time per valid candidate range
# 0.8-2.7 s and let a 16-candidate search sample no valid wiring at all.
SEARCH_SEED = 0


@dataclass(frozen=True)
class Workload:
    variant: str
    tasks: tuple[str, ...]
    n: int
    val_n: int
    test_n: int
    strategy: str = ""      # training workloads
    iters: int = 0
    candidates: int = 0     # search workload
    ppo_batch: int = 0
    short_iters: int = 0


WORKLOADS = {
    "train-joint-context": Workload("context", ("seg", "depth", "normal"), n=320, val_n=96,
                                    test_n=16, strategy="joint", iters=120),
    "train-auxi-ushape": Workload("ushape", ("seg", "depth"), n=320, val_n=96, test_n=16,
                                  strategy="auxi-both", iters=120),
    "search-baseline": Workload("baseline", ("seg", "depth"), n=256, val_n=64, test_n=16,
                                candidates=24, ppo_batch=8, short_iters=16),
}


@dataclass
class Round:
    program_s: float = 0.0        # time inside the timed program calls
    train_s: float = 0.0          # the run_strategy or search_loop call
    train_samples: int = 0
    train_samples_s: float = 0.0  # the time in which train_samples were trained
    valid_candidates: int = 0
    candidates_s: float = 0.0     # the time in which valid_candidates were trained and scored
    val_reward: float = 0.0
    failed: int = 0               # diverged candidates
    outputs: object = None        # what a rerun with the same seeds must reproduce


def task_specs(w: Workload) -> list[TaskSpec]:
    return [TaskSpec(kind, CLASSES if kind == "seg" else 0) for kind in w.tasks]


class DatasetSetup:
    """The workload's set-up: generating and loading its dataset, timed.

    The constructor runs an untimed first generation, which creates the
    files. Before each timed repeat every file is truncated to empty,
    untimed, and the timed ``gen_synthetic`` writes the same samples into
    them again. Creating a file on an ext4 filesystem costs the kernel from
    ~10 us to over 1 ms, depending on how many files were deleted on it in
    the last minutes, and ``gen_synthetic`` writes four per sample.
    Truncating a file that holds data and writing it again costs ext4 a
    forced block allocation when the file is closed (``auto_da_alloc``).
    Timed, either kernel cost would swamp the program's own work;
    bench/README.md has the measurements.
    """

    def __init__(self, w: Workload, seed: int, work: str):
        self.root = os.path.join(work, "data")
        self.args = dict(seed=seed, n=w.n, h=SIZE, w=SIZE, k=CLASSES, val_n=w.val_n,
                         test_n=w.test_n)
        gen_synthetic(self.root, **self.args)
        self.files = [os.path.join(d, f) for d, _, names in os.walk(self.root) for f in names]
        self.gen_s: list[float] = []
        self.load_s: list[float] = []

    def repeat(self, times: int) -> SyntheticDataset:
        """Generate and load the dataset ``times`` times; return the last load."""
        for _ in range(times):
            for path in self.files:
                open(path, "wb").close()
            t0 = time.perf_counter()
            gen_synthetic(self.root, **self.args)
            t1 = time.perf_counter()
            ds = SyntheticDataset(self.root)
            t2 = time.perf_counter()
            self.gen_s.append(t1 - t0)
            self.load_s.append(t2 - t1)
        return ds

    def summary(self) -> dict:
        med = statistics.median
        return {"setup_s": med([g + ld for g, ld in zip(self.gen_s, self.load_s)]),
                "data.gen_s": med(self.gen_s), "data.load_s": med(self.load_s),
                "repeats_s": [round(g + ld, 6) for g, ld in zip(self.gen_s, self.load_s)]}


# ---------------------------------------------------------------------------
# checks shared by both kinds of round
# ---------------------------------------------------------------------------


def _predict(m, imgs: np.ndarray) -> dict[int, np.ndarray]:
    out: dict[int, list] = {t: [] for t in range(1, len(m.tasks) + 1)}
    for s in range(0, len(imgs), BATCH):
        preds, _ = m.forward(imgs[s:s + BATCH], "eval")
        for t in out:
            out[t].append(preds[t].values)
    return {t: np.concatenate(v) for t, v in out.items()}


def check_deployed(res, ds: SyntheticDataset, deployed: dict, w: Workload) -> float:
    """The paper's test-phase property and the metric oracles, on ``val``.

    The stripped checkpoint keeps no aux-tagged parameter and predicts
    bitwise what the trained in-memory model predicts; the metrics of those
    predictions agree with the oracles; the reward follows from them. A
    network trained for a whole training workload also beats all-background
    segmentation.
    Returns the validation reward.
    """
    checks.check_loss_decreases([r["loss_total"] for r in res.records])
    header, state = load_checkpoint(res.ckpt_path)
    aux = [p for p in res.model.params.paths() if res.model.params.tag(p).startswith("aux:")]
    checks.require(bool(aux) == res.strategy.has_aux_modules,
                   f"{len(aux)} aux parameters for strategy {res.strategy.name}")
    checks.require(not any(e["tag"].startswith("aux:") for e in header["params"]),
                   "stripped checkpoint holds aux-tagged parameters")
    checks.require(set(state) == set(res.model.params.paths()) - set(aux),
                   "stripped checkpoint does not hold exactly the non-aux parameters")

    idx = ds.splits["val"]
    imgs = np.stack([ds.sample(i)["img"] for i in idx])
    labels = {"seg": np.stack([ds.sample(i)["seg"] for i in idx]),
              "depth": np.stack([ds.sample(i)["dep"] for i in idx])[:, None],
              "normal": np.stack([ds.sample(i)["nrm"] for i in idx])}
    rebuilt = build_model(header["variant"], task_specs(w), np.random.default_rng(0))
    rebuilt.params.load_state_dict(state)
    trained, served = _predict(res.model, imgs), _predict(rebuilt, imgs)

    primary = []
    for t, kind in enumerate(w.tasks, start=1):
        checks.require(trained[t].dtype == served[t].dtype
                       and np.array_equal(trained[t], served[t]),
                       f"task {t}: stripped checkpoint predicts differently from the trained model")
        gt = labels[kind]
        checks.check_prediction_domain(kind, served[t])
        if kind == "seg" and not w.candidates:
            # The search's wiring trains for short_iters steps only; at seed 32
            # its seg mIoU after 16 steps (0.108) is below all-background (0.132).
            checks.check_beats_background(served[t], gt, ds.k)
        checks.check_metrics(kind, served[t], gt, ds.k, task_metrics(kind, served[t], gt, ds.k))
        checks.require(deployed[t] == task_metrics(kind, served[t], gt, ds.k),
                       f"task {t}: evaluate_checkpoint disagrees with its own predictions")
        primary.append((PRIMARY_METRIC[kind], deployed[t][PRIMARY_METRIC[kind]]))
    reward, diverged = search.compute_reward(
        [(v, METRIC_REWARD_KIND[name]) for name, v in primary])
    checks.require(not diverged, "reward reports divergence")
    checks.check_reward(primary, reward)
    return reward


def deploy(ckpt: str, ds: SyntheticDataset, traced) -> tuple[float, dict]:
    """One evaluation of the stripped checkpoint on val, timed."""
    with traced:
        t0 = time.perf_counter()
        metrics = train.evaluate_checkpoint(ckpt, ds, "val", BATCH)
        return time.perf_counter() - t0, metrics


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def train_round(w: Workload, ds: SyntheticDataset, seed: int, out_dir: str, traced) -> Round:
    cfg = train.TrainCfg(iters=w.iters, lr0=LR0, batch=BATCH, seed=seed, eval_every=0)
    with traced:
        t0 = time.perf_counter()
        res = train.run_strategy(train.parse_strategy(w.strategy), ds, w.variant,
                                 task_specs(w), cfg, train.AuxCfg(c_aux=C_AUX), out_dir=out_dir)
        train_s = time.perf_counter() - t0
    checks.require(not res.diverged, f"{w.strategy} diverged")
    checks.require(len(res.records) == w.iters, "run.csv rows != iterations")
    eval_s, deployed = deploy(res.ckpt_path, ds, traced)
    checks.require(deployed == res.final_metrics,
                   "stripped checkpoint scores differently from the trained model")
    reward = check_deployed(res, ds, deployed, w)
    return Round(program_s=train_s + eval_s, train_s=train_s,
                 train_samples=w.iters * BATCH, train_samples_s=train_s,
                 valid_candidates=1, candidates_s=train_s + eval_s, val_reward=reward,
                 outputs=([r["loss_total"] for r in res.records], deployed, reward))


def search_round(w: Workload, ds: SyntheticDataset, out_dir: str, traced) -> Round:
    tasks = task_specs(w)
    policy = ControllerPolicy(P_TAPS, len(tasks), np.random.default_rng(
        np.random.SeedSequence([SEARCH_SEED, 0xC011])))
    eval_cfg = search.EvalCfg(dataset=ds, variant=w.variant, tasks=tasks,
                              short_iters=w.short_iters, batch=BATCH, lr0=LR0, c_aux=C_AUX)
    cfg = search.SearchCfg(candidates=w.candidates, batch=w.ppo_batch, seed=SEARCH_SEED)
    with traced:
        t0 = time.perf_counter()
        result = search.search_loop(policy, cfg, eval_cfg)
        search_s = time.perf_counter() - t0
    recs = result.records
    check_search(result, tasks, w)
    valid = [r for r in recs if r.valid and not r.diverged]

    # deploy the best wiring: retrain it exactly as the search did, keep its checkpoint
    best = max(valid, key=lambda r: r.reward)
    with traced:
        t0 = time.perf_counter()
        res = train.run_strategy(
            train.Strategy("auxi_nas", genotype=best.genotype), ds, w.variant, tasks,
            train.TrainCfg(iters=w.short_iters, lr0=LR0, batch=BATCH, seed=best.seed,
                           eval_every=0, probe_layers=()),
            train.AuxCfg(mode="genotype", c_aux=C_AUX, genotype=best.genotype),
            out_dir=out_dir, train_split="meta_train", eval_split="meta_val")
        retrain_s = time.perf_counter() - t0
    checks.require(not res.diverged, "retraining the best wiring diverged")
    flat = {f"t{t}_{k}": v for t, m in res.final_metrics.items() for k, v in m.items()}
    checks.require(flat == best.metrics,
                   "retraining the best wiring with its seed does not reproduce its metrics")
    eval_s, deployed = deploy(res.ckpt_path, ds, traced)
    check_deployed(res, ds, deployed, w)

    outputs = ([(r.candidate_id, r.seed, r.genotype, r.metrics, r.reward, r.diverged,
                 r.valid, r.budget_iters) for r in recs], result.best_reward)
    return Round(program_s=search_s + retrain_s + eval_s, train_s=search_s,
                 train_samples=len(valid) * w.short_iters * BATCH,
                 train_samples_s=sum(r.wall_ms for r in valid) / 1000.0,
                 valid_candidates=len(valid), candidates_s=search_s,
                 val_reward=result.best_reward,
                 failed=sum(r.diverged for r in recs), outputs=outputs)


def check_search(result, tasks: list[TaskSpec], w: Workload) -> None:
    recs = result.records
    checks.require([r.candidate_id for r in recs] == list(range(w.candidates)),
                   "search did not evaluate every candidate once, in order")
    skip = ADAPTOR_OP_NAMES.index("skip_connect")
    for r in recs:
        # sampling masks the location head, so every sample decodes to a genotype
        checks.require(r.genotype is not None, f"candidate {r.candidate_id} did not decode")
        predicted = checks.predict_invalid([c.tokens() for c in r.genotype.flat_cells()],
                                           TAP_CHANNELS, C_AUX, skip)
        checks.require(predicted == (not r.valid),
                       f"candidate {r.candidate_id}: valid={r.valid}, rule predicts "
                       f"{'invalid' if predicted else 'valid'}")
        if not r.valid or r.diverged:
            checks.require(r.reward == 0.0, f"candidate {r.candidate_id}: reward without training")
            continue
        checks.require(r.budget_iters == w.short_iters, f"candidate {r.candidate_id}: budget")
        primary = [(PRIMARY_METRIC[t.kind], r.metrics[f"t{i}_{PRIMARY_METRIC[t.kind]}"])
                   for i, t in enumerate(tasks, start=1)]
        checks.check_reward(primary, r.reward)
    valid = [r for r in recs if r.valid and not r.diverged]
    checks.require(bool(valid), "no valid candidate")
    best = max(r.reward for r in valid)
    checks.require(result.best_reward == best, "best reward is not the maximum over valid candidates")
    checks.require(any(r.genotype == result.best_genotype and r.reward == best for r in valid),
                   "best genotype is not a valid candidate with the best reward")


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def round_ops(w: Workload) -> int:
    """Operations one round attempts: training iterations (or, in the search,
    one per candidate plus the retraining of the best wiring) and the one
    evaluation pass of the deployed checkpoint."""
    if w.candidates:
        return w.candidates + w.short_iters + 1
    return w.iters + 1


def run(name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """Set up, repeat rounds for ``seconds``, set up again, and summarise.

    A run stops once another round would end more than half a round after
    ``seconds``. Untraced, it repeats single rounds (at least two). Traced,
    it repeats pairs of an untraced and a traced round with the same seeds (at least
    one), which must produce identical outputs; the pair's time ratio is the
    tracing overhead. A round that raises ends the run and counts all its
    operations as failed.
    """
    w = WORKLOADS[name]
    setup = DatasetSetup(w, seed, work)
    ds = setup.repeat(SETUP_REPEATS)
    tracer = Tracer() if trace else None
    one = (lambda d, t: search_round(w, ds, d, t)) if w.candidates \
        else (lambda d, t: train_round(w, ds, seed, d, t))
    per_round = 2 if trace else 1

    rounds: list[Round] = []
    overhead: list[float] = []
    error = None
    t_start = time.perf_counter()
    while True:
        i = len(rounds)
        try:
            r = one(os.path.join(work, f"round{i}"), contextlib.nullcontext())
            if rounds:
                checks.require(r.outputs == rounds[0].outputs,
                               f"round {i} does not reproduce round 0 with the same seeds")
            if tracer is not None:
                t = one(os.path.join(work, f"traced{i}"), tracer)
                checks.require(t.outputs == r.outputs,
                               "the traced round changed the program's outputs")
                overhead.append(100.0 * (t.program_s / r.program_s - 1.0))
        except Exception:  # any failure ends the run; the caller reports it
            error = traceback.format_exc()
            break
        rounds.append(r)
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= 2 // per_round and elapsed * (i + 1.5) / (i + 1) > seconds:
            break

    setup.repeat(SETUP_REPEATS)
    setup_times = setup.summary()
    n_rounds = len(rounds) + (error is not None)
    summary = {"error": error, "rounds": len(rounds),
               "attempted": n_rounds * per_round * round_ops(w),
               "failed": (sum(r.failed for r in rounds) * per_round
                          + (per_round * round_ops(w) if error else 0)),
               "seeds": {"dataset": seed, "train": None if w.candidates else seed,
                         "search": SEARCH_SEED if w.candidates else None},
               "metrics": {}, "spans": [], "setup": setup_times,
               "timings": [r.train_s for r in rounds]}
    if not rounds:
        return summary
    if trace:
        summary["metrics"] = layer_metrics(tracer.spans, tracer.taped, {
            "data.gen_s": setup_times["data.gen_s"], "data.load_s": setup_times["data.load_s"],
            "trace.overhead_pct": statistics.median(overhead)})
        summary["spans"] = tracer.spans
        return summary
    med = statistics.median
    summary["metrics"] = {
        "setup_s": setup_times["setup_s"],
        "train_samples_per_s": med([r.train_samples / r.train_samples_s for r in rounds]),
        "valid_candidates_per_min": med([60.0 * r.valid_candidates / r.candidates_s
                                         for r in rounds]),
        "val_reward": rounds[0].val_reward,
    }
    return summary
