"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The directional experiments (9, 10) train real models and dominate
the runtime.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from auxnas import autodiff as ad
from auxnas.autodiff import Tape, Tensor, parameter
from auxnas.auxiliary import Genotype, build_basic_aux, strip_aux
from auxnas.cli import main as cli_main
from auxnas.controller import ControllerPolicy, seq_length
from auxnas.data import SyntheticDataset, gen_synthetic
from auxnas.layers import AdaptorOp, AggOp, deform_conv3x3
from auxnas.model import TaskSpec, build_model, load_checkpoint
from auxnas.procs import job_pool
from auxnas.search import PpoCfg, PpoState, compute_reward, ppo_update
from auxnas.train import (
    AuxCfg,
    DS_SCALE,
    PRIOR_LR_DIVISOR,
    Strategy,
    TrainCfg,
    loss_depth,
    loss_normal,
    loss_segmentation,
    poly_lr,
    run_strategy,
)

import sys
import os

sys.path.insert(0, os.path.dirname(__file__))
from _gradcheck import check_grads  # noqa: E402
from _helpers import state_dict  # noqa: E402
from test_controller import random_valid_genotype  # noqa: E402
from test_metrics import (  # noqa: E402
    oracle_angle,
    oracle_miou,
    oracle_pixel_acc,
    oracle_rel,
    oracle_rms,
    unit_normals,
)
from auxnas.metrics import (  # noqa: E402
    metric_mean_angle,
    metric_miou,
    metric_pixel_acc,
    metric_rel,
    metric_rms,
)

TASKS2 = [TaskSpec("seg", 5), TaskSpec("depth")]
TASKS3 = [TaskSpec("seg", 5), TaskSpec("depth"), TaskSpec("normal")]


def ok(n, msg):
    print(f"\nACCEPTANCE {n} PASS: {msg}")


# -------------------------------------------------------------------------
# 1. gradient suite
# -------------------------------------------------------------------------


class TestCriterion1Gradients:
    def test_per_op_and_composite(self):
        t0 = time.time()
        rng = np.random.default_rng(0xACCE)

        def p(*shape, scale=0.5, positive=False):
            v = scale * rng.standard_normal(shape)
            if positive:
                v = np.abs(v) + 0.3
            return parameter(v, dtype=np.float64)

        # per-op sweep on <=4x4 spatial inputs, rtol 1e-6
        x = p(2, 4, 4, 4)
        w = p(3, 4, 3, 3)
        wg = p(4, 1, 3, 3)
        b = p(3)
        g = p(4, scale=0.2)
        beta = p(4, scale=0.2)
        y2 = p(2, 4, 4, 4)
        pts = parameter(rng.uniform(0.3, 2.7, (2, 5, 2)), dtype=np.float64)
        emb = p(6, 4)
        lw = p(4, 3)
        lb = p(3)
        m2 = p(4, 3)

        def bn_state():
            return (Tensor(np.zeros(4, dtype=np.float64)),
                    Tensor(np.ones(4, dtype=np.float64)))

        op_losses = {
            "conv2d": lambda: ad.reduce_mean(ad.mul(ad.conv2d(x, w, b, pad=1), ad.conv2d(x, w, b, pad=1))),
            "conv2d_strided_dilated": lambda: ad.reduce_mean(
                ad.abs_(ad.conv2d(x, w, b, stride=2, dilation=2, pad=2))),
            "conv2d_grouped": lambda: ad.reduce_mean(
                ad.mul(ad.conv2d(x, wg, groups=4, pad=1), ad.conv2d(x, wg, groups=4, pad=1))),
            "batch_norm": lambda: (lambda y: ad.reduce_mean(
                ad.mul(y, ad.exp(ad.scale(y, 0.1)))))(
                ad.batch_norm(x, g, beta, *bn_state(), mode="train")),
            "relu_add_sub_mul": lambda: ad.reduce_mean(
                ad.mul(ad.relu(ad.add(x, y2)), ad.sub(x, y2))),
            "concat_channels": lambda: ad.reduce_mean(
                ad.mul(ad.concat_channels([x, y2]), ad.concat_channels([y2, x]))),
            "bilinear_resize": lambda: ad.reduce_mean(
                ad.mul(ad.bilinear_resize(x, 3, 4), ad.bilinear_resize(x, 3, 4))),
            "grid_sample": lambda: ad.reduce_mean(
                ad.mul(ad.grid_sample_bilinear(x, pts), ad.grid_sample_bilinear(x, pts))),
            "reduce_softmax_log": lambda: ad.reduce_mean(
                ad.mul(ad.softmax_log(ad.reduce_sum(x, axes=(3,)), axis=1),
                       ad.reduce_mean(ad.mul(x, x), axes=(3,)))),
            "pads": lambda: ad.reduce_mean(ad.mul(ad.pad2d(x, 1), ad.pad2d(x, 1))),
            "pad_replicate": lambda: ad.reduce_mean(
                ad.mul(ad.pad2d_replicate(x, 2), ad.pad2d_replicate(x, 2))),
            "unary_chain": lambda: ad.reduce_mean(ad.add(
                ad.mul(ad.sigmoid(x), ad.tanh(y2)),
                ad.add(ad.softplus(ad.abs_(x)), ad.exp(ad.scale(y2, 0.2))))),
            "min_clip": lambda: ad.reduce_mean(
                ad.minimum(ad.clip(x, -0.4, 0.4), ad.scale(y2, 0.3))),
            "l2_normalize": lambda: ad.reduce_mean(
                ad.mul(ad.l2_normalize(x, axis=1), ad.exp(ad.scale(ad.l2_normalize(x, axis=1), 0.2)))),
            "matmul_linear_embedding": lambda: ad.reduce_mean(ad.mul(
                ad.linear(ad.embedding(emb, np.array([0, 2, 5, 1])), lw, lb),
                ad.matmul(ad.embedding(emb, np.array([1, 3, 4, 0])), m2))),
        }
        deform_w = p(3, 4, 3, 3)
        deform_off = parameter(0.3 * rng.standard_normal((2, 18, 4, 4)) + 0.25,
                               dtype=np.float64)
        op_losses["deform_conv"] = lambda: ad.reduce_mean(
            ad.mul(deform_conv3x3(x, deform_off, deform_w),
                   deform_conv3x3(x, deform_off, deform_w)))

        params_for = {
            "conv2d": [x, w, b], "conv2d_strided_dilated": [x, w, b],
            "conv2d_grouped": [x, wg], "batch_norm": [x, g, beta],
            "relu_add_sub_mul": [x, y2], "concat_channels": [x, y2],
            "bilinear_resize": [x], "grid_sample": [x, pts],
            "reduce_softmax_log": [x], "pads": [x], "pad_replicate": [x],
            "unary_chain": [x, y2], "min_clip": [x, y2], "l2_normalize": [x],
            "matmul_linear_embedding": [emb, lw, lb, m2],
            "deform_conv": [x, deform_off, deform_w],
        }
        worst = 0.0
        srng = np.random.default_rng(7)
        for name, loss in op_losses.items():
            worst = max(worst, check_grads(loss, params_for[name], rtol=1e-6,
                                           atol=1e-9, max_entries=20, rng=srng))

        # full Eq.-3 composite on 4x4 input at f64, rtol 1e-4
        model = build_model("baseline", TASKS2, np.random.default_rng(1), dtype=np.float64)
        aux = build_basic_aux(model.params, np.random.default_rng(2), [1, 2], TASKS2,
                              model.tap_channels, 8, dtype=np.float64)
        xin = np.random.default_rng(3).random((2, 3, 4, 4))
        seg = np.random.default_rng(4).integers(0, 5, (2, 4, 4))
        dep = np.random.default_rng(5).uniform(1.0, 3.0, (2, 1, 4, 4))

        def composite():
            preds, taps = model.forward(xin, "train")
            aux_preds = aux.forward(taps, (4, 4), "train")
            total = ad.add(loss_segmentation(preds[1], seg), loss_depth(preds[2], dep))
            total = ad.add(total, loss_segmentation(aux_preds[1], seg))
            return ad.add(total, loss_depth(aux_preds[2], dep))

        trainable = [model.params[p] for p in model.params.paths()
                     if model.params.trainable(p)]
        e2e = check_grads(composite, trainable, rtol=1e-4, atol=1e-8,
                          max_entries=3, rng=np.random.default_rng(8))
        elapsed = time.time() - t0
        assert elapsed < 120
        ok(1, f"per-op worst rel err {worst:.2e} (<=1e-6 tol), composite "
              f"{e2e:.2e} (<=1e-4 tol), {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 2. aux-removal invariance
# -------------------------------------------------------------------------


class TestCriterion2AuxRemoval:
    def test_bitwise_invariance_100_trials(self, tmp_path):
        rng = np.random.default_rng(0xA2)
        for trial in range(100):
            model = build_model("baseline", TASKS2, np.random.default_rng(trial))
            aux = build_basic_aux(model.params, np.random.default_rng(1000 + trial),
                                  [1, 2], TASKS2, model.tap_channels, 8)
            x = rng.random((1, 3, 8, 8)).astype(np.float32)
            preds, taps = model.forward(x, "eval")
            aux.forward(taps, (8, 8), "eval")
            plain = build_model("baseline", TASKS2, np.random.default_rng(90000 + trial))
            plain.params.load_state_dict(state_dict(strip_aux(model.params)))
            stripped_preds, _ = plain.forward(x, "eval")
            for t in (1, 2):
                assert np.array_equal(preds[t].values, stripped_preds[t].values)
        ok(2, "100/100 random (input, parameter) draws: main predictions bitwise "
              "identical after strip_aux")


# -------------------------------------------------------------------------
# 3. objective decomposition
# -------------------------------------------------------------------------


class TestCriterion3Decomposition:
    def test_twenty_random_configurations(self):
        rng = np.random.default_rng(0xA3)
        for trial in range(20):
            tasks = TASKS3 if trial % 2 else TASKS2
            variant = "context" if trial % 3 == 0 else "baseline"
            agg = AggOp.CONCAT if trial % 4 == 0 else AggOp.SUM
            model = build_model(variant, tasks, np.random.default_rng(trial),
                                dtype=np.float64)
            aux = build_basic_aux(model.params, np.random.default_rng(500 + trial),
                                  list(range(1, len(tasks) + 1)), tasks,
                                  model.tap_channels, 8, agg, dtype=np.float64)
            n = 2
            x = rng.random((n, 3, 8, 8))
            batch = {
                "seg": rng.integers(0, 5, (n, 8, 8)),
                "dep": rng.uniform(0.5, 3.0, (n, 1, 8, 8)),
                "nrm": unit_normals(rng, 8, 8)[None].repeat(n, axis=0),
            }

            def losses(preds):
                fns = {"seg": loss_segmentation, "depth": loss_depth, "normal": loss_normal}
                total = None
                for t, task in enumerate(tasks, start=1):
                    key = {"seg": "seg", "depth": "dep", "normal": "nrm"}[task.kind]
                    term = fns[task.kind](preds[t], batch[key])
                    total = term if total is None else ad.add(total, term)
                return total

            def run(parts):
                model.params.zero_grad()
                with Tape() as tape:
                    preds, taps = model.forward(x, "train")
                    terms = []
                    if "main" in parts:
                        terms.append(losses(preds))
                    if "aux" in parts:
                        terms.append(losses(aux.forward(taps, (8, 8), "train")))
                    total = terms[0]
                    for t in terms[1:]:
                        total = ad.add(total, t)
                    tape.backward(total)
                grads = {p: model.params[p].grad.copy() for p in model.params.paths()
                         if model.params.trainable(p)}
                return float(total.values), grads

            lj, gj = run({"main", "aux"})
            lm, gm = run({"main"})
            la, ga = run({"aux"})
            assert abs(lj - (lm + la)) <= 1e-12
            for p in gj:
                assert np.abs(gj[p] - (gm[p] + ga[p])).max() <= 1e-12
        ok(3, "20/20 random configurations: joint loss and gradients equal the "
              "sum of main-only and aux-only parts within 1e-12 (f64)")


# -------------------------------------------------------------------------
# 4. codec
# -------------------------------------------------------------------------


class TestCriterion4Codec:
    def test_sampling_roundtrip_and_length(self):
        assert seq_length(4, 2) == 40
        policy = ControllerPolicy(4, 2, np.random.default_rng(0xA4))
        out = policy.sample(np.random.default_rng(1), n=10000)
        assert out.tokens.shape == (10000, 40)
        for i in range(10000):
            policy.decode(out.tokens[i])  # raises on any availability violation

        rng = np.random.default_rng(2)
        for _ in range(10000):
            p = int(rng.integers(1, 5))
            t = int(rng.integers(1, 4))
            g0 = random_valid_genotype(rng, p, t)
            seq = g0.tokens()
            assert len(seq) == seq_length(p, t) == 5 * p * t
            assert Genotype.from_tokens(p, t, seq) == g0
        ok(4, "10000/10000 controller samples decode validly; 10000/10000 random "
              "valid genotypes round-trip; length = 5*P*T")


# -------------------------------------------------------------------------
# 5. PPO bandit convergence
# -------------------------------------------------------------------------


class TestCriterion5Ppo:
    def test_bandit_three_seeds(self):
        t0 = time.time()
        target = int(AdaptorOp.CONV1X1)
        hit_updates = []
        for seed in (0, 1, 2):
            policy = ControllerPolicy(4, 2, np.random.default_rng(seed))
            rng = np.random.default_rng(seed + 100)
            state = PpoState()
            converged_at = None
            for update in range(500):
                s = policy.sample(rng, 16)
                batch = [(s.tokens[i], s.log_probs[i],
                          1.0 if s.tokens[i, 2] == target else 0.1) for i in range(16)]
                ppo_update(policy, batch, state, PpoCfg())
                if (update + 1) % 25 == 0:
                    probe = policy.sample(np.random.default_rng(999), 500)
                    if (probe.tokens[:, 2] == target).mean() >= 0.9:
                        converged_at = update + 1
                        break
            assert converged_at is not None, f"seed {seed}: no convergence in 500 updates"
            hit_updates.append(converged_at)
        elapsed = time.time() - t0
        assert elapsed < 60
        ok(5, f"bandit optimal-token probability >= 0.9 for 3/3 seeds "
              f"(updates: {hit_updates}), {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 6. reward function
# -------------------------------------------------------------------------


class TestCriterion6Reward:
    def test_reward_contract(self):
        rng = np.random.default_rng(0xA6)
        for _ in range(200):
            metrics = [(float(rng.uniform(0, 1)), "higher"),
                       (float(rng.uniform(0, 5)), "lower"),
                       (float(rng.uniform(0, 180)), "angle")]
            got, _ = compute_reward(metrics)
            scores = [metrics[0][0], 1 / (1 + metrics[1][0]), 1 / (1 + metrics[2][0] / 180)]
            direct = (scores[0] * scores[1] * scores[2]) ** (1 / 3)
            assert abs(got - direct) <= 1e-12
        for _ in range(100):
            e = float(rng.uniform(0.01, 4))
            other = float(rng.uniform(0.2, 0.9))
            r1, _ = compute_reward([(other, "higher"), (e, "lower")])
            r2, _ = compute_reward([(other, "higher"), (e + rng.uniform(0.05, 1), "lower")])
            assert r2 < r1
        assert compute_reward([(1.0, "higher"), (0.0, "lower"), (0.0, "angle")])[0] == 1.0
        ok(6, "reward matches direct geometric mean within 1e-12; strictly "
              "monotone in errors (100 probes); perfect metrics give 1")


# -------------------------------------------------------------------------
# 7. metric oracles
# -------------------------------------------------------------------------


class TestCriterion7Metrics:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(0xA7)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            gt = rng.integers(0, k, size=(8, 8))
            gt[rng.random((8, 8)) < 0.15] = 255
            pred = rng.integers(0, k, size=(8, 8))
            assert metric_miou(pred, gt, k) == oracle_miou(pred, gt, k)
            assert metric_pixel_acc(pred, gt) == oracle_pixel_acc(pred, gt)
            gt_d = rng.uniform(0.5, 4.0, size=(8, 8))
            pred_d = gt_d + rng.normal(0, 0.4, size=(8, 8))
            assert abs(metric_rel(pred_d, gt_d) - oracle_rel(pred_d, gt_d)) < 1e-12
            assert abs(metric_rms(pred_d, gt_d) - oracle_rms(pred_d, gt_d)) < 1e-12
            a = unit_normals(rng, 8, 8)
            b = unit_normals(rng, 8, 8)
            assert abs(metric_mean_angle(a, b) - oracle_angle(a, b)) < 1e-9
        ok(7, "mIoU, PixelAcc, Rel, RMS, Mean angle match the brute-force oracle "
              "on 100 random 8x8 instances")


# -------------------------------------------------------------------------
# 8. schedule and protocol constants
# -------------------------------------------------------------------------


class TestCriterion8Constants:
    def test_constants(self, tmp_path):
        rng = np.random.default_rng(0xA8)
        for _ in range(10):
            it = int(rng.integers(0, 30001))
            assert abs(poly_lr(it, 30000, 0.01) - 0.01 * (1 - it / 30000) ** 0.9) <= 1e-9
        assert DS_SCALE == 0.1
        assert PRIOR_LR_DIVISOR == 10.0
        assert TrainCfg().batch == 12
        assert TrainCfg().lr0 == 0.01
        from auxnas.config import DEFAULTS
        assert DEFAULTS["train"]["batch"] == 12

        # live checks: a DS objective uses exactly 0.1, a Prior run starts at lr0/10
        root = tmp_path / "c8"
        gen_synthetic(str(root), seed=8, n=16, h=16, w=16, val_n=2, test_n=2)
        ds = SyntheticDataset(str(root))
        cfgt = TrainCfg(iters=1, batch=4, seed=0, eval_every=0, augment=False)
        res = run_strategy(Strategy("ds", task=1), ds, "baseline", TASKS2, cfgt, AuxCfg())
        row = res.records[0]
        ds_sum = sum(v for k, v in row.items() if k.startswith("loss_ds_t1"))
        main = row["loss_t1"] + row["loss_t2"]
        assert abs(row["loss_total"] - (main + DS_SCALE * ds_sum)) <= 1e-5
        donor = run_strategy(Strategy("single", task=1), ds, "baseline", TASKS2,
                             TrainCfg(iters=1, batch=4, seed=0, eval_every=0), AuxCfg(),
                             out_dir=str(tmp_path / "donor"))
        _, state = load_checkpoint(donor.ckpt_path)
        prior = run_strategy(Strategy("prior", task=1), ds, "baseline", TASKS2,
                             TrainCfg(iters=1, batch=4, seed=0, eval_every=0), AuxCfg(),
                             donor_state=state)
        assert abs(prior.records[0]["lr"] - 0.01 / 10) <= 1e-15
        ok(8, "poly schedule exact at 10 probes (1e-9); DS scale 0.1; Prior lr0/10; "
              "default batch 12; default lr0 0.01")


# -------------------------------------------------------------------------
# 9. directional strategy result
# -------------------------------------------------------------------------


@pytest.mark.slow
class TestCriterion9Directional:
    def test_auxi_both_vs_joint(self, std_ds):
        # the six runs train in a job pool; a run's outputs do not depend on
        # the process it trains in
        def train(kind, seed):
            t0 = time.time()
            res = run_strategy(Strategy(kind), std_ds, "baseline", TASKS2,
                               TrainCfg(iters=2000, seed=seed, eval_every=0), AuxCfg())
            return time.time() - t0, res.diverged, res.final_metrics

        jobs = [(kind, seed) for seed in (1, 2, 3) for kind in ("joint", "auxi_both")]
        with job_pool(train) as run:
            results = dict(zip(jobs, run(jobs)))
        wins = 0
        details = []
        for seed in (1, 2, 3):
            metrics = {}
            for key, kind in (("joint", "joint"), ("auxi", "auxi_both")):
                elapsed, diverged, metrics[key] = results[kind, seed]
                assert elapsed < 600, f"{key} seed {seed} took {elapsed:.0f}s"
                assert not diverged
            miou_ok = metrics["auxi"][1]["miou"] >= metrics["joint"][1]["miou"]
            rel_ok = metrics["auxi"][2]["rel"] <= metrics["joint"][2]["rel"]
            wins += miou_ok and rel_ok
            details.append(
                f"seed {seed}: miou {metrics['joint'][1]['miou']:.4f}->"
                f"{metrics['auxi'][1]['miou']:.4f} rel {metrics['joint'][2]['rel']:.4f}->"
                f"{metrics['auxi'][2]['rel']:.4f} {'WIN' if miou_ok and rel_ok else 'LOSS'}")
        assert wins >= 2, "auxi-both must beat joint on both metrics in >=2/3 seeds:\n" \
            + "\n".join(details)
        ok(9, f"auxi-both >= joint on mIoU and Rel in {wins}/3 seeds; " + "; ".join(details))


# -------------------------------------------------------------------------
# 10. gradient-flow instrumentation
# -------------------------------------------------------------------------


@pytest.mark.slow
class TestCriterion10GradFlow:
    def test_auxi_t2_enhances_shared_gradients(self, std_ds, tmp_path):
        iters = 600
        seeds = (1, 2, 3)

        # one run in a job pool; the cumulative probe sums go back
        def train(strategy, seed, out_dir=None, donor_ckpt=None):
            state = None if donor_ckpt is None else load_checkpoint(donor_ckpt)[1]
            res = run_strategy(strategy, std_ds, "baseline", TASKS2,
                               TrainCfg(iters=iters, seed=seed, eval_every=0), AuxCfg(),
                               donor_state=state, out_dir=out_dir)
            probes = [k for k in res.records[0] if k.startswith("probe_")]
            return res.ckpt_path, {k: sum(r.get(k, 0.0) for r in res.records) for k in probes}

        # the donors are a first wave of jobs, the runs they compare a second
        strategies = {"joint": Strategy("joint"), "auxi": Strategy("auxi_single", task=2)}
        jobs = [(key, seed) for seed in seeds for key in strategies]
        with job_pool(train) as run:
            donors = run([(Strategy("single", task=1), seed, str(tmp_path / f"donor{seed}"))
                          for seed in seeds])
            donor_ckpt = {seed: ckpt for seed, (ckpt, _) in zip(seeds, donors)}
            runs = run([(strategies[key], seed, None, donor_ckpt[seed] if key == "auxi" else None)
                        for key, seed in jobs])
        cum = {job: c for job, (_, c) in zip(jobs, runs)}
        seed_wins = 0
        details = []
        for seed in seeds:
            joint, auxi = cum["joint", seed], cum["auxi", seed]
            layer_wins = sum(auxi[k] > joint[k] for k in joint)
            seed_wins += layer_wins >= 2
            details.append(f"seed {seed}: {layer_wins}/3 layers enhanced")
        assert seed_wins >= 2, "; ".join(details)
        ok(10, f"cumulative shared-layer |grad| under auxi-t2 exceeds joint on >=2/3 "
               f"layers in {seed_wins}/3 seeds ({'; '.join(details)})")


# -------------------------------------------------------------------------
# 11. determinism of cmd_compare
# -------------------------------------------------------------------------


class TestCriterion11Determinism:
    def test_compare_bitwise(self, tmp_path):
        data_dir = tmp_path / "data"
        gen_synthetic(str(data_dir), seed=11, n=40, h=16, w=16, val_n=8, test_n=4)

        def run(name):
            out = tmp_path / name
            cfg = {"data": {"dir": str(data_dir)},
                   "train": {"iters": 30, "batch": 4, "eval_every": 0},
                   "output_dir": str(out)}
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            rc = cli_main(["compare", "--config", str(cfg_path),
                           "--strategies", "joint,auxi-both", "--seeds", "1,2"])
            assert rc == 0
            return hashlib.sha256((out / "table.csv").read_bytes()).hexdigest()

        assert run("cmp_a") == run("cmp_b")
        ok(11, "cmd_compare with fixed seeds produced bitwise-identical table.csv "
               "across two runs")
