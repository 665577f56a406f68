"""Losses, schedule, optimizer, objective assembly, and the run loop."""

import numpy as np
import pytest

from auxnas import autodiff as ad
from auxnas.autodiff import ContractError, ParamSet, Tensor, parameter
from auxnas.model import ConfigError, TaskSpec, load_checkpoint
from auxnas.train import (
    AuxCfg,
    DataError,
    STRATEGY_KINDS,
    Strategy,
    TrainCfg,
    loss_depth,
    loss_normal,
    loss_segmentation,
    parse_strategy,
    poly_lr,
    run_strategy,
    sgd_step,
)

from _gradcheck import check_grads
from _helpers import item

TASKS2 = [TaskSpec("seg", 5), TaskSpec("depth")]


def tiny_cfg(**kw):
    base = dict(iters=12, lr0=0.01, batch=4, seed=1, eval_every=0, augment=True)
    base.update(kw)
    return TrainCfg(**base)


class TestLosses:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((2, 5, 3, 3), dtype=np.float64))
        labels = np.random.default_rng(0).integers(0, 5, size=(2, 3, 3))
        loss = loss_segmentation(logits, labels)
        assert abs(item(loss) - np.log(5)) < 1e-12

    def test_all_ignored_gives_zero(self):
        logits = Tensor(np.random.default_rng(1).random((1, 5, 2, 2)))
        labels = np.full((1, 2, 2), 255)
        assert item(loss_segmentation(logits, labels)) == 0.0

    def test_label_out_of_range_raises(self):
        logits = Tensor(np.zeros((1, 3, 2, 2)))
        with pytest.raises(DataError):
            loss_segmentation(logits, np.full((1, 2, 2), 3))

    def test_seg_grad_check(self):
        rng = np.random.default_rng(2)
        logits = parameter(0.5 * rng.standard_normal((2, 4, 3, 3)), dtype=np.float64)
        labels = rng.integers(0, 4, size=(2, 3, 3))
        labels[0, 0, 0] = 255
        check_grads(lambda: loss_segmentation(logits, labels), [logits], rtol=1e-6)

    def test_depth_loss(self):
        gt = np.random.default_rng(3).uniform(1, 3, (1, 1, 2, 2))
        pred = Tensor(gt.copy())
        assert item(loss_depth(pred, gt)) == 0.0
        with pytest.raises(DataError):
            loss_depth(pred, -gt)
        rng = np.random.default_rng(4)
        p = parameter(rng.uniform(0.5, 2, (1, 1, 3, 3)), dtype=np.float64)
        gt3 = np.full((1, 1, 3, 3), 1.7)
        check_grads(lambda: loss_depth(p, gt3), [p], rtol=1e-6)

    def test_normal_loss(self):
        n = np.zeros((1, 3, 2, 2))
        n[:, 2] = 1.0
        assert item(loss_normal(Tensor(n), n)) == 0.0
        assert abs(item(loss_normal(Tensor(-n), n)) - 2.0) < 1e-12
        rng = np.random.default_rng(5)
        raw = parameter(rng.standard_normal((1, 3, 3, 3)), dtype=np.float64)
        gt = raw.values / np.sqrt((raw.values ** 2).sum(axis=1, keepdims=True))

        def loss():
            return loss_normal(ad.l2_normalize(raw, axis=1), np.roll(gt, 1, axis=2))

        check_grads(loss, [raw], rtol=1e-5, atol=1e-8)


class TestSchedule:
    def test_poly_endpoints_and_midpoint(self):
        assert poly_lr(0, 30000, 0.01) == 0.01
        assert poly_lr(30000, 30000, 0.01) == 0.0
        assert abs(poly_lr(15000, 30000, 0.01) - 0.01 * 0.5 ** 0.9) < 1e-12
        assert abs(poly_lr(15000, 30000, 0.01) - 0.0053589) < 1e-7

    def test_strictly_decreasing(self):
        vals = [poly_lr(i, 100, 0.01) for i in range(101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            poly_lr(11, 10, 0.01)


class TestSgd:
    def setup_ps(self, vals):
        ps = ParamSet()
        t = ps.add("w", np.array(vals, dtype=np.float64), "shared")
        return ps, t

    def test_zero_grad_zero_wd_unchanged(self):
        ps, t = self.setup_ps([1.0, -2.0])
        t.grad = np.zeros(2)
        sgd_step(ps, lr=0.1, weight_decay=0.0)
        assert np.array_equal(t.values, [1.0, -2.0])

    def test_first_step(self):
        ps, t = self.setup_ps([1.0])
        t.grad = np.array([0.5])
        sgd_step(ps, lr=0.1, weight_decay=0.0)
        assert np.allclose(t.values, 1.0 - 0.1 * 0.5, atol=1e-15)

    def test_two_steps_match_hand_unroll(self):
        ps, t = self.setup_ps([0.8])
        lr, m, wd = 0.05, 0.9, 1e-4
        g1, g2 = 0.3, -0.2
        theta = 0.8
        v = 0.0
        state = {}
        for g in (g1, g2):
            t.grad = np.array([g])
            state = sgd_step(ps, lr, m, wd, state)
            v = m * v + g + wd * theta
            theta = theta - lr * v
        assert abs(float(t.values[0]) - theta) <= 1e-12

    def test_missing_grad_raises(self):
        ps, t = self.setup_ps([1.0])
        with pytest.raises(ContractError):
            sgd_step(ps, lr=0.1)


class TestStrategyParsing:
    @pytest.mark.parametrize("name,kind,task", [
        ("single-t1", "single", 1), ("single-t2", "single", 2),
        ("joint", "joint", 0), ("prior-t1", "prior", 1), ("ds-t2", "ds", 2),
        ("kendall", "kendall", 0), ("auxi-t1", "auxi_single", 1),
        ("auxi-both", "auxi_both", 0), ("auxi-nas", "auxi_nas", 0),
    ])
    def test_names(self, name, kind, task):
        s = parse_strategy(name)
        assert s.kind == kind
        if task:
            assert s.task == task
        assert s.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            parse_strategy("magic")

    def test_name_round_trip(self):
        for kind, base in STRATEGY_KINDS.items():
            for task in ((1, 2, 3) if base.endswith("-t") else (0,)):
                s = Strategy(kind, task=task)
                assert parse_strategy(s.name) == s
        for name in ("single-t", "auxi-t", "auxi-tx", "prior-t0"):
            with pytest.raises(ConfigError):
                parse_strategy(name)


class TestRunStrategy:
    def test_joint_smoke(self, tiny_ds, tmp_path):
        res = run_strategy(Strategy("joint"), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(), AuxCfg(), out_dir=str(tmp_path / "joint"))
        assert not res.diverged
        assert len(res.records) == 12
        row = res.records[0]
        assert {"iter", "lr", "loss_t1", "loss_t2", "loss_total"} <= set(row)
        assert set(res.final_metrics) == {1, 2}
        assert (tmp_path / "joint" / "run.csv").exists()
        assert (tmp_path / "joint" / "model.ckpt").exists()

    def test_three_task_smoke(self, tiny_ds):
        tasks3 = TASKS2 + [TaskSpec("normal")]
        res = run_strategy(Strategy("auxi_both"), tiny_ds, "baseline", tasks3,
                           tiny_cfg(iters=3), AuxCfg())
        assert not res.diverged
        assert set(res.final_metrics) == {1, 2, 3}
        assert "angle" in res.final_metrics[3]
        assert {"loss_t3", "loss_aux_t3"} <= set(res.records[0])

    def test_single_records_only_its_task(self, tiny_ds):
        res = run_strategy(Strategy("single", task=2), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(), AuxCfg())
        row = res.records[0]
        assert "loss_t2" in row and "loss_t1" not in row
        assert set(res.final_metrics) == {2}

    def test_auxi_both_has_extra_loss_columns(self, tiny_ds):
        res = run_strategy(Strategy("auxi_both"), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(), AuxCfg())
        row = res.records[0]
        assert {"loss_aux_t1", "loss_aux_t2"} <= set(row)
        joint = abs(row["loss_total"]
                    - (row["loss_t1"] + row["loss_t2"]
                       + row["loss_aux_t1"] + row["loss_aux_t2"]))
        assert joint < 1e-5

    def test_auxi_strip_matches_joint_checkpoint_names(self, tiny_ds, tmp_path):
        a = run_strategy(Strategy("joint"), tiny_ds, "baseline", TASKS2,
                         tiny_cfg(iters=2), AuxCfg(), out_dir=str(tmp_path / "j"))
        b = run_strategy(Strategy("auxi_both"), tiny_ds, "baseline", TASKS2,
                         tiny_cfg(iters=2), AuxCfg(), out_dir=str(tmp_path / "a"))
        ha, _ = load_checkpoint(a.ckpt_path)
        hb, _ = load_checkpoint(b.ckpt_path)
        assert [p["name"] for p in ha["params"]] == [p["name"] for p in hb["params"]]

    def test_prior_requires_and_loads_donor(self, tiny_ds, tmp_path):
        with pytest.raises(ConfigError):
            run_strategy(Strategy("prior", task=1), tiny_ds, "baseline", TASKS2,
                         tiny_cfg(), AuxCfg())
        donor = run_strategy(Strategy("single", task=1), tiny_ds, "baseline", TASKS2,
                             tiny_cfg(iters=4), AuxCfg(), out_dir=str(tmp_path / "d"))
        _, state = load_checkpoint(donor.ckpt_path)
        res = run_strategy(Strategy("prior", task=1), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(iters=0), AuxCfg(), donor_state=state)
        for p in res.model.params.tagged("shared"):
            assert np.array_equal(res.model.params[p].values, state[p])

    def test_prior_lr_divided_by_ten(self, tiny_ds, tmp_path):
        donor = run_strategy(Strategy("single", task=1), tiny_ds, "baseline", TASKS2,
                             tiny_cfg(iters=2), AuxCfg(), out_dir=str(tmp_path / "d2"))
        _, state = load_checkpoint(donor.ckpt_path)
        res = run_strategy(Strategy("prior", task=1), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(iters=3), AuxCfg(), donor_state=state)
        assert abs(res.records[0]["lr"] - 0.001) < 1e-15

    def test_kendall_matches_joint_at_s_zero(self, tiny_ds):
        res = run_strategy(Strategy("kendall"), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(iters=1, augment=False), AuxCfg())
        row = res.records[0]
        # s_t = 0 at init, so the weighted total equals the plain sum
        assert abs(row["loss_total"] - (row["loss_t1"] + row["loss_t2"])) < 1e-5
        assert row["kendall_s_t1"] == 0.0

    def test_kendall_trains_three_iterations(self, tiny_ds):
        # s_t is 0-d: its summed gradient must stay an array that zero_grad clears
        res = run_strategy(Strategy("kendall"), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(iters=3), AuxCfg())
        assert not res.diverged and len(res.records) == 3
        assert res.records[2]["kendall_s_t1"] != 0.0

    def test_ds_scale_is_exactly_point_one(self, tiny_ds):
        res = run_strategy(Strategy("ds", task=1), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(iters=1, augment=False), AuxCfg())
        row = res.records[0]
        ds_sum = sum(v for k, v in row.items() if k.startswith("loss_ds_t1"))
        main = row["loss_t1"] + row["loss_t2"]
        assert abs(row["loss_total"] - (main + 0.1 * ds_sum)) < 1e-5

    def test_determinism_bitwise(self, tiny_ds):
        a = run_strategy(Strategy("joint"), tiny_ds, "baseline", TASKS2,
                         tiny_cfg(iters=6), AuxCfg())
        b = run_strategy(Strategy("joint"), tiny_ds, "baseline", TASKS2,
                         tiny_cfg(iters=6), AuxCfg())
        assert a.records == b.records
        assert a.final_metrics == b.final_metrics

    def test_probe_columns_present_and_deterministic(self, tiny_ds):
        res = run_strategy(Strategy("joint"), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(iters=2), AuxCfg())
        row = res.records[0]
        probes = [k for k in row if k.startswith("probe_")]
        assert len(probes) == 3
        assert all(row[k] >= 0 for k in probes)

    def test_checkpoint_reproduces_eval_metrics_bitwise(self, tiny_ds, tmp_path):
        from auxnas.train import evaluate_checkpoint
        res = run_strategy(Strategy("joint"), tiny_ds, "baseline", TASKS2,
                           tiny_cfg(iters=5), AuxCfg(), out_dir=str(tmp_path / "r"))
        reloaded = evaluate_checkpoint(res.ckpt_path, tiny_ds, "val", 4)
        assert reloaded == res.final_metrics


class TestUnitCoefficients:
    def test_scaling_one_task_scales_only_its_gradient(self, tiny_ds):
        # with unit combination coefficients, scaling one task's loss by c
        # scales exactly its gradient contribution by c
        from auxnas.data import collate
        from auxnas.model import build_model
        from auxnas.train import task_loss

        model = build_model("baseline", TASKS2, np.random.default_rng(0), dtype=np.float64)
        batch = collate([tiny_ds.sample(i) for i in tiny_ds.splits["train"][:2]])
        batch["img"] = batch["img"].astype(np.float64)

        def grads(c1):
            model.params.zero_grad()
            with ad.Tape() as tape:
                preds, _ = model.forward(batch["img"], "train")
                l1 = ad.scale(task_loss("seg", preds[1], batch), c1)
                l2 = task_loss("depth", preds[2], batch)
                tape.backward(ad.add(l1, l2))
            return {p: model.params[p].grad.copy() for p in model.params.paths()
                    if model.params.trainable(p)}

        g1 = grads(1.0)
        g3 = grads(3.0)
        base = grads(0.0)
        for p in g1:
            lhs = g3[p] - base[p]
            rhs = 3.0 * (g1[p] - base[p])
            assert np.abs(lhs - rhs).max() <= 1e-9
        # task-2 decoder gradients are untouched by the scaling
        for p in model.params.tagged("task:2"):
            if model.params.trainable(p):
                assert np.abs(g3[p] - g1[p]).max() <= 1e-15
