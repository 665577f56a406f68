"""Tests for the benchmark's oracles, its invalidity rule and its tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

# 2 x 3 labels, one ignored pixel. Valid (gt, pred) pairs: (0,0) (0,1) (1,1)
# (1,1) (1,0), so the confusion matrix is [[1, 1], [1, 2]].
GT = np.array([[0, 0, 1], [1, 1, 255]])
PRED = np.array([[0, 1, 1], [1, 0, 0]])


def seg_logits(labels, k):
    return np.eye(k, dtype=np.float32)[labels].transpose(2, 0, 1)[None]


class TestOracles:
    def test_confusion_metrics(self):
        assert checks.confusion_matrix(PRED, GT, 2).tolist() == [[1, 1], [1, 2]]
        # IoU0 = 1 / (2 + 2 - 1), IoU1 = 2 / (3 + 3 - 2)
        assert checks.oracle_miou(PRED, GT, 2) == pytest.approx((1 / 3 + 1 / 2) / 2, abs=1e-15)
        assert checks.oracle_pixacc(PRED, GT, 2) == pytest.approx(3 / 5, abs=1e-15)

    def test_absent_class_is_skipped(self):
        # class 2 occurs nowhere, so it does not pull the mean down
        assert checks.oracle_miou(PRED, GT, 3) == checks.oracle_miou(PRED, GT, 2)

    def test_depth_errors(self):
        pred, gt = np.array([2.0, 4.0]), np.array([1.0, 4.0])
        assert checks.oracle_rel(pred, gt) == pytest.approx(0.5)
        assert checks.oracle_rms(pred, gt) == pytest.approx(np.sqrt(0.5))

    def test_mean_angle(self):
        gt = np.zeros((1, 3, 1, 2))
        gt[0, 2] = 1.0
        pred = gt.copy()
        pred[0, :, 0, 1] = (1.0, 0.0, 0.0)  # 90 degrees off, the other pixel exact
        assert checks.oracle_angle(pred, gt) == pytest.approx(45.0)

    def test_reward(self):
        assert checks.geometric_reward([("miou", 0.25), ("rel", 3.0)]) == pytest.approx(0.25)
        assert checks.geometric_reward([("angle", 180.0)]) == pytest.approx(0.5)


class TestChecksCatchPerturbations:
    def test_seg_metrics(self):
        logits = seg_logits(np.where(GT == 255, 0, PRED), 2)
        gt = GT[None]
        exact = checks.oracle_metrics("seg", logits, gt, 2)
        checks.check_metrics("seg", logits, gt, 2, exact)
        flipped = logits.copy()
        flipped[0, :, 0, 0] = (0.0, 1.0)  # one pixel changes class
        with pytest.raises(CheckFailed):
            checks.check_metrics("seg", flipped, gt, 2, exact)

    def test_depth_metrics(self):
        gt = np.linspace(1.0, 3.0, 16, dtype=np.float32).reshape(1, 1, 4, 4)
        pred = gt * np.float32(1.1)
        exact = checks.oracle_metrics("depth", pred, gt, 0)
        checks.check_metrics("depth", pred, gt, 0, exact)
        with pytest.raises(CheckFailed):
            checks.check_metrics("depth", pred * np.float32(1.001), gt, 0, exact)

    def test_prediction_domain(self):
        depth = np.ones((1, 1, 2, 2), dtype=np.float32)
        checks.check_prediction_domain("depth", depth)
        depth[0, 0, 1, 1] = 0.0
        with pytest.raises(CheckFailed):
            checks.check_prediction_domain("depth", depth)
        normals = np.zeros((1, 3, 2, 2), dtype=np.float32)
        normals[:, 2] = 1.0
        checks.check_prediction_domain("normal", normals)
        with pytest.raises(CheckFailed):
            checks.check_prediction_domain("normal", normals * 1.01)
        with pytest.raises(CheckFailed):
            checks.check_prediction_domain("seg", np.full((1, 2, 2, 3), np.nan))

    def test_beats_background(self):
        gt = GT[None]
        checks.check_beats_background(seg_logits(np.where(GT == 255, 0, GT), 2), gt, 2)
        with pytest.raises(CheckFailed):  # background everywhere is no better than itself
            checks.check_beats_background(seg_logits(np.zeros_like(GT), 2), gt, 2)

    def test_reward(self):
        primary = [("miou", 0.25), ("rel", 3.0)]
        checks.check_reward(primary, 0.25)
        with pytest.raises(CheckFailed):
            checks.check_reward(primary, 0.25 + 1e-9)

    def test_loss(self):
        checks.check_loss_decreases([3.0] * 10 + [2.0] * 10)
        with pytest.raises(CheckFailed):
            checks.check_loss_decreases([2.0] * 10 + [3.0] * 10)


class TestInvalidityRule:
    TAPS = (8, 16, 24, 32)
    SKIP = 4

    def predict(self, *cells):
        return checks.predict_invalid(list(cells), self.TAPS, 16, self.SKIP)

    def test_rule(self):
        assert not self.predict((0, 1, 0, 1, 0))  # no skip_connect
        assert self.predict((0, 1, self.SKIP, 1, 0))  # skip on the 8-wide tap
        assert not self.predict((1, 0, self.SKIP, 1, 0))  # skip on the 16-wide tap
        assert self.predict((1, 3, 0, self.SKIP, 1))  # skip on the 32-wide tap, second input
        assert not self.predict((0, 1, 0, 1, 0), (4, 2, self.SKIP, 0, 0))  # skip on a cell output

    def test_program_agrees_on_hand_genotype(self):
        from auxnas.auxiliary import AuxCell, Genotype, build_from_genotype
        from auxnas.autodiff import ParamSet
        from auxnas.layers import ADAPTOR_OP_NAMES, GenotypeError
        from auxnas.model import TAP_CHANNELS, TaskSpec

        skip = ADAPTOR_OP_NAMES.index("skip_connect")
        tasks = [TaskSpec("seg", 5), TaskSpec("depth")]
        for bad_loc, expect_invalid in ((0, True), (1, False), (4, False)):
            rows = [[AuxCell(1, 1, 1, 1, 0) for _ in range(4)] for _ in range(2)]
            rows[0][1] = AuxCell(bad_loc, 1, skip, 1, 0)
            g = Genotype(4, 2, tuple(tuple(r) for r in rows))
            predicted = checks.predict_invalid([c.tokens() for c in g.flat_cells()],
                                               TAP_CHANNELS, 16, skip)
            try:
                build_from_genotype(ParamSet(), np.random.default_rng(0), g, tasks,
                                    TAP_CHANNELS, 16)
                invalid = False
            except GenotypeError:
                invalid = True
            assert predicted == invalid == expect_invalid


class TestTracer:
    def test_outputs_unchanged_and_patches_restored(self):
        from auxnas import autodiff as ad
        from tracing import Tracer

        def step():
            rng = np.random.default_rng(3)
            x = ad.parameter(rng.standard_normal((2, 3, 5, 5)).astype(np.float32))
            w = ad.parameter(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
            with ad.Tape() as tape:
                y = ad.relu(ad.conv2d(x, w, pad=1))
                loss = ad.reduce_sum(ad.neg(y))
                tape.backward(loss)
            return y.values, x.grad, w.grad

        before = (ad.conv2d, ad.Tape.record, ad.Tape.backward)
        plain = step()
        tr = Tracer()
        with tr:
            traced = step()
        assert (ad.conv2d, ad.Tape.record, ad.Tape.backward) == before
        for a, b in zip(plain, traced):
            assert np.array_equal(a, b)
        ops = Counter(s[0] for s in tr.spans if s[1] == "op")
        # neg calls scale and reduce_sum calls reduce: only the outer op is a span
        assert ops == {"conv2d": 1, "relu": 1, "neg": 1, "reduce_sum": 1}
        assert Counter(s[0] for s in tr.spans if s[1] == "bwd") == ops

    def test_module_self_time(self):
        from tracing import layer_metrics

        ms = 1_000_000
        spans = [
            ["train.run", "fn", 0, 20 * ms, -1, "none", "none", None],
            ["train.objective", "fn", 0, 10 * ms, 0, "train", "none", None],
            ["model.decoder", "mod", 0, 10 * ms, 1, "train", "none", None],
            ["layers.head", "mod", 2 * ms, 6 * ms, 2, "train", "model.decoder", None],
            ["conv2d", "op", 3 * ms, 5 * ms, 3, "train", "layers.head", 1 << 20],
            ["conv2d", "bwd", 12 * ms, 15 * ms, -1, "train", "layers.head", None],
        ]
        m = layer_metrics(spans, Counter(train=1), {"data.gen_s": 0.0, "data.load_s": 0.0,
                                                     "trace.overhead_pct": 0.0})
        assert m["model.decoder.fwd_ms"] == pytest.approx(6.0)  # 10 minus the nested head
        assert m["layers.head.fwd_ms"] == pytest.approx(4.0)
        assert m["layers.head.bwd_ms"] == pytest.approx(3.0)
        assert m["autodiff.conv2d.fwd_ms"] == pytest.approx(2.0)
        assert m["autodiff.conv2d.out_mb"] == pytest.approx(1.0)
        assert m["trace.op_coverage_pct"] == pytest.approx(100.0 * 5 / 20)


def test_benchmark_json_matches_the_code():
    import run
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER_UNITS
