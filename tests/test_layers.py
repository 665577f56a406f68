"""Adaptor operators, aggregators, and ASPP: shape contracts and gradients."""

import numpy as np
import pytest

from auxnas import autodiff as ad
from auxnas.autodiff import ParamSet, parameter
from auxnas.layers import (
    AdaptorOp,
    AggOp,
    Aspp,
    BuildCtx,
    ConvBN,
    GenotypeError,
    TaskHead,
    build_adaptor_op,
    build_aggregator,
    deform_conv3x3,
)

from _gradcheck import check_grads
from _helpers import constant

C_AUX = 6


@pytest.fixture
def ctx64():
    return BuildCtx(ParamSet(), np.random.default_rng(7), dtype=np.float64)


def x64(rng, n, c, h, w):
    return constant(0.5 * rng.standard_normal((n, c, h, w)), dtype=np.float64)


class TestEnums:
    def test_adaptor_index_order_frozen(self):
        assert [op.value for op in AdaptorOp] == [0, 1, 2, 3, 4, 5]
        assert AdaptorOp.SEP_CONV3X3 == 0
        assert AdaptorOp.CONV1X1 == 1
        assert AdaptorOp.SEP_CONV3X3_DIL3 == 2
        assert AdaptorOp.SEP_CONV3X3_DIL6 == 3
        assert AdaptorOp.SKIP_CONNECT == 4
        assert AdaptorOp.DEFORM_CONV3X3 == 5

    def test_agg_index_order_frozen(self):
        assert AggOp.SUM == 0 and AggOp.CONCAT == 1


class TestBasicAdaptor:
    def test_constructed_passthrough(self, ctx64):
        # identity-like rows with unit gamma and zero beta in eval mode
        block = ConvBN(ctx64, "adapt", "shared", 3, 3, 1)
        w = np.zeros((3, 3, 1, 1))
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        block.w.values[...] = w
        rng = np.random.default_rng(0)
        x = constant(rng.random((2, 3, 4, 4)), dtype=np.float64)
        out = block(x, "eval")
        expect = x.values / np.sqrt(1.0 + 1e-5)
        assert np.allclose(out.values, expect, atol=1e-6)

    def test_output_channel_contract(self, ctx64):
        block = ConvBN(ctx64, "adapt", "shared", 5, C_AUX, 1)
        rng = np.random.default_rng(1)
        out = block(x64(rng, 2, 5, 4, 4), "train")
        assert out.shape == (2, C_AUX, 4, 4)

    def test_grad_through_composite(self, ctx64):
        rng = np.random.default_rng(2)
        block = ConvBN(ctx64, "adapt", "shared", 3, 4, 1)
        x = parameter(0.5 * rng.standard_normal((2, 3, 4, 4)), dtype=np.float64)

        def loss():
            y = block(x, "train")
            return ad.reduce_mean(ad.mul(y, y))

        params = [x, block.w, block.gamma, block.beta]
        check_grads(loss, params, rtol=1e-4, atol=1e-8)


class TestAdaptorOps:
    @pytest.mark.parametrize("op", [AdaptorOp.SEP_CONV3X3, AdaptorOp.CONV1X1,
                                    AdaptorOp.SEP_CONV3X3_DIL3, AdaptorOp.SEP_CONV3X3_DIL6,
                                    AdaptorOp.DEFORM_CONV3X3])
    def test_channel_mapping(self, ctx64, op):
        block = build_adaptor_op(op, ctx64, f"op{int(op)}", "aux:1", 5, C_AUX)
        rng = np.random.default_rng(3)
        out = block(x64(rng, 2, 5, 6, 6), "train")
        assert out.shape == (2, C_AUX, 6, 6)

    def test_skip_identity_and_channel_rule(self, ctx64):
        block = build_adaptor_op(AdaptorOp.SKIP_CONNECT, ctx64, "skip", "aux:1", C_AUX, C_AUX)
        rng = np.random.default_rng(4)
        x = x64(rng, 1, C_AUX, 4, 4)
        assert block(x, "train") is x
        with pytest.raises(GenotypeError):
            build_adaptor_op(AdaptorOp.SKIP_CONNECT, ctx64, "skip2", "aux:1", 5, C_AUX)

    def test_deform_zero_offsets_equals_conv3x3(self, ctx64):
        rng = np.random.default_rng(5)
        x = x64(rng, 2, 3, 5, 5)
        w = constant(0.5 * rng.standard_normal((4, 3, 3, 3)), dtype=np.float64)
        off = constant(np.zeros((2, 18, 5, 5)), dtype=np.float64)
        got = deform_conv3x3(x, off, w)
        want = ad.conv2d(x, w, pad=1)
        assert np.abs(got.values - want.values).max() <= 1e-6

    def test_dil3_receptive_field_probe(self, ctx64):
        # depthwise stage of sep_conv3x3_dil3 reaches exactly distance 3
        block = build_adaptor_op(AdaptorOp.SEP_CONV3X3_DIL3, ctx64, "dil3", "aux:1", 1, 1)
        # positive weights keep the signal path alive through the ReLUs
        block.depthwise.w.values[...] = np.abs(block.depthwise.w.values) + 0.1
        block.pointwise.w.values[...] = np.abs(block.pointwise.w.values) + 0.1
        rng = np.random.default_rng(6)
        base = np.abs(0.3 * rng.standard_normal((1, 1, 9, 9))) + 0.05
        center = 4

        def run(arr):
            return block(constant(arr, dtype=np.float64), "eval").values[0, 0, center, center]

        y0 = run(base)
        hit = base.copy()
        hit[0, 0, center, center - 3] += 1.0
        miss = base.copy()
        miss[0, 0, center, center - 4] += 1.0
        assert run(hit) != y0
        assert run(miss) == y0

    @pytest.mark.parametrize("op", [AdaptorOp.SEP_CONV3X3, AdaptorOp.CONV1X1,
                                    AdaptorOp.SEP_CONV3X3_DIL3, AdaptorOp.SEP_CONV3X3_DIL6,
                                    AdaptorOp.SKIP_CONNECT, AdaptorOp.DEFORM_CONV3X3])
    def test_grad_vs_finite_differences(self, ctx64, op):
        rng = np.random.default_rng(int(op) + 10)
        cin = 4 if op != AdaptorOp.SKIP_CONNECT else C_AUX
        block = build_adaptor_op(op, ctx64, f"g{int(op)}", "aux:1", cin, C_AUX)
        x = parameter(0.5 * rng.standard_normal((2, cin, 4, 4)), dtype=np.float64)
        if op == AdaptorOp.DEFORM_CONV3X3:
            # keep sampling points off the integer lattice for valid FD
            block.offset.b.values[...] = 0.35

        def loss():
            y = block(x, "train")
            return ad.reduce_mean(ad.mul(y, y))

        params = [x] + [ctx64.ps[p] for p in ctx64.ps.paths()
                        if p.startswith(f"g{int(op)}.") and ctx64.ps.trainable(p)]
        check_grads(loss, params, rtol=1e-4, atol=1e-8, max_entries=24,
                    rng=np.random.default_rng(0))


class TestAggregate:
    def test_sum_identity(self, ctx64):
        agg = build_aggregator(AggOp.SUM, ctx64, "agg", "aux:1", C_AUX)
        rng = np.random.default_rng(8)
        x = x64(rng, 1, C_AUX, 3, 3)
        out = agg(x, constant(np.zeros(x.shape), dtype=np.float64), "train")
        assert np.array_equal(out.values, x.values)

    def test_concat_projection_channels(self, ctx64):
        agg = build_aggregator(AggOp.CONCAT, ctx64, "cagg", "aux:1", C_AUX)
        rng = np.random.default_rng(9)
        out = agg(x64(rng, 2, C_AUX, 3, 3), x64(rng, 2, C_AUX, 3, 3), "train")
        assert out.shape == (2, C_AUX, 3, 3)

    def test_concat_grad(self, ctx64):
        agg = build_aggregator(AggOp.CONCAT, ctx64, "gagg", "aux:1", 4)
        rng = np.random.default_rng(10)
        a = parameter(0.5 * rng.standard_normal((1, 4, 3, 3)), dtype=np.float64)
        b = parameter(0.5 * rng.standard_normal((1, 4, 3, 3)), dtype=np.float64)

        def loss():
            y = agg(a, b, "train")
            return ad.reduce_mean(ad.mul(y, y))

        check_grads(loss, [a, b, agg.proj.w], rtol=1e-4, atol=1e-8)


class TestAspp:
    def test_shape_contract(self, ctx64):
        aspp = Aspp(ctx64, "aspp", "shared", 8)
        rng = np.random.default_rng(11)
        out = aspp(x64(rng, 2, 8, 4, 4), "train")
        assert out.shape == (2, 8, 4, 4)

    def test_constant_input_constant_output(self, ctx64):
        aspp = Aspp(ctx64, "caspp", "shared", 8)
        x = constant(np.full((2, 8, 4, 4), 0.7), dtype=np.float64)
        out = aspp(x, "eval").values
        per_channel_std = out.std(axis=(0, 2, 3))
        assert np.allclose(per_channel_std, 0.0, atol=1e-10)

    def test_grad(self, ctx64):
        aspp = Aspp(ctx64, "gaspp", "shared", 4)
        rng = np.random.default_rng(12)
        x = parameter(0.5 * rng.standard_normal((2, 4, 4, 4)), dtype=np.float64)

        def loss():
            y = aspp(x, "train")
            return ad.reduce_mean(ad.mul(y, y))

        params = [x] + [ctx64.ps[p] for p in ctx64.ps.paths()
                        if p.startswith("gaspp.") and ctx64.ps.trainable(p)]
        check_grads(loss, params, rtol=1e-4, atol=1e-8, max_entries=16,
                    rng=np.random.default_rng(1))


class TestTaskHead:
    def test_depth_head_positive(self, ctx64):
        head = TaskHead(ctx64, "dh", "task:2", 4, 1, "depth")
        rng = np.random.default_rng(13)
        out = head(x64(rng, 2, 4, 2, 2), 8, 8, "train")
        assert out.shape == (2, 1, 8, 8)
        assert (out.values > 0).all()

    def test_normal_head_unit_norm(self, ctx64):
        head = TaskHead(ctx64, "nh", "task:3", 4, 3, "normal")
        head.conv.b.values[...] = 0.3
        rng = np.random.default_rng(14)
        out = head(x64(rng, 2, 4, 4, 4), 8, 8, "train")
        norms = np.sqrt((out.values ** 2).sum(axis=1))
        assert np.abs(norms - 1.0).max() <= 1e-6
