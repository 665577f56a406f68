"""Core tensor op contracts: forward examples, FD gradient checks, tape rules."""

import weakref

import numpy as np
import pytest

from auxnas import autodiff as ad
from auxnas.autodiff import (
    ContractError,
    DegenerateShapeError,
    DimensionError,
    ParamSet,
    Tape,
    Tensor,
    parameter,
)
from auxnas.layers import deform_conv3x3

from _gradcheck import check_grads
from _helpers import constant, item


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def p64(rng, *shape):
    # modest scale keeps FD roundoff well under the gradient tolerances
    return parameter(0.5 * rng.standard_normal(shape), dtype=np.float64)


class TestConv2d:
    def test_conv1x1_scaling(self):
        x = constant(np.ones((1, 1, 3, 3)))
        w = constant(np.full((1, 1, 1, 1), 2.0))
        out = ad.conv2d(x, w)
        assert np.array_equal(out.values, np.full((1, 1, 3, 3), 2.0, dtype=np.float32))

    def test_dirac_kernel_identity(self, rng):
        x = constant(rng.random((1, 1, 3, 3)))
        k = np.zeros((1, 1, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1] = 1.0
        out = ad.conv2d(x, constant(k), pad=1)
        assert np.array_equal(out.values, x.values)

    def test_output_size_formula(self):
        x = constant(np.zeros((1, 2, 9, 9)))
        w = constant(np.zeros((4, 2, 3, 3)))
        out = ad.conv2d(x, w, stride=2, dilation=2, pad=2)
        h = (9 + 4 - 2 * 2 - 1) // 2 + 1
        assert out.shape == (1, 4, h, h)

    def test_shape_errors(self):
        x = constant(np.zeros((1, 3, 4, 4)))
        with pytest.raises(DimensionError):
            ad.conv2d(x, constant(np.zeros((2, 2, 3, 3))))
        with pytest.raises(DegenerateShapeError):
            ad.conv2d(constant(np.zeros((1, 1, 2, 2))), constant(np.zeros((1, 1, 3, 3))))

    @pytest.mark.parametrize("stride,dilation,groups,pad", [
        (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 2), (1, 1, 2, 0), (1, 3, 4, 3),
    ])
    def test_grad_vs_finite_differences(self, rng, stride, dilation, groups, pad):
        cin, cout, k = 4, 4, 3 if dilation * 2 + 1 <= 4 + 2 * pad else 1
        x = p64(rng, 2, cin, 4, 4)
        w = p64(rng, cout, cin // groups, k, k)
        b = p64(rng, cout)

        def loss():
            y = ad.conv2d(x, w, b, stride=stride, dilation=dilation, groups=groups, pad=pad)
            return ad.reduce_mean(ad.mul(y, y))

        check_grads(loss, [x, w, b], rtol=1e-6)


class TestBatchNorm:
    def _state(self, c, dtype=np.float32):
        return (Tensor(np.zeros(c, dtype=dtype)), Tensor(np.ones(c, dtype=dtype)))

    def test_constant_input_train(self):
        x = constant(np.full((2, 3, 4, 4), 7.0))
        g = constant(np.ones(3))
        b = constant(np.zeros(3))
        rm, rv = self._state(3)
        out = ad.batch_norm(x, g, b, rm, rv, mode="train")
        assert np.allclose(out.values, 0.0)

    def test_affine_collapse(self):
        x = constant(np.random.default_rng(0).random((2, 3, 4, 4)))
        g = constant(np.zeros(3))
        b = constant(np.full(3, 5.0))
        rm, rv = self._state(3)
        out = ad.batch_norm(x, g, b, rm, rv, mode="train")
        assert np.allclose(out.values, 5.0)

    def test_running_state_update_and_eval(self, rng):
        x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        g = constant(np.ones(2))
        b = constant(np.zeros(2))
        rm, rv = self._state(2)
        ad.batch_norm(constant(x), g, b, rm, rv, mode="train", momentum=0.1)
        mu = x.mean(axis=(0, 2, 3))
        assert np.allclose(rm.values, 0.1 * mu, atol=1e-6)
        out = ad.batch_norm(constant(x), g, b, rm, rv, mode="eval")
        expect = (x - rm.values.reshape(1, 2, 1, 1)) / np.sqrt(rv.values.reshape(1, 2, 1, 1) + 1e-5)
        assert np.allclose(out.values, expect, atol=1e-5)

    def test_eval_mode_under_a_tape_is_a_contract_error(self, rng):
        x = parameter(rng.standard_normal((2, 3, 4, 4)))
        rm, rv = self._state(3)
        with Tape():
            with pytest.raises(ContractError, match="eval mode"):
                ad.batch_norm(x, constant(np.ones(3)), constant(np.zeros(3)), rm, rv,
                              mode="eval")

    def test_grad_vs_finite_differences(self, rng):
        x = p64(rng, 3, 2, 4, 4)
        g = parameter(rng.random(2) + 0.5, dtype=np.float64)
        b = p64(rng, 2)

        def loss():
            rm = Tensor(np.zeros(2, dtype=np.float64))
            rv = Tensor(np.ones(2, dtype=np.float64))
            y = ad.batch_norm(x, g, b, rm, rv, mode="train")
            return ad.reduce_mean(ad.mul(y, ad.exp(ad.scale(y, 0.1))))

        check_grads(loss, [x, g, b], rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 5, 6, 7), (1, 3, 1, 1), (12, 16, 16, 16), (2, 8, 3, 2)])
    def test_train_forward_matches_np_var(self, rng, shape, dtype):
        c = shape[1]
        x = (3.0 * rng.standard_normal(shape) + 1.5).astype(dtype)
        gam, bet = (rng.standard_normal(c).astype(dtype) for _ in range(2))
        rm, rv = self._state(c, dtype)
        rv.values[...] = rng.random(c) + 0.5
        rv0 = rv.values.copy()
        out = ad.batch_norm(constant(x, dtype), constant(gam, dtype), constant(bet, dtype),
                            rm, rv, mode="train", momentum=0.1)
        mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + np.asarray(1e-5, dtype=dtype))
        xhat = (x - mu.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
        mom = np.asarray(0.1, dtype=dtype)
        assert np.array_equal(out.values, gam.reshape(1, c, 1, 1) * xhat + bet.reshape(1, c, 1, 1))
        assert np.array_equal(rv.values, (1 - mom) * rv0 + mom * var)

    def test_empty_batch_rejected(self):
        x = constant(np.zeros((1, 2, 0, 4)))
        g = constant(np.ones(2))
        b = constant(np.zeros(2))
        rm, rv = self._state(2)
        with pytest.raises(DegenerateShapeError):
            ad.batch_norm(x, g, b, rm, rv, mode="train")


class TestElementwise:
    def test_add_identity(self, rng):
        x = constant(rng.random((2, 3)))
        out = ad.add(x, constant(np.zeros((2, 3))))
        assert np.array_equal(out.values, x.values)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(constant(np.zeros((2, 3))), constant(np.zeros((3, 2))))

    def test_concat_channel_count(self):
        a = constant(np.zeros((1, 2, 2, 2)))
        b = constant(np.ones((1, 3, 2, 2)))
        out = ad.concat_channels([a, b])
        assert out.shape == (1, 5, 2, 2)
        assert np.array_equal(out.values[:, 2:], np.ones((1, 3, 2, 2), dtype=np.float32))

    def test_concat_grad_splits(self, rng):
        a = p64(rng, 1, 2, 3, 3)
        b = p64(rng, 1, 3, 3, 3)

        def loss():
            y = ad.concat_channels([a, b])
            return ad.reduce_sum(ad.mul(y, y))

        check_grads(loss, [a, b], rtol=1e-6)

    def test_relu_subgradient_zero_at_zero(self):
        x = parameter(np.array([[-1.0, 0.0, 2.0]]), dtype=np.float64)
        with Tape() as tape:
            tape.backward(ad.reduce_sum(ad.relu(x)))
        assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_minimum_clip_abs_grads(self, rng):
        a = p64(rng, 4, 4)
        b = p64(rng, 4, 4)

        def loss():
            y = ad.minimum(ad.mul(a, a), ad.abs_(b))
            return ad.reduce_sum(ad.mul(ad.clip(y, -0.5, 0.5), ad.sigmoid(a)))

        check_grads(loss, [a, b], rtol=1e-5, atol=1e-8)

    def test_unary_grads(self, rng):
        x = p64(rng, 3, 5)

        def loss():
            y = ad.add(ad.tanh(x), ad.softplus(x))
            y = ad.add(y, ad.exp(ad.scale(x, 0.3)))
            return ad.reduce_mean(ad.mul(y, y))

        check_grads(loss, [x], rtol=1e-6)


class TestResize:
    def test_same_size_identity(self, rng):
        x = constant(rng.random((2, 3, 5, 7)))
        out = ad.bilinear_resize(x, 5, 7)
        assert np.array_equal(out.values, x.values)

    def test_half_pixel_upsample_values(self):
        x = constant(np.array([0.0, 2.0]).reshape(1, 1, 1, 2))
        out = ad.bilinear_resize(x, 1, 4)
        assert np.allclose(out.values.ravel(), [0.0, 0.5, 1.5, 2.0])

    def test_grad_vs_finite_differences(self, rng):
        x = p64(rng, 1, 2, 3, 4)

        def loss():
            y = ad.bilinear_resize(x, 5, 3)
            return ad.reduce_sum(ad.mul(y, y))

        check_grads(loss, [x], rtol=1e-6)


class TestGridSample:
    def test_lattice_sampling_exact(self, rng):
        x = constant(rng.random((1, 2, 4, 4)))
        ys, xs = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        pts = constant(np.stack([ys.ravel(), xs.ravel()], axis=-1)[None].astype(np.float32))
        out = ad.grid_sample_bilinear(x, pts)
        assert np.array_equal(out.values.reshape(1, 2, 4, 4), x.values)

    def test_midpoint_average(self):
        x = constant(np.array([[1.0], [3.0]]).reshape(1, 1, 2, 1))
        pts = constant(np.array([[[0.5, 0.0]]]))
        out = ad.grid_sample_bilinear(x, pts)
        assert np.allclose(out.values, 2.0)

    def test_out_of_bounds_clamps(self):
        x = constant(np.arange(4.0).reshape(1, 1, 2, 2))
        pts = constant(np.array([[[-3.0, -3.0], [9.0, 9.0]]]))
        out = ad.grid_sample_bilinear(x, pts)
        assert np.allclose(out.values.ravel(), [0.0, 3.0])

    def test_grads_vs_finite_differences(self, rng):
        x = p64(rng, 2, 3, 5, 5)
        # keep points away from integer coordinates so FD stays valid
        raw = rng.uniform(0.3, 3.7, size=(2, 6, 2))
        raw = np.where(np.abs(raw - np.round(raw)) < 0.1, raw + 0.15, raw)
        pts = parameter(raw, dtype=np.float64)

        def loss():
            y = ad.grid_sample_bilinear(x, pts)
            return ad.reduce_sum(ad.mul(y, y))

        check_grads(loss, [x], rtol=1e-6)
        check_grads(loss, [pts], rtol=1e-5, atol=1e-8)


class TestReduceSoftmax:
    def test_softmax_log_symmetry(self):
        out = ad.softmax_log(constant(np.array([[0.0, 0.0]])), axis=1)
        assert np.allclose(out.values, -np.log(2.0))

    def test_mean_of_ones(self):
        assert item(ad.reduce_mean(constant(np.ones(4)))) == 1.0

    def test_empty_axis_rejected(self):
        with pytest.raises(DegenerateShapeError):
            ad.reduce_sum(constant(np.zeros((2, 0))), axes=(1,))

    def test_composite_grad(self, rng):
        x = p64(rng, 3, 6)

        def loss():
            return ad.reduce_mean(ad.mul(ad.softmax_log(x, axis=1), x))

        check_grads(loss, [x], rtol=1e-6)

    def test_l2_normalize_grad_and_norm(self, rng):
        x = p64(rng, 2, 3, 2, 2)
        y = ad.l2_normalize(x, axis=1)
        norms = np.sqrt((y.values ** 2).sum(axis=1))
        assert np.allclose(norms, 1.0, atol=1e-6)

        def loss():
            z = ad.l2_normalize(x, axis=1)
            return ad.reduce_sum(ad.mul(z, ad.exp(ad.scale(z, 0.2))))

        check_grads(loss, [x], rtol=1e-5, atol=1e-8)


class TestLinearAlgebra:
    def test_matmul_grads(self, rng):
        a = p64(rng, 3, 4)
        b = p64(rng, 4, 2)
        bb = p64(rng, 5, 4, 2)

        def loss2d():
            return ad.reduce_sum(ad.mul(ad.matmul(a, b), ad.matmul(a, b)))

        check_grads(loss2d, [a, b], rtol=1e-6)

        def loss3d():
            y = ad.matmul(a, bb)
            return ad.reduce_sum(ad.mul(y, y))

        check_grads(loss3d, [a, bb], rtol=1e-6)

    def test_linear_grads(self, rng):
        x = p64(rng, 4, 3)
        w = p64(rng, 3, 5)
        b = p64(rng, 5)

        def loss():
            y = ad.linear(x, w, b)
            return ad.reduce_sum(ad.mul(y, ad.tanh(y)))

        check_grads(loss, [x, w, b], rtol=1e-6)

    def test_embedding_grads(self, rng):
        table = p64(rng, 7, 4)
        ids = np.array([0, 3, 3, 6])

        def loss():
            y = ad.embedding(table, ids)
            return ad.reduce_sum(ad.mul(y, y))

        check_grads(loss, [table], rtol=1e-6)


class TestBackwardContract:
    def test_sum_grad_is_ones(self, rng):
        x = parameter(rng.random((3, 4)), dtype=np.float64)
        with Tape() as tape:
            tape.backward(ad.reduce_sum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_linearity_of_backward(self, rng):
        base = rng.standard_normal((3, 3))
        x1 = parameter(base, dtype=np.float64)
        with Tape() as tape:
            a = ad.reduce_sum(ad.mul(x1, x1))
            b = ad.reduce_mean(ad.exp(x1))
            tape.backward(ad.add(a, b))
        # backward consumes its tape, so each loss gets a tape of its own;
        # the leaf's gradients sum across the two
        x2 = parameter(base, dtype=np.float64)
        with Tape() as tape:
            tape.backward(ad.reduce_sum(ad.mul(x2, x2)))
        with Tape() as tape:
            tape.backward(ad.reduce_mean(ad.exp(x2)))
        assert np.abs(x1.grad - x2.grad).max() <= 1e-12

    def test_backward_consumes_tape(self):
        x = parameter(np.ones(3), dtype=np.float64)
        saved = np.arange(3.0)
        only_in_vjp = weakref.ref(saved)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, Tensor(saved)))
            del saved
            assert only_in_vjp() is not None  # mul's vjp keeps its other operand
            tape.backward(loss)
        assert len(tape._ops) == 0
        assert only_in_vjp() is None
        assert np.array_equal(x.grad, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("consumer", [
        ad.relu,
        lambda h: ad.bilinear_resize(h, 5, 3),
        lambda h: ad.conv2d(h, parameter(np.ones((2, 2, 3, 3)), dtype=np.float64), pad=1),
    ], ids=["relu", "bilinear_resize", "conv2d"])
    def test_unsaved_intermediate_freed_in_forward(self, rng, consumer):
        x = p64(rng, 1, 2, 4, 4)
        with Tape() as tape:
            h = ad.scale(x, 2.0)
            h_values = weakref.ref(h.values)
            y = consumer(h)
            del h
            assert h_values() is None  # neither the tape nor y's vjp holds h
            tape.backward(ad.reduce_sum(ad.mul(y, y)))
        want = parameter(x.values)
        with Tape() as tape:
            y = consumer(ad.scale(want, 2.0))
            tape.backward(ad.reduce_sum(ad.mul(y, y)))
        assert np.array_equal(x.grad, want.grad)

    def test_second_backward_rejected(self, rng):
        x = parameter(rng.random((2, 2)), dtype=np.float64)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, x))
            tape.backward(loss)
            with pytest.raises(ContractError):
                tape.backward(loss)
            with pytest.raises(ContractError):
                ad.mul(x, x)  # nothing records on a consumed tape
        assert np.array_equal(x.grad, 2 * x.values)

    def test_tensor_of_earlier_tape_is_constant(self, rng):
        x = parameter(rng.random((2, 2)), dtype=np.float64)
        with Tape():
            y = ad.mul(x, x)
        with Tape() as tape:
            assert not tape.is_live(y)
            with pytest.raises(ContractError):
                tape.backward(ad.reduce_sum(y))
        with Tape() as tape:
            tape.backward(ad.reduce_sum(ad.mul(y, x)))
        assert np.array_equal(x.grad, y.values)  # no term through y

    def test_non_scalar_loss_rejected(self, rng):
        x = parameter(rng.random((2, 2)), dtype=np.float64)
        with Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_forward_deterministic(self, rng):
        xv = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        wv = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)

        def run():
            y = ad.conv2d(constant(xv), constant(wv), pad=1)
            return ad.reduce_mean(ad.relu(y)).values.copy()

        assert np.array_equal(run(), run())

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(ContractError):
                with Tape():
                    pass


class TestParamSet:
    def test_tags_partition(self, rng):
        ps = ParamSet()
        ps.add("enc.w", rng.random((3, 3)), ad.TAG_SHARED)
        ps.add("dec1.w", rng.random(4), ad.tag_task(1))
        ps.add("aux1.w", rng.random(2), ad.tag_aux(1))
        ps.add("ctrl.w", rng.random(2), ad.TAG_CONTROLLER)
        with pytest.raises(ContractError):
            ps.add("enc.w", rng.random(1), ad.tag_task(2))
        groups = [ps.tagged(ad.TAG_SHARED), ps.tagged(ad.tag_task(1)),
                  ps.tagged(ad.tag_aux(1)), ps.tagged(ad.TAG_CONTROLLER)]
        assert sum(len(g) for g in groups) == len(ps)
        flat = [p for g in groups for p in g]
        assert len(set(flat)) == len(flat)

    def test_zero_grad_materializes(self, rng):
        ps = ParamSet()
        t = ps.add("w", rng.random(3), ad.TAG_SHARED)
        ps.add("state", rng.random(3), ad.TAG_SHARED, trainable=False)
        ps.zero_grad()
        assert np.array_equal(t.grad, np.zeros(3))
        assert ps["state"].grad is None

    def test_freeze_by_prefix(self, rng):
        ps = ParamSet()
        ps.add("a.cell0.w", rng.random(3), ad.tag_aux(1))
        ps.add("a.cell1.w", rng.random(3), ad.tag_aux(1))
        ps.add("a.cell10.w", rng.random(3), ad.tag_aux(1))
        ps.freeze(["a.cell1."])
        assert [ps.trainable(p) for p in ps.paths()] == [True, False, True]
        assert not ps["a.cell1.w"].requires_grad
        ps.zero_grad()
        assert ps["a.cell1.w"].grad is None
        assert [p for p, _ in ps.trainable_items()] == ["a.cell0.w", "a.cell10.w"]
        ps.freeze([])
        assert ps.trainable("a.cell0.w")


# ---------------------------------------------------------------------------
# Reference kernels: the gather / scatter algorithms that the dense kernels
# replaced, kept as oracles. conv2d's dx and pad2d_replicate's dx must match
# them bit for bit; the resize kernels reorder floating-point sums, so they
# must agree to rounding. Grouped and depthwise convs are held to a long
# double sum instead (exact_conv2d).
# ---------------------------------------------------------------------------


def ref_conv2d(xv, wv, g, stride, dilation, groups, pad):
    """Strided fancy-index im2col, bincount col2im. Returns (y, dx, dw)."""
    n, c, h, ww = xv.shape
    o, i, k, _ = wv.shape
    idx, hp, wp, ho, wo = ad._im2col_index(c, h, ww, k, stride, dilation, pad)
    xp = np.pad(xv, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    col = xp.reshape(n, c * hp * wp)[:, idx.ravel()].reshape(n, c * k * k, ho * wo)
    og, ckkg = o // groups, i * k * k
    colg = col.reshape(n, groups, ckkg, ho * wo)
    wg = wv.reshape(groups, og, ckkg)
    y = np.matmul(wg[None], colg).reshape(n, o, ho, wo)
    gg = g.reshape(n, groups, og, ho * wo)
    dw = np.matmul(gg, colg.swapaxes(-1, -2)).sum(axis=0).reshape(o, i, k, k)
    dcol = np.matmul(wg.swapaxes(-1, -2)[None], gg)
    span = c * hp * wp
    all_idx = (np.arange(n, dtype=np.intp)[:, None] * span + idx.ravel()[None, :]).ravel()
    dxp = np.bincount(all_idx, weights=dcol.reshape(n, -1).ravel().astype(np.float64),
                      minlength=n * span)
    dxp = dxp.reshape(n, c, hp, wp).astype(xv.dtype)
    return y, dxp[:, :, pad:pad + h, pad:pad + ww], dw


def exact_conv2d(xv, wv, g, stride, dilation, groups, pad):
    """y and dw of ref_conv2d summed in long double, then rounded once to the
    input dtype. The reference for kernels that sum in another order than
    the oracle: it is closer to the exact sum than either of them."""
    ld = np.longdouble
    y, _, dw = ref_conv2d(xv.astype(ld), wv.astype(ld), g.astype(ld),
                          stride, dilation, groups, pad)
    return y.astype(xv.dtype), dw.astype(xv.dtype)


def ref_pad2d_replicate(xv, g, p):
    """Clipped-index gather forward, np.add.at backward. Returns (y, dx)."""
    n, c, h, w = xv.shape
    ri = np.clip(np.arange(-p, h + p), 0, h - 1)
    ci = np.clip(np.arange(-p, w + p), 0, w - 1)
    tmp = np.zeros((n, c, h, w + 2 * p), dtype=g.dtype)
    np.add.at(tmp, (slice(None), slice(None), ri), g)
    dx = np.zeros((n, c, h, w), dtype=g.dtype)
    np.add.at(dx, (slice(None), slice(None), slice(None), ci), tmp)
    return xv[:, :, ri][:, :, :, ci], dx


def ref_resize_coeffs(in_size, out_size):
    src = np.clip((np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5, 0.0, in_size - 1.0)
    i0 = np.floor(src).astype(np.intp)
    return i0, np.minimum(i0 + 1, in_size - 1), src - i0


def ref_resize(arr, out_h, out_w):
    """Four-tap gather forward."""
    y0, y1, wy = ref_resize_coeffs(arr.shape[-2], out_h)
    x0, x1, wx = ref_resize_coeffs(arr.shape[-1], out_w)
    wy, wx = wy.astype(arr.dtype), wx.astype(arr.dtype)
    rows = arr[..., y0, :] * (1 - wy)[:, None] + arr[..., y1, :] * wy[:, None]
    return rows[..., :, x0] * (1 - wx) + rows[..., :, x1] * wx


def ref_resize_dx(g, h, w):
    """Four-corner bincount scatter backward, accumulated in float64."""
    n, c, out_h, out_w = g.shape
    y0, y1, wy = ref_resize_coeffs(h, out_h)
    x0, x1, wx = ref_resize_coeffs(w, out_w)
    wy, wx = wy.astype(g.dtype), wx.astype(g.dtype)
    gy0, gy1 = g * (1 - wy)[:, None], g * wy[:, None]
    base = np.arange(n * c, dtype=np.intp)[:, None] * (h * w)
    acc = np.zeros(n * c * h * w)
    for yi, xi, term in ((y0, x0, gy0 * (1 - wx)), (y0, x1, gy0 * wx),
                         (y1, x0, gy1 * (1 - wx)), (y1, x1, gy1 * wx)):
        lin = (yi[:, None] * w + xi[None, :]).ravel()
        acc += np.bincount((base + lin[None, :]).ravel(),
                           weights=term.reshape(n * c, -1).ravel().astype(np.float64),
                           minlength=n * c * h * w)
    return acc.reshape(n, c, h, w).astype(g.dtype)


def ref_grid_sample(xv, pv, g):
    """Four take_along_axis gathers forward, four bincount scatters for dx.
    Returns (y, dx, dpoints)."""
    n, c, h, w = xv.shape
    py = np.clip(pv[:, :, 0], 0.0, h - 1.0)
    px = np.clip(pv[:, :, 1], 0.0, w - 1.0)
    y0, x0 = np.floor(py).astype(np.intp), np.floor(px).astype(np.intp)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    wy = (py - y0).astype(xv.dtype)[:, None, :]
    wx = (px - x0).astype(xv.dtype)[:, None, :]
    xf = xv.reshape(n, c, h * w)
    corners = [(y0, x0, (1 - wy) * (1 - wx)), (y0, x1, (1 - wy) * wx),
               (y1, x0, wy * (1 - wx)), (y1, x1, wy * wx)]
    v00, v01, v10, v11 = (np.take_along_axis(xf, (yi * w + xi)[:, None, :], axis=2)
                          for yi, xi, _ in corners)
    y = (v00 * (1 - wy) * (1 - wx) + v01 * (1 - wy) * wx
         + v10 * wy * (1 - wx) + v11 * wy * wx)
    base = (np.arange(n * c, dtype=np.intp) * (h * w)).reshape(n, c, 1)
    acc = np.zeros(n * c * h * w)
    for yi, xi, wgt in corners:
        acc += np.bincount(((yi * w + xi)[:, None, :] + base).ravel(),
                           weights=(g * wgt).ravel().astype(np.float64), minlength=acc.size)
    inner_y = ((pv[:, :, 0] > 0) & (pv[:, :, 0] < h - 1)).astype(xv.dtype)
    inner_x = ((pv[:, :, 1] > 0) & (pv[:, :, 1] < w - 1)).astype(xv.dtype)
    dpy = (g * ((v10 - v00) * (1 - wx) + (v11 - v01) * wx)).sum(axis=1)
    dpx = (g * ((v01 - v00) * (1 - wy) + (v11 - v10) * wy)).sum(axis=1)
    dp = np.stack([dpy * inner_y, dpx * inner_x], axis=-1)
    return y, acc.reshape(n, c, h, w).astype(xv.dtype), dp


def taped_grads(fn, xs, g):
    """Run fn(*xs) on a tape with upstream gradient exactly g; returns the
    output values and the input grads."""
    with Tape() as tape:
        y = fn(*xs)
        tape.backward(ad.reduce_sum(ad.mul(y, constant(g, dtype=g.dtype))))
    return y.values, [x.grad for x in xs]


DTYPES = [np.float32, np.float64]
RESIZE_TOL = {np.float32: 1e-6, np.float64: 1e-12}
RESIZE_SHAPES = [((3, 4), (5, 3)), ((1, 2), (1, 4)), ((2, 2), (32, 32)),
                 ((16, 16), (32, 32)), ((32, 32), (8, 8)), ((7, 5), (2, 9)), ((5, 7), (5, 7))]


def close_to(a, ref, tol):
    assert a.dtype == ref.dtype and a.shape == ref.shape
    assert np.abs(a - ref).max() <= tol * np.abs(ref).max()


class TestConvReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_gather_bincount(self, rng, stride, dilation, pad, groups, dtype):
        xv = rng.standard_normal((2, 4, 9, 8)).astype(dtype)
        wv = rng.standard_normal((8, 4 // groups, 3, 3)).astype(dtype)
        ho = ad.conv_out_size(9, 3, stride, dilation, pad)
        wo = ad.conv_out_size(8, 3, stride, dilation, pad)
        g = rng.standard_normal((2, 8, ho, wo)).astype(dtype)
        y_ref, dx_ref, dw_ref = ref_conv2d(xv, wv, g, stride, dilation, groups, pad)
        y, (dx, dw) = taped_grads(
            lambda x, w: ad.conv2d(x, w, stride=stride, dilation=dilation, groups=groups,
                                   pad=pad),
            [parameter(xv), parameter(wv)], g)
        assert dx.dtype == dtype and np.array_equal(dx, dx_ref)
        if groups == 1:
            assert np.array_equal(y, y_ref) and np.array_equal(dw, dw_ref)
        else:  # grouped matmuls may round differently from the oracle's
            y_exact, dw_exact = exact_conv2d(xv, wv, g, stride, dilation, groups, pad)
            tol = 4 * np.finfo(dtype).eps
            close_to(y, y_exact, tol)
            close_to(dw, dw_exact, tol)


class TestDepthwiseReference:
    """groups == C == O at stride 1 (one output channel per group) takes the
    direct depthwise path. On the 4x4 and 2x2 maps some taps read only
    padding; with pad > dilation some outputs read only padding."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("extra_pad", [0, 1])
    @pytest.mark.parametrize("size", [(9, 8), (4, 4), (2, 2)])
    @pytest.mark.parametrize("dilation", [1, 3, 6])
    def test_matches_gather_bincount(self, rng, dilation, size, extra_pad, dtype):
        pad = dilation + extra_pad
        xv = rng.standard_normal((3, 5) + size).astype(dtype)
        wv = rng.standard_normal((5, 1, 3, 3)).astype(dtype)
        ho, wo = (ad.conv_out_size(s, 3, 1, dilation, pad) for s in size)
        g = rng.standard_normal((3, 5, ho, wo)).astype(dtype)
        _, dx_ref, _ = ref_conv2d(xv, wv, g, 1, dilation, 5, pad)
        y, (dx, dw) = taped_grads(
            lambda x, w: ad.conv2d(x, w, dilation=dilation, groups=5, pad=pad),
            [parameter(xv), parameter(wv)], g)
        assert dx.dtype == dtype and np.array_equal(dx, dx_ref)
        y_exact, dw_exact = exact_conv2d(xv, wv, g, 1, dilation, 5, pad)
        tol = 4 * np.finfo(dtype).eps
        close_to(y, y_exact, tol)
        close_to(dw, dw_exact, tol)


class TestGridSampleReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape,m", [((2, 3, 5, 4), 17), ((1, 2, 1, 3), 5),
                                         ((3, 16, 6, 6), 144), ((2, 1, 2, 2), 1)])
    def test_matches_gather_bincount(self, rng, shape, m, dtype):
        n, c, h, w = shape
        xv = rng.standard_normal(shape).astype(dtype)
        # points inside, on the lattice, on the border and past it
        pv = np.stack([rng.uniform(-1.5, h + 0.5, (n, m)),
                       rng.uniform(-1.5, w + 0.5, (n, m))], axis=-1)
        pv[:, ::3] = np.round(pv[:, ::3])
        pv = pv.astype(dtype)
        g = rng.standard_normal((n, c, m)).astype(dtype)
        y, (dx, dp) = taped_grads(ad.grid_sample_bilinear, [parameter(xv), parameter(pv)], g)
        y_ref, dx_ref, dp_ref = ref_grid_sample(xv, pv, g)
        assert y.dtype == dtype and np.array_equal(y, y_ref)
        assert dx.dtype == dtype and np.array_equal(dx, dx_ref)
        close_to(dp, dp_ref, 4 * np.finfo(dtype).eps)


class TestDeformReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_zero_offsets_match_conv_pad1(self, rng, dtype):
        xv = rng.standard_normal((2, 3, 5, 6)).astype(dtype)
        wv = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        off = constant(np.zeros((2, 18, 5, 6)), dtype=dtype)
        g = rng.standard_normal((2, 4, 5, 6)).astype(dtype)
        y, (dx, dw) = taped_grads(lambda x, w: deform_conv3x3(x, off, w),
                                  [parameter(xv), parameter(wv)], g)
        y_ref, (dx_ref, dw_ref) = taped_grads(lambda x, w: ad.conv2d(x, w, pad=1),
                                              [parameter(xv), parameter(wv)], g)
        tol = 4 * np.finfo(dtype).eps
        close_to(y, y_ref, tol)
        close_to(dx, dx_ref, tol)
        close_to(dw, dw_ref, tol)


class TestPadReplicateReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 4), (1, 2, 1, 3), (1, 1, 6, 1)])
    def test_matches_gather_add_at(self, rng, shape, p, dtype):
        n, c, h, w = shape
        xv = rng.standard_normal(shape).astype(dtype)
        g = rng.standard_normal((n, c, h + 2 * p, w + 2 * p)).astype(dtype)
        y, (dx,) = taped_grads(lambda x: ad.pad2d_replicate(x, p), [parameter(xv)], g)
        y_ref, dx_ref = ref_pad2d_replicate(xv, g, p)
        assert np.array_equal(y, y_ref)
        assert dx.dtype == dtype and np.array_equal(dx, dx_ref)


class TestResizeReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("src,dst", RESIZE_SHAPES)
    def test_matches_gather_and_scatter(self, rng, src, dst, dtype):
        xv = rng.standard_normal((2, 3) + src).astype(dtype)
        g = rng.standard_normal((2, 3) + dst).astype(dtype)
        y, (dx,) = taped_grads(lambda x: ad.bilinear_resize(x, *dst), [parameter(xv)], g)
        close_to(y, ref_resize(xv, *dst), RESIZE_TOL[dtype])
        close_to(dx, ref_resize_dx(g, *src), RESIZE_TOL[dtype])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("src,dst", RESIZE_SHAPES)
    def test_matrix_rows_sum_to_one(self, src, dst, dtype):
        for n_in, n_out in zip(src, dst):
            r = ad._resize_matrix(n_in, n_out, np.dtype(dtype))
            assert r.shape == (n_out, n_in) and r.dtype == dtype and not r.flags.writeable
            assert (r >= 0).all()
            assert np.abs(r.sum(axis=1, dtype=np.float64) - 1).max() <= np.finfo(dtype).eps

    @pytest.mark.parametrize("src,dst", RESIZE_SHAPES)
    def test_backward_is_adjoint(self, rng, src, dst):
        x = rng.standard_normal((2, 3) + src)
        g = rng.standard_normal((2, 3) + dst)
        y, (dx,) = taped_grads(lambda t: ad.bilinear_resize(t, *dst), [parameter(x)], g)
        lhs, rhs = float((y * g).sum()), float((x * dx).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
