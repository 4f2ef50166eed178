from types import SimpleNamespace

import numpy as np
import pytest

from adnet import kernels, numerics
from adnet.numerics import Tape, Tensor

from _gradcheck import gradient_draw, max_rel_error, run_pullbacks
from _oracles import adam_per_tensor, logistic_by_mask


def conv_reference(x, w, b, dilation):
    """Brute-force dilated convolution: direct sum over every tap."""
    cout, cin, k = w.shape
    t = x.shape[1]
    pad = (k // 2) * dilation
    out = np.zeros((cout, t))
    for co in range(cout):
        for tt in range(t):
            acc = b[co]
            for ci in range(cin):
                for j in range(k):
                    src = tt + j * dilation - pad
                    if 0 <= src < t:
                        acc += w[co, ci, j] * x[ci, src]
            out[co, tt] = acc
    return out


class TestConv1dDilated:
    def test_identity_kernel(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        out = numerics.conv1d_dilated(x, Tensor([[[1.0]]]), Tensor([0.0]), 1)
        np.testing.assert_array_equal(out.value, x.value)

    def test_sliding_sum_dilation_1(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        w = Tensor(np.ones((1, 1, 3)))
        out = numerics.conv1d_dilated(x, w, Tensor([0.0]), 1)
        np.testing.assert_allclose(out.value, [[3.0, 6.0, 9.0, 7.0]])

    def test_sliding_sum_dilation_2(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        w = Tensor(np.ones((1, 1, 3)))
        out = numerics.conv1d_dilated(x, w, Tensor([0.0]), 2)
        np.testing.assert_allclose(out.value, [[4.0, 6.0, 4.0, 6.0]])

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2, 8, 1024])
    def test_matches_brute_force_and_preserves_shape(self, k, dilation):
        rng = np.random.default_rng(5 * k + dilation)
        for t in (1, 2, 7, 33):
            x = rng.normal(size=(3, t))
            w = rng.normal(size=(4, 3, k))
            b = rng.normal(size=4)
            out = numerics.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b), dilation)
            assert out.value.shape == (4, t)
            np.testing.assert_allclose(out.value, conv_reference(x, w, b, dilation),
                                       atol=1e-12)

    def test_linearity_for_bias_free_kernels(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(2, 3, 3)))
        zero_b = Tensor(np.zeros(2))
        x = rng.normal(size=(3, 11))
        y = rng.normal(size=(3, 11))
        a, c = 1.7, -0.3
        combined = numerics.conv1d_dilated(Tensor(a * x + c * y), w, zero_b, 2).value
        separate = (a * numerics.conv1d_dilated(Tensor(x), w, zero_b, 2).value
                    + c * numerics.conv1d_dilated(Tensor(y), w, zero_b, 2).value)
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 16))
        w = rng.normal(size=(4, 4, 3))
        b = rng.normal(size=4)
        first = numerics.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b), 4).value
        second = numerics.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b), 4).value
        assert np.array_equal(first, second)


class TestConvForwardStack:
    @pytest.mark.parametrize("t", [8, 10, 64])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("cin,cout", [(1, 1), (6, 4), (64, 64)])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_stack_equals_one_call_per_window(self, batch, cin, cout, k, t):
        # B windows stacked as (B*Cin, T) rows must give each window's
        # single-call output bit for bit, also where the dilation puts whole
        # taps into the padding (|offset| >= T)
        rng = np.random.default_rng([batch, cin, k, t])
        x = rng.normal(size=(batch * cin, t))
        w = rng.normal(size=(cout, cin, k))
        b = rng.normal(size=cout)
        for dilation in sorted({1, 2, 3, t // 2, t - 1, t, t + 1, 2 * t}):
            stacked = kernels.conv1d_dilated_fwd(x, w, b, dilation)
            assert stacked.shape == (batch * cout, t) and stacked.flags.c_contiguous
            single = [kernels.conv1d_dilated_fwd(x[i * cin:(i + 1) * cin], w, b, dilation)
                      for i in range(batch)]
            assert stacked.tobytes() == np.concatenate(single).tobytes(), dilation


def padded_input_gradient(w, gy, dilation):
    """The input gradient of the dilated conv as the sum, tap by tap, of
    each tap's full product into a zero-padded buffer, then cropped."""
    cout, cin, k = w.shape
    t = gy.shape[1]
    pad = (k // 2) * dilation
    buffer = np.zeros((cin, t + 2 * pad))
    for j in range(k):
        buffer[:, j * dilation:j * dilation + t] += w[:, :, j].T @ gy
    return buffer[:, pad:pad + t]


class TestConvBackwardKernel:
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("dilation", [1, 2, 8, 64])
    @pytest.mark.parametrize("shape", [(64, 64, 64), (1, 64, 64), (6, 4, 9)])
    def test_input_gradient_equals_the_padded_buffer(self, shape, dilation, k):
        # the kernel adds each tap's product over its clipped column range
        # only; it must keep the padded buffer's sums and their order, bit
        # for bit, including taps that fall wholly into the padding
        cin, cout, t = shape
        rng = np.random.default_rng(cin + cout + t + dilation + k)
        x = rng.normal(size=(cin, t))
        w = rng.normal(size=(cout, cin, k))
        gy = rng.normal(size=(cout, t))
        gx, gw, gb = kernels.conv1d_dilated_bwd(x, w, gy, dilation)
        assert gx.flags.c_contiguous
        assert gx.tobytes() == padded_input_gradient(w, gy, dilation).tobytes()
        assert gb.tobytes() == gy.sum(axis=1).tobytes()

    @pytest.mark.parametrize("dilation", [1, 4])
    def test_follows_its_input_dtype(self, dilation):
        # as the forward kernel does: float32 in, float32 out, within
        # float32's rounding of the float64 result
        rng = np.random.default_rng(dilation)
        x, w, gy = rng.normal(size=(6, 9)), rng.normal(size=(4, 6, 3)), rng.normal(size=(4, 9))
        exact = kernels.conv1d_dilated_bwd(x, w, gy, dilation)
        single = kernels.conv1d_dilated_bwd(x.astype(np.float32), w.astype(np.float32),
                                            gy.astype(np.float32), dilation)
        for got, want in zip(single, exact):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
        y = kernels.conv1d_dilated_fwd(x.astype(np.float32), w.astype(np.float32),
                                       np.zeros(4, dtype=np.float32), dilation)
        assert y.dtype == np.float32


class TestPointwiseConv:
    def test_identity(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = numerics.pointwise_conv(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.value, x.value)

    def test_column_sums(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = numerics.pointwise_conv(x, Tensor([[1.0, 1.0]]), Tensor([0.0]))
        np.testing.assert_allclose(out.value, [[4.0, 6.0]])

    def test_zero_kernel_gives_bias(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 7)))
        out = numerics.pointwise_conv(x, Tensor(np.zeros((2, 3))), Tensor([2.5, -1.0]))
        np.testing.assert_array_equal(out.value, np.array([[2.5] * 7, [-1.0] * 7]))


class TestElementwise:
    def test_relu(self):
        out = numerics.relu(Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[0.0, 0.0, 2.0]])

    def test_sigmoid_at_zero(self):
        out = numerics.sigmoid(Tensor([[0.0]]))
        np.testing.assert_array_equal(out.value, [[0.5]])

    def test_sigmoid_stable_at_extremes(self):
        out = numerics.sigmoid(Tensor([[-800.0, 800.0]]))
        assert np.all(np.isfinite(out.value))
        np.testing.assert_allclose(out.value, [[0.0, 1.0]], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logistic_equals_the_masked_form_bit_for_bit(self, dtype):
        # every value but NaN keeps its bits; a NaN stays NaN, though its
        # sign bit may differ, which no comparison can see
        rng = np.random.default_rng(0)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0,
                 88.7, -88.7, 104.0, -104.0, 1e-30, -1e-30]
        v = np.concatenate([edges, rng.normal(scale=40.0, size=100_000),
                            rng.normal(scale=1.0, size=100_000)]).astype(dtype)
        with np.errstate(all="ignore"):
            got, want = numerics.logistic(v), logistic_by_mask(v)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(np.isnan(got), np.isnan(want))
        real = ~np.isnan(want)
        assert got[real].tobytes() == want[real].tobytes()

    def test_mask_mul(self):
        out = numerics.mask_mul(Tensor([[5.0, 7.0], [3.0, 9.0]]), [1.0, 0.0])
        np.testing.assert_array_equal(out.value, [[5.0, 0.0], [3.0, 0.0]])


class TestBackward:
    def test_sigmoid_of_weighted_input(self):
        # d sigmoid(w*x) / dw at w=0, x=1 is sigma'(0) = 0.25
        w = Tensor([[0.0]])
        x = Tensor([[1.0]])
        tape = Tape()
        out = numerics.sigmoid(numerics.pointwise_conv(x, w, Tensor([0.0]), tape), tape)
        run_pullbacks(tape, out, [[1.0]])
        np.testing.assert_allclose(w.grad, [[0.25]])

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.float64(3.0))
        tape = Tape()
        loss = numerics.scalar_scale(x, 2.0, tape)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0)
        tape.backward(loss)  # no zeroing in between: gradients sum
        np.testing.assert_allclose(x.grad, 4.0)

    def test_pullbacks_run_only_where_a_gradient_arrived(self):
        x = Tensor(np.float64(3.0))
        tape = Tape()
        numerics.scalar_scale(x, 5.0, tape)  # its output never reaches the loss
        calls = []
        tape.record(Tensor(0.0), lambda: calls.append("unreached"))
        loss = numerics.scalar_scale(x, 2.0, tape)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0)
        assert calls == []

    def test_masked_column_gradient_is_zero(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 4)))
        tape = Tape()
        out = numerics.mask_mul(x, [1.0, 0.0, 1.0, 1.0], tape)
        run_pullbacks(tape, out, rng.normal(size=(2, 4)))
        assert np.array_equal(x.grad[:, 1], np.zeros(2))


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("name", ["conv1d_dilated d=1", "conv1d_dilated d=2",
                                      "conv1d_dilated d=4", "pointwise_conv", "relu",
                                      "sigmoid", "add then mask_mul"])
    def test_matches_finite_differences(self, name, seed):
        assert max_rel_error(*gradient_draw(name, seed)) <= 1e-4


def flat_params(value, grad=None):
    """What adam_step reads of a model's parameters: the flat vector and
    its gradient twin."""
    return SimpleNamespace(flat=np.asarray(value, dtype=np.float64),
                           grad=None if grad is None else np.asarray(grad, dtype=np.float64))


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = flat_params([1.0, -2.0, 3.0], np.zeros(3))
        state = numerics.init_adam(p, lr=5e-4)
        numerics.adam_step(p, state)
        np.testing.assert_array_equal(p.flat, [1.0, -2.0, 3.0])
        assert state.step_count == 1

    def test_first_step_moves_by_learning_rate(self):
        # with g=1 everywhere the bias-corrected first step is
        # -lr * 1 / (1 + eps), i.e. almost exactly -lr
        p = flat_params(np.zeros(4), np.ones(4))
        state = numerics.init_adam(p, lr=5e-4)
        numerics.adam_step(p, state)
        np.testing.assert_allclose(p.flat, -5e-4 * np.ones(4), rtol=1e-6)

    def test_two_identical_runs_are_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            p = flat_params(rng.normal(size=9))
            state = numerics.init_adam(p, lr=1e-3)
            for _ in range(5):
                p.grad = rng.normal(size=9)
                numerics.adam_step(p, state)
            return p.flat
        assert np.array_equal(run(), run())

    def test_step_count_increments_by_one(self):
        p = flat_params(np.zeros(2), np.ones(2))
        state = numerics.init_adam(p, lr=1e-3)
        for expected in (1, 2, 3):
            numerics.adam_step(p, state)
            assert state.step_count == expected

    # one chunk short of full, several chunks with a ragged last one
    @pytest.mark.parametrize("size", [7, numerics.ADAM_CHUNK - 1, 3 * numerics.ADAM_CHUNK + 5])
    def test_chunked_equals_per_tensor_reference(self, size):
        # the flat vector cut into tensors of uneven sizes; steps 1 and 50
        # are compared, with an all-zero gradient at step 2 and a zero
        # tensor gradient throughout
        rng = np.random.default_rng(size)
        cuts = np.sort(rng.choice(np.arange(1, size), size=min(5, size - 1), replace=False))
        p = flat_params(rng.normal(size=size), np.empty(size))
        tensors = [Tensor(part.copy()) for part in np.split(p.flat, cuts)]
        first = [np.zeros_like(t.value) for t in tensors]
        second = [np.zeros_like(t.value) for t in tensors]
        state = numerics.init_adam(p, lr=1e-3)
        reference = numerics.init_adam(p, lr=1e-3)
        for step in range(1, 51):
            grad = np.zeros(size) if step == 2 else rng.normal(size=size) * 10.0 ** (step % 7 - 3)
            grad[cuts[0]:cuts[1] if cuts.size > 1 else size] = 0.0
            p.grad[:] = grad
            for tensor, part in zip(tensors, np.split(grad, cuts)):
                tensor.grad = part
            numerics.adam_step(p, state)
            adam_per_tensor(tensors, first, second, reference)
            if step in (1, 2, 50):
                assert np.array_equal(p.flat, np.concatenate([t.value for t in tensors]))
                assert np.array_equal(state.first_moment, np.concatenate(first))
                assert np.array_equal(state.second_moment, np.concatenate(second))
        assert state.step_count == reference.step_count == 50
