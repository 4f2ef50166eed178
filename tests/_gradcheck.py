"""Finite-difference gradient oracle shared by the test modules.

The oracle only re-evaluates forward functions; it never touches the
pullback machinery it is used to verify. GRADIENT_CASES holds one row per
differentiable op, and gradient_draw checks one random draw of a row.
"""

import numpy as np

from adnet import training
from adnet.numerics import Tape, Tensor, add, conv1d_dilated, mask_mul, pointwise_conv, relu, \
    sigmoid


def numerical_gradient(func, arrays, h=1e-3):
    """Central-difference gradient of the scalar func() with respect to
    every entry of every array, perturbing the arrays in place."""
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            upper = func()
            flat[i] = original - h
            lower = func()
            flat[i] = original
            gflat[i] = (upper - lower) / (2.0 * h)
        grads.append(grad)
    return grads


def max_rel_error(analytic, numeric):
    """Largest elementwise difference, relative to the gradient scale.

    Scaling by the max gradient magnitude (floored at 1e-8) keeps the
    comparison meaningful when individual entries are near zero, where
    plain per-entry relative error would amplify finite-difference noise.
    """
    a = np.concatenate([np.asarray(g, dtype=float).reshape(-1) for g in analytic])
    n = np.concatenate([np.asarray(g, dtype=float).reshape(-1) for g in numeric])
    scale = max(np.abs(a).max(), np.abs(n).max(), 1e-8)
    return float(np.abs(a - n).max() / scale)


def run_pullbacks(tape, output, cotangent):
    """Drive one recorded op's backward pass with an explicit upstream
    cotangent (reaches into the tape; tests only)."""
    output.grad = np.asarray(cotangent, dtype=np.float64).copy()
    for _, pullback in reversed(tape._steps):
        pullback()


def _uniform(rng, *shape):
    return Tensor(rng.uniform(-2, 2, size=shape))


def _prefix_mask(rng):
    mask = np.zeros(8)
    mask[:int(rng.integers(1, 9))] = 1
    return mask


def _conv(dilation):
    def build(rng):
        x, w, b = _uniform(rng, 3, 9), _uniform(rng, 2, 3, 3), _uniform(rng, 2)
        return [x, w, b], lambda tape: conv1d_dilated(x, w, b, dilation, tape)
    return build


def _pointwise(rng):
    x, w, b = _uniform(rng, 4, 7), _uniform(rng, 3, 4), _uniform(rng, 3)
    return [x, w, b], lambda tape: pointwise_conv(x, w, b, tape)


def _relu(rng):
    raw = rng.uniform(0.05, 2.0, size=(3, 8)) * rng.choice([-1.0, 1.0], size=(3, 8))
    x = Tensor(raw)  # bounded away from the kink
    return [x], lambda tape: relu(x, tape)


def _sigmoid(rng):
    x = _uniform(rng, 3, 8)
    return [x], lambda tape: sigmoid(x, tape)


def _add(rng):
    a, b = _uniform(rng, 3, 8), _uniform(rng, 3, 8)
    return [a, b], lambda tape: add(a, b, tape)


def _mask_mul(rng):
    mask = _prefix_mask(rng)
    x = _uniform(rng, 3, 8)
    return [x], lambda tape: mask_mul(x, mask, tape)


def _add_then_mask_mul(rng):
    mask = (rng.random(8) < 0.7).astype(float)  # zeros anywhere, not only a tail
    a, b = _uniform(rng, 3, 8), _uniform(rng, 3, 8)
    return [a, b], lambda tape: mask_mul(add(a, b, tape), mask, tape)


def _mse_loss(rng):
    scores = Tensor(rng.random((1, 8)))
    targets = rng.integers(0, 2, size=8).astype(float)
    mask = _prefix_mask(rng)
    return [scores], lambda tape: training.mse_loss(scores, targets, mask, tape)


def _ad_loss(rng):
    """Scores far enough from hard-pair ties and the hinge kink that a
    central difference with h=1e-3 stays on one linear piece."""
    while True:
        values = rng.uniform(0.05, 0.95, size=8)
        targets = rng.integers(0, 2, size=8)
        if targets.min() == targets.max():
            continue
        ya, yn = values[targets == 1], values[targets == 0]
        gaps = np.abs(ya[:, None] - yn[None, :])
        order = np.sort(gaps, axis=None)
        if order.size > 1 and np.diff(order).min() < 5e-3:
            continue  # near-tied hard pairs flip the argmin under perturbation
        m_abn = float(np.mean(ya - yn[gaps.argmin(axis=1)] - 0.5))
        m_nrm = float(np.mean(ya[gaps.argmin(axis=0)] - yn - 0.5))
        if abs(m_abn + m_nrm) < 5e-3:
            continue  # too close to the hinge
        scores = Tensor(values[None])
        return [scores], lambda tape: training.ad_loss(scores, targets, np.ones(8), 0.5, tape)


# name -> builder(rng), which returns (input tensors, forward(tape)); a new
# differentiable op is one more row
GRADIENT_CASES = {
    "conv1d_dilated d=1": _conv(1),
    "conv1d_dilated d=2": _conv(2),
    "conv1d_dilated d=4": _conv(4),
    "pointwise_conv": _pointwise,
    "relu": _relu,
    "sigmoid": _sigmoid,
    "add": _add,
    "mask_mul": _mask_mul,
    "add then mask_mul": _add_then_mask_mul,
    "mse_loss": _mse_loss,
    "ad_loss": _ad_loss,
}


def gradient_draw(name, seed, h=1e-3):
    """One draw of the named case: its taped forward, a random cotangent
    through the pullbacks, and central differences of the cotangent-weighted
    output. Returns (analytic, numeric), one gradient per input tensor."""
    rng = np.random.default_rng(seed)
    tensors, forward = GRADIENT_CASES[name](rng)
    tape = Tape()
    out = forward(tape)
    cotangent = rng.normal(size=out.value.shape)
    run_pullbacks(tape, out, cotangent)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.value) for t in tensors]

    def scalar():
        return float((forward(None).value * cotangent).sum())

    return analytic, numerical_gradient(scalar, [t.value for t in tensors], h=h)


def end_to_end_gradient_error(seed, h=1e-6, coords_per_draw=12):
    """Sampled-coordinate central-difference check of the gradient that
    model.backward writes for the full model and loss, on a small
    two-stage configuration and a padded window; returns the worst error
    relative to the gradient scale."""
    from adnet import model, training
    from adnet.windowing import Window

    cfg = model.ADNetConfig(window_width=8, num_stages=2, num_layers=3,
                            input_dim=6, hidden_channels=8)
    params = model.build(cfg, seed)
    rng = np.random.default_rng(10_000 + seed)
    real = int(rng.integers(4, 8))
    feats = np.zeros((6, 8))
    feats[:, :real] = rng.uniform(-2, 2, size=(6, real))
    mask = np.zeros(8)
    mask[:real] = 1
    targets = np.zeros(8)
    targets[:real] = rng.integers(0, 2, size=real)
    window = Window(features=feats, mask=mask, video_id="g", start_clip=0)
    train_cfg = training.TrainConfig(seed=0, epochs=1)

    def loss(saved):
        # a saved list selects the float64 training forward, the one that
        # backward differentiates; the scoring forward computes in float32
        scores = [out.value for out in model.forward(params, window, saved)]
        return training.window_loss(scores, targets, mask, train_cfg)

    saved = []
    *_, score_grads = loss(saved)
    grads = params.gradients()
    model.backward(params, saved, score_grads, grads)
    scale = max(np.abs(params.grad).max(), 1e-8)

    names = list(params.tensors)
    worst = 0.0
    for _ in range(coords_per_draw):
        name = names[int(rng.integers(len(names)))]
        flat = params.tensors[name].value.reshape(-1)
        grad = grads[name].reshape(-1)
        index = int(rng.integers(flat.size))
        original = flat[index]
        flat[index] = original + h
        upper = loss([])[0]
        flat[index] = original - h
        lower = loss([])[0]
        flat[index] = original
        numeric = (upper - lower) / (2 * h)
        worst = max(worst, abs(grad[index] - numeric) / scale)
    return worst
