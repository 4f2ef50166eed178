"""Finite-difference gradient oracle shared by the test modules.

The oracle only re-evaluates forward functions; it never touches the
pullback machinery it is used to verify.
"""

import numpy as np


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
