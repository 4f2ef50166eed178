"""The multi-stage dilated temporal convolution scorer.

Stage 1 projects D0-dimensional clip features to the hidden width, runs L
residual blocks (dilated conv, ReLU, 1x1 conv, residual add) with dilation
2**l at block l, and emits per-clip scores through a sigmoid head. Every
following stage consumes the previous stage's one-channel score sequence
through its own projection and refines it the same way. The padding mask
re-zeroes masked columns after the projection, after every block, and
after each head, so padded positions can never influence real ones.

forward scores one window, or a list of equal-width windows as one
(B, C, W) stack: every matmul of the stack is numpy's loop of B
(Cout x Cin) @ (Cin x W) products, the one-window product, and the dilated
conv kernel keeps that for each tap (see kernels), so a window scores bit
for bit the same alone or at any place in a stack. score_windows runs a
list of windows BLOCK at a time.

Scoring computes in float32 and training in float64. forward without a
saved list, the scoring forward that score_windows, score_sequence and
infer call, casts the parameters to float32 once per call and stacks the
windows into float32: a float32 product moves half the bytes, and BLAS
runs it about twice as fast. On the trained models measured, no score
moved by 1e-7 from its float64 value. The training forward, backward,
Adam and checkpoints stay float64.

The architecture is fixed, so its gradient is written out by hand:
forward keeps the activations that backward reads, and backward walks the
stages in reverse and writes each parameter's gradient once. Every
parameter lives in one flat float64 vector, and every named tensor is a
view into it; the gradients fill a twin vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import evaluation, kernels, numerics, windowing
from .errors import ConfigError, InputError, InternalError
from .numerics import Tensor
from .windowing import Window

# Windows per forward in score_windows. At the default geometry, scoring a
# 4,010-clip video in float32, 16 beat 8 in 34 of 40 alternating pairs,
# twice (medians 148 against 163 ms, 161 against 176 ms), and 32 beat 16
# in 18 of 40. The best size follows the dtype: in float64, 8 beat 16 in
# 20 of 20. All of a long video's windows at once, whose stack outgrows
# L2, ran slower than one window at a time.
BLOCK = 16


def max_layers(window_width: int, kernel_size: int) -> int:
    """Deepest usable block stack for a window width: the smallest L with
    2**L * (kernel_size // 2) >= width, i.e. ceil(log2(W / (K // 2))).

    Beyond this depth a block's per-side padding covers the entire window
    and the convolution reads more padding than signal.
    """
    if window_width < 2:
        raise ConfigError(f"window width must be at least 2, got {window_width}")
    if kernel_size < 3 or kernel_size % 2 == 0:
        raise ConfigError(f"kernel size must be an odd integer >= 3, got {kernel_size}")
    half = kernel_size // 2
    layers = 0
    while (1 << layers) * half < window_width:
        layers += 1
    return layers


@dataclass(frozen=True)
class ADNetConfig:
    """Architecture hyperparameters (window width in clips). input_dim has
    no default: it must match the feature files."""

    window_width: int = 64
    num_stages: int = 5
    num_layers: int = 6
    input_dim: int = field(kw_only=True)
    kernel_size: int = 3
    hidden_channels: int = 64
    threshold: float = 0.5

    def __post_init__(self):
        if self.window_width < 2 or self.window_width % 2:
            raise ConfigError(f"window_width must be even and >= 2, got {self.window_width}")
        for name in ("num_stages", "num_layers", "input_dim", "hidden_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        limit = max_layers(self.window_width, self.kernel_size)
        if self.num_layers > limit:
            raise ConfigError(
                f"num_layers={self.num_layers} exceeds "
                f"max_layers({self.window_width}, {self.kernel_size}) = {limit}")


def parameter_shapes(config: ADNetConfig) -> dict[str, tuple[int, ...]]:
    """Tensor name -> shape, in a fixed order; a pure function of the config."""
    shapes: dict[str, tuple[int, ...]] = {}
    dh, k = config.hidden_channels, config.kernel_size
    for s in range(config.num_stages):
        cin = config.input_dim if s == 0 else 1
        shapes[f"stage{s}.proj.weight"] = (dh, cin)
        shapes[f"stage{s}.proj.bias"] = (dh,)
        for layer in range(config.num_layers):
            shapes[f"stage{s}.block{layer}.dilated.weight"] = (dh, dh, k)
            shapes[f"stage{s}.block{layer}.dilated.bias"] = (dh,)
            shapes[f"stage{s}.block{layer}.pointwise.weight"] = (dh, dh)
            shapes[f"stage{s}.block{layer}.pointwise.bias"] = (dh,)
        shapes[f"stage{s}.head.weight"] = (1, dh)
        shapes[f"stage{s}.head.bias"] = (1,)
    return shapes


def views(config: ADNetConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> shaped view into flat, a vector holding every tensor of the
    model in parameter_shapes order."""
    out = {}
    offset = 0
    for name, shape in parameter_shapes(config).items():
        size = math.prod(shape)
        out[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise InternalError(f"the model holds {offset} values, its vector {flat.size}")
    return out


@dataclass
class ModelParams:
    """All learnable tensors, keyed by the names parameter_shapes() yields.
    flat holds them all in that order, and each tensor's value is a view
    into it; grad, once gradients() allocates it, is flat's twin."""

    config: ADNetConfig
    flat: np.ndarray
    tensors: dict[str, Tensor] = field(init=False, repr=False)
    grad: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.flat.ndim != 1 or self.flat.dtype != np.float64 \
                or not self.flat.flags.c_contiguous:
            raise InternalError("parameters must be one contiguous float64 vector")
        self.tensors = {name: Tensor(view) for name, view in views(self.config, self.flat).items()}

    def __iter__(self):
        return iter(self.tensors.values())

    def gradients(self) -> dict[str, np.ndarray]:
        """Name -> view into grad, allocated on first use."""
        if self.grad is None:
            self.grad = np.zeros_like(self.flat)
        return views(self.config, self.grad)


def build(config: ADNetConfig, seed: int) -> ModelParams:
    """Deterministic initialization: every tensor uniform in [-a, a] with
    a = 1/sqrt(fan_in) of the layer it feeds."""
    rng = np.random.default_rng(seed)
    shapes = parameter_shapes(config)
    params = ModelParams(config, np.empty(sum(math.prod(shape) for shape in shapes.values())))
    bound = 1.0
    for name, shape in shapes.items():
        if name.endswith("weight"):
            fan_in = shape[1] * (shape[2] if len(shape) == 3 else 1)
            bound = 1.0 / math.sqrt(fan_in)
        params.tensors[name].value[...] = rng.uniform(-bound, bound, size=shape)
    return params


@dataclass
class StageActivations:
    """What backward reads of one stage's forward pass."""

    inputs: np.ndarray            # the features, or the previous stage's scores
    blocks: list[tuple[np.ndarray, np.ndarray]]  # per block: its input, its ReLU output
    head_input: np.ndarray
    sigmoid: np.ndarray           # the head's sigmoid output, before the mask
    mask: np.ndarray | None       # the window's, as forward checked it; None when unpadded


def _inputs(windows: Window | list[Window], config: ADNetConfig,
            dtype) -> tuple[np.ndarray, np.ndarray | None]:
    """The features and the mask of a list of windows as (B, D0, W) and
    (B, 1, W) stacks in dtype, the one place where windows change dtype,
    or of one window without the batch axis. The mask is None when no
    window is padded: x * 1.0 is x bit for bit, so the masking is skipped."""
    group = [windows] if isinstance(windows, Window) else windows
    if not group:
        raise ConfigError("forward needs at least one window")
    expected = (config.input_dim, config.window_width)
    for window in group:
        if window.features.shape != expected:
            raise ConfigError(
                f"window features have shape {window.features.shape}, model expects {expected}")
        if window.mask.shape != (config.window_width,):
            raise ConfigError(f"window mask has shape {window.mask.shape}, "
                              f"model expects ({config.window_width},)")
    features = np.stack([window.features for window in group], dtype=dtype)
    mask = np.stack([window.mask for window in group], dtype=np.float64)[:, None]
    if isinstance(windows, Window):
        features, mask = features[0], mask[0]
    if np.all(mask == 1.0):
        return features, None
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise InputError("mask entries must be 0 or 1")
    return features, mask.astype(dtype, copy=False)


def forward(params: ModelParams, windows: Window | list[Window],
            saved: list[StageActivations] | None = None) -> list[Tensor]:
    """Per-stage score sequences in [0, 1] with masked columns exactly 0:
    for one window each a (1, W) tensor, for a list of B equal-width
    windows each a (B, 1, W) tensor, window b's scores at [b] bit for bit
    what forward gives that window alone. With saved, the training
    forward: it computes in float64, and each stage appends what backward
    reads of it, the mask too; backward reads one window's. Without saved,
    the scoring forward: it computes in float32, on a float32 copy of the
    parameters and a float32 stack of the windows, and its float64 tensors
    hold float32 values."""
    cfg = params.config
    current, mask = _inputs(windows, cfg, np.float32 if saved is None else np.float64)
    if saved is None:
        t = views(cfg, params.flat.astype(np.float32))
    else:
        t = {name: tensor.value for name, tensor in params.tensors.items()}
    outputs: list[Tensor] = []
    for s in range(cfg.num_stages):
        v = t[f"stage{s}.proj.weight"] @ current + t[f"stage{s}.proj.bias"][:, None]
        if mask is not None:
            v = v * mask
        blocks = []
        for layer in range(cfg.num_layers):
            block = f"stage{s}.block{layer}"
            # looked up on the module at call time so perfbench/layers.py can wrap
            # it; the kernel takes the stack's channels as rows, (B*C, W)
            h = kernels.conv1d_dilated_fwd(v.reshape(-1, cfg.window_width),
                                           t[f"{block}.dilated.weight"],
                                           t[f"{block}.dilated.bias"], 1 << layer).reshape(v.shape)
            r = np.maximum(h, 0.0)
            blocks.append((v, r))
            v = v + (t[f"{block}.pointwise.weight"] @ r + t[f"{block}.pointwise.bias"][:, None])
            if mask is not None:
                v = v * mask
        y = numerics.logistic(t[f"stage{s}.head.weight"] @ v + t[f"stage{s}.head.bias"][:, None])
        scores = y if mask is None else y * mask
        if saved is not None:
            saved.append(StageActivations(current, blocks, v, y, mask))
        outputs.append(Tensor(scores))
        current = scores
    return outputs


def backward(params: ModelParams, saved: list[StageActivations],
             score_grads: list[np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """Write into grads (views into params.grad) the gradient of a loss
    with respect to every parameter. saved is what forward kept of one
    window, its mask included, and score_grads[s] is the gradient of the
    loss terms of stage s with respect to that window's (1, W) scores.

    The tape this replaces fixed the order of every sum: a stage's score
    gradient is its own loss gradient plus the next stage's projection
    pullback, and a block input's gradient is the residual's g plus the
    conv's gx. The mask is applied where forward applied it.
    """
    cfg = params.config
    t = {name: tensor.value for name, tensor in params.tensors.items()}
    pullback = None
    for s in reversed(range(cfg.num_stages)):
        stage = saved[s]
        g = score_grads[s] if pullback is None else score_grads[s] + pullback
        if stage.mask is not None:
            g = g * stage.mask
        y = stage.sigmoid
        g = g * y * (1.0 - y)
        gv = t[f"stage{s}.head.weight"].T @ g
        np.matmul(g, stage.head_input.T, out=grads[f"stage{s}.head.weight"])
        np.sum(g, axis=1, out=grads[f"stage{s}.head.bias"])
        for layer in reversed(range(cfg.num_layers)):
            block = f"stage{s}.block{layer}"
            v, r = stage.blocks[layer]
            if stage.mask is not None:
                gv = gv * stage.mask
            gr = t[f"{block}.pointwise.weight"].T @ gv
            np.matmul(gv, r.T, out=grads[f"{block}.pointwise.weight"])
            np.sum(gv, axis=1, out=grads[f"{block}.pointwise.bias"])
            gx, gw, gb = kernels.conv1d_dilated_bwd(v, t[f"{block}.dilated.weight"],
                                                    gr * (r > 0.0), 1 << layer)
            grads[f"{block}.dilated.weight"][...] = gw
            grads[f"{block}.dilated.bias"][...] = gb
            gv = gv + gx
        if stage.mask is not None:
            gv = gv * stage.mask
        np.matmul(gv, stage.inputs.T, out=grads[f"stage{s}.proj.weight"])
        np.sum(gv, axis=1, out=grads[f"stage{s}.proj.bias"])
        if s > 0:  # the features need no gradient
            pullback = t[f"stage{s}.proj.weight"].T @ gv


def activation_bound(params: ModelParams, feature_bound: float) -> float:
    """An upper bound on |x| for every value x that forward computes, in
    float64 or in float32, on windows whose features are at most
    feature_bound in magnitude, the float32 copies of the parameters
    included; or inf.

    A layer's output is at most its largest absolute weight row sum
    (over taps too) times its input's bound, plus its largest |bias|;
    a residual adds the two bounds, a sigmoid is at most 1, and a mask
    never grows a value. Each bound is widened to cover the rounding of
    the float32 sums that scoring computes (Higham's gamma): a sum of n
    products and a bias, its operands cast to float32, exceeds the sum of
    their magnitudes by at most (n + 2) * 2**-24 of it, and a residual
    add by 2**-24. The widening is twice that, which covers the float64
    arithmetic of the bound too.
    """
    t = {name: tensor.value for name, tensor in params.tensors.items()}
    unit = 2.0 ** -23  # twice float32's unit roundoff

    def layer(prefix: str, bound: float) -> float:
        weight = np.abs(t[prefix + ".weight"])
        rows = weight.sum(axis=tuple(range(1, weight.ndim)))
        return (float(rows.max()) * bound + float(np.abs(t[prefix + ".bias"]).max())) \
            * (1.0 + (weight[0].size + 2) * unit)

    bounds = [feature_bound]
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(params.config.num_stages):
            bounds.append(layer(f"stage{s}.proj", bounds[-1]))
            for block in range(params.config.num_layers):
                v = bounds[-1]
                inner = layer(f"stage{s}.block{block}.dilated", v)
                residual = v + layer(f"stage{s}.block{block}.pointwise", inner)
                bounds += [inner, residual * (1.0 + unit)]
            bounds += [layer(f"stage{s}.head", bounds[-1]), 1.0]
        # max and min, not np.abs, which would copy the whole vector
        bounds += [float(params.flat.max()), -float(params.flat.min())]
        largest = float(np.max(bounds))  # NaN, from a NaN weight or inf * 0, wins
    return largest if math.isfinite(largest) else math.inf


def predict_labels(scores, threshold: float) -> np.ndarray:
    """Binary labels from scores; a score equal to the threshold, which
    must lie in (0, 1), counts as abnormal (closed upper set)."""
    if not 0.0 < threshold < 1.0:
        raise InputError(f"threshold must lie in (0, 1), got {threshold}")
    values = evaluation.check_scores(scores, "predict_labels")
    return (values >= threshold).astype(np.int64)


def score_windows(params: ModelParams,
                  windows: list[Window]) -> Iterator[tuple[Window, np.ndarray]]:
    """Each window with its final-stage (1, W) scores, from one forward per
    BLOCK windows."""
    for first in range(0, len(windows), BLOCK):
        block = windows[first:first + BLOCK]
        yield from zip(block, forward(params, block)[-1].value)


def score_sequence(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Score a whole T-clip sequence: cut it into half-overlapping windows,
    score them (score_windows), and average overlaps back into one
    timeline."""
    windows = windowing.materialize(features, "", params.config.window_width)
    scored = [(window.start_clip, window.mask, scores.ravel())
              for window, scores in score_windows(params, windows)]
    return windowing.merge_scores(scored, np.shape(features)[1])
