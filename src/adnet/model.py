"""The multi-stage dilated temporal convolution scorer.

Stage 1 projects D0-dimensional clip features to the hidden width, runs L
residual blocks (dilated conv, ReLU, 1x1 conv, residual add) with dilation
2**l at block l, and emits per-clip scores through a sigmoid head. Every
following stage consumes the previous stage's one-channel score sequence
through its own projection and refines it the same way. The padding mask
re-zeroes masked columns after the projection, after every block, and
after each head, so padded positions can never influence real ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, numerics, windowing
from .errors import ConfigError
from .numerics import Tape, Tensor
from .windowing import Window


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


def locality_radius(num_stages: int, num_layers: int, kernel_size: int) -> int:
    """Farthest |t - t'| through which input column t can influence output
    column t': (K//2) * (2**L - 1) per stage, and stages chain additively."""
    per_stage = (kernel_size // 2) * ((1 << num_layers) - 1)
    return num_stages * per_stage


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


@dataclass
class ModelParams:
    """All learnable tensors, keyed by the names parameter_shapes() yields."""

    config: ADNetConfig
    tensors: dict[str, Tensor]

    def tensor_list(self) -> list[Tensor]:
        return list(self.tensors.values())


def build(config: ADNetConfig, seed: int) -> ModelParams:
    """Deterministic initialization: every tensor uniform in [-a, a] with
    a = 1/sqrt(fan_in) of the layer it feeds."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    bound = 1.0
    for name, shape in parameter_shapes(config).items():
        if name.endswith("weight"):
            fan_in = shape[1] * (shape[2] if len(shape) == 3 else 1)
            bound = 1.0 / math.sqrt(fan_in)
        tensors[name] = Tensor(rng.uniform(-bound, bound, size=shape))
    return ModelParams(config=config, tensors=tensors)


def forward(params: ModelParams, window: Window,
            tape: Tape | None = None) -> list[Tensor]:
    """Per-stage score sequences, each a (1, W) tensor in [0, 1] with
    masked columns exactly 0."""
    cfg = params.config
    expected = (cfg.input_dim, cfg.window_width)
    if window.features.shape != expected:
        raise ConfigError(
            f"window features have shape {window.features.shape}, model expects {expected}")
    if window.mask.shape != (cfg.window_width,):
        raise ConfigError(
            f"window mask has shape {window.mask.shape}, model expects ({cfg.window_width},)")
    t = params.tensors
    mask = window.mask
    # x * 1.0 is x bit for bit, so a window without padding skips the masking
    unpadded = bool(np.all(mask == 1.0))

    def masked(x: Tensor) -> Tensor:
        return x if unpadded else numerics.mask_mul(x, mask, tape)

    current = Tensor(window.features)
    outputs: list[Tensor] = []
    for s in range(cfg.num_stages):
        v = masked(numerics.pointwise_conv(current, t[f"stage{s}.proj.weight"],
                                           t[f"stage{s}.proj.bias"], tape))
        for layer in range(cfg.num_layers):
            h = numerics.conv1d_dilated(v, t[f"stage{s}.block{layer}.dilated.weight"],
                                        t[f"stage{s}.block{layer}.dilated.bias"],
                                        1 << layer, tape)
            h = numerics.relu(h, tape)
            h = numerics.pointwise_conv(h, t[f"stage{s}.block{layer}.pointwise.weight"],
                                        t[f"stage{s}.block{layer}.pointwise.bias"], tape)
            v = masked(numerics.add(v, h, tape))
        scores = numerics.pointwise_conv(v, t[f"stage{s}.head.weight"],
                                         t[f"stage{s}.head.bias"], tape)
        scores = masked(numerics.sigmoid(scores, tape))
        outputs.append(scores)
        current = scores
    return outputs


def predict_labels(scores, threshold: float) -> np.ndarray:
    """Binary labels from scores; a score equal to the threshold counts as
    abnormal (closed upper set)."""
    values = evaluation.check_scores(scores, "predict_labels")
    return (values >= threshold).astype(np.int64)


def score_sequence(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Score a whole T-clip sequence: plan half-overlapping windows, run
    the final stage on each, and average overlaps back into one timeline."""
    feats = np.asarray(features, dtype=np.float64)
    total = feats.shape[1]
    plan = windowing.plan_windows(total, params.config.window_width)
    scored = []
    for window in windowing.materialize(feats, "", plan):
        outputs = forward(params, window)
        scored.append((window.start_clip, window.mask, outputs[-1].value.ravel()))
    return windowing.merge_scores(scored, total)
