"""Loss functions and the window-batched training loop.

Each stage's loss is masked MSE plus a weighted hard-pair margin term.
The margin term pairs every clip with the opposite-class clip whose
predicted score is nearest (the hard pair, recomputed every step), takes
the mean margin per class, and applies a single hinge:

    max(-(M_abnormal + M_normal), 0)

with M_abnormal the mean of (score_abnormal - score_hard_normal - alpha)
and M_normal the mean of (score_hard_abnormal - score_normal - alpha).
Hard pairs are searched within one window, the unit of an optimizer step.
Stage losses are summed and one Adam step is taken per window.

masked_mse and margin_hinge hold the loss math once, as a value and a
gradient with respect to the scores. Training calls them through
window_loss and hands the gradients to the model's own backward; the
taped mse_loss, ad_loss and total_loss wrap the same functions for the
reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model as architecture
from . import evaluation, numerics, windowing
from .errors import ConfigError, InputError, NumericError
from .model import ADNetConfig, ModelParams
from .numerics import AdamState, Tape, Tensor


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    lambda_: float = 0.5          # weight of the margin term inside each stage loss
    alpha: float = 0.5            # target score gap between hard pairs
    epochs: int = 50
    seed: int = 0
    use_ad_loss: bool = True
    clip_label_fraction: float = 0.5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.lambda_ < 1.0:
            raise ConfigError(f"lambda must lie in (0, 1), got {self.lambda_}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.clip_label_fraction <= 1.0:
            raise ConfigError(
                f"clip_label_fraction must lie in (0, 1], got {self.clip_label_fraction}")


def clip_labels(segments: Sequence[evaluation.TemporalSegment], frames_per_clip: int,
                num_clips: int, fraction: float = 0.5) -> np.ndarray:
    """Clip labels from the segments that partition a video's frames: a
    clip (evaluation.clip_edges) is abnormal when its abnormal-frame share
    reaches the fraction, in (0, 1] (>=, so an exact tie is abnormal)."""
    if not 0.0 < fraction <= 1.0:
        raise InputError(f"fraction must lie in (0, 1], got {fraction}")
    edges = evaluation.clip_edges(num_clips, frames_per_clip,
                                  evaluation.partition_extent(segments, "annotation"))
    starts, ends, labels = evaluation.segment_runs(segments)
    abnormal = labels * (ends - starts)
    # abnormal frames before each edge, in the segments before it and in its own
    inside = np.searchsorted(starts, edges, side="right") - 1
    before = (np.cumsum(abnormal) - abnormal)[inside] + labels[inside] * (edges - starts[inside])
    return (np.diff(before) >= fraction * np.diff(edges)).astype(np.int64)


def _flat_inputs(scores: Tensor, targets, mask):
    y = scores.value.reshape(-1)
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    m = np.asarray(mask, dtype=np.float64).reshape(-1)
    if not (y.shape == t.shape == m.shape):
        raise InputError(
            f"scores ({y.shape[0]}), targets ({t.shape[0]}) and mask ({m.shape[0]}) "
            "must have equal length")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise InputError("mask entries must be 0 or 1")
    return y, t, m


def masked_mse(y: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """Mean squared error of flat scores over unmasked positions only, and
    its gradient with respect to the scores."""
    n = mask.sum()
    if n == 0:
        raise InputError("loss over a fully masked window is undefined")
    diff = (y - targets) * mask
    return np.dot(diff, diff) / n, (2.0 / n) * diff


def margin_hinge(y: np.ndarray, targets: np.ndarray, mask: np.ndarray, alpha: float,
                 weight=1.0):
    """The hard-pair margin hinge of flat scores, and weight times its
    gradient with respect to them, None while the hinge is inactive. The
    hinge is exactly 0 when either class is absent among unmasked clips,
    and whenever both per-class mean margins are already non-negative."""
    if mask.sum() == 0:
        raise InputError("loss over a fully masked window is undefined")
    unmasked = mask == 1.0
    abnormal = np.flatnonzero(unmasked & (targets == 1.0))
    normal = np.flatnonzero(unmasked & (targets == 0.0))
    if abnormal.size == 0 or normal.size == 0:
        return 0.0, None
    ya = y[abnormal]
    yn = y[normal]
    dist = np.abs(ya[:, None] - yn[None, :])
    hard_normal = dist.argmin(axis=1)    # per abnormal clip
    hard_abnormal = dist.argmin(axis=0)  # per normal clip
    margin_abn = float(np.mean(ya - yn[hard_normal] - alpha))
    margin_nrm = float(np.mean(ya[hard_abnormal] - yn - alpha))
    value = max(-(margin_abn + margin_nrm), 0.0)
    if value == 0.0:
        return value, None
    na, nn = abnormal.size, normal.size
    grad = np.zeros_like(y)
    grad[abnormal] -= weight / na
    np.add.at(grad, normal[hard_normal], weight / na)
    np.add.at(grad, abnormal[hard_abnormal], -weight / nn)
    grad[normal] += weight / nn
    return value, grad


def mse_loss(scores: Tensor, targets, mask, tape: Tape | None = None) -> Tensor:
    """Taped masked_mse."""
    y, t, m = _flat_inputs(scores, targets, mask)
    value, grad = masked_mse(y, t, m)
    out = Tensor(value)
    if tape is not None:
        def pullback():
            scores.accumulate_grad((out.grad * grad).reshape(scores.value.shape))
        tape.record(out, pullback)
    return out


def ad_loss(scores: Tensor, targets, mask, alpha: float,
            tape: Tape | None = None) -> Tensor:
    """Taped margin_hinge."""
    y, t, m = _flat_inputs(scores, targets, mask)
    value, _ = margin_hinge(y, t, m, alpha)
    out = Tensor(value)
    if tape is not None and value > 0.0:
        def pullback():
            _, grad = margin_hinge(y, t, m, alpha, out.grad)
            scores.accumulate_grad(grad.reshape(scores.value.shape))
        tape.record(out, pullback)
    return out


@dataclass
class WindowLoss:
    total: Tensor   # scalar node, differentiable
    mse: float      # summed over stages
    ad: float       # summed over stages, before the lambda weight


def total_loss(stage_outputs: Sequence[Tensor], targets, mask,
               config: TrainConfig, tape: Tape | None = None) -> WindowLoss:
    """Sum over stages of (MSE + lambda * margin loss)."""
    if not stage_outputs:
        raise InputError("at least one stage output is required")
    terms: list[Tensor] = []
    mse_sum = 0.0
    ad_sum = 0.0
    for scores in stage_outputs:
        mse_term = mse_loss(scores, targets, mask, tape)
        mse_sum += float(mse_term.value)
        terms.append(mse_term)
        if config.use_ad_loss:
            ad_term = ad_loss(scores, targets, mask, config.alpha, tape)
            ad_sum += float(ad_term.value)
            terms.append(numerics.scalar_scale(ad_term, config.lambda_, tape))
    return WindowLoss(total=numerics.scalar_sum(terms, tape), mse=mse_sum, ad=ad_sum)


def window_loss(stage_scores: Sequence[np.ndarray], targets: np.ndarray, mask: np.ndarray,
                config: TrainConfig) -> tuple[float, float, float, list[np.ndarray]]:
    """total_loss of one window's (1, W) stage scores as (total, MSE summed
    over stages, margin loss summed before the lambda weight), plus the
    gradient of the total with respect to each stage's scores. The sums run
    in total_loss's order, so every value matches it bit for bit."""
    total = 0.0
    mse_sum = ad_sum = 0.0
    grads = []
    for scores in stage_scores:
        y = scores.reshape(-1)
        value, grad = masked_mse(y, targets, mask)
        total += value
        mse_sum += float(value)
        if config.use_ad_loss:
            margin, margin_grad = margin_hinge(y, targets, mask, config.alpha, config.lambda_)
            total += margin * config.lambda_
            ad_sum += margin
            if margin_grad is not None:
                grad = margin_grad + grad
        grads.append(grad.reshape(scores.shape))
    return float(total), mse_sum, ad_sum, grads


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_mse: float
    mean_ad: float
    mean_total: float


@dataclass
class TrainResult:
    params: ModelParams
    adam: AdamState
    epochs_completed: int
    log: list[EpochStats]


def _window_items(dataset, config: ADNetConfig):
    """All (window, targets) pairs across the dataset, views into one
    zero-padded copy of each sequence's features and labels, and the
    largest |feature|, which the zero padding leaves as it is; InputError
    names the first sequence of a wrong feature dim, label count or value."""
    items = []
    feature_bound = 0.0
    for index, (features, labels) in enumerate(dataset):
        windows = windowing.materialize(features, f"seq{index}", config.window_width)
        labs = np.asarray(labels)
        dim, total = np.shape(features)
        if dim != config.input_dim:
            raise InputError(f"sequence {index} has feature dim {dim}, model "
                             f"expects {config.input_dim}")
        if labs.shape != (total,):
            got = f"{labs.shape[0]} labels" if labs.ndim == 1 else f"labels of shape {labs.shape}"
            raise InputError(f"sequence {index}: {total} clips but {got}")
        if not np.isin(labs, (0, 1)).all():
            raise InputError(f"sequence {index}: clip labels must be 0 or 1")
        targets = np.zeros(windows[-1].start_clip + config.window_width)
        targets[:total] = labs
        items += [(window, targets[window.start_clip:window.start_clip + config.window_width])
                  for window in windows]
        feature_bound = max(feature_bound, float(np.abs(features).max()))
    return items, feature_bound


def train(dataset: Sequence[tuple[np.ndarray, np.ndarray]],
          model_config: ADNetConfig, train_config: TrainConfig, *,
          resume: TrainResult | None = None) -> TrainResult:
    """Window-batched optimization: every epoch shuffles all windows of all
    videos and takes one Adam step per window. Deterministic for a fixed
    seed; resuming continues the epoch numbering and the per-epoch shuffle
    streams, so an interrupted run matches an uninterrupted one, and steps
    at train_config's learning rate.
    """
    if len(dataset) == 0:
        raise InputError("training dataset is empty")
    items, feature_bound = _window_items(dataset, model_config)
    if resume is not None:
        if resume.params.config != model_config:
            raise ConfigError("resume parameters were built for a different model config")
        params = resume.params
        adam = resume.adam
        adam.lr = train_config.learning_rate
        start_epoch = resume.epochs_completed
        log = list(resume.log)
    else:
        params = architecture.build(model_config, train_config.seed)
        adam = numerics.init_adam(params, train_config.learning_rate)
        start_epoch = 0
        log = []
    grads = params.gradients()
    end_epoch = start_epoch + train_config.epochs
    for epoch in range(start_epoch, end_epoch):
        order = np.random.default_rng([train_config.seed, epoch]).permutation(len(items))
        mse_sum = ad_sum = total_sum = 0.0
        for item in order:
            window, targets = items[item]
            saved = []
            # saved stays positional: perfbench/layers.py hooks forward as
            # _forward_begin(params, window, tape=None), so saved= would
            # crash every traced run
            outputs = architecture.forward(params, window, saved)
            value, mse, ad, score_grads = window_loss(
                [scores.value for scores in outputs], targets, window.mask, train_config)
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            architecture.backward(params, saved, score_grads, grads)
            numerics.adam_step(params, adam)
            mse_sum += mse
            ad_sum += ad
            total_sum += value
        count = len(items)
        log.append(EpochStats(epoch, mse_sum / count, ad_sum / count, total_sum / count))
    _check_scores_finite(params, items, feature_bound, end_epoch)
    return TrainResult(params=params, adam=adam, epochs_completed=end_epoch, log=log)


def _check_scores_finite(params: ModelParams, items, feature_bound: float, epochs: int) -> None:
    """Raise NumericError when the parameters give a non-finite score on a
    training window, scored in float32 as infer scores. Scoring every
    window costs a fraction of an epoch, so it runs only when the cheap
    activation bound exceeds float32's largest value: below it, no float32
    value of the scoring forward can overflow."""
    if architecture.activation_bound(params, feature_bound) <= float(np.finfo(np.float32).max):
        return
    for _, scores in architecture.score_windows(params, [window for window, _ in items]):
        if not np.all(np.isfinite(scores)):
            raise NumericError(f"non-finite score on the training windows after "
                               f"{epochs} epoch{'s' if epochs != 1 else ''}")
