"""Every refusal of the library API, one table.

The pipeline ships as a Python library as well as a command (README
"Library use"). Each row names one call that refuses its input, the
exception class it raises and the exact message; `test_refused` asserts
both, the class exactly, not one of its subclasses. The command line's
six input boundaries have their own tables in tests/test_refusals.py. A
new library refusal is one more row here.
"""

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adnet import evaluation, io as storage, model, numerics, training, windowing
from adnet.errors import ConfigError, InputError, InternalError, MetricError, NumericError, \
    UsageError
from adnet.evaluation import TemporalSegment, segments_from_labels
from adnet.model import ADNetConfig
from adnet.numerics import Tape, Tensor
from adnet.synth import SynthConfig
from adnet.training import TrainConfig
from adnet.windowing import Window


def row(name, call, error, message):
    return pytest.param(call, error, message, id=name)


def train_at_a_rate_of_1e200():
    """One window, one step at a rate that leaves every weight near 1e200."""
    dataset = [(np.random.default_rng(0).normal(size=(8, 4)), np.array([0, 1, 1, 0]))]
    config = ADNetConfig(window_width=4, num_stages=2, num_layers=2, input_dim=8)
    with np.errstate(all="ignore"):
        training.train(dataset, config, TrainConfig(seed=0, epochs=1, learning_rate=1e200))


def backward_from_a_matrix():
    tape = Tape()
    tape.backward(numerics.relu(Tensor([[1.0, 2.0]]), tape))


def adam_step(values, grad, moments):
    """One adam_step on a stand-in for model parameters: their flat vector
    and its gradient twin, with moments of the given size."""
    params = SimpleNamespace(flat=np.asarray(values, dtype=np.float64), grad=grad)
    numerics.adam_step(params, numerics.init_adam(SimpleNamespace(flat=np.zeros(moments)), 1e-3))


seg = TemporalSegment
ONE = {"a": np.array([0.1, 0.9])}
ONE_GT = {"a": segments_from_labels([0, 1])}
TWO_GT = {"a": segments_from_labels([0, 1]), "b": segments_from_labels([0, 1])}
EVALUATION = [
    row("TemporalSegment empty", lambda: seg(3, 3, 0), InputError, "invalid segment [3, 3)"),
    row("TemporalSegment negative start", lambda: seg(-1, 2, 0), InputError,
        "invalid segment [-1, 2)"),
    row("TemporalSegment label 2", lambda: seg(0, 2, 2), InputError,
        "segment label must be 0 or 1, got 2"),
    row("clip_edges 0 frames per clip", lambda: evaluation.clip_edges(2, 0, 2), InputError,
        "frames_per_clip must be >= 1, got 0"),
    row("clip_edges no clips", lambda: evaluation.clip_edges(0, 4, 4), InputError,
        "no clip values to expand"),
    row("expand_to_frames beyond the clips",
        lambda: evaluation.expand_to_frames([0.1, 0.9], 3, 7), InputError,
        "7 frames is inconsistent with 2 clips of 3 frames (expected 4..6)"),
    row("expand_to_frames last clip empty",
        lambda: evaluation.expand_to_frames([0.1, 0.9], 3, 3), InputError,
        "3 frames is inconsistent with 2 clips of 3 frames (expected 4..6)"),
    row("segments_from_labels label 2", lambda: segments_from_labels([0, 2]), InputError,
        "labels must be 0 or 1"),
    row("segments_from_labels empty", lambda: segments_from_labels([]), InputError,
        "label vector is empty"),
    row("partition_extent empty", lambda: evaluation.partition_extent([], "ground truth"),
        InputError, "ground truth segment list is empty"),
    row("partition_extent late start",
        lambda: evaluation.partition_extent([seg(2, 4, 0)], "ground truth"), InputError,
        "ground truth segments start at frame 2, not 0"),
    row("partition_extent overlap",
        lambda: evaluation.partition_extent([seg(0, 4, 0), seg(3, 6, 1)], "ground truth"),
        InputError, "ground truth segments have an overlap between [0, 4) and [3, 6)"),
    row("partition_extent gap",
        lambda: evaluation.partition_extent([seg(0, 4, 0), seg(5, 6, 1)], "ground truth"),
        InputError, "ground truth segments have a gap between [0, 4) and [5, 6)"),
    row("f1_at_k ranges differ",
        lambda: evaluation.f1_at_k([seg(0, 10, 0)], [seg(0, 12, 0)], 25, "all"), InputError,
        "prediction covers 10 frames, ground truth 12"),
    row("f1_at_k prediction with a gap",
        lambda: evaluation.f1_at_k([seg(0, 5, 0), seg(6, 10, 1)], [seg(0, 10, 0)], 25, "all"),
        InputError, "prediction segments have a gap between [0, 5) and [6, 10)"),
    row("match_counts scope both",
        lambda: evaluation.match_counts([seg(0, 4, 0)], [seg(0, 4, 0)], 50, "both"), InputError,
        "unknown scope 'both'; expected one of ['abnormal', 'all', 'normal']"),
    row("match_counts k 0", lambda: evaluation.match_counts([seg(0, 4, 0)], [seg(0, 4, 0)], 0),
        InputError, "k must lie in (0, 100], got 0"),
    row("match_counts k 100.5",
        lambda: evaluation.match_counts([seg(0, 4, 0)], [seg(0, 4, 0)], 100.5), InputError,
        "k must lie in (0, 100], got 100.5"),
    row("frame_auc lengths differ", lambda: evaluation.frame_auc([0.1, 0.2], [0]), InputError,
        "scores (2) and labels (1) differ in length"),
    row("frame_auc label 2", lambda: evaluation.frame_auc([0.1, 0.2], [0, 2]), InputError,
        "labels must be 0 or 1"),
    row("frame_auc one class, two runs", lambda: evaluation.frame_auc([0.1, 0.9], [1, 1]),
        MetricError, "AUC is undefined when only one class is present"),
    row("frame_auc one class, one run", lambda: evaluation.frame_auc([0.4, 0.4], [1, 1]),
        MetricError, "AUC is undefined when only one class is present"),
    row("frame_auc nan score",
        lambda: evaluation.frame_auc([0.1, np.nan, 0.9, 0.2], [0, 1, 1, 0]), InputError,
        "scores must be finite"),
    row("frame_auc inf score",
        lambda: evaluation.frame_auc([0.1, np.inf, 0.9, 0.2], [0, 1, 1, 0]), InputError,
        "scores must be finite"),
    row("frame_auc -inf score",
        lambda: evaluation.frame_auc([0.1, -np.inf, 0.9, 0.2], [0, 1, 1, 0]), InputError,
        "scores must be finite"),
    row("check_ks 10.5", lambda: evaluation.check_ks([10.5, 25.9]), InputError,
        "k must be an integer, got 10.5"),
    row("check_ks True", lambda: evaluation.check_ks([10, True]), InputError,
        "k must be an integer, got True"),
    row("check_ks 50.0", lambda: evaluation.check_ks([50.0]), InputError,
        "k must be an integer, got 50.0"),
    row("check_ks numpy 25.0", lambda: evaluation.check_ks([np.float64(25.0)]), InputError,
        "k must be an integer, got 25.0"),
    row("evaluate no videos", lambda: evaluation.evaluate({}, {}, 16), InputError,
        "no videos to evaluate"),
    row("evaluate missing video",
        lambda: evaluation.evaluate({"a": np.zeros(2)}, {"b": segments_from_labels([0] * 4)}, 2),
        InputError, "prediction and ground-truth video sets differ: no ground truth for "
                    "['a']; no prediction for ['b']"),
    *[row(f"evaluate score {bad}",
          lambda bad=bad: evaluation.evaluate({**ONE, "b": np.array([0.1, bad])}, TWO_GT, 1),
          InputError, "video 'b': scores must be finite and lie in [0, 1]")
      for bad in (np.nan, np.inf, 7.0, -0.1)],
    *[row(f"evaluate threshold {threshold}",
          lambda threshold=threshold: evaluation.evaluate(ONE, ONE_GT, 1, threshold=threshold),
          InputError, f"threshold must lie in (0, 1), got {threshold}")
      for threshold in (np.nan, 0.0, 1.0, -0.5, 1.5, np.inf)],
    row("evaluate k twice", lambda: evaluation.evaluate(ONE, ONE_GT, 1, ks=(10, 25, 10)),
        InputError, "k 10 is given twice"),
    row("evaluate k 50.7", lambda: evaluation.evaluate(ONE, ONE_GT, 1, ks=[50.7]), InputError,
        "k must be an integer, got 50.7"),
]


SMALL = ADNetConfig(window_width=8, num_stages=2, num_layers=3, input_dim=4, hidden_channels=8)
PARAMS = model.build(SMALL, seed=0)
SIZE = PARAMS.flat.size


def window(features, mask):
    return Window(features=features, mask=mask, video_id="t", start_clip=0)


MODEL = [
    row("max_layers width 1", lambda: model.max_layers(1, 3), ConfigError,
        "window width must be at least 2, got 1"),
    row("max_layers even kernel", lambda: model.max_layers(64, 4), ConfigError,
        "kernel size must be an odd integer >= 3, got 4"),
    row("ADNetConfig 7 layers at width 64",
        lambda: ADNetConfig(window_width=64, num_stages=5, num_layers=7, input_dim=8),
        ConfigError, "num_layers=7 exceeds max_layers(64, 3) = 6"),
    row("ADNetConfig odd width",
        lambda: ADNetConfig(window_width=7, num_stages=1, num_layers=1, input_dim=8),
        ConfigError, "window_width must be even and >= 2, got 7"),
    row("ADNetConfig threshold 1",
        lambda: ADNetConfig(window_width=8, num_stages=1, num_layers=1, input_dim=8,
                            threshold=1.0), ConfigError,
        "threshold must lie in (0, 1), got 1.0"),
    row("views of a longer vector", lambda: model.views(SMALL, np.zeros(SIZE + 1)),
        InternalError, "the model holds 1706 values, its vector 1707"),
    row("ModelParams float32", lambda: model.ModelParams(SMALL, np.zeros(SIZE, np.float32)),
        InternalError, "parameters must be one contiguous float64 vector"),
    row("ModelParams column", lambda: model.ModelParams(SMALL, np.zeros((SIZE, 1))),
        InternalError, "parameters must be one contiguous float64 vector"),
    row("ModelParams strided", lambda: model.ModelParams(SMALL, np.zeros(2 * SIZE)[::2]),
        InternalError, "parameters must be one contiguous float64 vector"),
    row("forward feature dim 3",
        lambda: model.forward(PARAMS, window(np.zeros((3, 8)), np.ones(8))), ConfigError,
        "window features have shape (3, 8), model expects (4, 8)"),
    row("forward mask 0.5",
        lambda: model.forward(PARAMS, window(np.zeros((4, 8)), np.full(8, 0.5))), InputError,
        "mask entries must be 0 or 1"),
    row("forward mask 2",
        lambda: model.forward(PARAMS, window(np.zeros((4, 8)), np.r_[np.ones(7), 2.0])),
        InputError, "mask entries must be 0 or 1"),
    row("forward mask nan",
        lambda: model.forward(PARAMS, window(np.zeros((4, 8)), np.r_[np.ones(7), np.nan])),
        InputError, "mask entries must be 0 or 1"),
    row("forward mask of width 7",
        lambda: model.forward(PARAMS, window(np.zeros((4, 8)), np.ones(7))), ConfigError,
        "window mask has shape (7,), model expects (8,)"),
    row("forward no windows", lambda: model.forward(PARAMS, []), ConfigError,
        "forward needs at least one window"),
    row("forward a window of width 6 in a stack",
        lambda: model.forward(PARAMS, [window(np.ones((4, 8)), np.ones(8)),
                                       window(np.ones((4, 6)), np.ones(6))]), ConfigError,
        "window features have shape (4, 6), model expects (4, 8)"),
    row("score_sequence a vector", lambda: model.score_sequence(PARAMS, np.zeros(4)), InputError,
        "features must be a (dim, num_clips) matrix, got shape (4,)"),
    row("predict_labels score 1.2", lambda: model.predict_labels([1.2], 0.5), InputError,
        "predict_labels: scores must be finite and lie in [0, 1]"),
    row("predict_labels score nan", lambda: model.predict_labels([0.2, np.nan], 0.5), InputError,
        "predict_labels: scores must be finite and lie in [0, 1]"),
    *[row(f"predict_labels threshold {threshold}",
          lambda threshold=threshold: model.predict_labels([0.2, 0.9], threshold), InputError,
          f"threshold must lie in (0, 1), got {threshold}")
      for threshold in (np.nan, 1.5, -1.0, 0.0, 1.0)],
]


TRAIN_MODEL = ADNetConfig(window_width=32, num_stages=1, num_layers=5, input_dim=8,
                          hidden_channels=16)
NARROW = model.build(ADNetConfig(window_width=32, num_stages=1, num_layers=5, input_dim=8,
                                 hidden_channels=8), seed=0)
SEGMENTS = segments_from_labels(np.array([0] * 8 + [1] * 8))


def train(dataset, **fields):
    return training.train(dataset, TRAIN_MODEL, TrainConfig(seed=0, epochs=1), **fields)


TRAINING = [
    *[row(f"clip_labels fraction {fraction}",
          lambda fraction=fraction: training.clip_labels(SEGMENTS, 4, 4, fraction), InputError,
          f"fraction must lie in (0, 1], got {fraction}")
      for fraction in (np.nan, 2.0, 0.0, -1.0)],
    row("mse_loss fully masked", lambda: training.mse_loss(Tensor(np.array([[0.5]])), [0], [0]),
        InputError, "loss over a fully masked window is undefined"),
    row("mse_loss lengths differ",
        lambda: training.mse_loss(Tensor(np.zeros((1, 3))), [0, 0], [1, 1, 1]), InputError,
        "scores (3), targets (2) and mask (3) must have equal length"),
    row("ad_loss mask 0.5",
        lambda: training.ad_loss(Tensor(np.zeros((1, 2))), [0, 1], [1, 0.5], alpha=0.5),
        InputError, "mask entries must be 0 or 1"),
    row("margin_hinge fully masked",
        lambda: training.margin_hinge(np.zeros(2), np.array([0.0, 1.0]), np.zeros(2), 0.5),
        InputError, "loss over a fully masked window is undefined"),
    row("total_loss no stages", lambda: training.total_loss([], [0], [1], TrainConfig()),
        InputError, "at least one stage output is required"),
    row("train no sequences", lambda: train([]), InputError, "training dataset is empty"),
    row("train feature dim 5", lambda: train([(np.zeros((5, 40)), np.zeros(40, dtype=int))]),
        InputError, "sequence 0 has feature dim 5, model expects 8"),
    row("train 9 labels for 10 clips", lambda: train([(np.zeros((8, 10)), np.zeros(9))]),
        InputError, "sequence 0: 10 clips but 9 labels"),
    row("train second sequence of dim 5",
        lambda: train([(np.zeros((8, 10)), np.zeros(10)), (np.zeros((5, 10)), np.zeros(10))]),
        InputError, "sequence 1 has feature dim 5, model expects 8"),
    # the dataset is read in one pass, so the earlier faulty sequence is named
    row("train two faulty sequences",
        lambda: train([(np.zeros((8, 10)), np.zeros(3)), (np.zeros((5, 10)), np.zeros(10))]),
        InputError, "sequence 0: 10 clips but 3 labels"),
    row("train labels a column", lambda: train([(np.zeros((8, 10)), np.zeros((10, 1)))]),
        InputError, "sequence 0: 10 clips but labels of shape (10, 1)"),
    row("train label 3", lambda: train([(np.zeros((8, 10)), np.full(10, 3))]), InputError,
        "sequence 0: clip labels must be 0 or 1"),
    row("train labels -1 and nan",
        lambda: train([(np.zeros((8, 10)), np.zeros(10)),
                       (np.zeros((8, 10)), np.array([0, 1] * 4 + [-1, np.nan]))]),
        InputError, "sequence 1: clip labels must be 0 or 1"),
    row("train features a vector", lambda: train([(np.zeros(8), np.zeros(8))]), InputError,
        "features must be a (dim, num_clips) matrix, got shape (8,)"),
    row("train resume of another width",
        lambda: train([(np.zeros((8, 40)), np.zeros(40))], resume=training.TrainResult(
            params=NARROW, adam=numerics.init_adam(NARROW, 5e-4), epochs_completed=1, log=[])),
        ConfigError, "resume parameters were built for a different model config"),
    row("train diverges", train_at_a_rate_of_1e200, NumericError,
        "non-finite score on the training windows after 1 epoch"),
    row("TrainConfig lambda 1", lambda: TrainConfig(lambda_=1.0), ConfigError,
        "lambda must lie in (0, 1), got 1.0"),
    row("TrainConfig lambda 0", lambda: TrainConfig(lambda_=0.0), ConfigError,
        "lambda must lie in (0, 1), got 0.0"),
    row("TrainConfig alpha -0.1", lambda: TrainConfig(alpha=-0.1), ConfigError,
        "alpha must be >= 0, got -0.1"),
    row("TrainConfig learning_rate 0", lambda: TrainConfig(learning_rate=0.0), ConfigError,
        "learning_rate must be positive, got 0.0"),
    row("TrainConfig epochs 0", lambda: TrainConfig(epochs=0), ConfigError,
        "epochs must be >= 1, got 0"),
    row("TrainConfig seed -1", lambda: TrainConfig(seed=-1), ConfigError,
        "seed must be >= 0, got -1"),
    row("TrainConfig clip_label_fraction 0", lambda: TrainConfig(clip_label_fraction=0.0),
        ConfigError, "clip_label_fraction must lie in (0, 1], got 0.0"),
    row("TrainConfig clip_label_fraction 1.5", lambda: TrainConfig(clip_label_fraction=1.5),
        ConfigError, "clip_label_fraction must lie in (0, 1], got 1.5"),
]


X = Tensor(np.zeros((3, 5)))
NUMERICS = [
    row("conv1d_dilated input channels",
        lambda: numerics.conv1d_dilated(X, Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros(2)), 1),
        ConfigError, "kernel expects 4 input channels, input has 3"),
    row("conv1d_dilated bias",
        lambda: numerics.conv1d_dilated(X, Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros(5)), 1),
        ConfigError, "bias has 5 entries, kernel emits 2"),
    row("conv1d_dilated even kernel",
        lambda: numerics.conv1d_dilated(X, Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros(2)), 1),
        ConfigError, "kernel width must be odd to preserve length, got 2"),
    row("conv1d_dilated dilation 3",
        lambda: numerics.conv1d_dilated(X, Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros(2)), 3),
        ConfigError, "dilation must be a power of two, got 3"),
    row("pointwise_conv input channels",
        lambda: numerics.pointwise_conv(X, Tensor(np.zeros((2, 4))), Tensor(np.zeros(2))),
        ConfigError, "kernel expects 4 input channels, input has 3"),
    row("mask_mul mask 0.5", lambda: numerics.mask_mul(Tensor([[1.0, 2.0]]), [0.5, 1.0]),
        InputError, "mask entries must be 0 or 1"),
    row("add shapes differ",
        lambda: numerics.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))), ConfigError,
        "add() needs identical shapes, got (2, 3) and (3, 2)"),
    row("backward before a forward", lambda: Tape().backward(Tensor(0.0)), UsageError,
        "backward() called before any operation was recorded"),
    row("backward from a matrix", backward_from_a_matrix, UsageError,
        "backward() needs a scalar root, got shape (1, 2)"),
    row("adam_step without a gradient", lambda: adam_step(np.zeros(2), None, 2), UsageError,
        "adam_step() called before gradients were populated"),
    row("adam_step moments of another size", lambda: adam_step(np.zeros(2), np.ones(2), 3),
        ConfigError, "parameters (2,), gradients (2,) and moments (3,), (3,) must have one shape"),
]


WINDOWING = [
    row("plan_windows odd width", lambda: windowing.plan_windows(10, 7), ConfigError,
        "window width must be even and >= 2, got 7"),
    row("plan_windows no clips", lambda: windowing.plan_windows(0, 8), InputError,
        "sequence must contain at least one clip, got 0"),
    row("materialize a vector", lambda: windowing.materialize(np.zeros(4), "v", 4), InputError,
        "features must be a (dim, num_clips) matrix, got shape (4,)"),
    row("merge_scores coverage gap",
        lambda: windowing.merge_scores([(0, np.ones(4), np.zeros(4))], 8), InternalError,
        "no window covered clip 4"),
    row("merge_scores mask not a prefix",
        lambda: windowing.merge_scores([(0, np.array([1.0, 0.0, 1.0]), np.zeros(3))], 3),
        InputError, "window mask must be a prefix of ones followed by zeros"),
    row("merge_scores mask 0.5",
        lambda: windowing.merge_scores([(0, np.array([1.0, 0.5]), np.zeros(2))], 2), InputError,
        "window mask entries must be 0 or 1"),
    row("merge_scores lengths differ",
        lambda: windowing.merge_scores([(0, np.ones(4), np.zeros(3))], 4), InputError,
        "scores and mask must have the same length"),
    row("merge_scores window past the timeline",
        lambda: windowing.merge_scores([(2, np.ones(4), np.zeros(4))], 4), InternalError,
        "window at clip 2 with 4 real clips overruns the 4-clip timeline"),
]


# the refusal comes before any write; were it to come later, writing below
# the null device would fail with another class
IO = [
    row("write_features no clips",
        lambda: storage.write_features(storage.ClipFeatureSequence("v", np.zeros((3, 0))),
                                       Path(os.devnull) / "e.adnf"), InputError,
        "features must be a non-empty (dim, num_clips) matrix, got shape (3, 0)"),
]


SYNTH = [
    row(f"SynthConfig {name}", lambda fields=fields: SynthConfig(**fields), ConfigError, message)
    for name, fields, message in [
        ("clips_min 2", {"clips_min": 2}, "clips_min must be >= 4, got 2"),
        ("num_videos 0", {"num_videos": 0}, "num_videos must be >= 1, got 0"),
        ("clips_min 3", {"clips_min": 3}, "clips_min must be >= 4, got 3"),
        ("clips_max below clips_min", {"clips_min": 40, "clips_max": 30},
         "clips_max (30) must be >= clips_min (40)"),
        ("segment count from -1", {"abnormal_segment_count_range": (-1, 2)},
         "abnormal_segment_count_range must be 0 <= low <= high, got (-1, 2)"),
        ("segment count from 3 to 1", {"abnormal_segment_count_range": (3, 1)},
         "abnormal_segment_count_range must be 0 <= low <= high, got (3, 1)"),
        ("input_dim 0", {"input_dim": 0}, "input_dim must be >= 1, got 0"),
        ("class_mean_separation -0.5", {"class_mean_separation": -0.5},
         "class_mean_separation must be >= 0, got -0.5"),
        ("noise_std -1", {"noise_std": -1.0}, "noise_std must be >= 0, got -1.0"),
        ("frames_per_clip 0", {"frames_per_clip": 0}, "frames_per_clip must be >= 1, got 0"),
        ("seed -1", {"seed": -1}, "seed must be >= 0, got -1"),
    ]]


@pytest.mark.parametrize("call, error, message",
                         EVALUATION + MODEL + TRAINING + NUMERICS + WINDOWING + IO + SYNTH)


def test_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
