"""Segmental F1@k and frame-level ROC AUC.

Predictions and ground truth are compared as temporal segments: maximal
constant-label frame runs, with normal runs treated as segments in their
own right rather than background. A predicted segment is a true positive
at tolerance k when its best-IoU same-label ground-truth segment clears
k percent overlap and is not already claimed (greedy matching in temporal
order, each ground-truth segment claimable once). Corpus-level scores
pool TP/FP/FN across videos before computing precision and recall.

AUC is the exact Mann-Whitney rank statistic, so tie handling is
unambiguous: P(score_abnormal > score_normal) + 0.5 * P(equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, MetricError

SCOPES = {"abnormal": (1,), "normal": (0,), "all": (0, 1)}
DEFAULT_KS = (10, 25, 50)


@dataclass(frozen=True)
class TemporalSegment:
    """A maximal run of frames sharing one label; end is exclusive."""

    start_frame: int
    end_frame: int
    label: int

    def __post_init__(self):
        if self.start_frame < 0 or self.end_frame <= self.start_frame:
            raise InputError(f"invalid segment [{self.start_frame}, {self.end_frame})")
        if self.label not in (0, 1):
            raise InputError(f"segment label must be 0 or 1, got {self.label}")


def check_scores(scores, source: str) -> np.ndarray:
    """Scores as a float64 array; raises InputError naming the source
    unless every score is finite and lies in [0, 1]."""
    values = np.asarray(scores, dtype=np.float64)
    if not np.all((values >= 0.0) & (values <= 1.0)):  # NaN fails both bounds
        raise InputError(f"{source}: scores must be finite and lie in [0, 1]")
    return values


def clip_edges(num_clips: int, frames_per_clip: int, total_frames: int) -> np.ndarray:
    """The frame edges of a video's clips: clip i covers frames
    [edges[i], edges[i + 1]) = [n*i, n*(i+1)), except that the last clip
    ends at total_frames, which must leave it 1 to n frames."""
    n = frames_per_clip
    if n < 1:
        raise InputError(f"frames_per_clip must be >= 1, got {n}")
    if num_clips < 1:
        raise InputError("no clip values to expand")
    low = n * (num_clips - 1) + 1
    high = n * num_clips
    if not low <= total_frames <= high:
        raise InputError(
            f"{total_frames} frames is inconsistent with {num_clips} clips of "
            f"{n} frames (expected {low}..{high})")
    # a lone clip may cover fewer than n frames; no other edge passes the end
    edges = np.arange(num_clips + 1, dtype=np.int64) * min(n, total_frames)
    edges[-1] = total_frames
    return edges


def expand_to_frames(clip_values, frames_per_clip: int, total_frames: int) -> np.ndarray:
    """Copy clip value i to every frame of clip i (clip_edges)."""
    values = np.asarray(clip_values, dtype=np.float64).reshape(-1)
    return np.repeat(values, np.diff(clip_edges(values.size, frames_per_clip, total_frames)))


def _runs(frame_labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts, exclusive ends and labels of the maximal constant-label runs
    of a binary timeline."""
    labels = np.asarray(frame_labels).reshape(-1)
    if labels.size == 0:
        raise InputError("label vector is empty")
    if not np.all((labels == 0) | (labels == 1)):
        raise InputError("labels must be 0 or 1")
    bounds = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [labels.size]))
    return starts, ends, labels[starts]


def segments_from_labels(frame_labels) -> list[TemporalSegment]:
    """Run-length encode a binary timeline; both classes become segments."""
    return [TemporalSegment(int(s), int(e), int(label))
            for s, e, label in zip(*_runs(frame_labels))]


def partition_extent(segments: Sequence[TemporalSegment], what: str) -> int:
    """Frame count of the timeline that segments, in temporal order,
    partition; raises InputError naming the first gap or overlap."""
    if not segments:
        raise InputError(f"{what} segment list is empty")
    if segments[0].start_frame != 0:
        raise InputError(f"{what} segments start at frame {segments[0].start_frame}, not 0")
    for prev, cur in zip(segments, segments[1:]):
        if cur.start_frame != prev.end_frame:
            kind = "an overlap" if cur.start_frame < prev.end_frame else "a gap"
            raise InputError(
                f"{what} segments have {kind} between [{prev.start_frame}, "
                f"{prev.end_frame}) and [{cur.start_frame}, {cur.end_frame})")
    return segments[-1].end_frame


def _claim_iou(pred, gt) -> np.ndarray:
    """Per ground-truth segment, the highest IoU among the predictions whose
    best-IoU same-label ground-truth segment it is (the first on ties); 0
    where no prediction picks it.

    Both run lists, (starts, ends, labels) arrays, partition one timeline,
    so each prediction overlaps one contiguous range of ground-truth
    segments and there are at most P + G - 1 overlapping pairs. A
    prediction that overlaps no same-label segment has best IoU 0, which
    no k clears.
    """
    pred_start, pred_end, pred_label = pred
    gt_start, gt_end, gt_label = gt
    first = np.searchsorted(gt_end, pred_start, side="right")
    stop = np.searchsorted(gt_start, pred_end, side="left")
    width = stop - first
    p = np.repeat(np.arange(pred_start.size), width)
    g = np.arange(p.size) - np.repeat(np.cumsum(width) - width - first, width)
    same = pred_label[p] == gt_label[g]
    p, g = p[same], g[same]
    inter = np.minimum(pred_end[p], gt_end[g]) - np.maximum(pred_start[p], gt_start[g])
    union = np.maximum(pred_end[p], gt_end[g]) - np.minimum(pred_start[p], gt_start[g])
    iou = inter / union
    most = np.zeros(pred_start.size)
    np.maximum.at(most, p, iou)
    # pairs are grouped by prediction, candidates in temporal order within
    top = np.flatnonzero(iou == most[p])
    best = top[np.diff(p[top], prepend=-1) != 0]
    claims = np.zeros(gt_start.size)
    np.maximum.at(claims, g[best], iou[best])
    return claims


def _label_counts(claims: np.ndarray, pred_label: np.ndarray, gt_label: np.ndarray,
                  ks: Sequence[float]) -> np.ndarray:
    """(TP, FP, FN) at IoU >= k percent per label and k, shape (2, len(ks), 3):
    a ground-truth segment is found when some prediction that picks it
    clears k. Predictions match only segments of their own label, so a
    scope's counts are the sum of its labels' rows."""
    thresholds = np.asarray(ks, dtype=np.float64)[:, None] / 100.0
    counts = np.empty((2, len(ks), 3), dtype=np.int64)
    for label in (0, 1):
        label_claims = claims[gt_label == label]
        tp = np.count_nonzero(label_claims >= thresholds, axis=1)
        counts[label, :, 0] = tp
        counts[label, :, 1] = np.count_nonzero(pred_label == label) - tp
        counts[label, :, 2] = label_claims.size - tp
    return counts


def segment_runs(segments: Sequence[TemporalSegment]):
    """Starts, exclusive ends and labels, as int64 arrays, of the maximal
    constant-label runs of segments that partition a timeline: neighbours
    of one label are one run."""
    starts, ends, labels = (np.array([getattr(seg, field) for seg in segments], dtype=np.int64)
                            for field in ("start_frame", "end_frame", "label"))
    first, stop, labels = _runs(labels)
    return starts[first], ends[stop - 1], labels


def match_counts(pred: Sequence[TemporalSegment], gt: Sequence[TemporalSegment],
                 k: float, scope: str = "all") -> tuple[int, int, int]:
    """Greedy (TP, FP, FN) at IoU >= k percent within a label scope, of
    the maximal constant-label runs (segment_runs) of pred and gt.

    Predictions are visited in temporal order; each claims its best-IoU
    same-label ground-truth segment if that segment is unclaimed and the
    IoU clears the threshold, else it counts as a false positive. Computed
    in one sweep: TP is the number of distinct best segments among the
    predictions that clear the threshold.
    """
    if scope not in SCOPES:
        raise InputError(f"unknown scope {scope!r}; expected one of {sorted(SCOPES)}")
    if not 0 < k <= 100:
        raise InputError(f"k must lie in (0, 100], got {k}")
    pred_extent = partition_extent(pred, "prediction")
    gt_extent = partition_extent(gt, "ground truth")
    if pred_extent != gt_extent:
        raise InputError(
            f"prediction covers {pred_extent} frames, ground truth {gt_extent}")
    pred_runs = segment_runs(pred)
    gt_runs = segment_runs(gt)
    counts = _label_counts(_claim_iou(pred_runs, gt_runs), pred_runs[2], gt_runs[2], (k,))
    return tuple(int(count) for count in counts[list(SCOPES[scope]), 0].sum(axis=0))


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Percentages; an entirely empty scope (nothing predicted, nothing to
    find) counts as vacuously perfect."""
    if tp == 0 and fp == 0 and fn == 0:
        return 100.0, 100.0, 100.0
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def f1_at_k(pred: Sequence[TemporalSegment], gt: Sequence[TemporalSegment],
            k: float, scope: str = "all") -> tuple[float, float, float]:
    return precision_recall_f1(*match_counts(pred, gt, k, scope))


def _run_auc(scores: np.ndarray, positive: np.ndarray, lengths: np.ndarray) -> float:
    """Exact ROC AUC of runs, run j being lengths[j] frames of score
    scores[j], abnormal where positive[j]: each abnormal frame counts the
    normal frames of lower score and half of those of equal score, summed
    per tie group of the sorted runs. Every term and partial sum is a
    multiple of 1/2 up to P * N (abnormal times normal frames), exact in
    float64 while P * N <= 2**52, so however the frames are cut into runs
    the result is the per-frame rank statistic bit for bit; beyond that,
    no term is negative, so nothing cancels."""
    abnormal = np.where(positive, lengths, 0.0)
    normal = lengths - abnormal
    num_pos, num_neg = abnormal.sum(), normal.sum()
    if num_pos == 0 or num_neg == 0:
        raise MetricError("AUC is undefined when only one class is present")
    _, group = np.unique(scores, return_inverse=True)  # tie groups in score order
    abnormal = np.bincount(group, weights=abnormal)
    normal = np.bincount(group, weights=normal)
    u = (abnormal * (np.cumsum(normal) - normal / 2)).sum()
    return float(u / (num_pos * num_neg))


def frame_auc(frame_scores, frame_labels) -> float:
    """Exact ROC AUC (_run_auc) of per-frame scores and labels."""
    scores = np.asarray(frame_scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(frame_labels).reshape(-1)
    if scores.shape != labels.shape:
        raise InputError(
            f"scores ({scores.shape[0]}) and labels ({labels.shape[0]}) differ in length")
    if not np.all((labels == 0) | (labels == 1)):
        raise InputError("labels must be 0 or 1")
    if not np.all(np.isfinite(scores)):  # NaN would sort last and rank as a high score
        raise InputError("scores must be finite")
    return _run_auc(scores, labels == 1, np.ones(scores.size))


@dataclass(frozen=True)
class EvalReport:
    """Per-scope, per-k precision/recall/F1 (percent) plus frame AUC."""

    ks: tuple[int, ...]
    frame_auc: float
    scopes: dict[str, dict[int, tuple[float, float, float]]]

    def as_dict(self) -> dict:
        """Fixed field order for diffable serialized reports."""
        doc: dict = {"frame_auc": self.frame_auc, "segmental": {}}
        for scope in ("abnormal", "normal", "all"):
            block = {}
            for k in self.ks:
                precision, recall, f1 = self.scopes[scope][k]
                block[f"f1@{k}"] = {"precision": precision, "recall": recall, "f1": f1}
            doc["segmental"][scope] = block
        return doc


def check_ks(ks: Sequence[int]) -> tuple[int, ...]:
    """The IoU percentages as a tuple of ints; raises InputError unless each
    is an integer, not a bool, in (0, 100] and none repeats."""
    ks = tuple(ks)
    for index, k in enumerate(ks):
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise InputError(f"k must be an integer, got {k}")
        if not 0 < k <= 100:
            raise InputError(f"k must lie in (0, 100], got {k}")
        if k in ks[:index]:
            raise InputError(f"k {k} is given twice")
    return tuple(map(int, ks))


def check_same_videos(source: str, ids, gt_ids) -> None:
    """Raise InputError unless the source's video ids and the ground
    truth's are one set, naming the ids that each side lacks and leaving
    out a side that lacks none."""
    ids, gt_ids = set(ids), set(gt_ids)
    if ids != gt_ids:
        lacks = [f"no {what} for {sorted(missing)}"
                 for what, missing in (("ground truth", ids - gt_ids), (source, gt_ids - ids))
                 if missing]
        raise InputError(f"{source} and ground-truth video sets differ: {'; '.join(lacks)}")


def evaluate(pred_clip_scores: Mapping[str, np.ndarray],
             gt_segments: Mapping[str, Sequence[TemporalSegment]],
             frames_per_clip: int,
             ks: Sequence[int] = DEFAULT_KS,
             threshold: float = 0.5) -> EvalReport:
    """Corpus-level report over matching, non-empty video id sets.

    Clip scores must be finite and in [0, 1], each video's ground-truth
    segments must partition its frames (partition_extent) and fit its
    clips (clip_edges), no k may repeat, and the threshold must lie in
    (0, 1), as ADNetConfig's does. Runs of thresholded clips,
    mapped to frames through the clip edges, are matched against the
    ground-truth segments into pooled TP/FP/FN per scope and k. Frame AUC
    ranks the runs cut at every clip edge and segment start of every
    video together: one pooled statistic, not a mean of per-video AUCs.
    """
    ks = check_ks(ks)
    if not 0.0 < threshold < 1.0:
        raise InputError(f"threshold must lie in (0, 1), got {threshold}")
    check_same_videos("prediction", pred_clip_scores, gt_segments)
    if not gt_segments:
        raise InputError("no videos to evaluate")
    counts = np.zeros((2, len(ks), 3), dtype=np.int64)
    runs = []
    for video_id in sorted(gt_segments):
        total_frames = partition_extent(gt_segments[video_id], f"video {video_id!r} ground truth")
        clip_scores = check_scores(pred_clip_scores[video_id], f"video {video_id!r}").reshape(-1)
        edges = clip_edges(clip_scores.size, frames_per_clip, total_frames)
        starts, ends, labels = _runs(clip_scores >= threshold)
        pred_runs = edges[starts], edges[ends], labels
        gt_runs = segment_runs(gt_segments[video_id])
        counts += _label_counts(_claim_iou(pred_runs, gt_runs), pred_runs[2], gt_runs[2], ks)
        cuts = np.union1d(edges[:-1], gt_runs[0])
        clip = np.searchsorted(edges, cuts, side="right") - 1
        segment = np.searchsorted(gt_runs[0], cuts, side="right") - 1
        runs.append((clip_scores[clip], gt_runs[2][segment] == 1,
                     np.diff(cuts, append=total_frames)))
    auc = _run_auc(*(np.concatenate(column) for column in zip(*runs)))
    scopes = {scope: {k: precision_recall_f1(*(int(count) for count in row))
                      for k, row in zip(ks, counts[list(labels)].sum(axis=0))}
              for scope, labels in SCOPES.items()}
    return EvalReport(ks=ks, frame_auc=auc, scopes=scopes)
