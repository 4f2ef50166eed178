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


def expand_to_frames(clip_values, frames_per_clip: int, total_frames: int) -> np.ndarray:
    """Copy clip value i to frames [n*i, n*(i+1)); no interpolation. The
    last clip may cover fewer than n frames."""
    values = np.asarray(clip_values, dtype=np.float64).reshape(-1)
    n = frames_per_clip
    if n < 1:
        raise InputError(f"frames_per_clip must be >= 1, got {n}")
    if values.size == 0:
        raise InputError("no clip values to expand")
    low = n * (values.size - 1) + 1
    high = n * values.size
    if not low <= total_frames <= high:
        raise InputError(
            f"{total_frames} frames is inconsistent with {values.size} clips of "
            f"{n} frames (expected {low}..{high})")
    return np.repeat(values, n)[:total_frames]


def segments_from_labels(frame_labels) -> list[TemporalSegment]:
    """Run-length encode a binary timeline; both classes become segments."""
    labels = np.asarray(frame_labels).reshape(-1)
    if labels.size == 0:
        raise InputError("label vector is empty")
    if not np.all((labels == 0) | (labels == 1)):
        raise InputError("labels must be 0 or 1")
    bounds = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [labels.size]))
    return [TemporalSegment(int(s), int(e), int(labels[s])) for s, e in zip(starts, ends)]


def _partition_extent(segments: Sequence[TemporalSegment], what: str) -> int:
    if not segments:
        raise InputError(f"{what} segment list is empty")
    if segments[0].start_frame != 0:
        raise InputError(f"{what} segments must start at frame 0")
    position = 0
    for seg in segments:
        if seg.start_frame != position:
            raise InputError(
                f"{what} segments have a gap or overlap at frame {position} "
                f"(next segment starts at {seg.start_frame})")
        position = seg.end_frame
    return position


def _iou(a: TemporalSegment, b: TemporalSegment) -> float:
    inter = min(a.end_frame, b.end_frame) - max(a.start_frame, b.start_frame)
    if inter <= 0:
        return 0.0
    union = max(a.end_frame, b.end_frame) - min(a.start_frame, b.start_frame)
    return inter / union


def match_counts(pred: Sequence[TemporalSegment], gt: Sequence[TemporalSegment],
                 k: float, scope: str = "all") -> tuple[int, int, int]:
    """Greedy (TP, FP, FN) at IoU >= k percent within a label scope.

    Predictions are visited in temporal order; each claims its best-IoU
    same-label ground-truth segment if that segment is unclaimed and the
    IoU clears the threshold, else it counts as a false positive.
    """
    if scope not in SCOPES:
        raise InputError(f"unknown scope {scope!r}; expected one of {sorted(SCOPES)}")
    if not 0 < k <= 100:
        raise InputError(f"k must lie in (0, 100], got {k}")
    pred_extent = _partition_extent(pred, "prediction")
    gt_extent = _partition_extent(gt, "ground truth")
    if pred_extent != gt_extent:
        raise InputError(
            f"prediction covers {pred_extent} frames, ground truth {gt_extent}")
    labels = SCOPES[scope]
    candidates = [seg for seg in gt if seg.label in labels]
    claimed = [False] * len(candidates)
    tp = fp = 0
    for seg in pred:
        if seg.label not in labels:
            continue
        best_iou = -1.0
        best = -1
        for index, cand in enumerate(candidates):
            if cand.label != seg.label:
                continue
            iou = _iou(seg, cand)
            if iou > best_iou:
                best_iou = iou
                best = index
        if best >= 0 and best_iou >= k / 100.0 and not claimed[best]:
            claimed[best] = True
            tp += 1
        else:
            fp += 1
    fn = claimed.count(False)
    return tp, fp, fn


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


def frame_auc(frame_scores, frame_labels) -> float:
    """Exact ROC AUC via midranks."""
    scores = np.asarray(frame_scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(frame_labels).reshape(-1)
    if scores.shape != labels.shape:
        raise InputError(
            f"scores ({scores.shape[0]}) and labels ({labels.shape[0]}) differ in length")
    if not np.all((labels == 0) | (labels == 1)):
        raise InputError("labels must be 0 or 1")
    if not np.all(np.isfinite(scores)):  # NaN would sort last and rank as a high score
        raise InputError("scores must be finite")
    num_pos = int((labels == 1).sum())
    num_neg = labels.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise MetricError("AUC is undefined when only one class is present")
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [scores.size]))
    ranks = np.empty(scores.size)
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + 1 + e)  # midrank of the tie run
    u = ranks[labels == 1].sum() - num_pos * (num_pos + 1) / 2.0
    return float(u / (num_pos * num_neg))


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


def evaluate(pred_clip_scores: Mapping[str, np.ndarray],
             gt_frame_labels: Mapping[str, np.ndarray],
             frames_per_clip: int,
             ks: Sequence[int] = DEFAULT_KS,
             threshold: float = 0.5) -> EvalReport:
    """Corpus-level report over matching video id sets.

    Clip scores must be finite and in [0, 1]. They are expanded to frames
    against each video's ground-truth frame count, thresholded into
    segments, and counted into pooled TP/FP/FN per scope and k; AUC runs
    over all frames concatenated.
    """
    ks = tuple(int(k) for k in ks)
    for k in ks:
        if not 0 < k <= 100:
            raise InputError(f"k must lie in (0, 100], got {k}")
    pred_ids = set(pred_clip_scores)
    gt_ids = set(gt_frame_labels)
    if pred_ids != gt_ids:
        raise InputError(
            f"prediction and ground-truth video sets differ: {sorted(pred_ids ^ gt_ids)}")
    counts = {scope: {k: [0, 0, 0] for k in ks} for scope in SCOPES}
    scores_parts = []
    labels_parts = []
    for video_id in sorted(gt_ids):
        labels = np.asarray(gt_frame_labels[video_id]).reshape(-1)
        clip_scores = check_scores(pred_clip_scores[video_id], f"video {video_id!r}")
        scores = expand_to_frames(clip_scores, frames_per_clip, labels.size)
        pred_segments = segments_from_labels((scores >= threshold).astype(np.int64))
        gt_segments = segments_from_labels(labels)
        for scope in SCOPES:
            for k in ks:
                tp, fp, fn = match_counts(pred_segments, gt_segments, k, scope)
                bucket = counts[scope][k]
                bucket[0] += tp
                bucket[1] += fp
                bucket[2] += fn
        scores_parts.append(scores)
        labels_parts.append(labels)
    auc = frame_auc(np.concatenate(scores_parts), np.concatenate(labels_parts))
    scopes = {scope: {k: precision_recall_f1(*counts[scope][k]) for k in ks}
              for scope in SCOPES}
    return EvalReport(ks=ks, frame_auc=auc, scopes=scopes)
