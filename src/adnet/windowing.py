"""Fixed-width half-overlapping windows over clip feature sequences.

A sequence of T clips is covered by windows of width W starting at
multiples of W/2 (0-indexed): one window when T <= W, else
ceil((T - W) / (W/2)) + 1, the last being the first to end at or past T.
So the final window may run beyond the sequence and is padded with zero
columns. The mask marks real clips with 1 and padding with 0, always as
a prefix of ones. materialize(features, video_id, W) cuts a (dim, T)
matrix into those windows, views into one padded copy; per-window scores
merge back into a length-T timeline by averaging every window whose real
span covers a clip.

Planning and materialization are pure; windows may be scored
concurrently and merged afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, InputError, InternalError


@dataclass(frozen=True)
class Window:
    """One fixed-width slice of a video's clip features."""

    features: np.ndarray  # (dim, width) in the features' dtype, zero columns where padded
    mask: np.ndarray      # (width,) float64 of {0,1}, ones prefix
    video_id: str
    start_clip: int


def real_length(mask) -> int:
    """Number of leading 1s in a ones-then-zeros mask."""
    m = np.asarray(mask)
    if not np.all((m == 0) | (m == 1)):
        raise InputError("window mask entries must be 0 or 1")
    n = int(m.sum())
    if np.any(m[:n] != 1):
        raise InputError("window mask must be a prefix of ones followed by zeros")
    return n


def plan_windows(num_clips: int, width: int) -> list[tuple[int, int]]:
    """(start, end) spans at stride width/2: exactly one window if the
    sequence fits, otherwise as many as it takes for one to reach the end."""
    if num_clips < 1:
        raise InputError(f"sequence must contain at least one clip, got {num_clips}")
    if width < 2 or width % 2:
        raise ConfigError(f"window width must be even and >= 2, got {width}")
    stride = width // 2
    count = 1 if num_clips <= width else -(-(num_clips - width) // stride) + 1
    return [(stride * index, stride * index + width) for index in range(count)]


def materialize(features: np.ndarray, video_id: str, width: int) -> list[Window]:
    """The windows plan_windows(T, width) spans of a (dim, T) matrix: read-only
    views into one copy of it, in its dtype, zero-padded past its end, and
    into one mask vector."""
    feats = np.asarray(features)
    if feats.ndim != 2:
        raise InputError(f"features must be a (dim, num_clips) matrix, got shape {feats.shape}")
    dim, total = feats.shape
    spans = plan_windows(total, width)
    padded = np.zeros((dim, spans[-1][1]), dtype=feats.dtype)
    padded[:, :total] = feats
    mask = np.zeros(spans[-1][1])
    mask[:total] = 1.0
    padded.flags.writeable = mask.flags.writeable = False
    return [Window(features=padded[:, start:end], mask=mask[start:end], video_id=video_id,
                   start_clip=start) for start, end in spans]


def merge_scores(per_window: Iterable[tuple[int, np.ndarray, np.ndarray]],
                 num_clips: int) -> np.ndarray:
    """Average per-window scores into one per-clip timeline.

    Each element is (start_clip, mask, scores); only unmasked positions
    contribute, so padding never leaks into the merged timeline.
    """
    sums = np.zeros(num_clips)
    counts = np.zeros(num_clips, dtype=np.int64)
    for start, mask, scores in per_window:
        values = np.asarray(scores, dtype=np.float64).ravel()
        if values.shape[0] != np.asarray(mask).shape[0]:
            raise InputError("scores and mask must have the same length")
        real = real_length(mask)
        if start < 0 or start + real > num_clips:
            raise InternalError(
                f"window at clip {start} with {real} real clips overruns the "
                f"{num_clips}-clip timeline")
        sums[start:start + real] += values[:real]
        counts[start:start + real] += 1
    uncovered = np.flatnonzero(counts == 0)
    if uncovered.size:
        raise InternalError(f"no window covered clip {int(uncovered[0])}")
    return sums / counts
