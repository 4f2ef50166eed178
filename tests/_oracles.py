"""Independent oracles for the metric and model tests.

These deliberately avoid the library's own matching/ranking code paths:
`greedy_counts` is the greedy matcher as a double loop over prediction x
ground-truth pairs, `optimal_counts` an exhaustive maximum bipartite
matching, `pairwise_auc` counts every abnormal/normal pair directly, and
`frame_auc_per_frame` ranks every frame, where the library ranks runs.
`evaluate_per_frame` is the report of `evaluation.evaluate` from
per-frame arrays: scores copied to every frame of their clip, labels
written into every frame of their segment, both cut into maximal runs
frame by frame, counted with `greedy_counts` and ranked with
`frame_auc_per_frame` over the frames of all videos pooled;
`clip_labels_per_frame` counts abnormal frames one clip at a time,
where the library counts them between clip edges from the segments.
`masked_forward` is the model's forward pass on the taped ops, masking
every window, padded or not; `taped_train` is the training loop on it,
with the tape's generic backward and `adam_per_tensor`, Adam one tensor
at a time, where the library runs the model's own backward and Adam over
one flat vector in chunks. `logistic_by_mask` is the logistic branched
on the sign through boolean masks, where the library selects with
np.where; `padded_windows` cuts a video into windows the way the
benchmark's reference does, a zero-padded float64 copy per window, where
the library makes views into one padded copy.
"""

import math

import numpy as np

from adnet import evaluation, model, numerics, training
from adnet.evaluation import TemporalSegment
from adnet.numerics import Tape, Tensor
from adnet.windowing import Window


def _iou(a: TemporalSegment, b: TemporalSegment) -> float:
    inter = min(a.end_frame, b.end_frame) - max(a.start_frame, b.start_frame)
    if inter <= 0:
        return 0.0
    union = max(a.end_frame, b.end_frame) - min(a.start_frame, b.start_frame)
    return inter / union


def greedy_counts(pred, gt, k, scope):
    """(TP, FP, FN) of the greedy rule, one prediction at a time in
    temporal order, each against every ground-truth segment."""
    labels = evaluation.SCOPES[scope]
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


def optimal_counts(pred, gt, k, scope):
    """(TP, FP, FN) under the best possible assignment of predictions to
    ground-truth segments (same label, IoU >= k percent), via augmenting
    paths."""
    labels = evaluation.SCOPES[scope]
    preds = [s for s in pred if s.label in labels]
    gts = [s for s in gt if s.label in labels]
    edges = []
    for p in preds:
        admissible = []
        for j, g in enumerate(gts):
            inter = min(p.end_frame, g.end_frame) - max(p.start_frame, g.start_frame)
            union = max(p.end_frame, g.end_frame) - min(p.start_frame, g.start_frame)
            if g.label == p.label and inter > 0 and inter / union >= k / 100.0:
                admissible.append(j)
        edges.append(admissible)
    owner = [-1] * len(gts)

    def assign(i, seen):
        for j in edges[i]:
            if j in seen:
                continue
            seen.add(j)
            if owner[j] == -1 or assign(owner[j], seen):
                owner[j] = i
                return True
        return False

    tp = sum(assign(i, set()) for i in range(len(preds)))
    return tp, len(preds) - tp, len(gts) - tp


def random_partition(rng, total_frames, max_segments=6):
    """A random alternating-label partition of [0, total_frames)."""
    count = int(rng.integers(1, max_segments + 1))
    if count == 1:
        return [TemporalSegment(0, total_frames, int(rng.integers(0, 2)))]
    cuts = np.sort(rng.choice(np.arange(1, total_frames), size=count - 1, replace=False))
    bounds = [0, *cuts.tolist(), total_frames]
    first = int(rng.integers(0, 2))
    return [TemporalSegment(bounds[i], bounds[i + 1], (first + i) % 2)
            for i in range(count)]


def pairwise_auc(scores, labels):
    """Direct O(pos*neg) Mann-Whitney statistic."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def frame_auc_per_frame(scores, labels):
    """Mann-Whitney AUC from one midrank per frame: a stable arg-sort of
    all frame scores, each tie run ranked by its middle position."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    num_pos = int((labels == 1).sum())
    num_neg = labels.size - num_pos
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [scores.size]))
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    u = ranks[labels == 1].sum() - num_pos * (num_pos + 1) / 2.0
    return float(u / (num_pos * num_neg))


def expand_per_frame(clip_values, frames_per_clip, total_frames):
    """Clip value i copied to frames [n*i, n*(i+1)), cut at total_frames,
    which must leave the last clip between 1 and n frames."""
    values = np.asarray(clip_values, dtype=np.float64).reshape(-1)
    n = frames_per_clip
    assert n * (values.size - 1) < total_frames <= n * values.size
    return np.repeat(values, n)[:total_frames]


def frame_labels(segments):
    """The label of every frame of the timeline that segments partition."""
    labels = np.zeros(segments[-1].end_frame, dtype=np.int64)
    for seg in segments:
        labels[seg.start_frame:seg.end_frame] = seg.label
    return labels


def frame_segments(labels):
    """The maximal constant-label runs of a frame-label timeline."""
    labels = np.asarray(labels).reshape(-1)
    bounds = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), labels.size]
    return [TemporalSegment(a, b, int(labels[a])) for a, b in zip(bounds, bounds[1:])]


def evaluate_per_frame(pred_clip_scores, gt_segments, frames_per_clip, ks, threshold):
    """evaluation.evaluate(...).as_dict(), computed frame by frame."""
    counts = {scope: {k: np.zeros(3, dtype=np.int64) for k in ks}
              for scope in evaluation.SCOPES}
    scores, labels = [], []
    for video_id in sorted(gt_segments):
        labels.append(frame_labels(gt_segments[video_id]))
        scores.append(expand_per_frame(pred_clip_scores[video_id], frames_per_clip,
                                       labels[-1].size))
        pred = frame_segments(scores[-1] >= threshold)
        gt = frame_segments(labels[-1])
        for scope in evaluation.SCOPES:
            for k in ks:
                counts[scope][k] += greedy_counts(pred, gt, k, scope)
    return evaluation.EvalReport(
        ks=tuple(ks),
        frame_auc=frame_auc_per_frame(np.concatenate(scores), np.concatenate(labels)),
        scopes={scope: {k: evaluation.precision_recall_f1(*(int(c) for c in counts[scope][k]))
                        for k in ks} for scope in evaluation.SCOPES}).as_dict()


def clip_labels_per_frame(labels, frames_per_clip, fraction):
    """Clip i covers frames [n*i, n*(i+1)) and is abnormal when its
    abnormal-frame share reaches the fraction; the last clip may be
    short."""
    labels = np.asarray(labels)
    num_clips = -(-labels.size // frames_per_clip)
    out = np.zeros(num_clips, dtype=np.int64)
    for i in range(num_clips):
        chunk = labels[i * frames_per_clip:(i + 1) * frames_per_clip]
        if chunk.sum() >= fraction * chunk.size:
            out[i] = 1
    return out


def masked_forward(params, window, tape=None):
    """Per-stage score sequences, with the mask applied after the
    projection, after every block and after each head of every window."""
    cfg = params.config
    t = params.tensors
    mask = window.mask
    current = Tensor(window.features)
    outputs = []
    for s in range(cfg.num_stages):
        v = numerics.pointwise_conv(current, t[f"stage{s}.proj.weight"],
                                    t[f"stage{s}.proj.bias"], tape)
        v = numerics.mask_mul(v, mask, tape)
        for layer in range(cfg.num_layers):
            h = numerics.conv1d_dilated(v, t[f"stage{s}.block{layer}.dilated.weight"],
                                        t[f"stage{s}.block{layer}.dilated.bias"],
                                        1 << layer, tape)
            h = numerics.relu(h, tape)
            h = numerics.pointwise_conv(h, t[f"stage{s}.block{layer}.pointwise.weight"],
                                        t[f"stage{s}.block{layer}.pointwise.bias"], tape)
            v = numerics.mask_mul(numerics.add(v, h, tape), mask, tape)
        scores = numerics.pointwise_conv(v, t[f"stage{s}.head.weight"],
                                         t[f"stage{s}.head.bias"], tape)
        scores = numerics.mask_mul(numerics.sigmoid(scores, tape), mask, tape)
        outputs.append(scores)
        current = scores
    return outputs


def logistic_by_mask(v):
    """1 / (1 + exp(-v)) computed on the non-negative and the negative
    entries of v apart, so that exp never overflows."""
    y = np.empty_like(v)
    pos = v >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    y[~pos] = ev / (1.0 + ev)
    return y


def padded_windows(features, width):
    """The windows of a (dim, T) matrix at stride width/2, each a new
    zero-padded float64 copy, until one reaches the end."""
    dim, total = features.shape
    windows = []
    for start in range(0, total, width // 2):
        real = min(width, total - start)
        cols = np.zeros((dim, width))
        cols[:, :real] = features[:, start:start + real]
        mask = np.zeros(width)
        mask[:real] = 1.0
        windows.append(Window(features=cols, mask=mask, video_id="", start_clip=start))
        if start + width >= total:
            break
    return windows


def adam_per_tensor(tensors, first_moment, second_moment, state):
    """One Adam step of each tensor from its .grad, with the tensor's own
    moment arrays; state supplies the hyperparameters and step count."""
    state.step_count += 1
    correct1 = 1.0 - state.beta1 ** state.step_count
    correct2 = 1.0 - state.beta2 ** state.step_count
    for p, m, v in zip(tensors, first_moment, second_moment, strict=True):
        g = p.grad
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.value -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.epsilon)


def taped_train(dataset, model_config, train_config):
    """training.train on the taped reference: (params, first moments,
    second moments, epoch log), the moments one array per tensor."""
    items = training._window_items(dataset, model_config)[0]
    params = model.build(model_config, train_config.seed)
    first = [np.zeros_like(t.value) for t in params]
    second = [np.zeros_like(t.value) for t in params]
    state = numerics.init_adam(params, train_config.learning_rate)
    log = []
    tensors = list(params)
    for epoch in range(train_config.epochs):
        order = np.random.default_rng([train_config.seed, epoch]).permutation(len(items))
        mse_sum = ad_sum = total_sum = 0.0
        for item in order:
            window, targets = items[item]
            tape = Tape()
            loss = training.total_loss(masked_forward(params, window, tape), targets,
                                       window.mask, train_config, tape)
            value = float(loss.total.value)
            assert math.isfinite(value)
            tape.backward(loss.total)
            adam_per_tensor(tensors, first, second, state)
            numerics.zero_grads(tensors)
            mse_sum += loss.mse
            ad_sum += loss.ad
            total_sum += value
        count = len(items)
        log.append(training.EpochStats(epoch, mse_sum / count, ad_sum / count,
                                       total_sum / count))
    return params, first, second, log
