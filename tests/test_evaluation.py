import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adnet import evaluation
from adnet.errors import MetricError
from adnet.evaluation import TemporalSegment, segments_from_labels

from _oracles import (_iou, evaluate_per_frame, frame_auc_per_frame, frame_labels,
                      frame_segments, greedy_counts, optimal_counts, pairwise_auc,
                      random_partition)


def seg(start, end, label):
    return TemporalSegment(start, end, label)


@st.composite
def partitions(draw, frames):
    """Segments covering [0, frames), labels drawn freely, so neighbours
    may share a label."""
    cuts = draw(st.sets(st.integers(1, frames - 1), max_size=8)) if frames > 1 else set()
    bounds = [0, *sorted(cuts), frames]
    labels = draw(st.lists(st.integers(0, 1), min_size=len(bounds) - 1,
                           max_size=len(bounds) - 1))
    return [seg(a, b, label) for a, b, label in zip(bounds, bounds[1:], labels)]


@st.composite
def timeline_pairs(draw):
    frames = draw(st.integers(1, 40))
    return draw(partitions(frames)), draw(partitions(frames))


@st.composite
def corpora(draw):
    """(clip scores, ground-truth segments, frames per clip, ks, threshold)
    of 1 to 5 videos. Scores are drawn from a few levels, some exactly at
    the threshold, or freely; each video's last clip covers 1 to n frames;
    segment boundaries fall anywhere, inside clips too; ks include 100."""
    n = draw(st.integers(1, 32))
    threshold = draw(st.sampled_from([0.25, 0.5, 0.75]))
    levels = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    scores, segments = {}, {}
    for video in range(draw(st.integers(1, 5))):
        clips = draw(st.integers(1, 12))
        scores[f"v{video}"] = np.array(draw(st.lists(levels | st.floats(0.0, 1.0),
                                                     min_size=clips, max_size=clips)))
        segments[f"v{video}"] = draw(partitions(n * (clips - 1) + draw(st.integers(1, n))))
    ks = draw(st.permutations([100, *draw(st.sets(st.integers(1, 99), max_size=4))]))
    return scores, segments, n, ks, threshold


def alternating_labels(lengths, first):
    """A frame-label timeline of consecutive runs of the given lengths,
    labels alternating from first."""
    return np.repeat((first + np.arange(len(lengths))) % 2, lengths)


@st.composite
def clip_timelines(draw):
    """Frame scores expanded from quantized clip scores, so that runs and
    ties abound, against frame labels that change anywhere, mid-clip too;
    the last clip may be short, and both classes are present."""
    n = draw(st.integers(1, 32))
    clips = draw(st.integers(1, 40))
    levels = draw(st.sampled_from([1, 2, 4, 10, 1000]))
    clip_scores = np.array(draw(st.lists(st.integers(0, levels), min_size=clips,
                                         max_size=clips))) / levels
    frames = n * (clips - 1) + draw(st.integers(1, n))
    assume(frames >= 2)
    cuts = sorted(draw(st.sets(st.integers(1, frames - 1), min_size=1, max_size=8)))
    labels = alternating_labels(np.diff([0, *cuts, frames]), draw(st.integers(0, 1)))
    return evaluation.expand_to_frames(clip_scores, n, frames), labels


class TestExpandToFrames:
    def test_copies_clip_values(self):
        out = evaluation.expand_to_frames([0.1, 0.9], 3, 6)
        np.testing.assert_allclose(out, [0.1, 0.1, 0.1, 0.9, 0.9, 0.9])

    def test_short_tail(self):
        out = evaluation.expand_to_frames([0.1, 0.9], 3, 5)
        np.testing.assert_allclose(out, [0.1, 0.1, 0.1, 0.9, 0.9])

    def test_identity_when_one_frame_per_clip(self):
        values = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(evaluation.expand_to_frames(values, 1, 7), values)


class TestSegmentsFromLabels:
    def test_basic_runs(self):
        got = segments_from_labels([0, 0, 1, 1, 0])
        assert got == [seg(0, 2, 0), seg(2, 4, 1), seg(4, 5, 0)]

    def test_all_zeros(self):
        assert segments_from_labels(np.zeros(5, dtype=int)) == [seg(0, 5, 0)]

    def test_alternating(self):
        got = segments_from_labels([0, 1, 0, 1])
        assert got == [seg(0, 1, 0), seg(1, 2, 1), seg(2, 3, 0), seg(3, 4, 1)]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_partition_round_trip(self, labels):
        segments = segments_from_labels(labels)
        rebuilt = np.empty(len(labels), dtype=int)
        position = 0
        for s in segments:
            assert s.start_frame == position
            rebuilt[s.start_frame:s.end_frame] = s.label
            position = s.end_frame
        assert position == len(labels)
        np.testing.assert_array_equal(rebuilt, labels)
        for a, b in zip(segments, segments[1:]):
            assert a.label != b.label


class TestF1AtK:
    def test_identical_is_perfect(self):
        gt = [seg(0, 30, 0), seg(30, 60, 1), seg(60, 100, 0)]
        for k in (10, 25, 50, 100):
            for scope in ("abnormal", "normal", "all"):
                assert evaluation.f1_at_k(gt, gt, k, scope) == (100.0, 100.0, 100.0)

    def test_partial_overlap_thresholds(self):
        # IoU = 25/75 = 1/3: a hit at 10 and 25 percent, a miss at 50
        pred = [seg(0, 50, 1), seg(50, 100, 0)]
        gt = [seg(0, 25, 0), seg(25, 75, 1), seg(75, 100, 0)]
        for k, expected_tp in ((10, 1), (25, 1), (50, 0)):
            tp, fp, fn = evaluation.match_counts(pred, gt, k, "abnormal")
            assert (tp, fp, fn) == (expected_tp, 1 - expected_tp, 1 - expected_tp)

    def test_over_segmentation_penalized(self):
        # one true segment split in two: one TP, one FP, no FN
        pred = [seg(0, 10, 0), seg(10, 24, 1), seg(24, 26, 0), seg(26, 40, 1),
                seg(40, 100, 0)]
        gt = [seg(0, 10, 0), seg(10, 40, 1), seg(40, 100, 0)]
        precision, recall, f1 = evaluation.f1_at_k(pred, gt, 10, "abnormal")
        assert precision == 50.0
        assert recall == 100.0
        assert f1 == pytest.approx(200.0 / 3.0)

    def test_empty_scope_is_vacuously_perfect(self):
        gt = [seg(0, 50, 0)]
        assert evaluation.f1_at_k(gt, gt, 25, "abnormal") == (100.0, 100.0, 100.0)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150)
    def test_monotone_in_k(self, case_seed):
        rng = np.random.default_rng(case_seed)
        frames = int(rng.integers(10, 80))
        pred = random_partition(rng, frames)
        gt = random_partition(rng, frames)
        last = 101.0
        for k in (10, 25, 50, 75, 100):
            _, _, f1 = evaluation.f1_at_k(pred, gt, k, "all")
            assert f1 <= last + 1e-9
            last = f1

    @given(timeline_pairs())
    @settings(max_examples=300)
    # the first prediction has IoU 1/3 with two abnormal segments; taking
    # the second would leave the last prediction without a match
    @example(([seg(0, 6, 1), seg(6, 7, 0), seg(7, 9, 1)],
              [seg(0, 2, 1), seg(2, 3, 0), seg(3, 9, 1)]))
    @example(([seg(0, 3, 0), seg(3, 6, 1)], [seg(0, 3, 0), seg(3, 6, 1)]))  # exact, k = 100
    @example(([seg(0, 6, 1)], [seg(0, 6, 1)]))  # single label on both sides
    @example(([seg(0, 2, 0), seg(2, 6, 1)], [seg(0, 6, 0)]))  # no abnormal candidates
    # every prediction overlaps only segments of the other label
    @example(([seg(0, 3, 1), seg(3, 6, 0)], [seg(0, 3, 0), seg(3, 6, 1)]))
    def test_equals_greedy_double_loop(self, timelines):
        pred, gt = timelines
        # the oracle matches the maximal runs that match_counts merges neighbours into
        runs_pred, runs_gt = (frame_segments(frame_labels(segs)) for segs in timelines)
        for scope in evaluation.SCOPES:
            for k in (1, 10, 25, 33, 50, 75, 100):
                assert evaluation.match_counts(pred, gt, k, scope) == \
                    greedy_counts(runs_pred, runs_gt, k, scope)

    def test_neighbours_of_one_label_are_one_segment(self):
        # as evaluate, which thresholds clip scores [0.1, 0.1, 0.9] at 16
        # frames per clip into these maximal runs
        gt = [seg(0, 16, 0), seg(16, 32, 0), seg(32, 48, 1)]
        pred = [seg(0, 32, 0), seg(32, 48, 1)]
        assert evaluation.f1_at_k(pred, gt, 50, "all") == (100.0, 100.0, 100.0)
        assert evaluation.f1_at_k(gt, pred, 50, "all") == (100.0, 100.0, 100.0)
        report = evaluation.evaluate({"v": np.array([0.1, 0.1, 0.9])}, {"v": gt}, 16)
        assert report.scopes["all"][50] == (100.0, 100.0, 100.0)

    def test_greedy_rarely_diverges_from_optimal(self):
        rng = np.random.default_rng(0)
        divergences = 0
        trials = 400
        for _ in range(trials):
            frames = int(rng.integers(10, 80))
            pred = random_partition(rng, frames)
            gt = random_partition(rng, frames)
            k = int(rng.choice([10, 25, 50]))
            greedy = evaluation.match_counts(pred, gt, k, "all")
            optimal = optimal_counts(pred, gt, k, "all")
            assert greedy[0] <= optimal[0]  # greedy can never beat the optimum
            if greedy != optimal:
                divergences += 1
        assert divergences / trials < 0.02


class TestFrameAuc:
    def test_perfectly_separated(self):
        assert evaluation.frame_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert evaluation.frame_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_three_of_four_pairs(self):
        assert evaluation.frame_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_one_score_over_the_whole_timeline(self):
        scores = np.full(50, 0.3)
        labels = alternating_labels([20, 30], 0)
        assert evaluation.frame_auc(scores, labels) == 0.5
        assert frame_auc_per_frame(scores, labels) == 0.5

    @given(clip_timelines())
    @settings(max_examples=300)
    def test_equals_per_frame_ranking(self, timeline):
        scores, labels = timeline
        assert evaluation.frame_auc(scores, labels) == frame_auc_per_frame(scores, labels)

    def test_long_clip_timeline_equals_per_frame_ranking(self):
        rng = np.random.default_rng(12)
        clips, n = 10_000, 16
        frames = clips * n
        scores = evaluation.expand_to_frames(np.round(rng.random(clips), 3), n, frames)
        cuts = np.sort(rng.choice(np.arange(1, frames), size=300, replace=False))
        labels = alternating_labels(np.diff([0, *cuts, frames]), 0)
        assert evaluation.frame_auc(scores, labels) == frame_auc_per_frame(scores, labels)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150)
    def test_matches_pairwise_statistic(self, case_seed):
        rng = np.random.default_rng(case_seed)
        n = int(rng.integers(3, 60))
        scores = np.round(rng.random(n), 2)  # quantized to force ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        expected = pairwise_auc(scores, labels)
        assert evaluation.frame_auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 100_000))
    @settings(max_examples=50)
    def test_heavy_ties_match_pairwise_statistic_exactly(self, case_seed):
        rng = np.random.default_rng(case_seed)
        n = int(rng.integers(2, 2000))
        scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        assert evaluation.frame_auc(scores, labels) == pairwise_auc(scores, labels)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100)
    def test_invariant_under_monotone_transform(self, case_seed):
        rng = np.random.default_rng(case_seed)
        n = int(rng.integers(3, 60))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = evaluation.frame_auc(scores, labels)
        transformed = evaluation.frame_auc(np.exp(3.0 * scores) - 1.0, labels)
        assert base == pytest.approx(transformed, abs=1e-12)


class TestExpandSegmentsConsistency:
    @given(st.integers(0, 100_000))
    @settings(max_examples=100)
    def test_clip_segments_scale_to_frame_segments(self, case_seed):
        rng = np.random.default_rng(case_seed)
        clips = int(rng.integers(1, 30))
        n = int(rng.integers(1, 8))
        clip_labels = rng.integers(0, 2, size=clips)
        frame_view = evaluation.expand_to_frames(clip_labels.astype(float), n, n * clips)
        frame_segments = segments_from_labels(frame_view.astype(int))
        scaled = [seg(s.start_frame * n, s.end_frame * n, s.label)
                  for s in segments_from_labels(clip_labels)]
        assert frame_segments == scaled


class TestEvaluate:
    def test_perfect_predictions(self):
        gt = {"a": segments_from_labels([0] * 30 + [1] * 20 + [0] * 10)}
        pred = {"a": np.array([0.0] * 3 + [1.0] * 2 + [0.0] * 1)}
        report = evaluation.evaluate(pred, gt, frames_per_clip=10)
        assert report.frame_auc == 1.0
        for scope in ("abnormal", "normal", "all"):
            for k in report.ks:
                assert report.scopes[scope][k] == (100.0, 100.0, 100.0)

    def test_unit_interval_endpoints_accepted(self):
        report = evaluation.evaluate({"a": np.array([0.0, 1.0])},
                                     {"a": segments_from_labels([0, 1])}, frames_per_clip=1)
        assert report.frame_auc == 1.0

    def test_pooled_normal_recall_across_videos(self):
        # second video is all normal and predicted perfectly; its normal
        # segment joins the corpus pool
        gt = {"a": segments_from_labels([0, 0, 1, 1]), "b": segments_from_labels([0, 0, 0, 0])}
        pred = {"a": np.array([0.1, 0.1, 0.9, 0.9]), "b": np.array([0.1] * 4)}
        report = evaluation.evaluate(pred, gt, frames_per_clip=1)
        assert report.scopes["normal"][50] == (100.0, 100.0, 100.0)
        assert report.scopes["all"][50] == (100.0, 100.0, 100.0)

    def test_fragmented_prediction_diverges_from_auc(self):
        # high frame AUC, terrible segmental score: many short fragments
        # inside one long abnormal stretch
        gt = {"v": segments_from_labels(np.repeat(np.array([0] * 30 + [1] * 40 + [0] * 30), 10))}
        scores = np.full(100, 0.1)
        scores[30:70] = 0.9
        scores[list(range(35, 70, 5))] = 0.1  # fragment the abnormal run
        scores[10] = 0.9  # one short false alarm
        pred = {"v": scores}
        report = evaluation.evaluate(pred, gt, frames_per_clip=10)
        assert report.frame_auc >= 0.70
        _, _, f1_abnormal = report.scopes["abnormal"][25]
        assert f1_abnormal <= 35.0

    @given(st.integers(0, 100_000))
    @settings(max_examples=50)
    def test_pooled_counts_equal_greedy_double_loop(self, case_seed):
        rng = np.random.default_rng(case_seed)
        ks = (1, 25, 33, 50, 100)
        gt, pred = {}, {}
        pooled = {scope: {k: np.zeros(3, dtype=int) for k in ks} for scope in evaluation.SCOPES}
        for video in "abc":
            clips = int(rng.integers(1, 30))
            labels = rng.integers(0, 2, size=2 * clips)
            labels[:2] = (0, 1)  # both classes, so that AUC is defined
            pred[video] = np.round(rng.random(clips), 1)
            pred_segments = segments_from_labels(np.repeat(pred[video] >= 0.5, 2).astype(int))
            gt[video] = gt_segments = segments_from_labels(labels)
            for scope in evaluation.SCOPES:
                for k in ks:
                    pooled[scope][k] += greedy_counts(pred_segments, gt_segments, k, scope)
        report = evaluation.evaluate(pred, gt, frames_per_clip=2, ks=ks)
        assert report.scopes == {
            scope: {k: evaluation.precision_recall_f1(*pooled[scope][k]) for k in ks}
            for scope in evaluation.SCOPES}

    @given(corpora())
    @settings(max_examples=300)
    def test_equals_per_frame_evaluation(self, corpus):
        scores, segments, n, ks, threshold = corpus
        if len({seg.label for video in segments.values() for seg in video}) == 1:
            with pytest.raises(MetricError):
                evaluation.evaluate(scores, segments, n, ks, threshold)
        else:
            assert evaluation.evaluate(scores, segments, n, ks, threshold).as_dict() == \
                evaluate_per_frame(scores, segments, n, ks, threshold)

    def test_report_dict_field_order(self):
        gt = {"a": segments_from_labels([0, 1])}
        pred = {"a": np.array([0.1, 0.9])}
        doc = evaluation.evaluate(pred, gt, 1).as_dict()
        assert list(doc) == ["frame_auc", "segmental"]
        assert list(doc["segmental"]) == ["abnormal", "normal", "all"]
        assert list(doc["segmental"]["all"]) == ["f1@10", "f1@25", "f1@50"]

    def test_numpy_integer_ks_accepted(self):
        ks = evaluation.check_ks(np.array([10, 50]))
        assert ks == (10, 50) and all(type(k) is int for k in ks)


@st.composite
def shifted_timelines(draw):
    """(k, frames per clip, ground-truth clip labels, the same timeline with
    every inner boundary shifted): each segment's ends move by at most
    d <= L (1 - k/100) / (2 (1 + k/100)) clips, so its IoU with its shifted
    self, at least (L - 2d) / (L + 2d), clears k/100."""
    k = draw(st.sampled_from([10, 25, 50, 75]))
    kappa = k / 100.0
    lengths = draw(st.lists(st.integers(4, 60), min_size=2, max_size=8))
    limits = [math.floor(length * (1 - kappa) / (2 * (1 + kappa))) for length in lengths]
    shifts = [draw(st.integers(-min(a, b), min(a, b))) for a, b in zip(limits, limits[1:])]
    assume(any(shifts))
    first = draw(st.integers(0, 1))
    bounds = np.cumsum(lengths)
    shifted = np.diff([0, *(bounds[:-1] + shifts), bounds[-1]])
    return (k, draw(st.integers(1, 4)), alternating_labels(lengths, first),
            alternating_labels(shifted, first))


@st.composite
def false_positive_insertions(draw):
    """(k, frames per clip, ground-truth clip labels, clip scores of a
    perfect prediction at threshold 0.5, the same scores with one-clip
    abnormal predictions inserted inside normal ground truth, clear of
    every other abnormal clip, and how many were inserted)."""
    lengths = draw(st.lists(st.integers(1, 30), min_size=2, max_size=8))
    clip_labels = alternating_labels(lengths, draw(st.integers(0, 1)))
    abnormal = st.integers(50, 100).map(lambda level: level / 100.0)
    normal = st.integers(0, 49).map(lambda level: level / 100.0)
    scores = np.array([draw(abnormal if label else normal) for label in clip_labels])
    padded = np.pad(clip_labels, 1)
    inside = np.flatnonzero(padded[:-2] + padded[1:-1] + padded[2:] == 0)
    picked = sorted(draw(st.sets(st.sampled_from(inside.tolist()), min_size=1))
                    if inside.size else [])
    positions = [p for i, p in enumerate(picked) if i == 0 or p > picked[i - 1] + 1]
    assume(positions)
    inserted = scores.copy()
    inserted[positions] = [draw(abnormal) for _ in positions]
    return (draw(st.sampled_from([10, 25, 50])), draw(st.integers(1, 4)), clip_labels,
            scores, inserted, len(positions))


class TestAbstractClaims:
    """The abstract's two claims for F1@k over frame AUC, as properties of
    evaluate: minor temporal shifts cost F1@k nothing but lower frame
    AUC, and short false positives cost abnormal precision one count each
    while frame AUC moves by at most their share of the normal frames."""

    @given(shifted_timelines())
    @settings(max_examples=150)
    def test_minor_shifts_keep_f1_and_lower_auc(self, case):
        k, n, gt_clips, shifted_clips = case
        for pred, gt in zip(segments_from_labels(shifted_clips), segments_from_labels(gt_clips),
                            strict=True):
            assert _iou(pred, gt) >= k / 100.0
        gt = {"v": segments_from_labels(np.repeat(gt_clips, n))}
        perfect = evaluation.evaluate({"v": 0.1 + 0.8 * gt_clips}, gt, n, ks=(k,))
        shifted = evaluation.evaluate({"v": 0.1 + 0.8 * shifted_clips}, gt, n, ks=(k,))
        assert perfect.frame_auc == 1.0
        assert shifted.scopes == perfect.scopes
        assert shifted.frame_auc < perfect.frame_auc

    @given(false_positive_insertions())
    @settings(max_examples=150)
    def test_short_false_positives_cost_precision_not_auc(self, case):
        k, n, gt_clips, scores, inserted, count = case
        gt_frames = np.repeat(gt_clips, n)
        tp, fp, fn = evaluation.match_counts(segments_from_labels(np.repeat(scores >= 0.5, n)),
                                             segments_from_labels(gt_frames), k, "abnormal")
        gt = {"v": segments_from_labels(gt_frames)}
        before = evaluation.evaluate({"v": scores}, gt, n, ks=(k,))
        after = evaluation.evaluate({"v": inserted}, gt, n, ks=(k,))
        precision, recall, _ = after.scopes["abnormal"][k]
        assert precision == 100.0 * tp / (tp + fp + count)
        assert recall == before.scopes["abnormal"][k][1]
        share = count * n / np.count_nonzero(gt_frames == 0)
        assert abs(after.frame_auc - before.frame_auc) <= share + 1e-12

    def test_readme_names_only_tests_that_exist(self):
        # every test_*.py::Name[::name] of the README, with or without the
        # tests/ prefix, the claims table's two among them
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("\n## The abstract's claims\n", 1)[1].split("\n## ", 1)[0]
        node = r"\b(test_\w+)\.py::(\w+)(?:::(\w+))?"
        assert len(re.findall(node, table)) == 2
        for reference in re.finditer(node, readme):
            module, *names = reference.groups()
            target = importlib.import_module(module)
            for name in filter(None, names):
                assert hasattr(target, name), f"README names {reference[0]}"
                target = getattr(target, name)
