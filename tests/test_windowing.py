import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnet import windowing


class TestPlanWindows:
    def test_exact_fit_gives_single_window(self):
        assert windowing.plan_windows(64, 64) == [(0, 64)]

    def test_two_windows(self):
        assert windowing.plan_windows(96, 64) == [(0, 64), (32, 96)]

    def test_three_windows_with_padding(self):
        assert windowing.plan_windows(100, 64) == [(0, 64), (32, 96), (64, 128)]

    def test_short_sequence_single_window(self):
        assert windowing.plan_windows(1, 64) == [(0, 64)]
        assert windowing.plan_windows(20, 32) == [(0, 32)]

    @given(num_clips=st.integers(1, 500), width=st.sampled_from([4, 8, 32, 64]))
    @settings(max_examples=200)
    def test_plan_invariants(self, num_clips, width):
        plan = windowing.plan_windows(num_clips, width)
        stride = width // 2
        # start formula, half-stride overlap, and termination rule
        for i, (start, end) in enumerate(plan):
            assert start == stride * i
            assert end == start + width
            if i < len(plan) - 1:
                assert end < num_clips
        assert plan[-1][1] >= num_clips
        # closed-form window count
        if num_clips <= width:
            expected = 1
        else:
            expected = -(-(num_clips - width) // stride) + 1
        assert len(plan) == expected
        # every clip is covered by at least one and at most two windows
        coverage = np.zeros(num_clips, dtype=int)
        for start, end in plan:
            coverage[start:min(end, num_clips)] += 1
        assert coverage.min() >= 1
        assert coverage.max() <= 2


class TestMaterialize:
    def test_padding_and_mask(self):
        feats = np.arange(8.0).reshape(2, 4)
        windows = windowing.materialize(feats, "v", 8)
        assert len(windows) == 1
        win = windows[0]
        np.testing.assert_array_equal(win.mask, [1, 1, 1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(win.features[:, :4], feats)
        np.testing.assert_array_equal(win.features[:, 4:], np.zeros((2, 4)))
        assert win.video_id == "v" and win.start_clip == 0

    def test_second_window_full(self):
        feats = np.random.default_rng(0).normal(size=(3, 96))
        windows = windowing.materialize(feats, "v", 64)
        assert np.all(windows[1].mask == 1)
        np.testing.assert_array_equal(windows[1].features, feats[:, 32:96])

    def test_tail_window_padded(self):
        feats = np.random.default_rng(1).normal(size=(3, 100))
        windows = windowing.materialize(feats, "v", 64)
        tail = windows[-1]
        assert tail.start_clip == 64
        assert int(tail.mask.sum()) == 36
        np.testing.assert_array_equal(tail.features[:, 36:], np.zeros((3, 28)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_windows_are_read_only_views_into_one_buffer(self, dtype):
        # one padded copy of the features in their dtype, one mask vector,
        # and the caller's matrix is not among them
        feats = np.random.default_rng(2).normal(size=(3, 100)).astype(dtype)
        windows = windowing.materialize(feats, "v", 64)
        assert len(windows) == 3
        for before, after in zip(windows, windows[1:]):  # overlapping by half
            assert np.shares_memory(before.features, after.features)
            assert np.shares_memory(before.mask, after.mask)
        for window in windows:
            assert window.features.dtype == dtype and window.features.shape == (3, 64)
            assert window.mask.shape == (64,)
            assert window.features.base is windows[0].features.base
            assert window.mask.base is windows[0].mask.base
            assert not np.shares_memory(window.features, feats)
            assert not window.features.flags.writeable and not window.mask.flags.writeable
            real = int(window.mask.sum())
            np.testing.assert_array_equal(
                window.features[:, :real], feats[:, window.start_clip:window.start_clip + real])
            assert not window.features[:, real:].any()


class TestMergeScores:
    def test_single_window_identity(self):
        scores = np.linspace(0.1, 0.9, 16)
        merged = windowing.merge_scores([(0, np.ones(16), scores)], 16)
        np.testing.assert_array_equal(merged, scores)

    def test_two_window_average(self):
        a = np.full(64, 0.2)
        b = np.full(64, 0.4)
        merged = windowing.merge_scores(
            [(0, np.ones(64), a), (32, np.ones(64), b)], 96)
        np.testing.assert_allclose(merged[:32], 0.2)
        np.testing.assert_allclose(merged[32:64], 0.3)
        np.testing.assert_allclose(merged[64:], 0.4)

    def test_three_window_coverage_counts(self):
        plan = windowing.plan_windows(100, 64)
        per_window = []
        for index, (start, end) in enumerate(plan):
            real = min(end, 100) - start
            mask = np.zeros(64)
            mask[:real] = 1
            per_window.append((start, mask, np.full(64, float(index))))
        merged = windowing.merge_scores(per_window, 100)
        np.testing.assert_allclose(merged[:32], 0.0)
        np.testing.assert_allclose(merged[32:64], 0.5)   # windows 0 and 1
        np.testing.assert_allclose(merged[64:96], 1.5)   # windows 1 and 2
        np.testing.assert_allclose(merged[96:], 2.0)     # window 2 only

    @given(num_clips=st.integers(1, 300), width=st.sampled_from([4, 16, 64]),
           constant=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100)
    def test_merge_of_constant_is_constant(self, num_clips, width, constant):
        plan = windowing.plan_windows(num_clips, width)
        per_window = []
        for start, end in plan:
            real = min(end, num_clips) - start
            mask = np.zeros(width)
            mask[:real] = 1
            per_window.append((start, mask, np.full(width, constant)))
        merged = windowing.merge_scores(per_window, num_clips)
        assert merged.shape == (num_clips,)
        assert np.all(np.abs(merged - constant) <= 1e-15)

    def test_padded_positions_never_contribute(self):
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        scores = np.array([0.5, 0.5, 99.0, 99.0])
        merged = windowing.merge_scores([(0, mask, scores)], 2)
        np.testing.assert_array_equal(merged, [0.5, 0.5])
