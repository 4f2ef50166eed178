import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnet import windowing


class TestPlanWindows:
    @pytest.mark.parametrize("calls", [
        pytest.param([(64, 64, [(0, 64)])], id="exact fit gives single window"),
        pytest.param([(96, 64, [(0, 64), (32, 96)])], id="two windows"),
        pytest.param([(100, 64, [(0, 64), (32, 96), (64, 128)])], id="three windows with padding"),
        pytest.param([(1, 64, [(0, 64)]), (20, 32, [(0, 32)])], id="short sequence single window"),
    ])
    def test_examples(self, calls):
        for num_clips, width, plan in calls:
            assert windowing.plan_windows(num_clips, width) == plan

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
    @pytest.mark.parametrize("feats,width,count,index,start,real", [
        pytest.param(np.arange(8.0).reshape(2, 4), 8, 1, 0, 0, 4, id="padding and mask"),
        pytest.param(np.random.default_rng(0).normal(size=(3, 96)), 64, 2, 1, 32, 64,
                     id="second window full"),
        pytest.param(np.random.default_rng(1).normal(size=(3, 100)), 64, 3, -1, 64, 36,
                     id="tail window padded"),
    ])
    def test_examples(self, feats, width, count, index, start, real):
        windows = windowing.materialize(feats, "v", width)
        assert len(windows) == count
        window = windows[index]
        assert window.video_id == "v" and window.start_clip == start
        np.testing.assert_array_equal(window.mask, np.arange(width) < real)
        np.testing.assert_array_equal(window.features[:, :real], feats[:, start:start + real])
        np.testing.assert_array_equal(window.features[:, real:],
                                      np.zeros((len(feats), width - real)))

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


def planned_pieces(num_clips, width, value):
    """merge_scores' (start, mask, scores) of each planned window: the mask
    over its real clips, the scores value(index) throughout."""
    pieces = []
    for index, (start, end) in enumerate(windowing.plan_windows(num_clips, width)):
        mask = np.zeros(width)
        mask[:min(end, num_clips) - start] = 1
        pieces.append((start, mask, np.full(width, value(index))))
    return pieces


class TestMergeScores:
    # tol: assert_allclose's bounds; rtol 0 is exact, 1e-7 its default
    @pytest.mark.parametrize("pieces,num_clips,expected,tol", [
        pytest.param([(0, np.ones(16), np.linspace(0.1, 0.9, 16))], 16,
                     np.linspace(0.1, 0.9, 16), {"rtol": 0}, id="single window identity"),
        pytest.param([(0, np.ones(64), np.full(64, 0.2)), (32, np.ones(64), np.full(64, 0.4))],
                     96, np.repeat([0.2, 0.3, 0.4], 32), {"rtol": 1e-7}, id="two window average"),
        # window 0 alone, windows 0 and 1, windows 1 and 2, window 2 alone
        pytest.param(planned_pieces(100, 64, float), 100,
                     np.repeat([0.0, 0.5, 1.5, 2.0], [32, 32, 32, 4]), {"rtol": 1e-7},
                     id="three window coverage counts"),
        pytest.param([(0, np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.5, 0.5, 99.0, 99.0]))],
                     2, [0.5, 0.5], {"rtol": 0}, id="padded positions never contribute"),
    ])
    def test_examples(self, pieces, num_clips, expected, tol):
        np.testing.assert_allclose(windowing.merge_scores(pieces, num_clips), expected, **tol)

    @given(num_clips=st.integers(1, 300), width=st.sampled_from([4, 16, 64]),
           constant=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100)
    def test_merge_of_constant_is_constant(self, num_clips, width, constant):
        merged = windowing.merge_scores(
            planned_pieces(num_clips, width, lambda _: constant), num_clips)
        assert merged.shape == (num_clips,)
        assert np.all(np.abs(merged - constant) <= 1e-15)
