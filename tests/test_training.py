import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adnet import io as storage
from adnet import kernels, model, numerics, synth, training
from adnet.evaluation import TemporalSegment, segments_from_labels
from adnet.numerics import Tape, Tensor
from adnet.training import TrainConfig
from adnet.windowing import Window

from _gradcheck import end_to_end_gradient_error, gradient_draw
from _oracles import clip_labels_per_frame, frame_labels, masked_forward


@st.composite
def clip_timelines(draw):
    """(segments, frames per clip, clip count) of a video whose last clip
    covers 1 to n frames, its segment boundaries anywhere, inside clips
    too, and neighbouring segments possibly of one label."""
    n = draw(st.integers(1, 32))
    clips = draw(st.integers(1, 12))
    frames = n * (clips - 1) + draw(st.integers(1, n))
    cuts = draw(st.sets(st.integers(1, frames - 1), max_size=8)) if frames > 1 else set()
    bounds = [0, *sorted(cuts), frames]
    return ([TemporalSegment(a, b, draw(st.integers(0, 1)))
             for a, b in zip(bounds, bounds[1:])], n, clips)


class TestClipLabels:
    def test_all_abnormal(self):
        labels = training.clip_labels(segments_from_labels(np.ones(48, dtype=int)), 16, 3)
        np.testing.assert_array_equal(labels, [1, 1, 1])

    def test_boundary_fraction_is_abnormal(self):
        frames = np.zeros(16, dtype=int)
        frames[:8] = 1  # exactly half
        assert training.clip_labels(segments_from_labels(frames), 16, 1)[0] == 1

    def test_below_fraction_is_normal(self):
        frames = np.zeros(16, dtype=int)
        frames[:7] = 1
        assert training.clip_labels(segments_from_labels(frames), 16, 1)[0] == 0

    def test_short_tail_clip(self):
        frames = np.array([0] * 16 + [1] * 5)  # tail clip has 5 frames, all abnormal
        np.testing.assert_array_equal(
            training.clip_labels(segments_from_labels(frames), 16, 2), [0, 1])

    @given(clip_timelines(), st.sampled_from([1 / 3, 0.5, 1.0]))
    @settings(max_examples=300)
    # exact ties: 2 of 6 frames at 1/3, 2 of 4 at 0.5, 3 of 3 at 1.0
    @example(([TemporalSegment(0, 2, 1), TemporalSegment(2, 7, 0)], 6, 2), 1 / 3)
    @example(([TemporalSegment(0, 2, 0), TemporalSegment(2, 5, 1)], 4, 2), 0.5)
    @example(([TemporalSegment(0, 3, 1), TemporalSegment(3, 4, 0)], 3, 2), 1.0)
    # a one-frame last clip, abnormal and normal
    @example(([TemporalSegment(0, 16, 0), TemporalSegment(16, 17, 1)], 16, 2), 0.5)
    @example(([TemporalSegment(0, 16, 1), TemporalSegment(16, 17, 0)], 16, 2), 1 / 3)
    def test_equals_per_clip_loop(self, timeline, fraction):
        segments, n, clips = timeline
        np.testing.assert_array_equal(
            training.clip_labels(segments, n, clips, fraction),
            clip_labels_per_frame(frame_labels(segments), n, fraction))


class TestMseLoss:
    def test_perfect_scores(self):
        scores = Tensor(np.array([[0.0, 1.0, 1.0]]))
        out = training.mse_loss(scores, [0, 1, 1], [1, 1, 1])
        assert float(out.value) == 0.0

    def test_half_half(self):
        scores = Tensor(np.array([[0.5, 0.5]]))
        out = training.mse_loss(scores, [0, 1], [1, 1])
        assert float(out.value) == 0.25

    def test_masked_position_excluded(self):
        scores = Tensor(np.array([[0.5, 9.0]]))
        out = training.mse_loss(scores, [0, 0], [1, 0])
        assert float(out.value) == 0.25

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_masked_entries_never_matter(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        mask = np.zeros(n)
        mask[:int(rng.integers(1, n))] = 1
        scores = rng.random(n)
        targets = rng.integers(0, 2, size=n).astype(float)
        base = float(training.mse_loss(Tensor(scores[None]), targets, mask).value)
        scores2 = scores.copy()
        targets2 = targets.copy()
        scores2[mask == 0] = rng.random((mask == 0).sum())
        targets2[mask == 0] = rng.integers(0, 2, size=(mask == 0).sum())
        again = float(training.mse_loss(Tensor(scores2[None]), targets2, mask).value)
        assert base == again


class TestAdLoss:
    def test_single_class_window_is_zero(self):
        out = training.ad_loss(Tensor(np.array([[0.9, 0.1]])), [0, 0], [1, 1], 0.5)
        assert float(out.value) == 0.0

    def test_zero_when_margins_nonnegative(self):
        # abnormal at 0.95/0.9, normal at 0.1: margins are >= 0 => hinge at 0
        scores = Tensor(np.array([[0.95, 0.9, 0.1]]))
        out = training.ad_loss(scores, [1, 1, 0], [1, 1, 1], 0.5)
        assert float(out.value) == 0.0

    def test_hard_pair_selection(self):
        # abnormal 0.6 pairs with normal 0.55 (not 0.1); normal 0.55 pairs
        # with abnormal 0.6; normal 0.1's hard abnormal is also 0.6
        scores = Tensor(np.array([[0.6, 0.55, 0.1]]))
        targets = [1, 0, 0]
        out = training.ad_loss(scores, targets, [1, 1, 1], 0.5)
        m_abn = (0.6 - 0.55) - 0.5
        m_nrm = ((0.6 - 0.55 - 0.5) + (0.6 - 0.1 - 0.5)) / 2.0
        assert float(out.value) == pytest.approx(max(-(m_abn + m_nrm), 0.0), abs=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        scores = rng.random(n)
        targets = rng.integers(0, 2, size=n)
        base = float(training.ad_loss(Tensor(scores[None]), targets, np.ones(n), 0.5).value)
        perm = rng.permutation(n)
        shuffled = float(training.ad_loss(
            Tensor(scores[perm][None]), targets[perm], np.ones(n), 0.5).value)
        assert base == pytest.approx(shuffled, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_masked_entries_never_matter(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        mask = np.zeros(n)
        mask[:int(rng.integers(1, n))] = 1
        scores = rng.random(n)
        targets = rng.integers(0, 2, size=n)
        base = float(training.ad_loss(Tensor(scores[None]), targets, mask, 0.5).value)
        scores2 = scores.copy()
        scores2[mask == 0] = rng.random((mask == 0).sum())
        again = float(training.ad_loss(Tensor(scores2[None]), targets, mask, 0.5).value)
        assert base == again


class TestLossGradients:
    # absolute tolerance, where the per-op table bounds the error relative
    # to the gradient scale
    @pytest.mark.parametrize("seed", range(10))
    def test_mse_matches_finite_differences(self, seed):
        analytic, numeric = gradient_draw("mse_loss", seed)
        np.testing.assert_allclose(analytic[0], numeric[0], atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_ad_matches_finite_differences(self, seed):
        analytic, numeric = gradient_draw("ad_loss", 100 + seed)
        np.testing.assert_allclose(analytic[0], numeric[0], atol=1e-8)


class TestTotalLoss:
    def test_perfect_single_stage(self):
        scores = [Tensor(np.array([[0.0, 1.0]]))]
        loss = training.total_loss(scores, [0, 1], [1, 1], TrainConfig(seed=0))
        assert float(loss.total.value) == 0.0

    def test_stage_summation(self):
        # three identical stages, each contributing 0.2
        value = np.sqrt(0.2)
        stage = Tensor(np.full((1, 5), value))
        targets = np.zeros(5)
        cfg = TrainConfig(seed=0, use_ad_loss=False)
        loss = training.total_loss([stage] * 3, targets, np.ones(5), cfg)
        assert float(loss.total.value) == pytest.approx(0.6, abs=1e-12)

    def test_ad_term_disabled(self):
        scores = Tensor(np.array([[0.5, 0.5]]))
        cfg = TrainConfig(seed=0, use_ad_loss=False)
        loss = training.total_loss([scores], [1, 0], np.ones(2), cfg)
        assert float(loss.total.value) == 0.25


class TestEndToEndGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_network_gradient(self, seed):
        assert end_to_end_gradient_error(seed) <= 1e-3


def separable_dataset(num_videos=8, seed=7):
    cfg = synth.SynthConfig(num_videos=num_videos, clips_min=32, clips_max=64,
                            input_dim=8, seed=seed)
    return [(v.features.features, v.clip_labels) for v in synth.generate(cfg)]


SMALL_MODEL = dict(window_width=32, num_stages=1, num_layers=5, input_dim=8,
                   hidden_channels=16)


class TestTrain:
    def test_deterministic_given_seed(self):
        dataset = separable_dataset(num_videos=3)
        cfg = model.ADNetConfig(**SMALL_MODEL)
        tc = TrainConfig(seed=11, epochs=2)
        first = training.train(dataset, cfg, tc)
        second = training.train(dataset, cfg, tc)
        for name in first.params.tensors:
            assert np.array_equal(first.params.tensors[name].value,
                                  second.params.tensors[name].value)
        assert first.log == second.log

    def test_float32_features_train_as_their_float64_copy(self):
        # the training stack widens float32 windows to float64 exactly
        single = [(features.astype(np.float32), labels)
                  for features, labels in separable_dataset(num_videos=3)]
        double = [(features.astype(np.float64), labels) for features, labels in single]
        cfg = model.ADNetConfig(**SMALL_MODEL)
        first = training.train(single, cfg, TrainConfig(seed=3, epochs=2))
        second = training.train(double, cfg, TrainConfig(seed=3, epochs=2))
        assert first.params.flat.tobytes() == second.params.flat.tobytes()
        assert first.adam.second_moment.tobytes() == second.adam.second_moment.tobytes()
        assert first.log == second.log

    def test_resume_matches_uninterrupted_run(self):
        dataset = separable_dataset(num_videos=3)
        cfg = model.ADNetConfig(**SMALL_MODEL)
        full = training.train(dataset, cfg, TrainConfig(seed=5, epochs=4))
        half = training.train(dataset, cfg, TrainConfig(seed=5, epochs=2))
        resumed = training.train(dataset, cfg, TrainConfig(seed=5, epochs=2),
                                 resume=half)
        assert resumed.epochs_completed == 4
        assert [e.epoch for e in resumed.log] == [0, 1, 2, 3]
        for name in full.params.tensors:
            assert np.array_equal(full.params.tensors[name].value,
                                  resumed.params.tensors[name].value)

    def test_learns_separable_data(self):
        dataset = separable_dataset()
        result = training.train(dataset, model.ADNetConfig(**SMALL_MODEL),
                                TrainConfig(seed=7, epochs=30))
        assert result.log[-1].mean_total < 0.05
        # loss is non-increasing after epoch 5, within SGD noise
        totals = [e.mean_total for e in result.log]
        for earlier, later in zip(totals[5:], totals[6:]):
            assert later <= earlier + 1e-3

    def test_epoch_log_structure(self):
        dataset = separable_dataset(num_videos=2)
        result = training.train(dataset, model.ADNetConfig(**SMALL_MODEL),
                                TrainConfig(seed=1, epochs=3))
        assert [entry.epoch for entry in result.log] == [0, 1, 2]
        assert result.epochs_completed == 3


class TestArena:
    def test_parameters_and_gradients_stay_in_one_vector_each(self, monkeypatch):
        dataset = separable_dataset(num_videos=2)
        cfg = model.ADNetConfig(**SMALL_MODEL)
        steps = []
        adam_step = numerics.adam_step

        def spy(params, state):
            steps.append((params.flat, params.grad, state.first_moment, state.second_moment))
            adam_step(params, state)

        monkeypatch.setattr(numerics, "adam_step", spy)
        result = training.train(dataset, cfg, TrainConfig(seed=2, epochs=2))
        assert len(steps) == 2 * len(training._window_items(dataset, cfg)[0])
        vectors = steps[0]
        assert all(a is b for step in steps for a, b in zip(step, vectors))
        flat, grad = result.params.flat, result.params.grad
        assert (flat, grad) == vectors[:2] and flat.size == grad.size
        offset = 0
        for (name, tensor), view in zip(result.params.tensors.items(),
                                        result.params.gradients().values()):
            assert tensor.value.ctypes.data == flat.ctypes.data + 8 * offset, name
            assert view.ctypes.data == grad.ctypes.data + 8 * offset, name
            offset += tensor.value.size
        assert offset == flat.size

    def test_resume_adopts_the_checkpoint_buffer(self, tmp_path):
        dataset = separable_dataset(num_videos=2)
        cfg = model.ADNetConfig(**SMALL_MODEL)
        first = training.train(dataset, cfg, TrainConfig(seed=2, epochs=1))
        path = tmp_path / "model.adnc"
        storage.save_checkpoint(storage.Checkpoint(
            model_config=cfg, train_config=TrainConfig(seed=2), seed=2, frames_per_clip=16,
            epochs_completed=1, params=first.params, adam=first.adam), path)
        ckpt = storage.load_checkpoint(path)
        loaded = (ckpt.params.flat, ckpt.adam.first_moment, ckpt.adam.second_moment)
        resumed = training.train(dataset, cfg, TrainConfig(seed=2, epochs=1),
                                 resume=training.TrainResult(ckpt.params, ckpt.adam, 1, []))
        assert (resumed.params.flat, resumed.adam.first_moment,
                resumed.adam.second_moment) == loaded
        assert all(a is b for a, b in zip(loaded, (resumed.params.flat,
                                                   resumed.adam.first_moment,
                                                   resumed.adam.second_moment)))


class TestScoreCheck:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_activation_bound_covers_every_activation(self, seed):
        # weights scaled by up to 1e100: the bound must cover every value of
        # the taped forward, or be inf, never fall short of a value that is
        # NaN or infinite
        rng = np.random.default_rng(seed)
        width = int(rng.choice([4, 8]))
        cfg = model.ADNetConfig(
            window_width=width, num_stages=int(rng.integers(1, 4)),
            num_layers=int(rng.integers(1, model.max_layers(width, 3) + 1)),
            input_dim=int(rng.integers(1, 5)), hidden_channels=int(rng.integers(1, 7)))
        params = model.build(cfg, seed=int(rng.integers(1000)))
        for tensor in params:
            tensor.value *= 10.0 ** rng.uniform(0, 100) * rng.choice([-1, 1])
        real = int(rng.integers(1, width + 1))
        features = np.zeros((cfg.input_dim, width))
        features[:, :real] = rng.normal(size=(cfg.input_dim, real)) * 10.0 ** rng.uniform(-3, 3)
        mask = np.zeros(width)
        mask[:real] = 1.0
        tape = Tape()
        with np.errstate(all="ignore"):
            masked_forward(params, Window(features, mask, "b", 0), tape)
        values = np.concatenate([output.value.ravel() for output, _ in tape._steps])
        bound = model.activation_bound(params, float(np.abs(features).max()))
        assert bound == math.inf or np.all(np.abs(values) <= bound)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_activation_bound_covers_every_float32_value(self, seed):
        # weights scaled by up to 1e13, on either side of float32's range:
        # every conv input and output and every head output of the scoring
        # forward must lie within the bound, so a bound within float32's
        # range leaves every score finite
        rng = np.random.default_rng(seed)
        width = int(rng.choice([4, 8]))
        cfg = model.ADNetConfig(
            window_width=width, num_stages=int(rng.integers(1, 4)),
            num_layers=int(rng.integers(1, model.max_layers(width, 3) + 1)),
            input_dim=int(rng.integers(1, 5)), hidden_channels=int(rng.integers(1, 17)))
        params = model.build(cfg, seed=int(rng.integers(1000)))
        for tensor in params:
            tensor.value *= 10.0 ** rng.uniform(0, 13) * rng.choice([-1, 1])
        features = rng.normal(size=(cfg.input_dim, width)) * 10.0 ** rng.uniform(-3, 3)
        bound = model.activation_bound(params, float(np.abs(features).max()))
        values = []
        conv, logistic = kernels.conv1d_dilated_fwd, numerics.logistic

        def recorded_conv(x, *args):
            values.extend([x, conv(x, *args)])
            return values[-1]

        def recorded_logistic(v):
            values.append(v)
            return logistic(v)

        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(kernels, "conv1d_dilated_fwd", recorded_conv)
            patch.setattr(numerics, "logistic", recorded_logistic)
            scores = model.forward(params, Window(features, np.ones(width), "b", 0))
        assert all(value.dtype == np.float32 for value in values)
        if bound <= float(np.finfo(np.float32).max):
            assert all(np.all(np.abs(value) <= bound) for value in values)
            assert all(np.all(np.isfinite(stage.value)) for stage in scores)

    def test_bound_of_a_trained_model_skips_the_exact_forward(self, monkeypatch):
        dataset = separable_dataset(num_videos=2)
        cfg = model.ADNetConfig(**SMALL_MODEL)
        calls = []
        forward = model.forward

        def counted(*args):
            calls.append(len(args))  # 3 in a training step, 2 when only scoring
            return forward(*args)

        monkeypatch.setattr(model, "forward", counted)
        training.train(dataset, cfg, TrainConfig(seed=2, epochs=1))
        assert calls == [3] * len(training._window_items(dataset, cfg)[0])
