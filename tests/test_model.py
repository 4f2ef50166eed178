import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnet import model, synth, training, windowing
from adnet.model import ADNetConfig
from adnet.numerics import Tape
from adnet.windowing import Window

from _oracles import masked_forward, padded_windows


def locality_radius(num_stages: int, num_layers: int, kernel_size: int) -> int:
    """Farthest |t - t'| through which input column t can influence output
    column t': (K//2) * (2**L - 1) per stage, and stages chain additively."""
    per_stage = (kernel_size // 2) * ((1 << num_layers) - 1)
    return num_stages * per_stage


def small_config(**overrides):
    base = dict(window_width=8, num_stages=2, num_layers=3, input_dim=4,
                hidden_channels=8)
    base.update(overrides)
    return ADNetConfig(**base)


def random_window(rng, config, real=None):
    width = config.window_width
    real = width if real is None else real
    feats = np.zeros((config.input_dim, width))
    feats[:, :real] = rng.normal(size=(config.input_dim, real))
    mask = np.zeros(width)
    mask[:real] = 1.0
    return Window(features=feats, mask=mask, video_id="test", start_clip=0)


class TestMaxLayers:
    @pytest.mark.parametrize("width,expected", [(64, 6), (32, 5), (128, 7)])
    def test_published_configurations(self, width, expected):
        assert model.max_layers(width, 3) == expected

    def test_wider_kernel(self):
        assert model.max_layers(64, 5) == 5  # ceil(log2(64 / 2))


class TestConfig:
    def test_limit_layers_accepted(self):
        cfg = ADNetConfig(window_width=64, num_stages=5, num_layers=6, input_dim=8)
        assert cfg.num_layers == 6


class TestBuild:
    def test_deterministic(self):
        cfg = small_config()
        first = model.build(cfg, seed=7)
        second = model.build(cfg, seed=7)
        for name in first.tensors:
            assert np.array_equal(first.tensors[name].value, second.tensors[name].value)

    def test_seed_changes_values(self):
        cfg = small_config()
        a = model.build(cfg, seed=1).tensors["stage0.proj.weight"].value
        b = model.build(cfg, seed=2).tensors["stage0.proj.weight"].value
        assert not np.array_equal(a, b)

    def test_shapes_are_config_function(self):
        cfg = ADNetConfig(window_width=64, num_stages=5, num_layers=6, input_dim=12)
        shapes = model.parameter_shapes(cfg)
        assert shapes["stage0.proj.weight"] == (64, 12)
        assert shapes["stage1.proj.weight"] == (64, 1)  # later stages read 1 channel
        assert shapes["stage4.block5.dilated.weight"] == (64, 64, 3)
        assert shapes["stage4.head.weight"] == (1, 64)
        built = model.build(cfg, seed=0)
        assert {n: t.value.shape for n, t in built.tensors.items()} == shapes
        assert shapes == model.parameter_shapes(cfg)  # pure function

    def test_initialization_bounds(self):
        cfg = small_config()
        params = model.build(cfg, seed=3)
        weight = params.tensors["stage0.block0.dilated.weight"].value
        bound = 1.0 / np.sqrt(8 * 3)
        assert np.all(np.abs(weight) <= bound)


class TestForward:
    def test_all_zero_mask_gives_zero_scores(self):
        cfg = small_config()
        params = model.build(cfg, seed=0)
        rng = np.random.default_rng(0)
        window = Window(features=rng.normal(size=(4, 8)), mask=np.zeros(8),
                        video_id="t", start_clip=0)
        for stage_scores in model.forward(params, window):
            assert np.array_equal(stage_scores.value, np.zeros((1, 8)))

    def test_scores_bounded(self):
        cfg = small_config()
        params = model.build(cfg, seed=1)
        rng = np.random.default_rng(1)
        window = random_window(rng, cfg, real=5)
        for stage_scores in model.forward(params, window):
            assert np.all(stage_scores.value >= 0.0)
            assert np.all(stage_scores.value <= 1.0)

    def test_mask_opacity(self):
        # perturbing masked columns never changes unmasked outputs
        cfg = small_config()
        params = model.build(cfg, seed=2)
        rng = np.random.default_rng(2)
        window = random_window(rng, cfg, real=5)
        baseline = [s.value.copy() for s in model.forward(params, window)]
        perturbed_feats = window.features.copy()
        perturbed_feats[:, 5:] = rng.normal(size=(4, 3)) * 100.0
        perturbed = Window(features=perturbed_feats, mask=window.mask,
                           video_id="t", start_clip=0)
        for base, new in zip(baseline, model.forward(params, perturbed)):
            assert np.array_equal(base[:, :5], new.value[:, :5])

    def test_stage_truncation_is_bit_exact(self):
        cfg = small_config(num_stages=3)
        params = model.build(cfg, seed=4)
        rng = np.random.default_rng(4)
        window = random_window(rng, cfg, real=7)
        full = model.forward(params, window)
        short_cfg = small_config(num_stages=2)
        # the first stages lead the parameter vector, so they are its prefix
        size = sum(t.value.size for name, t in params.tensors.items()
                   if not name.startswith("stage2."))
        short = model.forward(model.ModelParams(short_cfg, params.flat[:size]), window)
        assert len(full) == 3 and len(short) == 2
        for a, b in zip(full, short):
            assert np.array_equal(a.value, b.value)

    def test_locality_radius(self):
        # an input column cannot reach outputs beyond the stacked dilation span
        cfg = ADNetConfig(window_width=32, num_stages=2, num_layers=3,
                          input_dim=3, hidden_channels=6)
        params = model.build(cfg, seed=5)
        rng = np.random.default_rng(5)
        window = random_window(rng, cfg)
        base = model.forward(params, window)
        feats = window.features.copy()
        feats[:, 0] += 10.0
        moved = model.forward(params, Window(features=feats, mask=window.mask,
                                             video_id="t", start_clip=0))
        per_stage = locality_radius(1, cfg.num_layers, cfg.kernel_size)
        assert per_stage == 7  # dilations 1+2+4, one tap each side
        for stage, (a, b) in enumerate(zip(base, moved)):
            radius = per_stage * (stage + 1)
            assert np.array_equal(a.value[:, radius + 1:], b.value[:, radius + 1:])
            # the boundary column itself is reached, pinning the 2^l schedule
            assert not np.array_equal(a.value[:, radius], b.value[:, radius])
        # published bound: at most 2*(2^L - 1)*(K//2) for this two-stage stack
        assert locality_radius(2, cfg.num_layers, cfg.kernel_size) == 14


class TestForwardOracle:
    @pytest.mark.parametrize("differentiate", [False, True])
    @pytest.mark.parametrize("real", [8, 5])
    def test_equals_taped_reference(self, real, differentiate):
        # model.forward skips the mask on a window without padding, and
        # model.backward writes each gradient once; scores and parameter
        # gradients must equal the taped ops masking every window, bit for bit
        cfg = small_config()
        rng = np.random.default_rng(12)
        window = random_window(rng, cfg, real=real)
        targets = (rng.random(cfg.window_width) < 0.5).astype(float)
        train_cfg = training.TrainConfig()

        params = model.build(cfg, seed=12)
        saved = []
        outputs = model.forward(params, window, saved)
        scores = [stage.value for stage in outputs]
        value, mse, ad, score_grads = training.window_loss(scores, targets, window.mask,
                                                           train_cfg)
        grads = params.gradients()
        model.backward(params, saved, score_grads, grads)

        reference = model.build(cfg, seed=12)
        tape = Tape() if differentiate else None
        want = masked_forward(reference, window, tape)
        assert len(scores) == len(want) == cfg.num_stages
        assert all(np.array_equal(a, b.value) for a, b in zip(scores, want))
        if differentiate:
            loss = training.total_loss(want, targets, window.mask, train_cfg, tape)
            assert (value, mse, ad) == (float(loss.total.value), loss.mse, loss.ad)
            tape.backward(loss.total)
            for name, tensor in reference.tensors.items():
                assert np.array_equal(grads[name], tensor.grad), name


class TestGolden:
    def test_forward_matches_recorded_scores(self):
        # frozen from the first build that passed the gradient and masking
        # suites (seed 42, see GOLDEN_* below)
        cfg = small_config()
        params = model.build(cfg, seed=42)
        rng = np.random.default_rng(42)
        window = random_window(rng, cfg, real=6)
        outputs = model.forward(params, window, [])
        np.testing.assert_allclose(outputs[0].value.ravel(), GOLDEN_STAGE0, atol=1e-12)
        np.testing.assert_allclose(outputs[1].value.ravel(), GOLDEN_STAGE1, atol=1e-12)
        # the scoring forward runs in float32, whose values carry about 7
        # digits; masked columns stay exactly 0
        scored = model.forward(params, window)
        np.testing.assert_allclose(scored[0].value.ravel(), GOLDEN_STAGE0, rtol=0, atol=1e-6)
        np.testing.assert_allclose(scored[1].value.ravel(), GOLDEN_STAGE1, rtol=0, atol=1e-6)
        assert not scored[1].value.ravel()[6:].any()


class TestScoringPrecision:
    def test_float32_scores_of_a_trained_model_stay_within_1e_6(self):
        # the default geometry, trained for 3 epochs: score_sequence, which
        # computes in float32, against the float64 training forward merged
        # the same way (over the README round trip the largest difference
        # is 8.7e-8)
        corpus = synth.generate(synth.SynthConfig(num_videos=6, clips_min=40, clips_max=150,
                                                  seed=5))
        dataset = [(video.features.features, video.clip_labels) for video in corpus[:3]]
        cfg = ADNetConfig(input_dim=16)
        params = training.train(dataset, cfg, training.TrainConfig(seed=5, epochs=3)).params
        for video in corpus[3:]:
            features = video.features.features
            windows = windowing.materialize(features, "", cfg.window_width)
            exact = windowing.merge_scores(
                [(window.start_clip, window.mask,
                  model.forward(params, window, [])[-1].value.ravel()) for window in windows],
                features.shape[1])
            scores = model.score_sequence(params, features)
            assert 0 < np.max(np.abs(scores - exact)) <= 1e-6


class TestPredictLabels:
    def test_basic_thresholding(self):
        np.testing.assert_array_equal(
            model.predict_labels([0.2, 0.7], 0.5), [0, 1])

    def test_tie_counts_as_abnormal(self):
        np.testing.assert_array_equal(model.predict_labels([0.5], 0.5), [1])

    def test_high_threshold(self):
        np.testing.assert_array_equal(model.predict_labels([0.7], 0.9), [0])


class TestScoreSequence:
    def test_single_clip_sequence(self):
        cfg = small_config()
        params = model.build(cfg, seed=6)
        scores = model.score_sequence(params, np.random.default_rng(6).normal(size=(4, 1)))
        assert scores.shape == (1,)
        assert 0.0 <= scores[0] <= 1.0

    def test_matches_manual_merge_for_exact_window(self):
        cfg = small_config()
        params = model.build(cfg, seed=7)
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(4, 8))
        window = Window(features=feats, mask=np.ones(8), video_id="t", start_clip=0)
        direct = model.forward(params, window)[-1].value.ravel()
        np.testing.assert_array_equal(model.score_sequence(params, feats), direct)


@st.composite
def stack_cases(draw):
    """A random model and a clip count T whose plan has a drawn number of
    windows: 1, around one and two blocks, 15 to 17, or any count up to
    past two blocks, its last window padded or exactly full."""
    width = draw(st.sampled_from([2, 8, 10, 32, 64]))
    config = ADNetConfig(window_width=width, num_stages=draw(st.integers(1, 3)),
                         num_layers=draw(st.integers(1, model.max_layers(width, 3))),
                         input_dim=draw(st.integers(1, 5)),
                         hidden_channels=draw(st.integers(1, 16)))
    block = model.BLOCK
    count = draw(st.one_of(st.sampled_from([1, block - 1, block, block + 1, 15, 16, 17,
                                            2 * block, 2 * block + 1]),
                           st.integers(1, max(2 * block, 17) + 3)))
    stride = width // 2
    # the plan has count windows iff T lies in (this low, this high]
    low = 0 if count == 1 else stride * (count - 2) + width
    high = stride * (count - 1) + width
    total = draw(st.one_of(st.just(high), st.integers(low + 1, high)))
    return config, total, draw(st.integers(0, 2**32 - 1))


class TestStackedForward:
    @given(stack_cases())
    @settings(max_examples=60, deadline=None)
    def test_score_sequence_equals_window_by_window(self, case):
        # score_sequence runs BLOCK windows per forward; every score must be
        # what one forward per window and merge_scores give, bit for bit
        config, total, seed = case
        params = model.build(config, seed=seed % 1000)
        features = np.random.default_rng(seed).normal(size=(config.input_dim, total))
        scored = [(window.start_clip, window.mask, model.forward(params, window)[-1].value.ravel())
                  for window in windowing.materialize(features, "", config.window_width)]
        expected = windowing.merge_scores(scored, total)
        assert model.score_sequence(params, features).tobytes() == expected.tobytes()

    @given(st.sampled_from([8, 32]), st.sampled_from(["one", "half", "width", "width+1", "long"]),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scores_do_not_depend_on_the_feature_dtype(self, width, length, dtype, seed):
        # the stack is where the windows become float32, so float32
        # features, their float64 copy and a zero-padded float64 copy per
        # window all score the same bits
        config = small_config(window_width=width, num_layers=3, input_dim=5)
        total = {"one": 1, "half": width // 2, "width": width, "width+1": width + 1,
                 "long": 7 * width // 2 + 3}[length]
        params = model.build(config, seed=seed % 1000)
        features = np.random.default_rng(seed).normal(size=(5, total)).astype(dtype)
        other = features.astype(np.float64 if dtype == np.float32 else np.float32)
        scored = [(window.start_clip, window.mask, model.forward(params, window)[-1].value.ravel())
                  for window in padded_windows(features, width)]
        expected = windowing.merge_scores(scored, total).tobytes()
        assert model.score_sequence(params, features).tobytes() == expected
        assert model.score_sequence(params, other).tobytes() == expected

    @pytest.mark.parametrize("reals", [[8, 8, 8], [5, 8, 0, 8, 1], [3], [8], [2, 7, 4]])
    def test_every_stage_equals_each_window_alone(self, reals):
        # padded and unpadded windows in one stack, and stacks with no
        # padding at all, which skip the mask
        cfg = small_config(num_stages=3)
        params = model.build(cfg, seed=9)
        rng = np.random.default_rng(len(reals))
        windows = [random_window(rng, cfg, real=real) for real in reals]
        stacked = model.forward(params, windows)
        assert len(stacked) == cfg.num_stages
        for stage, scores in enumerate(stacked):
            assert scores.value.shape == (len(reals), 1, cfg.window_width)
            for index, window in enumerate(windows):
                alone = model.forward(params, window)[stage].value
                assert scores.value[index].tobytes() == alone.tobytes(), (stage, index)


GOLDEN_STAGE0 = np.array([
    0.41101609335148687, 0.46358964792094576, 0.4202165409679855,
    0.32934392211725755, 0.3839378245139436, 0.3360556062722871, 0.0, 0.0])
GOLDEN_STAGE1 = np.array([
    0.6973995422494882, 0.704664990110157, 0.6958068448946606,
    0.7040572480853371, 0.7010799165365053, 0.6806166984170106, 0.0, 0.0])
