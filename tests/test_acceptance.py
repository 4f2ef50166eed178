"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. Each test also enforces its wall-clock budget.
"""

import json
import time
from dataclasses import replace

import numpy as np

from adnet import evaluation, io as storage, model, synth, training
from adnet.numerics import Tensor
from adnet.training import TrainConfig
from adnet.windowing import Window, materialize, merge_scores, plan_windows

from _gradcheck import GRADIENT_CASES, end_to_end_gradient_error, gradient_draw, max_rel_error
from _inputs import round_trip, tree
from _oracles import (fragmented_prediction, optimal_counts, pairwise_auc, random_partition,
                      taped_train)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"{label} took {elapsed:.1f}s, budget {self.limit}s"
        return elapsed


def report(number, text, elapsed):
    print(f"\n[PASS] criterion {number}: {text} ({elapsed:.2f}s)")


def test_criterion_1_configuration_arithmetic():
    budget = Budget(1.0)
    assert model.max_layers(32, 3) == 5
    assert model.max_layers(64, 3) == 6
    assert model.max_layers(128, 3) == 7
    report(1, "max_layers reproduces the three published configurations exactly",
           budget.check("configuration arithmetic"))


def test_criterion_2_gradient_suite():
    budget = Budget(60.0)
    draws = 100
    for name in GRADIENT_CASES:
        worst = max(max_rel_error(*gradient_draw(name, seed)) for seed in range(draws))
        assert worst <= 1e-4, f"{name}: per-op gradient error {worst:.2e} > 1e-4"
    worst_full = max(end_to_end_gradient_error(seed) for seed in range(draws))
    assert worst_full <= 1e-3, f"end-to-end gradient error {worst_full:.2e} > 1e-3"
    report(2, f"gradients match finite differences over {draws} draws "
              f"(per-op <= 1e-4, end-to-end {worst_full:.1e} <= 1e-3)",
           budget.check("gradient suite"))


def test_criterion_3_masking_causality():
    budget = Budget(30.0)
    rng = np.random.default_rng(0)
    for trial in range(200):
        width = int(rng.choice([8, 16]))
        num_layers = int(rng.integers(1, model.max_layers(width, 3) + 1))
        cfg = model.ADNetConfig(window_width=width, num_stages=int(rng.integers(1, 3)),
                                num_layers=num_layers, input_dim=int(rng.integers(2, 6)),
                                hidden_channels=int(rng.integers(3, 9)))
        params = model.build(cfg, seed=trial)
        real = int(rng.integers(1, width))  # at least one masked column
        feats = np.zeros((cfg.input_dim, width))
        feats[:, :real] = rng.normal(size=(cfg.input_dim, real))
        mask = np.zeros(width)
        mask[:real] = 1
        base = model.forward(params, Window(feats, mask, "m", 0))
        perturbed = feats.copy()
        columns = rng.integers(real, width, size=max(1, (width - real) // 2))
        perturbed[:, columns] += rng.normal(size=(cfg.input_dim, columns.size)) * 50.0
        moved = model.forward(params, Window(perturbed, mask, "m", 0))
        for a, b in zip(base, moved):
            assert np.array_equal(a.value[:, :real], b.value[:, :real]), \
                f"masked perturbation leaked (trial {trial})"
    report(3, "200 random windows: masked-column perturbations leave unmasked "
              "outputs bit-identical", budget.check("masking causality"))


def test_criterion_4_windowing():
    budget = Budget(5.0)
    for width in (32, 64):
        stride = width // 2
        for total in (1, 20, 64, 96, 100, 257):
            plan = plan_windows(total, width)
            expected = 1 if total <= width else -(-(total - width) // stride) + 1
            assert len(plan) == expected
            assert plan[-1][1] >= total
            for i, (start, end) in enumerate(plan):
                assert start == stride * i and end == start + width
                if i + 1 < len(plan):
                    assert end < total
            feats = np.arange(3 * total, dtype=float).reshape(3, total)
            windows = materialize(feats, "v", width)
            coverage = np.zeros(total, dtype=int)
            for window in windows:
                real = int(window.mask.sum())
                expected_real = min(window.start_clip + width, total) - window.start_clip
                assert real == expected_real
                assert np.array_equal(window.mask[:real], np.ones(real))
                assert np.array_equal(
                    window.features[:, :real],
                    feats[:, window.start_clip:window.start_clip + real])
                assert np.array_equal(window.features[:, real:],
                                      np.zeros((3, width - real)))
                coverage[window.start_clip:window.start_clip + real] += 1
            assert coverage.min() >= 1
            constant = 0.375
            merged = merge_scores(
                [(w.start_clip, w.mask, np.full(width, constant)) for w in windows],
                total)
            assert merged.shape == (total,)
            assert np.all(np.abs(merged - constant) <= 1e-15)
    # the documented two-window average
    merged = merge_scores([(0, np.ones(64), np.full(64, 0.2)),
                           (32, np.ones(64), np.full(64, 0.4))], 96)
    assert np.allclose(merged[:32], 0.2) and np.allclose(merged[32:64], 0.3) \
        and np.allclose(merged[64:], 0.4)
    report(4, "window plans, padding masks and overlap averaging match the "
              "closed forms for T in {1,20,64,96,100,257}, W in {32,64}",
           budget.check("windowing"))


def test_criterion_5_metric_oracles():
    budget = Budget(60.0)
    rng = np.random.default_rng(123)
    divergences = []
    trials = 1000
    for trial in range(trials):
        frames = int(rng.integers(8, 120))
        pred = random_partition(rng, frames)
        gt = random_partition(rng, frames)
        k = int(rng.choice([10, 25, 50]))
        scope = str(rng.choice(["abnormal", "normal", "all"]))
        greedy = evaluation.match_counts(pred, gt, k, scope)
        optimal = optimal_counts(pred, gt, k, scope)
        assert greedy[0] <= optimal[0]
        if greedy != optimal:
            divergences.append((trial, k, scope, greedy, optimal))
    rate = len(divergences) / trials
    for entry in divergences:
        print(f"  greedy/optimal divergence (greedy is the contract): {entry}")
    assert rate < 0.02, f"greedy diverged from optimal on {rate:.1%} of instances"

    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(3, 80))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst = max(worst, abs(evaluation.frame_auc(scores, labels)
                               - pairwise_auc(scores, labels)))
    assert worst <= 1e-12, f"AUC deviates from the rank statistic by {worst:.2e}"
    report(5, f"greedy matcher agrees with the optimal matcher on "
              f"{1 - rate:.1%} of 1000 instances; AUC matches the pairwise "
              f"statistic to 1e-12", budget.check("metric oracles"))


def test_criterion_6_loss_algebra():
    budget = Budget(1.0)
    separated = training.ad_loss(Tensor(np.array([[1.0, 0.0]])), [1, 0], [1, 1], 0.5)
    assert float(separated.value) == 0.0
    coincident = training.ad_loss(Tensor(np.array([[0.5, 0.5]])), [1, 0], [1, 1], 0.5)
    assert float(coincident.value) == 1.0
    # composition: per stage MSE 0.25 + 0.5 * AD 1.0, summed over two stages,
    # whose terms sum to MSE 0.5 and AD 2.0
    scores = Tensor(np.array([[0.5, 0.5]]))
    cfg = TrainConfig(seed=0, lambda_=0.5, alpha=0.5)
    loss = training.total_loss([scores, scores], [1, 0], np.ones(2), cfg)
    assert abs(float(loss.total.value) - 1.5) <= 1e-12
    assert abs(loss.mse - 0.5) <= 1e-15 and abs(loss.ad - 2.0) <= 1e-15
    three = training.total_loss([scores] * 3, [1, 0], np.ones(2), cfg)
    assert abs(float(three.total.value) - 2.25) <= 1e-12
    report(6, "margin-loss fixed points are exact and the lambda/stage "
              "composition holds to 1e-12", budget.check("loss algebra"))


def test_criterion_7_learnability(tmp_path):
    budget = Budget(300.0)
    # a separable 50-video corpus, 40 trained on and 10 held out
    report_card = round_trip(tmp_path, {
        "synth": {"num_videos": 50, "clips_min": 48, "clips_max": 96, "input_dim": 16,
                  "class_mean_separation": 4.0, "noise_std": 1.0, "seed": 7},
        "model": {"window_width": 64, "num_stages": 2, "num_layers": 6,
                  "hidden_channels": 64},
        "train": {"seed": 7, "epochs": 10}}, held_out=10)
    f1_all_50 = report_card["segmental"]["all"]["f1@50"]["f1"]
    frame_auc = report_card["frame_auc"]
    assert f1_all_50 >= 90.0, f"all-segments F1@50 = {f1_all_50:.2f} < 90"
    assert frame_auc >= 0.95, f"frame AUC = {frame_auc:.3f} < 0.95"
    report(7, f"W64-S2-L6 on the separable corpus reaches F1@50 = "
              f"{f1_all_50:.1f} and AUC = {frame_auc:.3f} "
              f"within 10 epochs", budget.check("learnability"))


def test_criterion_8_auc_f1_divergence():
    budget = Budget(10.0)
    scores, gt = fragmented_prediction()
    report_card = evaluation.evaluate({"v": scores}, {"v": gt}, frames_per_clip=10)
    _, _, f1_abn_25 = report_card.scopes["abnormal"][25]
    assert report_card.frame_auc >= 0.70
    assert f1_abn_25 <= 35.0
    report(8, f"fragmented prediction keeps AUC at {report_card.frame_auc:.2f} "
              f"while abnormal F1@25 collapses to {f1_abn_25:.1f}",
           budget.check("AUC/F1 divergence"))


def test_criterion_9_determinism(tmp_path):
    budget = Budget(600.0)
    sections = {"synth": {"num_videos": 6, "clips_min": 24, "clips_max": 48,
                          "input_dim": 6, "seed": 11},
                "model": {"window_width": 32, "num_stages": 1, "num_layers": 5,
                          "hidden_channels": 16},
                "train": {"epochs": 4, "seed": 11}}
    reports, files = [], []
    for run_name in ("first", "second"):
        root = tmp_path / run_name
        reports.append(json.dumps(round_trip(root, sections)))
        files.append(tree(root))
    assert files[0] == files[1], "the two round trips wrote different files"
    assert reports[0] == reports[1], "evaluation reports differ"
    report(9, f"two identical round trips write bit-identical files and directories "
              f"({len(files[0])}: corpus, checkpoint, log and predictions) and "
              f"evaluation reports",
           budget.check("determinism"))


def test_criterion_10_training_matches_the_taped_reference(tmp_path):
    # model.backward and chunked Adam over the flat vectors against the
    # generic tape and Adam per tensor: 2 epochs on a corpus whose videos
    # end in padded windows, with and without the margin loss
    budget = Budget(120.0)
    videos = synth.generate(synth.SynthConfig(num_videos=6, clips_min=20, clips_max=75,
                                              input_dim=8, seed=5))
    dataset = [(video.features.features, video.clip_labels) for video in videos]
    model_cfg = model.ADNetConfig(window_width=16, num_stages=3, num_layers=4,
                                  input_dim=8, hidden_channels=12)
    windows = training._window_items(dataset, model_cfg)[0]
    assert any(window.mask.min() == 0.0 for window, _ in windows)
    for use_ad_loss in (True, False):
        config = TrainConfig(seed=3, epochs=2, learning_rate=2e-3, use_ad_loss=use_ad_loss)
        result = training.train(dataset, model_cfg, config)
        params, first, second, log = taped_train(dataset, model_cfg, config)
        assert np.array_equal(result.params.flat, np.concatenate([t.value.ravel() for t in params]))
        assert np.array_equal(result.adam.first_moment,
                              np.concatenate([m.ravel() for m in first]))
        assert np.array_equal(result.adam.second_moment,
                              np.concatenate([v.ravel() for v in second]))
        assert result.log == log

        # one epoch, a checkpoint, and one more epoch resumed from it
        path = tmp_path / f"ad_{use_ad_loss}.adnc"
        half = training.train(dataset, model_cfg, replace(config, epochs=1))
        storage.save_checkpoint(storage.Checkpoint(
            model_config=model_cfg, train_config=config, seed=3, frames_per_clip=16,
            epochs_completed=1, params=half.params, adam=half.adam), path)
        ckpt = storage.load_checkpoint(path)
        resumed = training.train(dataset, model_cfg, replace(config, epochs=1),
                                 resume=training.TrainResult(ckpt.params, ckpt.adam, 1,
                                                             half.log))
        assert resumed.params.flat.tobytes() == result.params.flat.tobytes()
        assert resumed.adam.first_moment.tobytes() == result.adam.first_moment.tobytes()
        assert resumed.adam.second_moment.tobytes() == result.adam.second_moment.tobytes()
        assert resumed.log == result.log
    report(10, f"2 epochs over {len(windows)} windows, padded ones included, with and "
               f"without the margin loss: parameters, moments and logs equal the taped "
               f"reference bit for bit, and a 1+1 epoch resume equals 2 epochs",
           budget.check("taped reference"))
