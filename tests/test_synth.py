import numpy as np
import pytest

from adnet import io as storage, synth, training
from adnet.synth import SynthConfig

from _inputs import round_trip


class TestGenerate:
    def test_deterministic_corpus_bytes(self, tmp_path):
        cfg = SynthConfig(num_videos=5, seed=21)
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            for video in synth.generate(cfg):
                storage.write_features(video.features, out / f"{video.features.video_id}.adnf")
                storage.write_annotations(video.manifest,
                                          out / f"{video.manifest.video_id}.json")
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()

    def test_segments_partition_each_video(self):
        for video in synth.generate(SynthConfig(num_videos=10, seed=3)):
            manifest = video.manifest
            position = 0
            for seg in manifest.segments:
                assert seg.start_frame == position
                position = seg.end_frame
            assert position == manifest.total_frames
            assert manifest.total_frames == video.features.num_clips * manifest.frames_per_clip

    def test_both_classes_present_in_corpus(self):
        videos = synth.generate(SynthConfig(num_videos=10, seed=4))
        labels = np.concatenate([v.clip_labels for v in videos])
        assert labels.min() == 0 and labels.max() == 1

    def test_clip_labels_match_manifest(self):
        for video in synth.generate(SynthConfig(num_videos=5, seed=5)):
            derived = training.clip_labels(video.manifest.segments,
                                           video.manifest.frames_per_clip,
                                           video.features.num_clips)
            np.testing.assert_array_equal(derived, video.clip_labels)

    def test_class_means_separated(self):
        videos = synth.generate(SynthConfig(num_videos=20, seed=6,
                                            class_mean_separation=4.0, noise_std=1.0))
        feats = np.concatenate([v.features.features for v in videos], axis=1)
        labels = np.concatenate([v.clip_labels for v in videos])
        normal_mean = feats[:, labels == 0].mean()
        abnormal_mean = feats[:, labels == 1].mean()
        assert abnormal_mean - normal_mean == pytest.approx(4.0, abs=0.2)

    def test_video_sizes_respect_bounds(self):
        cfg = SynthConfig(num_videos=15, clips_min=10, clips_max=14, seed=7)
        for video in synth.generate(cfg):
            assert 10 <= video.features.num_clips <= 14


class TestSeparationControlsLearnability:
    def test_zero_separation_is_unlearnable(self, tmp_path):
        # degenerate control of criterion 7: with identical class
        # distributions the trained scorer cannot beat chance by a wide margin
        report = round_trip(tmp_path, {
            "synth": {"num_videos": 8, "clips_min": 24, "clips_max": 40, "input_dim": 6,
                      "class_mean_separation": 0.0, "seed": 9},
            "model": {"window_width": 16, "num_stages": 1, "num_layers": 4,
                      "hidden_channels": 8},
            "train": {"seed": 9, "epochs": 8}}, held_out=2)
        assert report["frame_auc"] < 0.75
        assert report["segmental"]["abnormal"]["f1@50"]["f1"] < 30.0
