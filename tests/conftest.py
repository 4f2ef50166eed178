"""Fixtures shared by the command-line tests of several modules."""

import shutil

import pytest

from adnet import cli
from _inputs import ONE_VIDEO_MANIFEST, SMALL_MODEL, SMALL_SYNTH, Inputs, write_config


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> infer, shared by a module's read-only assertions:
    (root, corpus directory, run config path)."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    config_path = write_config(root / "run.json", {
        "synth": SMALL_SYNTH,
        "model": SMALL_MODEL,
        "train": {"epochs": 3, "seed": 3},
        "paths": {"features_dir": str(corpus / "features"),
                  "annotations_dir": str(corpus / "annotations"),
                  "checkpoint": str(root / "model.adnc"),
                  "out_dir": str(root / "out")},
    })
    assert cli.main(["synth", "--config", config_path, "--out", str(corpus)]) == 0
    assert cli.main(["train", "--config", config_path]) == 0
    assert cli.main(["infer", "--checkpoint", str(root / "model.adnc"),
                     "--features", str(corpus / "features"),
                     "--out", str(root / "pred")]) == 0
    return root, corpus, config_path


@pytest.fixture
def inputs(pipeline, tmp_path):
    """A copy of the pipeline's inputs, which the test may edit."""
    return Inputs(pipeline, tmp_path)


@pytest.fixture
def one_video(inputs):
    """The copy reduced to one video, v: four one-frame clips of features,
    ONE_VIDEO_MANIFEST, and a prediction that scores it exactly."""
    for name in ("features", "annotations", "pred"):
        shutil.rmtree(inputs.root / name)
        (inputs.root / name).mkdir()
    inputs.features("v", 5, clips=4)
    inputs.write("annotations/v.json", ONE_VIDEO_MANIFEST)
    inputs.write("pred/v.json", {"video_id": "v", "frames_per_clip": 1,
                                 "clip_scores": [0.0, 0.0, 1.0, 1.0]})
    return inputs
