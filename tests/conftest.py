"""Fixtures shared by the command-line tests of several modules."""

import shutil

import pytest

from _inputs import ONE_VIDEO_MANIFEST, SMALL_MODEL, SMALL_SYNTH, Inputs, round_trip


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """round_trip's synth -> train -> infer -> eval with no video held out,
    shared by a module's read-only assertions: (root, corpus directory)."""
    root = tmp_path_factory.mktemp("pipeline")
    round_trip(root, {"synth": SMALL_SYNTH, "model": SMALL_MODEL,
                      "train": {"epochs": 3, "seed": 3}})
    return root, root / "corpus"


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
