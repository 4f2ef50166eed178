"""Fixtures shared by the command-line tests of several modules."""

import pytest

from adnet import cli
from _inputs import SMALL_MODEL, SMALL_SYNTH, write_config


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
