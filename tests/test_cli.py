"""The command line's accepted inputs and documented outcomes.

Each test edits a copy of a valid synth -> train -> infer round trip (the
`inputs` and `one_video` fixtures, an `Inputs` of tests/_inputs.py) into
the input it needs and calls the command line through `adnet`, which
asserts that the outcome is documented. Read-only tests read the
`pipeline` fixture itself; the refusals are in test_refusals.py.
"""

import contextlib
import dataclasses
import fcntl
import json
import math
import os
import re
import subprocess
import tomllib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from adnet import cli, io as storage, model, synth as generator, windowing
from adnet.errors import FormatError
from adnet.io import ClipFeatureSequence
from adnet.model import ADNetConfig
from adnet.training import TrainConfig
from _inputs import EVAL, INFER, ONE_VIDEO_MANIFEST, RESUME, SYNTH, TRAIN, adnet, \
    adnet_command, adnet_subprocess, fresh_inputs, huge_clip_manifest, payload_offsets
from _oracles import fragmented_prediction


class TestSynth:
    def test_default_video_count(self, inputs):
        inputs.set("run.json", "synth", {"seed": 1})
        code, out, _ = adnet(inputs.argv(SYNTH))
        assert code == 0
        assert len(list((inputs.root / "new" / "features").glob("*.adnf"))) == 40
        assert len(list((inputs.root / "new" / "annotations").glob("*.json"))) == 40

    def test_rerun_is_byte_identical(self, inputs):
        for name in ("one", "two"):
            code, _, _ = adnet(inputs.argv(f"synth --config {{config}} --out {{root}}/{name}"))
            assert code == 0
        for sub in ("features", "annotations"):
            for path in sorted((inputs.root / "one" / sub).iterdir()):
                assert path.read_bytes() == (inputs.root / "two" / sub / path.name).read_bytes()

    def test_synth_features_beyond_float32(self, inputs):
        # float64 holds the features, but the float32 file cannot
        inputs.set("run.json", "synth.class_mean_separation", 1e300)
        code, stdout, err = adnet(inputs.argv(SYNTH))
        features = inputs.root / "new" / "features"
        assert (code, stdout) == (2, "")
        assert re.fullmatch(rf"adnet: error: {re.escape(str(features / 'video_000.adnf'))}: "
                            r"feature value -?[0-9.e+]+ at dim \d+, clip \d+ is not finite "
                            r"in float32\n", err), err
        assert list(features.iterdir()) == []


class TestRunConfig:
    def test_integers_accepted_for_number_fields(self, inputs):
        inputs.json("run.json", lambda doc: doc.update(
            train={"learning_rate": 1, "alpha": 0, "use_ad_loss": False},
            synth={"class_mean_separation": 2, "abnormal_segment_count_range": [0, 3]}))
        doc = cli.load_run_config(str(inputs.root / "run.json"))
        assert doc["train"]["learning_rate"] == 1

def test_readme_states_the_python_floor():
    root = Path(__file__).resolve().parents[1]
    floor = tomllib.loads((root / "pyproject.toml").read_text())["project"]["requires-python"]
    install = (root / "README.md").read_text().split("\n## Install\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"Python (\d+\.\d+) or newer", install) == [floor.removeprefix(">=")]


class TestTrain:
    def test_checkpoint_and_log_lines(self, pipeline):
        root, _ = pipeline
        assert (root / "model.adnc").exists()
        lines = (root / "out" / "train_log.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert [r["epoch"] for r in records] == [0, 1, 2]
        assert all({"epoch", "mean_mse", "mean_ad", "mean_total"} <= set(r)
                   for r in records)

    def test_resume_continues_epoch_numbering(self, inputs):
        inputs.set("run.json", "train.epochs", 3)
        assert adnet(inputs.argv(TRAIN))[0] == 0
        code, out, _ = adnet(inputs.argv(RESUME))
        assert code == 0
        epochs = [json.loads(line)["epoch"] for line in out.splitlines()
                  if line.startswith("{")]
        assert epochs == [3, 4, 5]
        lines = (inputs.root / "log" / "train_log.jsonl").read_text().strip().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [0, 1, 2, 3, 4, 5]
        ckpt = storage.load_checkpoint(inputs.root / "model.adnc")
        assert ckpt.epochs_completed == 6

    def test_resume_renames_over_the_checkpoint_and_the_log(self, inputs):
        assert adnet(inputs.argv(TRAIN))[0] == 0
        # a swapped file may be left empty by a power loss, a renamed-over one not on ext4
        with mock.patch.object(storage, "_swap") as swap:
            assert adnet(inputs.argv(RESUME))[0] == 0
        swap.assert_not_called()
        assert storage.load_checkpoint(inputs.root / "model.adnc").epochs_completed == 2
        assert len((inputs.root / "log" / "train_log.jsonl").read_text().splitlines()) == 2

    def test_resume_steps_at_the_configured_learning_rate(self, inputs):
        assert adnet(inputs.argv(TRAIN))[0] == 0
        start = inputs.read("model.adnc")
        resumed = []
        for rate in (5e-4, 0.5):
            inputs.write("model.adnc", start)
            inputs.set("run.json", "train.learning_rate", rate)
            assert adnet(inputs.argv(RESUME))[0] == 0
            ckpt = storage.load_checkpoint(inputs.root / "model.adnc")
            assert ckpt.adam.lr == ckpt.train_config.learning_rate == rate
            resumed.append(ckpt.params.tensors)
        slow, fast = resumed
        assert any(not np.array_equal(slow[name].value, fast[name].value) for name in slow)

    @pytest.mark.parametrize("rate", [1e200, 1e300, 1e308])
    def test_overflowing_last_step_exits_numeric(self, one_video, rate):
        # one 4-clip window, one step: its loss is finite, but the step leaves
        # parameters near the rate, whose scores overflow to NaN
        one_video.set("run.json", "model", {"window_width": 4, "num_stages": 2,
                                            "num_layers": 2, "hidden_channels": 8})
        assert adnet(one_video.argv(TRAIN))[0] == 0
        before = one_video.read("model.adnc")
        one_video.set("run.json", "train.learning_rate", rate)
        code, out, err = adnet(one_video.argv(TRAIN))
        assert (code, out) == (3, "")
        assert err == "adnet: numeric failure: non-finite score on the training windows " \
                      "after 1 epoch\n"
        assert one_video.read("model.adnc") == before

    def test_clip_of_10_to_the_15_frames_trains(self, one_video):
        one_video.features("v", 5, clips=1)
        one_video.write("annotations/v.json", huge_clip_manifest(10 ** 15, 10 ** 15))
        code, _, err = adnet(one_video.argv(TRAIN))
        assert (code, err) == (0, "")
        assert storage.load_checkpoint(one_video.root / "model.adnc").epochs_completed == 1


class TestInfer:
    def test_documents_match_library_scores(self, pipeline):
        root, corpus = pipeline
        ckpt = storage.load_checkpoint(root / "model.adnc")
        docs = sorted((root / "pred").glob("*.json"))
        assert len(docs) == 4
        for doc_path in docs:
            doc = json.loads(doc_path.read_text())
            seq = storage.read_features(corpus / "features" / f"{doc['video_id']}.adnf")
            expected = model.score_sequence(ckpt.params, seq.features)
            assert doc["clip_scores"] == expected.tolist()
            assert doc["tool"] == "adnet"
            assert "config" in doc
            assert len(doc["frame_scores"]) == 16 * seq.num_clips
            assert doc["clip_labels"] == [int(s >= 0.5) for s in doc["clip_scores"]]

    def test_zero_weight_model_scores_exactly_half(self, inputs):
        # analytic fixture: with all parameters 0 every head emits
        # sigmoid(0) = 0.5 at unmasked positions, so merged clip scores
        # are exactly 0.5 and the 0.5 threshold labels everything abnormal
        inputs.checkpoint(lambda ckpt: ckpt.params.flat.fill(0.0))
        code, _, _ = adnet(inputs.argv(INFER))
        assert code == 0
        for doc_path in (inputs.root / "scored").glob("*.json"):
            doc = json.loads(doc_path.read_text())
            assert doc["clip_scores"] == [0.5] * len(doc["clip_scores"])
            assert doc["clip_labels"] == [1] * len(doc["clip_labels"])

    def test_single_clip_video(self, one_video):
        one_video.features("v", 5, clips=1)
        code, _, _ = adnet(one_video.argv(INFER))
        assert code == 0
        doc = json.loads((one_video.root / "scored" / "v.json").read_text())
        assert len(doc["clip_scores"]) == 1

    def test_feature_file_of_a_250_byte_stem(self, inputs):
        # its document's name, of 255 bytes, is the longest ext4 holds
        stem = "v" * 250
        inputs.features(stem, 5, clips=4)
        code, _, _ = adnet(inputs.argv(f"infer --checkpoint {{checkpoint}} "
                                       f"--features {{features}}/{stem}.adnf --out {{out}}"))
        assert code == 0
        assert os.listdir(inputs.root / "scored") == [f"{stem}.json"]

    def test_threshold_flag_overrides(self, inputs):
        code, _, _ = adnet(inputs.argv(INFER + " --threshold 0.9"))
        assert code == 0
        doc = json.loads(next((inputs.root / "scored").glob("*.json")).read_text())
        assert doc["config"]["threshold"] == 0.9
        assert doc["clip_labels"] == [int(s >= 0.9) for s in doc["clip_scores"]]

    def test_document_path_is_a_directory(self, inputs):
        out = inputs.root / "scored"
        target = out / "video_001.json"
        (target / "inside").mkdir(parents=True)
        code, stdout, err = adnet(inputs.argv(INFER))
        assert (code, stdout) == (2, "")
        assert err == f"adnet: error: {target}: Is a directory\n"
        assert (target / "inside").is_dir()
        assert sorted(path.name for path in out.iterdir()) == ["video_000.json",
                                                                 "video_001.json"]

    def test_memory_error_without_a_reason(self, inputs):
        # Python raises MemoryError with an empty message, numpy with a size
        with mock.patch.object(cli, "prediction_text", side_effect=MemoryError()):
            outcome = adnet(inputs.argv(INFER))
        assert outcome == (2, "", "adnet: error: out of memory\n")

    def test_second_run_rewrites_the_same_documents(self, inputs):
        out = inputs.root / "scored"
        assert adnet(inputs.argv(INFER))[0] == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert adnet(inputs.argv(INFER))[0] == 0
        second = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(first) == 4
        assert second == first


def expected_prediction_text(doc, scores, labels, frames_per_clip):
    full = {**doc, "clip_scores": scores, "clip_labels": labels,
            "frame_scores": [score for score in scores for _ in range(frames_per_clip)]}
    return json.dumps(full, indent=2) + "\n"


PREDICTION_HEAD = {"tool": "adnet", "version": "0.1.0",
                   "config": {"threshold": 0.5, "model": {"window_width": 8},
                              "train_seed": 3, "frames_per_clip": 16},
                   "video_id": "caf\u00e9 \"1\"", "num_clips": 3, "frames_per_clip": 16}


class TestPredictionText:
    @given(scores=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=300),
           frames_per_clip=st.integers(1, 32))
    @example(scores=[5e-324], frames_per_clip=1)
    @example(scores=[1e-05], frames_per_clip=16)
    @example(scores=[0.1], frames_per_clip=32)
    @example(scores=[1 / 3], frames_per_clip=2)
    @example(scores=[0.0], frames_per_clip=3)
    @example(scores=[1.0], frames_per_clip=16)
    @example(scores=[5e-324, 1e-05, 0.1, 1 / 3, 0.0, 1.0, -0.0], frames_per_clip=16)
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps(self, scores, frames_per_clip):
        labels = [int(score >= 0.5) for score in scores]
        text = cli.prediction_text(PREDICTION_HEAD, scores, labels, frames_per_clip)
        assert text == expected_prediction_text(PREDICTION_HEAD, scores, labels,
                                                frames_per_clip)

    def test_infer_documents_are_json_dumps_of_themselves(self, inputs):
        inputs.features("tiny", 5, clips=1)
        code, _, _ = adnet(inputs.argv(INFER))
        assert code == 0
        docs = sorted((inputs.root / "scored").glob("*.json"))
        assert len(docs) == 5
        for path in docs:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            assert list(json.loads(text))[-3:] == ["clip_scores", "clip_labels",
                                                   "frame_scores"]


class TestInferCheckpointRead:
    def test_parameters_equal_a_full_load(self, pipeline):
        root, _ = pipeline
        full = storage.load_checkpoint(root / "model.adnc")
        params_only = storage.load_checkpoint(root / "model.adnc", params_only=True)
        assert full.adam is not None and params_only.adam is None
        assert list(params_only.params.tensors) == list(full.params.tensors)
        raw = (root / "model.adnc").read_bytes()
        offsets = payload_offsets(raw)
        for name, tensor in params_only.params.tensors.items():
            stored = raw[offsets[name]:offsets[name] + tensor.value.nbytes]
            assert tensor.value.tobytes() == full.params.tensors[name].value.tobytes() == stored

    def test_reads_only_the_parameter_payload(self, pipeline, monkeypatch):
        root, _ = pipeline
        raw = (root / "model.adnc").read_bytes()
        opened = []

        class CountingFile:
            def __init__(self, path, mode):
                self.handle = open(path, mode)
                self.bytes_read = 0
                opened.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def fileno(self):
                return self.handle.fileno()

            def read(self, size):
                data = self.handle.read(size)
                self.bytes_read += len(data)
                return data

            def readinto(self, buffer):
                count = self.handle.readinto(buffer)
                self.bytes_read += count
                return count

            def tell(self):
                return self.handle.tell()

        monkeypatch.setattr(storage, "open", CountingFile, raising=False)
        storage.load_checkpoint(root / "model.adnc", params_only=True)
        storage.load_checkpoint(root / "model.adnc")
        first_moment = payload_offsets(raw)["optimizer.m.stage0.proj.weight"]
        assert [file.bytes_read for file in opened] == [first_moment, len(raw)]


class TestCheckpointHeader:
    @pytest.mark.parametrize("field,value", [
        ("epochs_completed", 0), ("adam.step_count", 0), ("adam.beta1", 0.0)])
    def test_range_boundary_loads(self, inputs, field, value):
        inputs.set("model.adnc", field, value)
        code, _, err = adnet(inputs.argv(RESUME))
        assert (code, err) == (0, "")
        assert storage.load_checkpoint(inputs.root / "model.adnc").epochs_completed == (
            1 if field == "epochs_completed" else 4)

    @pytest.mark.parametrize("params_only", [True, False], ids=["params_only", "full"])
    def test_roster_with_reordered_keys_loads(self, pipeline, inputs, params_only):
        root, _ = pipeline
        inputs.json("model.adnc", lambda header: header.update(tensors=[
            {"shape": entry["shape"], "name": entry["name"]} for entry in header["tensors"]]))
        assert b'{"shape": [8, 5], "name": "stage0.proj.weight"}' in inputs.read("model.adnc")
        back = storage.load_checkpoint(inputs.root / "model.adnc", params_only=params_only)
        original = storage.load_checkpoint(root / "model.adnc", params_only=params_only)
        assert back.params.flat.tobytes() == original.params.flat.tobytes()
        if not params_only:
            for moment in ("first_moment", "second_moment"):
                assert (getattr(back.adam, moment).tobytes()
                        == getattr(original.adam, moment).tobytes())


class TestEval:
    def test_end_to_end_report(self, pipeline):
        root, corpus = pipeline
        code, out, _ = adnet(["eval", "--pred", root / "pred", "--gt", corpus / "annotations"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc["segmental"]) == ["abnormal", "normal", "all"]
        assert set(doc["segmental"]["all"]) == {"f1@10", "f1@25", "f1@50"}
        assert 0.0 <= doc["frame_auc"] <= 1.0

    def test_perfect_predictions_score_100(self, one_video):
        code, out, _ = adnet(one_video.argv(EVAL))
        assert code == 0
        doc = json.loads(out)
        assert doc["frame_auc"] == 1.0
        for scope in ("abnormal", "normal", "all"):
            for block in doc["segmental"][scope].values():
                assert block["f1"] == 100.0

    def test_fragmented_prediction_fixture(self, one_video):
        # the motivating failure mode of plain AUC: fragments keep AUC high
        # while segmental F1 collapses
        scores, gt = fragmented_prediction()
        one_video.write("annotations/v.json", {
            "video_id": "v", "frames_per_clip": 10, "total_frames": 1000,
            "segments": [dataclasses.asdict(segment) for segment in gt]})
        one_video.write("pred/v.json", {"video_id": "v", "frames_per_clip": 10,
                                        "clip_scores": scores.tolist()})
        code, out, _ = adnet(one_video.argv(EVAL + " --k 10,25,50"))
        assert code == 0
        doc = json.loads(out)
        assert doc["frame_auc"] >= 0.70
        assert doc["segmental"]["abnormal"]["f1@25"]["f1"] <= 35.0

    def test_custom_k_list(self, one_video):
        code, out, _ = adnet(one_video.argv(EVAL + " --k 20,80"))
        assert code == 0
        doc = json.loads(out)
        assert set(doc["segmental"]["all"]) == {"f1@20", "f1@80"}

    @pytest.mark.parametrize("total_frames,score", [
        # one clip scored at the threshold over one normal frame and the
        # abnormal rest: both runs tie, and the prediction is abnormal
        pytest.param(10 ** 15, 0.5, id="over its whole video"),
        # a clip of 10**15 frames over a 4-frame video covers 4 frames
        pytest.param(4, 0.75, id="longer than its video"),
    ])
    def test_clip_of_10_to_the_15_frames_evaluates(self, one_video, total_frames, score):
        one_video.write("pred/v.json", {"video_id": "v", "frames_per_clip": 10 ** 15,
                                        "clip_scores": [score]})
        one_video.write("annotations/v.json", huge_clip_manifest(10 ** 15, total_frames))
        code, out, err = adnet(one_video.argv(EVAL))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["frame_auc"] == 0.5
        assert doc["segmental"]["abnormal"]["f1@50"]["f1"] == 100.0
        assert doc["segmental"]["normal"]["f1@50"]["f1"] == 0.0


def assert_members_read_as_json_loads(inputs, data: bytes, name="pred/v.json"):
    """The contract of a member-selecting read: read_json with eval's
    members raises the FormatError that a full read raises, or returns
    the full read's values of those members, and eval's exit code, stdout
    and stderr are those of an eval that builds every member."""
    inputs.write(name, data)
    path = inputs.root / name
    try:
        doc = storage.read_json(path, "prediction")
    except FormatError as exc:
        with pytest.raises(FormatError) as excinfo:
            storage.read_json(path, "prediction", members=cli.PREDICTION_MEMBERS)
        assert str(excinfo.value) == str(exc)
    else:
        if isinstance(doc, dict):
            doc = {key: value for key, value in doc.items() if key in cli.PREDICTION_MEMBERS}
        # repr tells -0.0 from 0.0, 1 from 1.0 and True, and shows NaN as nan
        assert repr(storage.read_json(path, "prediction", members=cli.PREDICTION_MEMBERS)) \
            == repr(doc)
    argv = inputs.argv(EVAL)
    assert adnet(argv) == adnet(argv, members=None)


# JSON values as text, at the edges of what json.loads converts: NaN, the
# infinities, 1e999, -0.0, integers at Python's 640-digit floor of the
# integer-string limit and beyond it, and values of every other type.
VALUE_TOKENS = ["NaN", "-Infinity", "Infinity", "1e999", "-1e999", "-0.0", "-0", "0", "1E+2",
                "2.5e-3", "1" * 640, "-" + "9" * 640, "1" * 641, "1" * 700 + ".5", '"x"',
                '"0.5"', "[[0.5], [1]]", "[]", "[ ]", "null", "true", "{}",
                '{"threshold": 0.5}']
# Text that is not JSON wherever it is inserted into a JSON text, or that
# makes it so in most places.
MALFORMED = ["01", "1.", ".5", "+1", "- 1", "1e", "0x10", "\uff11", "1" * 5000, "\x0b", "\xa0",
             "\x01", ",", "[", "]", "{", "}", ":", '"', "'", "\\", "[1,]", "[,1]"]
WHITESPACE = st.sampled_from(["", " ", "\n    ", "\t", "\r\n", "\r"])


@st.composite
def number_arrays(draw):
    """Text of a flat JSON array of numbers or, rarely, other values."""
    items = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr)
                          | st.integers().map(str) | st.sampled_from(VALUE_TOKENS),
                          max_size=6))
    return "[" + ",".join(f"{draw(WHITESPACE)}{item}{draw(WHITESPACE)}" for item in items) + "]"


MEMBER_VALUES = number_arrays() | st.sampled_from(VALUE_TOKENS)
# eval's members and the others infer writes, plainly and with escapes
MEMBER_KEYS = st.sampled_from(['"frame_scores"', r'"frame\u005fscores"', '"clip_labels"',
                               '"clip_scores"', r'"clip_\u0073cores"', '"video_id"',
                               r'"video\u005Fid"', '"config"', '"frames_per_clip"',
                               '"num_clips"', '"x"', r'"\ud800"', r'"a\"b"'])
INFER_MEMBERS = [('"tool"', '"adnet"'), ('"config"', '{"threshold": 0.5}'),
                 ('"video_id"', '"v"'), ('"num_clips"', "4"), ('"frames_per_clip"', "1"),
                 ('"clip_scores"', "[0.0, 0.0, 1.0, 1.0]"), ('"clip_labels"', "[0, 0, 1, 1]"),
                 ('"frame_scores"', "[0.0, 0.0, 1.0, 1.0]")]


def object_text(members) -> str:
    return "{" + ", ".join(f"{key}: {value}" for key, value in members) + "}"


@st.composite
def prediction_texts(draw):
    """A prediction document for the one-video ground truth whose members
    may be replaced, escaped, repeated or reordered, with text before and
    after it, and at most one malformed piece inserted anywhere."""
    members = list(INFER_MEMBERS)
    for index in draw(st.lists(st.integers(0, len(members) - 1), max_size=3)):
        members[index] = (members[index][0], draw(MEMBER_VALUES))
    members += draw(st.lists(st.tuples(MEMBER_KEYS, MEMBER_VALUES), max_size=3))
    members = draw(st.permutations(members))
    text = (draw(st.just("") | st.sampled_from([" ", "\n", "\ufeff", "[", '"']))
            + "{" + ",".join(f"{draw(WHITESPACE)}{key}{draw(WHITESPACE)}:{draw(WHITESPACE)}"
                             f"{value}{draw(WHITESPACE)}" for key, value in members) + "}"
            + draw(st.just("") | st.sampled_from(["\n", " \n", "x", "}", ",", "\x00", "[]"])))
    if draw(st.booleans()):
        return text
    index = draw(st.integers(0, len(text)))
    return text[:index] + draw(st.sampled_from(MALFORMED)) + text[index:]


# An infer-sized unread frame_scores, far longer than the drawn arrays
# (which stop at 6 items), and the same with one malformed token among its
# last elements; named, as the texts would be megabyte-long test ids.
LONG_NUMBERS = [str(i) if i % 3 == 0 else f"{(-1) ** i * i / 7:.17g}" if i % 3 == 1
                else f"{i}e-5" for i in range(100_000)]
LONG_FRAME_SCORES = [
    pytest.param(object_text(INFER_MEMBERS[:-1] + [('"frame_scores"', "[" + ", ".join(
        LONG_NUMBERS[:-3] + token + LONG_NUMBERS[-3:]) + "]")]), id=f"100000-numbers{name}")
    for name, token in [("", []), ("-01", ["01"]), ("-1.", ["1."])]]


# The inputs a member-selecting read must treat as json.loads does, each
# named once: values of members that eval does not build, escaped and
# repeated keys, and documents that are not one JSON object.
LISTED_DOCUMENTS = [
    *[object_text(INFER_MEMBERS[:-1] + [('"frame_scores"', value)]) for value in [
        "[NaN, -Infinity, 1e999, -0.0]", "[" + "1" * 5000 + "]", "[-" + "9" * 4301 + "]",
        "[" + "1" * 4300 + "]", '["0.5", "x"]', "[[0.5], [1, [2]]]", "[]", "NaN", "1e999",
        "[1e999, -1e999]", "[0.5,\x0b0.5]", "[0.5\xa0]", "[01]", "[1.]", "[0.5,]"]],
    *LONG_FRAME_SCORES,
    object_text(INFER_MEMBERS + [(r'"clip_\u0073cores"', "[0.5, 0.5, 0.5, 0.5]")]),
    object_text(INFER_MEMBERS + [(r'"frame\u005fscores"', "[1, 2")]),
    object_text([('"video_id"', '"w"')] + INFER_MEMBERS),
    object_text(INFER_MEMBERS + [('"video_id"', '"w"')]),
    object_text(INFER_MEMBERS + [('"frame_scores"', '"x"'), ('"frame_scores"', "[0.5]")]),
    "[" + object_text(INFER_MEMBERS) + "]", "[0.5]", '"v"', "1", "null", "", " ",
    "\ufeff" + object_text(INFER_MEMBERS),
    object_text(INFER_MEMBERS) + " x",
    object_text(INFER_MEMBERS) + "\x00",
    object_text(INFER_MEMBERS) + object_text(INFER_MEMBERS),
    object_text(INFER_MEMBERS)[:-1],
    "{}", "{ }", '{"video_id"}', '{"video_id": }', '{"video_id" "v"}', '{, "video_id": "v"}',
]


JSON_TEXTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(sorted(cli.PREDICTION_MEMBERS) + ["frame_scores", "clip_labels"])
        | st.text(max_size=4), children, max_size=5),
    max_leaves=20)


# Every draw rewrites pred/v.json, the one file it changes, before eval
# reads the copy, so the draws of a test share one copy.
SHARED_COPY = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestPredictionMembers:
    """eval reads prediction documents through read_json with members:
    it must accept and reject exactly what json.loads does."""

    @pytest.mark.parametrize("text", LISTED_DOCUMENTS)
    def test_listed_documents(self, one_video, text):
        assert_members_read_as_json_loads(one_video, text.encode("utf-8", "surrogatepass"))

    @given(text=prediction_texts())
    @settings(SHARED_COPY, max_examples=300)
    def test_drawn_documents(self, one_video, text):
        assert_members_read_as_json_loads(one_video, text.encode("utf-8", "surrogatepass"))

    @given(value=JSON_TEXTS, indent=st.sampled_from([None, 0, 2]))
    @settings(SHARED_COPY, max_examples=200)
    def test_arbitrary_json(self, one_video, value, indent):
        assert_members_read_as_json_loads(one_video, json.dumps(value, indent=indent).encode())

    @given(text=st.text(alphabet='{}[]":,. \n0123456789-+eEINaftrulsx\\', max_size=40))
    @settings(SHARED_COPY, max_examples=200)
    def test_arbitrary_text(self, one_video, text):
        assert_members_read_as_json_loads(one_video, text.encode())

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_single_byte_corruptions_of_an_infer_document(self, pipeline, data):
        with fresh_inputs(pipeline) as inputs:
            raw = inputs.read("pred/video_000.json")
            index = data.draw(st.integers(0, len(raw) - 1))
            byte = bytes([data.draw(st.integers(0, 255))])
            edit = data.draw(st.sampled_from(["replace", "delete", "insert"]))
            tail = raw[index:] if edit == "insert" else raw[index + 1:]
            assert_members_read_as_json_loads(
                inputs, raw[:index] + (b"" if edit == "delete" else byte) + tail,
                name="pred/video_000.json")

    def test_infer_documents_are_read_without_json_loads(self, pipeline):
        root, _ = pipeline
        for path in sorted((root / "pred").glob("*.json")):
            full = json.loads(path.read_text())
            with mock.patch.object(storage.json, "loads", side_effect=AssertionError):
                doc = storage.read_json(path, "prediction", members=cli.PREDICTION_MEMBERS)
            assert doc == {key: full[key] for key in full if key in cli.PREDICTION_MEMBERS}


@st.composite
def corruptions(draw, raw: bytes) -> bytes:
    """raw with one byte flipped, cut short, or with bytes appended."""
    edit = draw(st.sampled_from(["flip", "truncate", "append"]))
    if edit == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if edit == "append":
        return raw + draw(st.binary(min_size=1, max_size=16))
    index = draw(st.integers(0, len(raw) - 1))
    return raw[:index] + bytes([raw[index] ^ draw(st.integers(1, 255))]) + raw[index + 1:]


class TestCorruptBinaryFiles:
    """Byte-level corruption of real .adnf and .adnc files ends in a
    documented exit, never a traceback (which would propagate out of
    cli.main). Exit 3, the numeric failure, comes of a changed payload byte
    that leaves a finite parameter or Adam moment whose magnitude
    overflows a score or loss. Each draw corrupts a copy of its own."""

    ONE_FILE = "infer --checkpoint {checkpoint} --features {features}/video_000.adnf --out {out}"

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_features_under_infer(self, pipeline, data):
        with fresh_inputs(pipeline) as inputs:
            name = "features/video_000.adnf"
            inputs.write(name, data.draw(corruptions(inputs.read(name))))
            adnet(inputs.argv(self.ONE_FILE))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_checkpoint_under_infer(self, pipeline, data):
        with fresh_inputs(pipeline) as inputs:
            inputs.write("model.adnc", data.draw(corruptions(inputs.read("model.adnc"))))
            adnet(inputs.argv(self.ONE_FILE))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_checkpoint_under_train_resume(self, pipeline, data):
        with fresh_inputs(pipeline) as inputs:
            inputs.write("model.adnc", data.draw(corruptions(inputs.read("model.adnc"))))
            adnet(inputs.argv(RESUME))


def test_closed_stdout_is_one_error_line(pipeline):
    root, corpus = pipeline
    read_end, write_end = os.pipe()
    # a one-page pipe holds a fraction of the report, so eval is still
    # writing when the reader closes it after the first line
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    argv = ["eval", "--pred", root / "pred", "--gt", corpus / "annotations",
            "--k", ",".join(map(str, range(1, 101)))]
    proc = subprocess.Popen(**adnet_command(argv), stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert reader.readline() == b"{\n"
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err.decode()
    assert (proc.returncode, err) == (2, b"adnet: error: standard output closed\n")


def test_readme_config_reference_matches_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n### Config reference\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\w+)\.(\w+) \| (.+?) \|", table.split("| --- |", 1)[1],
                      flags=re.MULTILINE)
    assert sorted(row[:2] for row in rows) == sorted(
        (section, key) for section, keys in cli.CONFIG_SCHEMA.items() for key in keys)
    defaults = {(section, key): value for section, config in [
        ("model", ADNetConfig(input_dim=1)), ("train", TrainConfig()),
        ("synth", generator.SynthConfig())]
        for key, value in storage.config_to_dict(config).items()}
    defaults[("model", "input_dim")] = "from data"
    defaults.update({("paths", key): "none" for key in cli.CONFIG_SCHEMA["paths"]})
    for section, key, cell in rows:
        default = defaults[section, key]
        assert (cell if isinstance(default, str) else json.loads(cell)) == default, (
            f"{section}.{key}")


class TestGroundTruthPairing:
    """train and eval read the ground-truth directory through one reader,
    which keys manifests by video_id, not by file name (its refusals are
    in test_refusals.py)."""

    def test_train_pairs_manifests_by_video_id(self, inputs):
        assert adnet(inputs.argv(TRAIN))[0] == 0
        by_name = inputs.read("model.adnc")
        annotations = inputs.root / "annotations"
        for index, path in enumerate(sorted(annotations.glob("*.json"), reverse=True)):
            path.rename(annotations / f"gt_{index}.json")
        code, _, err = adnet(inputs.argv(TRAIN))
        assert (code, err) == (0, "")
        assert inputs.read("model.adnc") == by_name

    def test_eval_pairs_manifests_by_video_id(self, one_video):
        (one_video.root / "pred" / "v.json").rename(one_video.root / "pred" / "a.json")
        one_video.write("pred/b.json", {"video_id": "w", "frames_per_clip": 1,
                                        "clip_scores": [0.0, 0.0, 1.0, 1.0]})
        one_video.write("annotations/w.json", {**ONE_VIDEO_MANIFEST, "video_id": "w"})
        code, by_name, _ = adnet(one_video.argv(EVAL))
        assert code == 0
        gt_dir = one_video.root / "annotations"
        (gt_dir / "v.json").rename(gt_dir / "x.json")
        (gt_dir / "w.json").rename(gt_dir / "v.json")
        code, out, err = adnet(one_video.argv(EVAL))
        assert (code, err) == (0, "")
        assert out == by_name


class TestOverflowingCheckpoint:
    """A weight near 1e308 overflows in numpy; stderr is still the one
    numeric-failure line, with no RuntimeWarning before it."""

    @pytest.fixture
    def overflowing(self, inputs):
        inputs.checkpoint(
            lambda ckpt: ckpt.params.tensors["stage0.proj.weight"].value.fill(1e308))
        return inputs

    def test_infer(self, overflowing):
        assert adnet_subprocess(overflowing.argv(INFER)) == (
            3, "", "adnet: numeric failure: non-finite score for video video_000\n")

    def test_train_resume(self, overflowing):
        assert adnet_subprocess(overflowing.argv(RESUME)) == (
            3, "", "adnet: numeric failure: non-finite loss at epoch 3\n")


class TestFloat32Overflow:
    """Scoring computes in float32. A value that float64 holds but float32
    overflows is a numeric failure of infer, and of train, whose last check
    scores as infer does; stderr is the one numeric-failure line."""

    @staticmethod
    def scaled(inputs, factor):
        """The parameters of the copy's checkpoint, every weight now times factor."""
        return inputs.checkpoint(
            lambda ckpt: np.multiply(ckpt.params.flat, factor, out=ckpt.params.flat)).params

    @staticmethod
    def largest_float64_activation(params, features):
        saved = []
        for window in windowing.materialize(features, "", params.config.window_width):
            model.forward(params, window, saved)
        return max(np.abs(value).max() for stage in saved
                   for value in (stage.head_input, *(v for block in stage.blocks for v in block)))

    def test_train_resume(self, inputs):
        # weights times 1e6: every float64 activation stays finite, but the
        # largest passes float32's range; a guard against float64 overflow
        # alone would exit 0 with a checkpoint that infer cannot score
        params = self.scaled(inputs, 1e6)
        before = inputs.read("model.adnc")
        features = storage.read_features(inputs.root / "features" / "video_000.adnf").features
        assert np.finfo(np.float32).max < self.largest_float64_activation(params, features) < 1e300
        assert adnet_subprocess(inputs.argv(RESUME)) == (
            3, "", "adnet: numeric failure: non-finite score on the training windows after 4 "
                   "epochs\n")
        assert inputs.read("model.adnc") == before

    def test_infer(self, inputs):
        # weights times 10 score the corpus, but finite float32 features near
        # 1e36 take float64 activations past float32's range
        params = self.scaled(inputs, 10.0)
        ordinary = storage.read_features(inputs.root / "features" / "video_000.adnf").features
        assert np.all(np.isfinite(model.score_sequence(params, ordinary)))
        features = np.random.default_rng(0).normal(size=(5, 12)) * 1e36
        assert np.finfo(np.float32).max < self.largest_float64_activation(params, features) < 1e300
        storage.write_features(ClipFeatureSequence("loud", features), inputs.root / "loud.adnf")
        assert adnet_subprocess(inputs.argv(INFER.replace("{features}", "{root}/loud.adnf"))) == (
            3, "", "adnet: numeric failure: non-finite score for video loud\n")
        assert not (inputs.root / "scored" / "loud.json").exists()


class TestCorruptCheckpointValues:
    """infer reads and checks only the parameters, so an Adam moment that
    no training run writes, which train --resume refuses, does not stop it."""

    @pytest.mark.parametrize("name,value", [("optimizer.m.stage0.proj.weight", math.nan),
                                            ("optimizer.v.stage0.proj.weight", -1.0)])
    def test_infer_checks_only_the_parameters_it_reads(self, inputs, name, value):
        inputs.put(name, 0, value)
        code, _, err = adnet(inputs.argv(INFER))
        assert (code, err) == (0, "")


# A run config small enough that synth and one epoch of train take tens of
# milliseconds. Its paths, and the drawn ones, are relative to the scratch
# directory the test runs in.
FUZZ_CONFIG = {
    "synth": {"num_videos": 2, "clips_min": 8, "clips_max": 12, "input_dim": 3,
              "frames_per_clip": 2, "seed": 1},
    "model": {"window_width": 4, "num_stages": 1, "num_layers": 1, "hidden_channels": 2},
    "train": {"epochs": 1, "seed": 0},
    "paths": {"features_dir": "corpus/features", "annotations_dir": "corpus/annotations",
              "checkpoint": "m.adnc", "out_dir": "out"},
}
# Drawn integer fields stay at most this large (4 unless named), so that no
# drawn geometry allocates more than a few MB.
FUZZ_INT_CEILINGS = {"window_width": 12, "clips_min": 16, "clips_max": 16, "kernel_size": 5,
                     "num_stages": 3, "num_videos": 3, "epochs": 2}
# file is a file and dir an empty directory in the scratch directory
FUZZ_PATHS = ["corpus/features", "corpus/annotations", "m.adnc", "out", "file", "dir",
              "missing", "file/under"]


def config_values(section: str, key: str):
    """Half the time a value of the key's type, within its ceiling; else a
    value of another type. A drawn path may hold a NUL, which JSON can carry
    and argv cannot."""
    kind = cli.CONFIG_SCHEMA[section][key]
    right, wrong = {
        int: (st.integers(-1, FUZZ_INT_CEILINGS.get(key, 4)), [st.floats(), st.booleans()]),
        float: (st.one_of(st.floats(), st.integers(-3, 3)), [st.booleans()]),
        bool: (st.booleans(), [st.integers(0, 1)]),
        str: (st.sampled_from(FUZZ_PATHS + ["m\0.adnc"]), [st.integers()]),
    }.get(kind, (st.lists(st.integers(-1, 3), min_size=2, max_size=2), []))
    return st.one_of(right, st.one_of(
        *wrong, st.none(), st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3),
        st.dictionaries(st.text(max_size=2), st.integers(0, 3), min_size=1, max_size=2)))


@st.composite
def run_configs(draw):
    """FUZZ_CONFIG with up to two keys set to drawn values, and sometimes
    an unknown key, a section that is not an object, or a document that is
    not one."""
    doc = {section: dict(fields) for section, fields in FUZZ_CONFIG.items()}
    keys = [(section, key) for section, keys in cli.CONFIG_SCHEMA.items() for key in keys]
    for section, key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        doc[section][key] = draw(config_values(section, key))
    shape = draw(st.sampled_from(["fields"] * 9 + ["key", "section", "document"]))
    if shape == "key":
        doc[draw(st.sampled_from(sorted(doc)))][draw(st.text(max_size=3))] = 1
    elif shape == "section":
        doc[draw(st.sampled_from(sorted(doc) + ["extra"]))] = draw(
            st.one_of(st.none(), st.integers(), st.lists(st.integers(), max_size=2)))
    elif shape == "document":
        doc = draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                             st.lists(st.integers(), max_size=2)))
    return doc


class TestFuzzedInvocations:
    """Drawn run configs and flag values end in a documented exit, never a
    traceback. Exit 3 is documented too: a drawn learning rate or margin
    near float's range can make a loss non-finite."""

    @given(doc=run_configs())
    @settings(max_examples=100, deadline=None)
    def test_run_configs(self, pipeline, doc):
        # a drawn string is a valid path value, so relative paths must
        # resolve inside the scratch directory
        with fresh_inputs(pipeline) as inputs, contextlib.chdir(inputs.root):
            inputs.write("file", "x")
            (inputs.root / "dir").mkdir()
            inputs.write("run.json", json.dumps(doc))
            adnet(inputs.argv("synth --config {config} --out corpus"))
            adnet(inputs.argv(TRAIN))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_flags(self, pipeline, data):
        with fresh_inputs(pipeline) as inputs, contextlib.chdir(inputs.root):
            inputs.write("file", "x")
            (inputs.root / "dir").mkdir()
            right = {name: inputs.fill("{" + name + "}") for name in
                     ("config", "checkpoint", "features", "pred", "annotations")}
            wrong = FUZZ_PATHS + list(right.values())

            def path(name):
                return st.one_of(st.just(right[name]), st.sampled_from(wrong))

            # outputs go to the scratch directory only: a new path, a file,
            # a directory, or a path under a file
            out = st.sampled_from(["new", "file", "dir", "file/under", "missing/new"])
            threshold = st.one_of(st.floats().map(repr), st.sampled_from(
                ["0.5", "nan", "inf", "-inf", "1e999", "0", "1", "", "x", "0x1p-2"]))
            ks = st.one_of(st.sampled_from(["10,25,50", "1", "100", "0", "101", "5,5", "-1"]),
                           st.text(alphabet="0123456789,-+. x", max_size=8))
            flags = {
                "synth": [("--config", path("config")), ("--out", out)],
                "train": [("--config", path("config")), ("--resume", None)],
                "infer": [("--checkpoint", path("checkpoint")),
                          ("--features", path("features")), ("--out", out),
                          ("--threshold", threshold)],
                "eval": [("--pred", path("pred")), ("--gt", path("annotations")),
                         ("--k", ks)],
            }
            command = data.draw(st.sampled_from(sorted(flags)))
            argv = [command]
            for flag, values in flags[command]:
                if data.draw(st.sampled_from([True] * 15 + [False])):
                    argv += [flag] if values is None else [flag, data.draw(values)]
            if data.draw(st.sampled_from([False] * 15 + [True])):
                argv.append("--bogus")
            adnet(argv)
