"""Every refusal at the six input boundaries, one table per boundary.

Outside input enters adnet through six boundaries: `.adnf` feature files,
annotation manifests, `.adnc` checkpoints, prediction documents, the run
config and the command-line flags. Each row of a boundary's table names
one edit of a valid input, the command that reads it, the exit code and
the exact stderr line. A row runs through the shared runner `adnet` on a
fresh copy of a valid synth -> train -> infer round trip (the `inputs`
fixture, an `Inputs` of tests/_inputs.py, whose docstring names the
{placeholders} of the templates), and a refusal leaves every file as it
was and makes no new file or directory, save the directories a row names
as made on purpose. A new refusal case is one more row of its boundary's
table.
"""

import json
import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from adnet import cli, io as storage
from _inputs import DROP, EVAL, INFER, RESUME, SYNTH, TRAIN, adnet, tree


def refused(inputs, argv, edit, code, line, made):
    """Run argv after edit: exit code, and for exit 2 or 3 one stderr line;
    for exit 1, argparse's usage and then the line. No path changes but
    the directories made, which the command makes on purpose before it
    fails."""
    if edit is not None:
        edit(inputs)
    before = tree(inputs.root)
    got, out, err = adnet(inputs.argv(argv))
    assert (got, out) == (code, "")
    if code == 1:
        assert err.startswith("usage: adnet") and err.splitlines()[-1] == inputs.fill(line)
    else:
        assert err == inputs.fill(line) + "\n"
    assert tree(inputs.root) == before | {Path(name): None for name in made}


def row(name, argv, edit, code, line, made=()):
    return pytest.param(argv, edit, code, line, made, id=name)


COMMAND = {INFER: "infer", EVAL: "eval", TRAIN: "train", RESUME: "train --resume", SYNTH: "synth"}
ERROR = "adnet: error: "
NOT_UTF8 = "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
TOO_LONG = ("Exceeds the limit (4300 digits) for integer string conversion: value has 5000 "
            "digits; use sys.set_int_max_str_digits() to increase the limit")


V0 = "features/video_000.adnf"
FEATURE_FILES = [
    row("header of 2 bytes", INFER, lambda w: w.write(V0, b"AD"), 2,
        ERROR + "{features}/video_000.adnf @ byte 2: truncated header: 2 bytes, need 16"),
    row("bad magic", INFER, lambda w: w.write(V0, b"NOPE" + bytes(12)), 2,
        ERROR + "{features}/video_000.adnf @ byte 0: bad magic b'NOPE', expected b'ADNF'"),
    row("version 2", INFER, lambda w: w.splice(V0, 4, struct.pack("<I", 2)), 2,
        ERROR + "{features}/video_000.adnf @ byte 4: unsupported version 2"),
    row("no clips", INFER, lambda w: w.write(V0, b"ADNF" + struct.pack("<III", 1, 0, 4)), 2,
        ERROR + "{features}/video_000.adnf @ byte 8: empty feature sequences are not allowed"),
    row("dim unequal to the checkpoint's", INFER, lambda w: w.features("video_000", 2), 2,
        ERROR + "{features}/video_000.adnf @ byte 12: feature dim is 2, expected 5"),
    row("payload a byte short", INFER, lambda w: w.write(V0, w.read(V0)[:-1]), 2,
        ERROR + "{features}/video_000.adnf @ byte 16: payload is 379 bytes, expected 380 "
                "(19 clips x 5 dims x 4 bytes)"),
    row("NaN value", INFER, lambda w: w.splice(V0, 20, struct.pack("<f", np.nan)), 2,
        ERROR + "{features}/video_000.adnf @ byte 20: non-finite feature value"),
    row("a directory", INFER, lambda w: (w.root / "features" / "a.adnf").mkdir(), 2,
        ERROR + "{features}/a.adnf: cannot read feature file: [Errno 21] Is a directory: "
                "'{features}/a.adnf'"),
    row("no feature files", INFER,
        lambda w: [path.unlink() for path in (w.root / "features").iterdir()], 2,
        ERROR + "no .adnf feature files in {features}"),
    row("dim disagrees", TRAIN, lambda w: w.features("video_003", 3), 2,
        ERROR + "{features}/video_003.adnf: feature dim 3 disagrees with 5 in "
                "{features}/video_000.adnf"),
]


@pytest.mark.parametrize("argv,edit,code,line,made", FEATURE_FILES)
def test_feature_files(inputs, argv, edit, code, line, made):
    refused(inputs, argv, edit, code, line, made)


A0, A1 = "annotations/video_000.json", "annotations/video_001.json"
GT0 = ERROR + "{annotations}/video_000.json: "
HUGE = [{"start_frame": 0, "end_frame": 1, "label": 0},
        {"start_frame": 1, "end_frame": 10 ** 20, "label": 1}]
ANNOTATIONS = [
    row("gap", EVAL, lambda w: w.set(A0, "segments.1.start_frame", 70), 2,
        GT0 + "annotation segments have a gap between [0, 64) and [70, 96)"),
    row("overlap", EVAL, lambda w: w.set(A0, "segments.1.start_frame", 60), 2,
        GT0 + "annotation segments have an overlap between [0, 64) and [60, 96)"),
    row("unknown key", EVAL, lambda w: w.set(A0, "fps", 30), 2, GT0 + "unknown key 'fps'"),
    row("one segment of label 2", EVAL, lambda w: w.set(
        A0, "segments", [{"start_frame": 0, "end_frame": 304, "label": 2}]), 2,
        GT0 + "segments[0]: segment label must be 0 or 1, got 2"),
    row("label 2", EVAL, lambda w: w.set(A0, "segments.1.label", 2), 2,
        GT0 + "segments[1]: segment label must be 0 or 1, got 2"),
    row("not UTF-8", EVAL, lambda w: w.write(A0, b"\xff{"), 2, GT0 + NOT_UTF8),
    row("float end_frame", EVAL, lambda w: w.set(A0, "segments.1.end_frame", 96.0), 2,
        GT0 + "segments[1].end_frame must be an integer, got 96.0"),
    row("fractional end_frame", EVAL, lambda w: w.set(A0, "segments.0.end_frame", 2.5), 2,
        GT0 + "segments[0].end_frame must be an integer, got 2.5"),
    row("null start_frame", EVAL, lambda w: w.set(A0, "segments.0.start_frame", None), 2,
        GT0 + "segments[0].start_frame must be an integer, got null"),
    row("label false", EVAL, lambda w: w.set(A0, "segments.0.label", False), 2,
        GT0 + "segments[0].label must be an integer, got false"),
    row("label true", EVAL, lambda w: w.set(A0, "segments.1.label", True), 2,
        GT0 + "segments[1].label must be an integer, got true"),
    row("no segments", EVAL, lambda w: w.set(A0, "segments", []), 2,
        GT0 + "segments must be a non-empty list of objects, got []"),
    row("segment not an object", EVAL, lambda w: w.set(A0, "segments", [5]), 2,
        GT0 + "segments must be a non-empty list of objects, got [5]"),
    row("label missing", EVAL, lambda w: w.set(A0, "segments.0.label"), 2,
        GT0 + "segments[0].label is missing"),
    row("video_id missing", EVAL, lambda w: w.set(A0, "video_id"), 2, GT0 + "video_id is missing"),
    row("video_id 5", EVAL, lambda w: w.set(A0, "video_id", 5), 2,
        GT0 + "video_id must be a string, got 5"),
    row("video_id a list", EVAL, lambda w: w.set(A0, "video_id", ["a"]), 2,
        GT0 + 'video_id must be a string, got ["a"]'),
    row("frames_per_clip 0", EVAL, lambda w: w.set(A0, "frames_per_clip", 0), 2,
        GT0 + "frames_per_clip must be >= 1, got 0"),
    row("frames_per_clip true", EVAL, lambda w: w.set(A0, "frames_per_clip", True), 2,
        GT0 + "frames_per_clip must be an integer, got true"),
    row("total_frames past the segments", EVAL, lambda w: w.set(A0, "total_frames", 305), 2,
        GT0 + "annotation segments end at frame 304, total_frames is 305"),
    row("total_frames 2**63", EVAL, lambda w: w.set(A0, "total_frames", 2 ** 63) or w.set(
        A0, "segments.2.end_frame", 2 ** 63), 2,
        GT0 + f"total_frames must be < 2**63, got {2 ** 63}"),
    *[row(f"total_frames 10**20 under {COMMAND[argv]}", argv, lambda w: w.set(
        A0, "total_frames", 10 ** 20) or w.set(A0, "segments", HUGE), 2,
        GT0 + f"total_frames must be < 2**63, got {10 ** 20}") for argv in (EVAL, TRAIN)],
    row("integer of 5000 digits", EVAL, lambda w: w.replace(A0, b"304", b"1" * 5000), 2,
        GT0 + "invalid JSON: " + TOO_LONG),
    row("total_frames beyond the predictions", EVAL, lambda w: w.set(
        A0, "total_frames", 10 ** 15) or w.set(
        A0, "segments", [{"start_frame": 0, "end_frame": 10 ** 15, "label": 1}]), 2,
        GT0 + f"total_frames {10 ** 15} does not fit 19 clips at 16 frames per clip"),
    row("total_frames beyond the features", TRAIN, lambda w: w.set(
        A0, "total_frames", 10 ** 15) or w.set(
        A0, "segments", [{"start_frame": 0, "end_frame": 10 ** 15, "label": 0}]), 2,
        GT0 + f"total_frames {10 ** 15} does not fit 19 clips at 16 frames per clip"),
    row("a video without predictions", EVAL, lambda w: w.write(
        "annotations/w.json", (w.root / A0).read_text().replace("video_000", "w")), 2,
        ERROR + "prediction and ground-truth video sets differ: no prediction for ['w']"),
    row("a video without features", TRAIN,
        lambda w: (w.root / "annotations/video_003.json").unlink(), 2,
        ERROR + "feature and ground-truth video sets differ: no ground truth for "
                "['video_003']"),
    *[row(f"duplicate video_id under {COMMAND[argv]}", argv,
          lambda w: shutil.copy(w.root / A0, w.root / "annotations/z.json"), 2,
          ERROR + "{annotations}/z.json: video_id 'video_000' is also in "
                  "{annotations}/video_000.json") for argv in (EVAL, TRAIN)],
    row("frames_per_clip disagrees", TRAIN, lambda w: w.set(A1, "frames_per_clip", 8), 2,
        ERROR + "{annotations}/video_001.json: frames_per_clip 8 disagrees with 16 in "
                "{annotations}/video_000.json"),
    row("frames_per_clip disagrees with the predictions", EVAL,
        lambda w: w.set(A1, "frames_per_clip", 2), 2,
        ERROR + "{annotations}/video_001.json: frames_per_clip 2 disagrees with 16 in "
                "{pred}/video_000.json"),
]


@pytest.mark.parametrize("argv,edit,code,line,made", ANNOTATIONS)
def test_annotations(inputs, argv, edit, code, line, made):
    refused(inputs, argv, edit, code, line, made)


CK = "model.adnc"
AT12 = ERROR + "{checkpoint} @ byte 12: "
CKE = ERROR + "{checkpoint}: "


def header_field(command, field, value, message):
    argv = INFER if command == "infer" else RESUME
    shown = "removed" if value is DROP else json.dumps(value)
    return row(f"{field} {shown} under {COMMAND[argv]}", argv,
               lambda w: w.set(CK, field, value), 2, AT12 + "malformed header: " + message)


def roster(name, change, message):
    """One edit of the roster, refused by infer and by train --resume."""
    return [row(f"{name} under {COMMAND[argv]}", argv,
                lambda w: w.json(CK, lambda header: change(header["tensors"])), 2, CKE + message)
            for argv in (INFER, RESUME)]


def nested(depth):
    return "[" * depth + "8" + "]" * depth


PROJ0 = '{"name": "stage0.proj.weight", "shape": '


def nested_shape(w):
    """A roster of one entry whose shape is nested 990 deep; json.dumps
    stops near depth 1000, so the text is spliced in."""
    w.set(CK, "tensors", ["@"])
    w.replace(CK, b'"@"', (PROJ0 + nested(990) + "}").encode())


BIAS1 = '{"name": "stage0.proj.bias", "shape": '
CHECKPOINTS = [
    *[row(f"missing under {COMMAND[argv]}", argv, lambda w: (w.root / CK).unlink(), 2,
          CKE + "cannot read checkpoint: [Errno 2] No such file or directory: '{checkpoint}'")
      for argv in (INFER, RESUME)],
    row("version 9", RESUME, lambda w: w.splice(CK, 4, struct.pack("<I", 9)), 2,
        ERROR + "{checkpoint} @ byte 4: unsupported version 9"),
    row("header nested 100000 deep", INFER, lambda w: w.write(
        CK, storage.CHECKPOINT_MAGIC + struct.pack("<II", 1, 200_000)
        + b"[" * 100_000 + b"]" * 100_000), 2, AT12 + "invalid header JSON: " + TOO_DEEP),
    row("integer of 5000 digits", RESUME,
        lambda w: w.replace(CK, b'"seed": 3', b'"seed": ' + b"1" * 5000), 2,
        AT12 + "invalid header JSON: " + TOO_LONG),
    *[row(f"format_version removed under {COMMAND[argv]}", argv,
          lambda w: w.set(CK, "format_version"), 2, AT12 + "malformed header: 'format_version'")
      for argv in (INFER, RESUME)],
    *[header_field(*case) for case in [
        ("infer", "model.num_stages", 2.0, "model.num_stages must be an integer, got 2.0"),
        ("infer", "model.window_width", 8.0, "model.window_width must be an integer, got 8.0"),
        ("infer", "frames_per_clip", "16", 'frames_per_clip must be an integer, got "16"'),
        ("train", "epochs_completed", "1", 'epochs_completed must be an integer, got "1"'),
        ("infer", "train.epochs", 1.5, "train.epochs must be an integer, got 1.5"),
        ("infer", "train.seed", True, "train.seed must be an integer, got true"),
        ("train", "adam.step_count", 1.5, "adam.step_count must be an integer, got 1.5"),
        # values of the right type that no training run writes
        ("infer", "seed", -1, "seed must be >= 0, got -1"),
        ("infer", "frames_per_clip", -3, "frames_per_clip must be >= 1, got -3"),
        ("infer", "frames_per_clip", 0, "frames_per_clip must be >= 1, got 0"),
        ("train", "epochs_completed", -5, "epochs_completed must be >= 0, got -5"),
        ("train", "adam.lr", 0.0, "adam.lr must be > 0, got 0.0"),
        ("train", "adam.lr", -1e-3, "adam.lr must be > 0, got -0.001"),
        ("train", "adam.beta1", -0.1, "adam.beta1 must be in [0, 1), got -0.1"),
        ("train", "adam.beta1", 1.0, "adam.beta1 must be in [0, 1), got 1.0"),
        ("train", "adam.beta2", 1.0, "adam.beta2 must be in [0, 1), got 1.0"),
        ("train", "adam.beta2", -0.5, "adam.beta2 must be in [0, 1), got -0.5"),
        ("train", "adam.epsilon", 0.0, "adam.epsilon must be > 0, got 0.0"),
        ("train", "adam.step_count", -1, "adam.step_count must be >= 0, got -1"),
        ("infer", "adam.beta2", 1.0, "adam.beta2 must be in [0, 1), got 1.0"),
        # save_checkpoint writes format 1, and no other format is read
        ("infer", "format_version", 99, "format_version must be 1, got 99"),
        ("train", "format_version", "one", 'format_version must be 1, got "one"'),
        ("infer", "format_version", 1.0, "format_version must be 1, got 1.0"),
        ("train", "format_version", True, "format_version must be 1, got true"),
        ("train", "model.window_width", DROP, "model.window_width is missing"),
        ("train", "train.lambda", DROP, "train.lambda is missing")]],
    row("stages beyond the roster", RESUME, lambda w: w.set(CK, "model.num_stages", 10 ** 4), 2,
        CKE + "48 tensors cannot hold 10000 stages of 3 layers"),
    # single edits of the roster, whose entries 1, 3, 5 and 7 all have shape [8]
    *roster("first dropped", lambda tensors: tensors.pop(0),
            "tensors[0] is {entry1}, expected {entry0}"),
    *roster("dropped", lambda tensors: tensors.pop(3),
            "tensors[3] is {entry4}, expected {entry3}"),
    *roster("last dropped", lambda tensors: tensors.pop(),
            "tensors[47] is nothing, expected {entry47}"),
    *roster("appended", lambda tensors: tensors.append(tensors[0]),
            "tensors[48] is {entry0}, expected nothing"),
    *roster("duplicated", lambda tensors: tensors.insert(4, tensors[3]),
            "tensors[4] is {entry3}, expected {entry4}"),
    *roster("swapped", lambda tensors: tensors.__setitem__(slice(5, 8, 2), tensors[7:4:-2]),
            "tensors[5] is {entry7}, expected {entry5}"),
    *roster("renamed", lambda tensors: tensors[2].update(name=tensors[2]["name"] + "x"),
            'tensors[2] is {"name": "stage0.block0.dilated.weightx", "shape": [8, 8, 3]}, '
            "expected {entry2}"),
    *roster("float shapes", lambda tensors: tensors[0].update(shape=[8.0, 5.0]),
            "tensors[0] is " + PROJ0 + "[8.0, 5.0]}, expected {entry0}"),
    *roster("other shape", lambda tensors: tensors[0].update(shape=[8, 6]),
            "tensors[0] is " + PROJ0 + "[8, 6]}, expected {entry0}"),
    *roster("float shape", lambda tensors: tensors[1].update(shape=[8.0]),
            "tensors[1] is " + BIAS1 + "[8.0]}, expected {entry1}"),
    *roster("bool shape", lambda tensors: tensors[1].update(shape=[True]),
            "tensors[1] is " + BIAS1 + "[true]}, expected {entry1}"),
    *roster("string shape", lambda tensors: tensors[1].update(shape=["8"]),
            "tensors[1] is " + BIAS1 + '["8"]}, expected {entry1}'),
    *roster("extra key", lambda tensors: tensors[0].update(dtype="<f8"),
            'tensors[0] is {"dtype": "<f8", "name": "stage0.proj.weight", "shape": [8, 5]}, '
            "expected {entry0}"),
    *roster("missing key", lambda tensors: tensors[0].pop("shape"),
            'tensors[0] is {"name": "stage0.proj.weight"}, expected {entry0}'),
    *roster("shape nested 500 deep", lambda tensors: tensors[1].update(
        shape=json.loads(nested(500))), "tensors[1] is " + BIAS1 + nested(500)
        + "}, expected {entry1}"),
    *[row(f"tensors {text} under {COMMAND[argv]}", argv,
          lambda w, text=text: w.set(CK, "tensors", json.loads(text)), 2, CKE + message)
      for text, message in [("{}", "tensors is {}, expected a list"),
                            ("null", "tensors is null, expected a list"),
                            ("5", "tensors is 5, expected a list"),
                            ("[]", "0 tensors cannot hold 1 stages of 3 layers")]
      for argv in (INFER, RESUME)],
    # at CPython 3.11's recursion limit json.loads refuses this header
    *[row(f"shape nested 990 deep under {COMMAND[argv]}", argv, nested_shape, 2,
          AT12 + "invalid header JSON: " + TOO_DEEP if sys.version_info < (3, 12)
          else CKE + "tensors[0] is " + PROJ0 + nested(990) + "}, expected {entry0}")
      for argv in (INFER, RESUME)],
    *[row(f"{name} under infer", INFER, lambda w, order=order: w.reorder(order), 2,
          CKE + message)
      for name, order, message in [
          ("reversed with its payload", range(47, -1, -1),
           "tensors[0] is {entry47}, expected {entry0}"),
          ("swapped with its payload", [*range(5), 7, 6, 5, *range(8, 48)],
           "tensors[5] is {entry7}, expected {entry5}")]],
    row("another model", RESUME, lambda w: w.set("run.json", "model.hidden_channels", 16), 2,
        CKE + "checkpoint model config {'window_width': 8, 'num_stages': 1, 'num_layers': 3, "
              "'input_dim': 5, 'kernel_size': 3, 'hidden_channels': 8, 'threshold': 0.5} is "
              "incompatible with requested {'window_width': 8, 'num_stages': 1, 'num_layers': 3, "
              "'input_dim': 5, 'kernel_size': 3, 'hidden_channels': 16, 'threshold': 0.5}"),
    row("payload cut in the second moments", INFER, lambda w: w.write(
        CK, w.read(CK)[:w.offsets["optimizer.v.stage0.block1.dilated.weight"] + 8]),
        2, ERROR + "{checkpoint} @ byte {@optimizer.v.stage0.block1.dilated.weight}: truncated "
                   "payload for tensor 'optimizer.v.stage0.block1.dilated.weight'"),
    row("trailing bytes", INFER, lambda w: w.write(CK, w.read(CK) + b"extra"), 2,
        ERROR + "{checkpoint} @ byte {end}: 5 trailing bytes after last tensor"),
    row("no optimizer state", RESUME, lambda w: w.checkpoint(lambda ckpt: setattr(ckpt, "adam", None)), 2,
        CKE + "no optimizer state to resume from"),
    *[row(f"{value} in {tensor}[{element}] under {COMMAND[argv]}", argv,
          lambda w, case=(tensor, element, value): w.put(*case), 2,
          ERROR + f"{{checkpoint}} @ byte {{@{tensor}+{element}}}: {what} value in tensor "
                  f"{tensor!r}")
      for argv, tensor, element, value, what in [
          (INFER, "stage0.proj.weight", 0, np.nan, "non-finite"),
          (INFER, "stage0.head.bias", 0, np.inf, "non-finite"),
          (RESUME, "stage0.proj.weight", 3, np.nan, "non-finite"),
          (RESUME, "stage0.head.weight", 2, np.nan, "non-finite"),
          (RESUME, "optimizer.m.stage0.proj.bias", 2, -np.inf, "non-finite"),
          (RESUME, "optimizer.m.stage0.block1.dilated.weight", 3, np.inf, "non-finite"),
          (RESUME, "optimizer.v.stage0.head.weight", 3, -1e-12, "negative"),
          (RESUME, "optimizer.v.stage0.block2.pointwise.weight", 2, -0.5, "negative")]],
]


@pytest.mark.parametrize("argv,edit,code,line,made", CHECKPOINTS)
def test_checkpoints(inputs, argv, edit, code, line, made):
    refused(inputs, argv, edit, code, line, made)


P0, P1 = "pred/video_000.json", "pred/video_001.json"
PRED0 = ERROR + "{pred}/video_000.json: "
PREDICTIONS = [
    *[row(f"score {score}", EVAL, lambda w, score=score: w.set(P0, "clip_scores.1", score), 2,
          PRED0 + "scores must be finite and lie in [0, 1]")
      for score in [float("nan"), float("inf"), 7.0, -0.1]],
    *[row(f"clip_scores {json.dumps(scores)}", EVAL,
          lambda w, scores=scores: w.set(P0, "clip_scores", scores), 2,
          PRED0 + "clip_scores must be a non-empty list of numbers")
      for scores in [[0.0, "x", 1.0, 1.0], [[0.0], [0.0], [1.0], [1.0]], [],
                     [0.0, None, 1.0, 1.0], [0.0, True, 1.0, 1.0], "0.0,0.0,1.0,1.0"]],
    row("clip score 10**400", EVAL, lambda w: w.set(P0, "clip_scores", [0.0, 10 ** 400]), 2,
        PRED0 + "clip_scores: int too large to convert to float"),
    *[row(f"config {json.dumps(config)}", EVAL,
          lambda w, config=config: w.set(P0, "config", config), 2, PRED0 + message)
      for config, message in [([], "config must be a JSON object"),
                              ("x", "config must be a JSON object")]
      + [({"threshold": value}, f"config.threshold must be a number in (0, 1), got {value!r}")
         for value in ["0.5", True, None, [0.5], 0, 1, -0.1, 1.5]]],
    *[row(f"frames_per_clip {json.dumps(frames)}", EVAL,
          lambda w, frames=frames: w.set(P0, "frames_per_clip", frames), 2,
          PRED0 + f"frames_per_clip must be a positive integer, got {json.dumps(frames)}")
      for frames in [1.0, 16.0, True, 0, "16", None]],
    row("video_id missing", EVAL, lambda w: w.set(P0, "video_id"), 2,
        PRED0 + "missing field 'video_id'"),
    row("video_id 1", EVAL, lambda w: w.set(P0, "video_id", 1), 2,
        PRED0 + "video_id must be a string, got 1"),
    row("a list", EVAL, lambda w: w.write(P0, b"[0.5]"), 2,
        PRED0 + "prediction document must be a JSON object"),
    row("not UTF-8", EVAL, lambda w: w.write(P0, b"\xff{"), 2, PRED0 + NOT_UTF8),
    row("nested 100000 deep", EVAL, lambda w: w.write(
        P0, '{"frame_scores": ' + "[" * 100_000 + "]" * 100_000 + "}"), 2,
        PRED0 + "invalid JSON: " + TOO_DEEP),
    row("a directory", EVAL, lambda w: (w.root / "pred" / "w.json").mkdir(), 2,
        ERROR + "{pred}/w.json: cannot read prediction: [Errno 21] Is a directory: "
                "'{pred}/w.json'"),
    row("duplicate video_id", EVAL, lambda w: shutil.copy(w.root / P0, w.root / "pred/z.json"), 2,
        ERROR + "{pred}/z.json: video_id 'video_000' is also in {pred}/video_000.json"),
    row("threshold disagrees", EVAL, lambda w: w.set(P1, "config.threshold", 0.25), 2,
        ERROR + "{pred}/video_001.json: threshold 0.25 disagrees with 0.5 in "
                "{pred}/video_000.json"),
    row("frames_per_clip disagrees", EVAL, lambda w: w.set(P1, "frames_per_clip", 2), 2,
        ERROR + "{pred}/video_001.json: frames_per_clip 2 disagrees with 16 in "
                "{pred}/video_000.json"),
]


@pytest.mark.parametrize("argv,edit,code,line,made", PREDICTIONS)
def test_prediction_documents(inputs, argv, edit, code, line, made):
    refused(inputs, argv, edit, code, line, made)


CONF = ERROR + "{config}: "
# Values of each field type's wrong types, and how the refusal names the type.
WRONG_VALUES = {int: [1.5, True, "64"], float: ["0.5", False], bool: [1, "true"],
                str: [3, None], tuple[int, int]: [[1], [1, 2.5], [True, 2], "1,2"]}
TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
              str: "a string", tuple[int, int]: "a list of two integers"}
FLOAT_KEYS = [(section, key) for section, keys in cli.CONFIG_SCHEMA.items()
              for key, kind in keys.items() if kind is float]
TOO_BIG = ("out of memory: array is too big; `arr.size * arr.dtype.itemsize` is larger than "
           "the maximum possible size.")
TOO_MANY = "out of memory: Maximum allowed dimension exceeded"
RUN_CONFIGS = [
    *[row(f"{section}.{key} {json.dumps(value)}", SYNTH,
          lambda w, path=f"{section}.{key}", value=value: w.set("run.json", path, value), 2,
          CONF + f"{section}.{key} must be {TYPE_NAMES[kind]}, got {json.dumps(value)}")
      for section, keys in cli.CONFIG_SCHEMA.items() for key, kind in keys.items()
      for value in WRONG_VALUES[kind]],
    *[row(f"{section}.{key} {token[:12]}", SYNTH,
          lambda w, path=f"{section}.{key}", token=token: w.set("run.json", path, "@")
          or w.replace("run.json", b'"@"', token.encode()), 2,
          CONF + f"{section}.{key} must be a finite number, got {shown}")
      for section, key in FLOAT_KEYS
      for token, shown in [("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
                           ("1e999", "Infinity"), ("1" * 400, "1" * 400)]],
    row("not an object", TRAIN, lambda w: w.write("run.json", "[]"), 2,
        CONF + "config must be a JSON object"),
    row("not UTF-8", TRAIN, lambda w: w.write("run.json", b"\xff{"), 2, CONF + NOT_UTF8),
    row("unknown section", TRAIN, lambda w: w.set("run.json", "extra", {}), 2,
        CONF + "unknown config section 'extra'"),
    row("unknown key", SYNTH, lambda w: w.set("run.json", "synth.bogus", 1), 2,
        CONF + "unknown key 'synth.bogus'"),
    row("layers beyond the window", TRAIN, lambda w: w.set("run.json", "model.num_layers", 4), 2,
        ERROR + "model: num_layers=4 exceeds max_layers(8, 3) = 3"),
    row("input_dim unequal to the features", TRAIN,
        lambda w: w.set("run.json", "model.input_dim", 3), 2,
        ERROR + "config says input_dim=3 but feature files carry 5"),
    *[row(f"paths.{key} with a NUL", TRAIN,
          lambda w, key=key: w.set("run.json", f"paths.{key}", "m\0.adnc"), 2,
          CONF + f'paths.{key} must not hold a NUL character, got "m\\u0000.adnc"')
      for key in cli.CONFIG_SCHEMA["paths"]],
    row("no checkpoint path", TRAIN, lambda w: w.set("run.json", "paths.checkpoint"), 2,
        ERROR + "no 'checkpoint' given (config paths.checkpoint)"),
    row("no corpus", TRAIN, lambda w: w.set("run.json", "paths", {
        "features_dir": str(w.root / "nowhere"), "annotations_dir": str(w.root / "nowhere"),
        "checkpoint": str(w.root / "model.adnc")}), 2,
        ERROR + "no .adnf feature files in {root}/nowhere"),
    # outputs that collide, refused before train makes a directory or trains
    *[row(f"checkpoint {name}", TRAIN, lambda w, ckpt=ckpt, out=out: w.set(
        "run.json", "paths.checkpoint", str(w.root / ckpt)) or w.set(
        "run.json", "paths.out_dir", str(w.root / out)), 2,
        CONF + f"paths.checkpoint {{root}}/{ckpt} collides with paths.out_dir {{root}}/{out} "
               "or its train_log.jsonl")
      for name, ckpt, out in [("the training log", "log/train_log.jsonl", "log"),
                              ("out_dir", "log", "log"),
                              ("a directory above out_dir", "m.adnc", "m.adnc/log"),
                              ("under the training log", "log/train_log.jsonl/m.adnc", "log")]],
    row("checkpoint a directory", TRAIN, lambda w: w.root.joinpath("model.adnc").unlink()
        or w.root.joinpath("model.adnc").mkdir(), 2, ERROR + "{checkpoint}: Is a directory"),
    row("the training log a directory", TRAIN,
        lambda w: (w.root / "log" / "train_log.jsonl").mkdir(parents=True), 2,
        ERROR + "{root}/log/train_log.jsonl: Is a directory"),
    # read before the checkpoint is overwritten, which a bad log leaves as it was
    row("an undecodable log under train --resume", RESUME, lambda w: (w.root / "log").mkdir()
        or w.write("log/train_log.jsonl", b"\xff\n"), 2,
        ERROR + "{root}/log/train_log.jsonl: " + NOT_UTF8),
    *[row(f"out_dir a file under {COMMAND[argv]}", argv, lambda w: w.write("log", "")
          or w.set("run.json", "paths.out_dir", str(w.root / "log")), 2,
          ERROR + "{root}/log: File exists") for argv in (TRAIN, RESUME)],
    # 10**8 channels: the parameter vector, about 1.2e17 float64, is 853
    # PiB, beyond any address space, so nothing is allocated; numpy
    # refuses the larger sizes before it tries. Train makes paths.out_dir
    # (log) before it trains, so that a path that cannot be a directory
    # is refused before the training, not after it.
    *[row(f"hidden_channels {name}", TRAIN, lambda w, channels=channels: w.set(
        "run.json", "model.hidden_channels", channels), 2, ERROR + message, made=["log"])
      for name, channels, message in [
          ("10**8", 10 ** 8, "out of memory: Unable to allocate 853. PiB for an array with "
                             "shape (120000001300000001,) and data type float64"),
          ("4*10**8", 4 * 10 ** 8, TOO_BIG), ("10**18", 10 ** 18, TOO_MANY)]],
    *[row(f"synth.input_dim {dim}", SYNTH,
          lambda w, dim=dim: w.set("run.json", "synth.input_dim", dim), 2, ERROR + message)
      for dim, message in [(10 ** 18, TOO_BIG), (10 ** 19, TOO_MANY)]],
]


@pytest.mark.parametrize("argv,edit,code,line,made", RUN_CONFIGS)
def test_run_configs(inputs, argv, edit, code, line, made):
    refused(inputs, argv, edit, code, line, made)


# Flags are refused while parsing, before any file is read: here p, g and
# missing.adnc do not exist.
PARSED_EVAL = "eval --pred {root}/p --gt {root}/g --k "
FLAGS = [
    row("a required flag missing", "synth --out {new}", None, 1,
        "adnet synth: error: the following arguments are required: --config"),
    row("unknown subcommand", "transmogrify", None, 1,
        "adnet: error: argument command: invalid choice: 'transmogrify' "
        "(choose from 'synth', 'train', 'infer', 'eval')"),
    row("k not a number", PARSED_EVAL + "10,banana", None, 1,
        "adnet eval: error: argument --k: bad k list '10,banana': invalid literal for int() "
        "with base 10: 'banana'"),
    row("k repeated", PARSED_EVAL + "25,10,010", None, 1,
        "adnet eval: error: argument --k: bad k list '25,10,010': k 10 is given twice"),
    *[row(f"k {k}", PARSED_EVAL + f"10,{k}", None, 1,
          f"adnet eval: error: argument --k: bad k list '10,{k}': k must lie in (0, 100], "
          f"got {k}") for k in ["0", "101", "-1"]],
    *[row(f"threshold {value}{name}", checkpoint + " --threshold " + value, None, 1,
          f"adnet infer: error: argument --threshold: bad threshold '{value}': must lie in (0, 1)")
      for name, checkpoint in [("", INFER), (" without a checkpoint", INFER.replace(
          "{checkpoint}", "{root}/missing.adnc"))]
      for value in ["0", "1", "nan", "2", "-0.5", "inf"]],
    row("threshold not a number", INFER + " --threshold x", None, 1,
        "adnet infer: error: argument --threshold: bad threshold 'x': could not convert string "
        "to float: 'x'"),
    row("infer --out a file", INFER.replace("{out}", "{root}/blocker"),
        lambda w: w.write("blocker", ""), 2, ERROR + "{root}/blocker: File exists"),
    row("synth --out a file", "synth --config {config} --out {root}/blocker",
        lambda w: w.write("blocker", ""), 2, ERROR + "{root}/blocker/features: Not a directory"),
    row("eval --pred without documents", "eval --pred {features} --gt {annotations}", None, 2,
        ERROR + "no prediction documents in {features}"),
]


@pytest.mark.parametrize("argv,edit,code,line,made", FLAGS)
def test_flags(inputs, argv, edit, code, line, made):
    refused(inputs, argv, edit, code, line, made)
