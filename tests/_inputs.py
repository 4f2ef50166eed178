"""Valid inputs of the command-line tests, edits of them, and the one
runner through which every test calls the command line in-process.

`Inputs` is a copy of the `pipeline` fixture's synth -> train -> infer
round trip (tests/conftest.py) in a directory of its own, which a test
edits into the input it needs: the `inputs` fixture gives one to a test,
and `fresh_inputs` one to each draw of a Hypothesis test. `adnet` runs one
command in-process and `adnet_subprocess` in a child process; both assert
that the outcome is documented (`assert_documented`).

`write_config` writes a run config, and `SMALL_SYNTH` and `SMALL_MODEL`
are the sections of a corpus and model small enough to synth, train and
infer in well under a second. `rewrite_header` and `payload_offsets` edit
and locate a checkpoint's bytes, and `set_at` sets a member of a JSON
document by its path.
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from adnet import cli, io as storage
from adnet.io import ClipFeatureSequence


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_SYNTH = {"num_videos": 4, "clips_min": 12, "clips_max": 20, "input_dim": 5,
               "seed": 3}
SMALL_MODEL = {"window_width": 8, "num_stages": 1, "num_layers": 3,
               "hidden_channels": 8}

# The ground truth of a one-video eval, four clips of one frame:
# two normal, then two abnormal.
ONE_VIDEO_MANIFEST = {"video_id": "v", "frames_per_clip": 1, "total_frames": 4,
                      "segments": [{"start_frame": 0, "end_frame": 2, "label": 0},
                                   {"start_frame": 2, "end_frame": 4, "label": 1}]}


def huge_clip_manifest(frames_per_clip, total_frames):
    """A one-clip video's manifest: one frame of label 0, the rest label 1.
    Frame counts of 10**15 and more could not be allocated frame by frame
    on any machine."""
    return {"video_id": "v", "frames_per_clip": frames_per_clip, "total_frames": total_frames,
            "segments": [{"start_frame": 0, "end_frame": 1, "label": 0},
                         {"start_frame": 1, "end_frame": total_frames, "label": 1}]}


def set_at(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def rewrite_header(path, edit):
    """Rewrite a checkpoint file after edit() has changed its header in place."""
    raw = path.read_bytes()
    header_len = struct.unpack_from("<I", raw, 8)[0]
    header = json.loads(raw[12:12 + header_len])
    edit(header)
    new_header = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(new_header)) + new_header
                     + raw[12 + header_len:])


def payload_offsets(raw: bytes) -> dict:
    """Tensor name -> byte offset of its payload, from a checkpoint's header."""
    header_len = struct.unpack_from("<I", raw, 8)[0]
    offsets = {}
    offset = 12 + header_len
    for entry in json.loads(raw[12:12 + header_len])["tensors"]:
        offsets[entry["name"]] = offset
        offset += 8 * math.prod(entry["shape"])
    return offsets


DROP = object()


class Inputs:
    """A copy of the pipeline's valid inputs under root, and edits of it.

    The copy holds features/, annotations/, pred/ and model.adnc, and
    run.json, a one-epoch run config that reads them, writes model.adnc
    and puts its log in log/. In the templates of fill and argv,
    {features}, {annotations}, {pred}, {checkpoint}, {config}, {out} and
    {new} are these paths (out and new not made), {root} the copy's
    directory, {entryN} the JSON of the checkpoint's Nth roster entry,
    {@name} and {@name+K} the byte offset of tensor name's first and Kth
    value, and {end} the checkpoint's size."""

    def __init__(self, pipeline, root):
        source, corpus, _ = pipeline
        for name in ("features", "annotations"):
            shutil.copytree(corpus / name, root / name)
        shutil.copytree(source / "pred", root / "pred")
        shutil.copy(source / "model.adnc", root / "model.adnc")
        write_config(root / "run.json", {
            "synth": SMALL_SYNTH, "model": SMALL_MODEL, "train": {"epochs": 1, "seed": 3},
            "paths": {"features_dir": str(root / "features"),
                      "annotations_dir": str(root / "annotations"),
                      "checkpoint": str(root / "model.adnc"), "out_dir": str(root / "log")}})
        raw = (root / "model.adnc").read_bytes()
        header = json.loads(raw[12:12 + struct.unpack_from("<I", raw, 8)[0]])
        self.root = root
        self.offsets = payload_offsets(raw)
        self.names = {
            "root": root, "features": root / "features", "annotations": root / "annotations",
            "pred": root / "pred", "checkpoint": root / "model.adnc", "config": root / "run.json",
            "out": root / "scored", "new": root / "new", "end": len(raw),
            **{f"entry{index}": json.dumps(entry, sort_keys=True)
               for index, entry in enumerate(header["tensors"])}}

    def fill(self, template: str) -> str:
        def value(match):
            key = match[1]
            if key.startswith("@"):
                name, _, element = key[1:].partition("+")
                return str(self.offsets[name] + 8 * int(element or 0))
            return str(self.names.get(key, match[0]))
        return re.sub(r"\{(@?[\w.+]+)\}", value, template)

    def argv(self, template: str) -> list:
        """The command line of template, its words filled."""
        return [self.fill(word) for word in template.split()]

    def paths(self) -> dict:
        """Every path under root, a file's with its bytes and a
        directory's with None."""
        return {path: path.read_bytes() if path.is_file() else None
                for path in self.root.rglob("*")}

    def read(self, name) -> bytes:
        return (self.root / name).read_bytes()

    def write(self, name, data):
        """Write file name as bytes, text, or the JSON of a dict."""
        if isinstance(data, dict):
            data = json.dumps(data)
        (self.root / name).write_bytes(data.encode() if isinstance(data, str) else data)

    def splice(self, name, offset, data: bytes):
        """Overwrite file name's bytes from offset with data."""
        raw = self.read(name)
        self.write(name, raw[:offset] + data + raw[offset + len(data):])

    def json(self, name, change):
        """Apply change to the JSON document of file name, or to the
        header of a checkpoint."""
        path = self.root / name
        if path.suffix == ".adnc":
            rewrite_header(path, change)
        else:
            doc = json.loads(path.read_text())
            change(doc)
            path.write_text(json.dumps(doc))

    def set(self, name, key, value=DROP):
        """Set, or delete without a value, the member key ("segments.1.label")."""
        def change(doc):
            *parents, last = [int(part) if part.isdigit() else part for part in key.split(".")]
            for part in parents:
                doc = doc[part]
            if value is DROP:
                del doc[last]
            else:
                doc[last] = value
        self.json(name, change)

    def replace(self, name, old: bytes, new: bytes):
        """Replace the first old of file name, or of a checkpoint's header."""
        path = self.root / name
        raw = path.read_bytes()
        if path.suffix == ".adnc":
            header_len = struct.unpack_from("<I", raw, 8)[0]
            header = raw[12:12 + header_len].replace(old, new, 1)
            raw = raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + header_len:]
        else:
            raw = raw.replace(old, new, 1)
        path.write_bytes(raw)

    def put(self, tensor, element, value):
        """Store value at the checkpoint's element of tensor."""
        self.splice("model.adnc", self.offsets[tensor] + 8 * element, struct.pack("<d", value))

    def reorder(self, order):
        """Rewrite the checkpoint with its roster and payload both in the
        order of the entry indices order."""
        path = self.root / "model.adnc"
        raw = path.read_bytes()
        header_len = struct.unpack_from("<I", raw, 8)[0]
        header = json.loads(raw[12:12 + header_len])
        blobs = [raw[self.offsets[entry["name"]]:
                     self.offsets[entry["name"]] + 8 * math.prod(entry["shape"])]
                 for entry in header["tensors"]]
        header["tensors"] = [header["tensors"][index] for index in order]
        text = json.dumps(header).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text
                         + b"".join(blobs[index] for index in order))

    def features(self, video, dim, clips=None):
        """Write video's feature file as ones of dim rows and clips
        columns, by default as many as the file has."""
        path = self.root / "features" / f"{video}.adnf"
        clips = clips or storage.read_features(path).num_clips
        storage.write_features(ClipFeatureSequence(video, np.ones((dim, clips))), path)

    def checkpoint(self, change):
        """Load the checkpoint, apply change to it and save it back;
        returns the changed checkpoint."""
        ckpt = storage.load_checkpoint(self.root / "model.adnc")
        change(ckpt)
        storage.save_checkpoint(ckpt, self.root / "model.adnc")
        return ckpt


# Command lines, for Inputs.argv, that read the copy's valid inputs.
INFER = "infer --checkpoint {checkpoint} --features {features} --out {out}"
EVAL = "eval --pred {pred} --gt {annotations}"
TRAIN = "train --config {config}"
RESUME = "train --config {config} --resume"
SYNTH = "synth --config {config} --out {new}"


@contextlib.contextmanager
def fresh_inputs(pipeline):
    """Inputs in a temporary directory that is removed on exit: a fresh
    copy for each draw of a Hypothesis test, whose function-scoped
    fixtures every draw would share."""
    with tempfile.TemporaryDirectory() as root:
        yield Inputs(pipeline, Path(root))


def assert_documented(outcome):
    """Assert that an adnet call's (exit code, stdout, stderr) is a
    documented outcome: exit 0 with nothing on stderr; exit 1 with
    argparse's usage and then one error line; exit 2 with one adnet: error
    line; or exit 3 with one numeric-failure line."""
    code, _, err = outcome
    if code == 1:
        assert err.startswith("usage: adnet"), err
        assert re.fullmatch(r"adnet( \w+)?: error: .+", err.splitlines()[-1]), err
    else:
        prefix = {0: "", 2: "adnet: error: ", 3: "adnet: numeric failure: "}[code]
        assert err == "" if code == 0 else (
            err.startswith(prefix) and err.count("\n") == 1), err


def adnet(argv, members=cli.PREDICTION_MEMBERS):
    """(exit code, stdout, stderr) of one in-process adnet call, in which
    eval builds the given prediction-document members (None for all),
    after assert_documented. A traceback propagates out of cli.main and
    fails the caller. stdout and stderr are redirected, not read through
    capsys, so that a Hypothesis test may call it."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "PREDICTION_MEMBERS", members), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(arg) for arg in argv])
        except SystemExit as exc:  # argparse
            code = exc.code
    outcome = code, out.getvalue(), err.getvalue()
    assert_documented(outcome)
    return outcome


def adnet_command(argv) -> dict:
    """subprocess.run's or Popen's args and env for `python -m adnet.cli
    argv` with the package of this checkout."""
    return {"args": [sys.executable, "-m", "adnet.cli", *map(str, argv)],
            "env": {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}}


def adnet_subprocess(argv):
    """(exit code, stdout, stderr) of adnet run in a child process, whose
    stderr, unlike an in-process call's, shows numpy's warnings, after
    assert_documented."""
    proc = subprocess.run(**adnet_command(argv), capture_output=True, timeout=120)
    outcome = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    assert_documented(outcome)
    return outcome
