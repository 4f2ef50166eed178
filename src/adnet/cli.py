"""Command-line entry point: synth, train, infer, and eval subcommands.

Run-config fields override the defaults of the config dataclasses; the
one flag that overrides a stored value, infer --threshold, overrides the
checkpoint's model.threshold. Every output document embeds the tool
version and the resolved configuration. Exit codes: 0 success, 1 usage,
2 data or format error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import evaluation
from . import io as storage
from . import model as architecture
from . import synth as generator
from . import training
from .errors import (AdnetError, CheckpointError, ConfigError, FormatError, InputError,
                     InternalError, NumericError)
from .model import ADNetConfig
from .training import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# How numpy words its refusal of an array size beyond its limit.
NUMPY_SIZE_REFUSALS = ("array is too big", "Maximum allowed dimension exceeded")

# The JSON type of every run-config key, by section. The model, train and
# synth sections are the fields of their config dataclasses.
CONFIG_SCHEMA = {
    "model": storage.config_types(ADNetConfig),
    "train": storage.config_types(TrainConfig),
    "synth": storage.config_types(generator.SynthConfig),
    "paths": dict.fromkeys(("features_dir", "annotations_dir", "checkpoint", "out_dir"), str),
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def load_run_config(path) -> dict:
    """Parse a run-config document and check every key and value type
    against CONFIG_SCHEMA; unknown keys are rejected."""
    doc = storage.read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for section, content in doc.items():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}: unknown config section {section!r}")
        try:
            storage.check_types(CONFIG_SCHEMA[section], content, section)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    for key, value in doc.get("paths", {}).items():  # the OS refuses a NUL in a path
        if "\0" in value:
            raise ConfigError(f"{path}: paths.{key} must not hold a NUL character, "
                              f"got {json.dumps(value)}")
    return doc


def _model_config(doc: dict, input_dim: int) -> ADNetConfig:
    config = storage.config_from_dict(ADNetConfig, doc.get("model", {}), "model",
                                      input_dim=input_dim)
    if config.input_dim != input_dim:
        raise InputError(f"config says input_dim={config.input_dim} "
                         f"but feature files carry {input_dim}")
    return config


def _resolve_path(doc: dict, key: str, required: bool = True):
    value = doc.get("paths", {}).get(key)
    if value is None and required:
        raise ConfigError(f"no {key!r} given (config paths.{key})")
    return None if value is None else Path(value)


def _document_header(config: dict) -> dict:
    return {"tool": "adnet", "version": __version__, "config": config}


def _write_json(path, doc: dict) -> None:
    storage.atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def prediction_text(doc: dict, clip_scores: list, clip_labels: list,
                    frames_per_clip: int) -> str:
    """The text of json.dumps(doc, indent=2) + "\n" once the keys
    clip_scores, clip_labels and frame_scores (every clip score repeated
    frames_per_clip times) follow those of doc. Each score is formatted
    once, as json formats a finite float, and the three lists are spliced
    in after json formats the rest."""
    separator = ",\n    "
    scores = list(map(float.__repr__, clip_scores))
    frames = [text for text in scores for _ in range(frames_per_clip)]
    lists = {"clip_scores": scores, "clip_labels": list(map(int.__repr__, clip_labels)),
             "frame_scores": frames}
    head = json.dumps(doc, indent=2)[:-2]  # without the closing "\n}"
    return head + "".join(f',\n  "{key}": [\n    {separator.join(items)}\n  ]'
                          for key, items in lists.items()) + "\n}\n"


def cmd_synth(args) -> int:
    doc = load_run_config(args.config)
    config = storage.config_from_dict(generator.SynthConfig, doc.get("synth", {}), "synth")
    out_dir = Path(args.out)
    features_dir = out_dir / "features"
    annotations_dir = out_dir / "annotations"
    videos = generator.generate(config)
    # made once the videos are, so a config that cannot be generated leaves none
    features_dir.mkdir(parents=True, exist_ok=True)
    annotations_dir.mkdir(parents=True, exist_ok=True)
    for video in videos:
        storage.write_features(video.features, features_dir / f"{video.features.video_id}.adnf")
        storage.write_annotations(video.manifest,
                                  annotations_dir / f"{video.manifest.video_id}.json")
    summary = _document_header({"synth": storage.config_to_dict(config), "out": str(out_dir)})
    summary["videos"] = [v.features.video_id for v in videos]
    _write_json(out_dir / "corpus.json", summary)
    print(f"wrote {len(videos)} videos to {out_dir}")
    return EXIT_OK


def _segments(path, manifest: storage.AnnotationManifest, num_clips: int):
    """A manifest's segments, once its total_frames is known to fit
    num_clips clips (evaluation.clip_edges)."""
    try:
        evaluation.clip_edges(num_clips, manifest.frames_per_clip, manifest.total_frames)
    except InputError:
        raise InputError(f"{path}: total_frames {manifest.total_frames} does not fit "
                         f"{num_clips} clips at {manifest.frames_per_clip} frames per "
                         f"clip") from None
    return manifest.segments


def _read_manifests(gt_dir: Path, video_ids, source: str) -> dict:
    """Every manifest in gt_dir as (path, manifest), keyed by its video_id.
    Two manifests with one video_id are rejected naming both files, and
    so is a set of ids other than the source's video_ids."""
    manifests = {}
    for path in sorted(gt_dir.glob("*.json")):
        manifest = storage.read_annotations(path)
        if manifest.video_id in manifests:
            raise InputError(f"{path}: video_id {manifest.video_id!r} is also in "
                             f"{manifests[manifest.video_id][0]}")
        manifests[manifest.video_id] = path, manifest
    evaluation.check_same_videos(source, video_ids, manifests)
    return manifests


def _agreed(what: str, values):
    """The value that every (path, value) pair gives; the first path
    whose value differs is named."""
    (first_path, first), *rest = values
    for path, value in rest:
        if value != first:
            raise InputError(f"{path}: {what} {value} disagrees with {first} in {first_path}")
    return first


def cmd_train(args) -> int:
    doc = load_run_config(args.config)
    train_config = storage.config_from_dict(TrainConfig, doc.get("train", {}), "train")
    features_dir = _resolve_path(doc, "features_dir")
    annotations_dir = _resolve_path(doc, "annotations_dir")
    checkpoint_path = _resolve_path(doc, "checkpoint")
    out_dir = _resolve_path(doc, "out_dir", required=False)
    feature_paths = sorted(features_dir.glob("*.adnf"))
    if not feature_paths:
        raise InputError(f"no .adnf feature files in {features_dir}")
    manifests = _read_manifests(annotations_dir, [path.stem for path in feature_paths],
                                "feature")
    frames_per_clip = _agreed("frames_per_clip", [(path, manifest.frames_per_clip)
                                                  for path, manifest in manifests.values()])
    sequences = [storage.read_features(path) for path in feature_paths]
    input_dim = _agreed("feature dim", [(path, seq.dim)
                                        for path, seq in zip(feature_paths, sequences)])
    dataset = [(seq.features, training.clip_labels(
        _segments(*manifests[seq.video_id], seq.num_clips), frames_per_clip, seq.num_clips,
        train_config.clip_label_fraction)) for seq in sequences]
    model_config = _model_config(doc, input_dim)
    log_path = None if out_dir is None else out_dir / "train_log.jsonl"
    resume = None
    previous_log = ""
    if args.resume:
        previous = storage.load_checkpoint(checkpoint_path, expect_model_config=model_config)
        if previous.adam is None:
            raise CheckpointError(f"{checkpoint_path}: no optimizer state to resume from")
        resume = training.TrainResult(params=previous.params, adam=previous.adam,
                                      epochs_completed=previous.epochs_completed, log=[])
        # read before the checkpoint is overwritten, so a bad log leaves it as it was
        if log_path is not None and log_path.exists():
            previous_log = storage.read_text(log_path, "training log")
    # made before training, so an output path that cannot be a directory
    # fails before the checkpoint is overwritten
    checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
    if checkpoint_path.is_dir():  # which save_checkpoint would refuse only after training
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(checkpoint_path))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    result = training.train(dataset, model_config, train_config, resume=resume)
    ckpt = storage.Checkpoint(
        model_config=model_config, train_config=train_config, seed=train_config.seed,
        frames_per_clip=frames_per_clip, epochs_completed=result.epochs_completed,
        params=result.params, adam=result.adam)
    storage.save_checkpoint(ckpt, checkpoint_path)
    lines = [json.dumps(dataclasses.asdict(entry)) for entry in result.log]
    if log_path is not None:
        text = previous_log + "\n".join(lines) + "\n"
        # renamed over like the checkpoint, for the log holds every earlier epoch
        storage.atomic_write_bytes(log_path, text.encode("utf-8"), swap=False)
    for line in lines:  # after the log is written, so a closed stdout cannot lose it
        print(line)
    print(f"checkpoint written to {checkpoint_path} "
          f"({result.epochs_completed} epochs completed)")
    return EXIT_OK


def cmd_infer(args) -> int:
    ckpt = storage.load_checkpoint(args.checkpoint, params_only=True)
    threshold = args.threshold if args.threshold is not None else ckpt.model_config.threshold
    features = Path(args.features)
    paths = [features] if features.is_file() else sorted(features.glob("*.adnf"))
    if not paths:
        raise InputError(f"no .adnf feature files in {features}")
    out_dir = Path(args.out)
    # identify the checkpoint by content, not path, so identical runs in
    # different directories emit identical documents
    resolved = {
        "threshold": threshold,
        "model": storage.config_to_dict(ckpt.model_config),
        "train_seed": ckpt.seed,
        "epochs_completed": ckpt.epochs_completed,
        "frames_per_clip": ckpt.frames_per_clip,
    }
    for path in paths:
        seq = storage.read_features(path, expect_dim=ckpt.model_config.input_dim)
        scores = architecture.score_sequence(ckpt.params, seq.features)
        if not np.all(np.isfinite(scores)):
            raise NumericError(f"non-finite score for video {seq.video_id}")
        labels = architecture.predict_labels(scores, threshold)
        doc = _document_header(resolved)
        doc.update({
            "video_id": seq.video_id,
            "num_clips": seq.num_clips,
            "frames_per_clip": ckpt.frames_per_clip,
        })
        # made once a video is scored, so a refused first video leaves no out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        storage.atomic_write_text(out_dir / f"{seq.video_id}.json", prediction_text(
            doc, scores.tolist(), labels.tolist(), ckpt.frames_per_clip))
    print(f"scored {len(paths)} videos into {out_dir}")
    return EXIT_OK


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        return evaluation.check_ks([int(part) for part in text.split(",")])
    except (ValueError, InputError) as exc:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}: {exc}")


def _parse_threshold(text: str) -> float:
    try:
        threshold = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad threshold {text!r}: {exc}")
    if not 0.0 < threshold < 1.0:  # NaN fails both bounds
        raise argparse.ArgumentTypeError(f"bad threshold {text!r}: must lie in (0, 1)")
    return threshold


def _clip_scores(path, value) -> np.ndarray:
    """A prediction document's clip_scores: a non-empty flat list of numbers."""
    if not (isinstance(value, list) and value
            and {type(item) for item in value} <= {int, float}):
        raise FormatError(path, "clip_scores must be a non-empty list of numbers")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float64
        raise FormatError(path, f"clip_scores: {exc}") from exc


# The members of a prediction document that eval reads; the others
# (frame_scores, clip_labels, ...) are checked by JSON's scanner, but
# their floats are not converted.
PREDICTION_MEMBERS = frozenset({"video_id", "clip_scores", "frames_per_clip", "config"})


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    pred_paths = sorted(pred_dir.glob("*.json"))
    if not pred_paths:
        raise InputError(f"no prediction documents in {pred_dir}")
    pred_scores: dict[str, np.ndarray] = {}
    sources: dict[str, Path] = {}
    frames = []
    thresholds = []
    for path in pred_paths:
        doc = storage.read_json(path, "prediction", members=PREDICTION_MEMBERS)
        if not isinstance(doc, dict):
            raise FormatError(path, "prediction document must be a JSON object")
        for key in ("video_id", "clip_scores", "frames_per_clip"):
            if key not in doc:
                raise FormatError(path, f"missing field {key!r}")
        video_id = doc["video_id"]
        if not isinstance(video_id, str):
            raise FormatError(path, f"video_id must be a string, got {video_id!r}")
        if video_id in sources:
            raise InputError(f"{path}: video_id {video_id!r} is also in {sources[video_id]}")
        sources[video_id] = path
        pred_scores[video_id] = evaluation.check_scores(
            _clip_scores(path, doc["clip_scores"]), str(path))
        doc_frames = doc["frames_per_clip"]
        if not storage.has_type(doc_frames, int) or doc_frames < 1:
            raise FormatError(path, f"frames_per_clip must be a positive integer, "
                                    f"got {json.dumps(doc_frames)}")
        frames.append((path, doc_frames))
        config = doc.get("config", {})
        if not isinstance(config, dict):
            raise FormatError(path, "config must be a JSON object")
        doc_threshold = config.get("threshold", 0.5)
        if not storage.has_type(doc_threshold, float) or not 0.0 < doc_threshold < 1.0:
            raise FormatError(path, f"config.threshold must be a number in (0, 1), "
                                    f"got {doc_threshold!r}")
        thresholds.append((path, doc_threshold))
    threshold = _agreed("threshold", thresholds)
    manifests = _read_manifests(gt_dir, pred_scores, "prediction")
    frames_per_clip = _agreed("frames_per_clip", frames + [
        (path, manifest.frames_per_clip) for path, manifest in manifests.values()])
    gt_segments = {video_id: _segments(path, manifest, pred_scores[video_id].size)
                   for video_id, (path, manifest) in manifests.items()}
    report = evaluation.evaluate(pred_scores, gt_segments, frames_per_clip,
                                 ks=args.k, threshold=threshold)
    doc = _document_header({
        "pred": str(pred_dir), "gt": str(gt_dir), "ks": list(args.k),
        "threshold": threshold, "frames_per_clip": frames_per_clip,
    })
    doc.update(report.as_dict())
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adnet",
                     description="Temporal anomaly localization on clip features")
    parser.add_argument("--version", action="version", version=f"adnet {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_synth = commands.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--config", required=True, help="run-config JSON file")
    p_synth.add_argument("--out", required=True, help="output corpus directory")
    p_synth.set_defaults(handler=cmd_synth)

    p_train = commands.add_parser("train", help="train a model on a corpus")
    p_train.add_argument("--config", required=True, help="run-config JSON file")
    p_train.add_argument("--resume", action="store_true",
                         help="continue from the existing checkpoint")
    p_train.set_defaults(handler=cmd_train)

    p_infer = commands.add_parser("infer", help="score feature files")
    p_infer.add_argument("--checkpoint", required=True)
    p_infer.add_argument("--features", required=True,
                         help="feature file or directory of .adnf files")
    p_infer.add_argument("--out", required=True, help="output directory")
    p_infer.add_argument("--threshold", type=_parse_threshold, default=None,
                         help="override the checkpoint's label threshold")
    p_infer.set_defaults(handler=cmd_infer)

    p_eval = commands.add_parser("eval", help="evaluate predictions against ground truth")
    p_eval.add_argument("--pred", required=True, help="directory of infer documents")
    p_eval.add_argument("--gt", required=True, help="directory of annotation manifests")
    p_eval.add_argument("--k", type=_parse_ks, default=evaluation.DEFAULT_KS,
                        help="comma-separated IoU percentages (default 10,25,50)")
    p_eval.set_defaults(handler=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy reports overflow and invalid values as RuntimeWarning; the
        # program checks for non-finite values itself, so such a warning
        # would only precede its one error line
        with warnings.catch_warnings(action="ignore", category=RuntimeWarning):
            code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout goes to devnull so that the interpreter's last flush does not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("adnet: error: standard output closed", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a path the file system refuses
        path = exc.filename2 or exc.filename  # os.replace names its target second
        print(f"adnet: error: {path}: {exc.strerror}" if path else f"adnet: error: {exc}",
              file=sys.stderr)
        return EXIT_DATA
    except (MemoryError, ValueError) as exc:
        # numpy raises MemoryError for a size it cannot allocate, and
        # ValueError for one beyond its limit, which it does not try
        if isinstance(exc, ValueError) and not str(exc).startswith(NUMPY_SIZE_REFUSALS):
            raise
        reason = f": {exc}" if str(exc) else ""  # a Python-level MemoryError has none
        print(f"adnet: error: out of memory{reason}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"adnet: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InternalError as exc:  # still reported, with the same exit code
        print(f"adnet: internal error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AdnetError as exc:
        print(f"adnet: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
