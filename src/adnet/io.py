"""On-disk formats: clip features, annotations, and checkpoints.

All binary formats are little-endian regardless of host. Feature payloads
are 32-bit floats on disk (matching common extractor output) and in
memory; checkpoint tensors are stored at full 64-bit precision so
load(save(params)) is bit-exact. Readers are reentrant.

Every writer goes through atomic_write_bytes: a reader sees the whole old
file or the whole new one, never a missing or partial file. Nothing is
fsynced. An overwritten checkpoint or training log is renamed over, which
ext4 writes back first, so a power loss leaves its old or its new bytes;
any other overwritten file, like any file written to a new name, may be
empty after a power loss.

Feature file layout:  "ADNF" | u32 version=1 | u32 num_clips | u32 dim |
num_clips*dim little-endian f32, clip-major.

Checkpoint layout:  "ADNC" | u32 version=1 | u32 header_len | header JSON
(configs, seed, epoch counters, tensor names and shapes in order) |
concatenated f64 tensor payloads in header order. The order is a function
of the model config (_roster): the parameters, then their first and then
their second Adam moments.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import stat
import struct
import typing
from collections.abc import Collection
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as architecture
from .errors import CheckpointError, ConfigError, FormatError, InputError
from .evaluation import TemporalSegment, partition_extent
from .model import ADNetConfig, ModelParams
from .numerics import AdamState
from .training import TrainConfig

FEATURE_MAGIC = b"ADNF"
FEATURE_VERSION = 1
CHECKPOINT_MAGIC = b"ADNC"
CHECKPOINT_VERSION = 1


def atomic_write_bytes(path, *chunks, swap: bool = True) -> None:
    """Write the chunks (bytes, or C-contiguous arrays as their memory)
    one after another to a temp file in the same directory, then commit it
    in one step that readers see whole. The file gets the mode open()
    would leave: an existing regular file's permission bits, else 0o666
    less the umask. With swap, an existing regular file is exchanged with
    the temp file, whose name, now holding the old file, is unlinked;
    anything else (no file, a directory, a symlink, a system that cannot
    exchange, or swap=False) is renamed over. Nothing is fsynced, and the
    two commits differ after a power loss: ext4 (auto_da_alloc) writes the
    new data back before a rename over an existing file returns, about
    50 ms even for 12 KB, so the old or the new bytes survive, while an
    exchanged file, like a file written to a new name, may be left empty.
    So a caller whose file holds work that cannot be remade, a checkpoint
    or the training log, passes swap=False."""
    target = Path(path)
    # a name of fixed length, so that any name the file system holds can be written
    tmp = target.parent / f".adnet.{os.urandom(6).hex()}"
    mode = _regular_file_mode(target)
    # created as open() creates a file, so the kernel applies the umask;
    # over a file, with no bit it lacks, so no user who could not read
    # the old bytes can open the temp file as the new ones are written
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666 if mode is None else mode)
    except OSError as exc:  # the target, not the temp file, is the caller's
        raise OSError(exc.errno, exc.strerror, str(target)) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            if mode is not None:  # the bits the umask took
                os.chmod(tmp, mode)
            handle.writelines(chunks)
        swapped = swap and mode is not None and _swap(tmp, target)
        if not swapped:
            os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    if swapped:
        os.unlink(tmp)


def _regular_file_mode(target) -> int | None:
    """The permission bits of target if it is a regular file (a link
    itself, not its referent), else None. Any error but a missing file
    or directory, a name too long say, is raised naming target."""
    try:
        mode = os.lstat(target).st_mode
    except FileNotFoundError:  # which creating the temp file reports if it must
        return None
    return mode & 0o777 if stat.S_ISREG(mode) else None


AT_FDCWD = -100
RENAME_EXCHANGE = 2


@functools.cache  # ctypes is imported and the function bound once per process
def _renameat2():
    """The C library's renameat2, or None where there is none."""
    import ctypes
    # Windows opens no library for None, and a C library may lack renameat2
    try:
        function = ctypes.CDLL(None).renameat2
    except (OSError, TypeError, AttributeError):
        return None
    function.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p,
                         ctypes.c_uint)
    function.restype = ctypes.c_int
    return function


def _swap(tmp, target) -> bool:
    """Whether tmp and target, a regular file, were exchanged; False
    leaves both as they were."""
    renameat2 = _renameat2()
    # an error (EINVAL where the file system cannot exchange, ENOSYS,
    # ENOENT after a race) leaves the rename to commit or report
    return renameat2 is not None and renameat2(AT_FDCWD, os.fsencode(tmp), AT_FDCWD,
                                               os.fsencode(target), RENAME_EXCHANGE) == 0


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@dataclass(frozen=True)
class ClipFeatureSequence:
    """Per-video matrix of clip feature vectors, shaped (dim, num_clips)."""

    video_id: str
    features: np.ndarray

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def num_clips(self) -> int:
        return self.features.shape[1]


def write_features(seq: ClipFeatureSequence, path) -> None:
    feats = np.asarray(seq.features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
        raise InputError(f"features must be a non-empty (dim, num_clips) matrix, "
                         f"got shape {feats.shape}")
    dim, num_clips = feats.shape
    with np.errstate(over="ignore"):  # a value beyond float32 range is refused below
        payload = np.ascontiguousarray(feats.T, dtype="<f4")
    finite = np.isfinite(payload)
    if not finite.all():
        clip, row = np.unravel_index(np.argmin(finite), finite.shape)
        raise InputError(f"{path}: feature value {float(feats[row, clip])} at dim {row}, "
                         f"clip {clip} is not finite in float32")
    header = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, num_clips, dim)
    atomic_write_bytes(path, header, payload)


def read_features(path, expect_dim: int | None = None) -> ClipFeatureSequence:
    """The features as stored: a read-only float32 view of the payload."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(path, f"cannot read feature file: {exc}") from exc
    if len(data) < 16:
        raise FormatError(path, f"truncated header: {len(data)} bytes, need 16",
                          offset=len(data))
    if data[:4] != FEATURE_MAGIC:
        raise FormatError(path, f"bad magic {data[:4]!r}, expected {FEATURE_MAGIC!r}",
                          offset=0)
    version, num_clips, dim = struct.unpack_from("<III", data, 4)
    if version != FEATURE_VERSION:
        raise FormatError(path, f"unsupported version {version}", offset=4)
    if num_clips == 0 or dim == 0:
        raise FormatError(path, "empty feature sequences are not allowed", offset=8)
    if expect_dim is not None and dim != expect_dim:
        raise FormatError(path, f"feature dim is {dim}, expected {expect_dim}", offset=12)
    expected = 16 + 4 * num_clips * dim
    if len(data) != expected:
        raise FormatError(
            path,
            f"payload is {len(data) - 16} bytes, expected {expected - 16} "
            f"({num_clips} clips x {dim} dims x 4 bytes)",
            offset=16)
    raw = np.frombuffer(data, dtype="<f4", offset=16)
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise FormatError(path, "non-finite feature value", offset=16 + 4 * int(bad[0]))
    return ClipFeatureSequence(video_id=Path(path).stem, features=raw.reshape(num_clips, dim).T)


@dataclass(frozen=True)
class AnnotationManifest:
    """Frame-level segment annotation for one video. The segments may come
    in any order; they are kept in temporal order."""

    video_id: str
    frames_per_clip: int = dataclasses.field(default=16, kw_only=True)
    total_frames: int
    segments: tuple[TemporalSegment, ...]

    def __post_init__(self):
        if self.frames_per_clip < 1:
            raise InputError(f"frames_per_clip must be >= 1, got {self.frames_per_clip}")
        if self.total_frames >= 2 ** 63:  # frame indices are int64
            raise InputError(f"total_frames must be < 2**63, got {self.total_frames}")
        segments = tuple(sorted(self.segments, key=lambda seg: seg.start_frame))
        object.__setattr__(self, "segments", segments)
        extent = partition_extent(segments, "annotation")
        if extent != self.total_frames:
            raise InputError(
                f"annotation segments end at frame {extent}, total_frames is {self.total_frames}")


def write_annotations(manifest: AnnotationManifest, path) -> None:
    atomic_write_text(path, json.dumps(config_to_dict(manifest), indent=2) + "\n")


def read_text(path, what: str) -> str:
    """A UTF-8 text file; one that cannot be read or is not UTF-8 raises
    FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(path, f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(path, f"not UTF-8: {exc}") from exc


def read_json(path, what: str, members: Collection[str] | None = None):
    """Parse a JSON file; a file that cannot be read, is not UTF-8 or is
    not JSON raises FormatError. With members, an object comes back with
    only those of its members: the others are still checked by JSON's own
    scanner, so the file is accepted exactly when json.loads accepts it,
    but their floats are not converted."""
    text = read_text(path, what)
    if members is not None:
        doc = _object_members(text, members)
        if doc is not None:
            return doc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, an integer too long, too deep
        raise FormatError(path, f"invalid JSON: {exc}") from exc
    if members is not None and isinstance(doc, dict):
        return {key: value for key, value in doc.items() if key in members}
    return doc


_WHITESPACE = re.compile(r"[ \t\n\r]*")
_scan_value = json.JSONDecoder().scan_once
# Scans a value as json.loads does, but hands each float's text to type,
# which returns the str class instead of converting it. Used for members
# whose value is thrown away.
_skip_value = json.JSONDecoder(parse_float=type).scan_once


def _object_members(text: str, members: Collection[str]) -> dict | None:
    """The given members of the JSON object text, decoded as json.loads
    decodes them, the last of duplicate keys winning; a member that is not
    wanted is only scanned. None when text is anything else or any
    deviation from JSON is seen, for json.loads to decide and report."""
    index = _WHITESPACE.match(text).end()
    if not text.startswith("{", index):
        return None
    index = _WHITESPACE.match(text, index + 1).end()
    doc = {}
    try:
        while text.startswith('"', index):
            key, index = json.decoder.scanstring(text, index + 1)
            index = _WHITESPACE.match(text, index).end()
            if not text.startswith(":", index):
                return None
            index = _WHITESPACE.match(text, index + 1).end()
            if key in members:
                doc[key], index = _scan_value(text, index)
            else:
                index = _skip_value(text, index)[1]
            index = _WHITESPACE.match(text, index).end()
            if text.startswith("}", index):
                return doc if _WHITESPACE.match(text, index + 1).end() == len(text) else None
            if not text.startswith(",", index):
                return None
            index = _WHITESPACE.match(text, index + 1).end()
    except (ValueError, StopIteration, RecursionError):
        pass
    return None


def read_annotations(path) -> AnnotationManifest:
    """Parse and validate a manifest, whose schema is AnnotationManifest."""
    doc = read_json(path, "annotation file")
    try:
        return config_from_dict(AnnotationManifest, doc, "")
    except (ConfigError, InputError) as exc:
        raise FormatError(path, str(exc)) from exc


# Dataclasses are the schema of the JSON objects they are read from: run
# configs (ADNetConfig, TrainConfig, SynthConfig) and annotation
# manifests. Each field is one key of the field's type. A field named
# after a Python keyword ends in an underscore that its key drops
# (TrainConfig.lambda_ is "lambda"), and a tuple field is a JSON list,
# whose entries are objects where its item type is a dataclass.
TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
              str: "a string", tuple[int, int]: "a list of two integers",
              tuple[TemporalSegment, ...]: "a non-empty list of objects"}


@functools.cache  # get_type_hints is slow, and a manifest decodes one class per segment
def config_types(cls) -> dict:
    """JSON key -> type of every field of a config dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return {field.name.rstrip("_"): hints[field.name] for field in dataclasses.fields(cls)}


def has_type(value, kind) -> bool:
    """Whether a JSON value has a field's type: a number field takes a
    finite float or an integer within float range, no numeric field takes
    a bool, a dataclass field takes an object, a tuple[X, Y] field a list
    of one X and one Y, and a tuple[X, ...] field a non-empty list of X."""
    if isinstance(value, dict):
        return dataclasses.is_dataclass(kind)
    if isinstance(value, list):
        if typing.get_origin(kind) is not tuple:
            return False
        kinds = typing.get_args(kind)
        if kinds[1:] == (Ellipsis,):
            kinds = kinds[:1] * len(value)
        return len(value) == len(kinds) > 0 and all(map(has_type, value, kinds))
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an integer beyond float range
            return False
    return isinstance(kind, type) and isinstance(value, kind)


def _decode(value, kind, name: str):
    """A JSON value as a value of a field's type, or ConfigError naming the
    field: a list becomes a tuple, and each object in it the dataclass it
    holds."""
    if not has_type(value, kind):
        raise ConfigError(f"{name} must be {TYPE_NAMES.get(kind, str(kind))}, "
                          f"got {json.dumps(value)}")
    if isinstance(value, list):
        item = typing.get_args(kind)[0]
        if dataclasses.is_dataclass(item):
            return tuple(config_from_dict(item, entry, f"{name}[{index}]")
                         for index, entry in enumerate(value))
        return tuple(value)
    return value


def check_types(types: dict, doc, section: str = "") -> dict:
    """The values of doc decoded as _decode does; raises ConfigError naming
    section.key unless doc is a JSON object whose every key is in types and
    holds a value of that type."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section or 'document'} must be an object")
    values = {}
    for key, value in doc.items():
        name = f"{section}.{key}" if section else key
        if key not in types:
            raise ConfigError(f"unknown key {name!r}")
        values[key] = _decode(value, types[key], name)
    return values


def config_to_dict(config) -> dict:
    """A config dataclass as its JSON object, a nested dataclass as an
    object. Keys follow the fields, except that a renamed key (lambda) goes
    last, where the checkpoint header has always had it."""
    doc = {name: list(value) if isinstance(value, tuple) else value
           for name, value in dataclasses.asdict(config).items()}
    for name in [name for name in doc if name.endswith("_")]:
        doc[name[:-1]] = doc.pop(name)
    return doc


def config_from_dict(cls, doc, section: str, **given):
    """Decode a config dataclass from a JSON object, type-checked as
    check_types does. A key the object leaves out takes its value from
    given, else the field's default; a field with neither is an error."""
    values = check_types(config_types(cls), doc, section)
    for field in dataclasses.fields(cls):
        key = field.name.rstrip("_")
        if key in values:
            given[field.name] = values[key]
        elif field.name not in given and field.default is dataclasses.MISSING:
            raise ConfigError(f"{section}.{key} is missing" if section else f"{key} is missing")
    try:
        return cls(**given)
    except (ConfigError, InputError) as exc:  # a value rule of __post_init__
        if not section:
            raise
        raise type(exc)(f"{section}: {exc}") from exc


@dataclass
class Checkpoint:
    """Everything needed to resume training or run inference."""

    model_config: ADNetConfig
    train_config: TrainConfig
    seed: int
    frames_per_clip: int
    epochs_completed: int
    params: ModelParams
    adam: AdamState | None = None


# The checkpoint header's scalars are the integer fields of a Checkpoint,
# and its optimizer metadata the number fields of an AdamState.
HEADER_SCALARS = {name: kind for name, kind in typing.get_type_hints(Checkpoint).items()
                  if kind is int}
ADAM_SCALARS = {name: kind for name, kind in typing.get_type_hints(AdamState).items()
                if kind in (int, float)}
# The ranges of those values that a training run writes: field -> (test, rule).
HEADER_RANGES = {
    "seed": (lambda value: value >= 0, ">= 0"),
    "frames_per_clip": (lambda value: value >= 1, ">= 1"),
    "epochs_completed": (lambda value: value >= 0, ">= 0"),
    "adam.lr": (lambda value: value > 0, "> 0"),
    "adam.beta1": (lambda value: 0 <= value < 1, "in [0, 1)"),
    "adam.beta2": (lambda value: 0 <= value < 1, "in [0, 1)"),
    "adam.epsilon": (lambda value: value > 0, "> 0"),
    "adam.step_count": (lambda value: value >= 0, ">= 0"),
}


def _roster(config: ADNetConfig, with_adam: bool) -> list[dict]:
    """The checkpoint header's tensors, in payload order: the parameters in
    parameter_shapes order, then with_adam the first and the second
    moments of the same parameters."""
    prefixes = ("", "optimizer.m.", "optimizer.v.") if with_adam else ("",)
    return [{"name": prefix + name, "shape": list(shape)} for prefix in prefixes
            for name, shape in architecture.parameter_shapes(config).items()]


def _json(value) -> str:
    """A JSON value as text with sorted keys: two values are the same JSON
    exactly when their texts are equal, so 8 differs from 8.0, true and "8"."""
    try:
        return json.dumps(value, sort_keys=True)
    except RecursionError:  # a value nested near the interpreter's recursion limit
        return "a value nested too deeply"


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    arrays = [ckpt.params.flat]
    if ckpt.adam is not None:
        arrays += [ckpt.adam.first_moment, ckpt.adam.second_moment]
    arrays = [np.ascontiguousarray(array, dtype="<f8") for array in arrays]
    header = {
        "format_version": CHECKPOINT_VERSION,
        "model": config_to_dict(ckpt.model_config),
        "train": config_to_dict(ckpt.train_config),
        **{name: getattr(ckpt, name) for name in HEADER_SCALARS},
        "adam": None if ckpt.adam is None else {
            name: getattr(ckpt.adam, name) for name in ADAM_SCALARS},
        "tensors": _roster(ckpt.model_config, ckpt.adam is not None),
    }
    header_bytes = json.dumps(header).encode("utf-8")
    atomic_write_bytes(path, CHECKPOINT_MAGIC,
                       struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)),
                       header_bytes, *arrays, swap=False)  # training cannot be remade


def _header_config(cls, header: dict, section: str):
    """A config section of a checkpoint header, which save_checkpoint
    writes whole: a key left out is an error, not a default."""
    config = config_from_dict(cls, header[section], section)
    absent = [key for key in config_types(cls) if key not in header[section]]
    if absent:
        raise ConfigError(f"{section}.{absent[0]} is missing")
    return config


def _entry_at(layout: list[dict], element: int) -> tuple[str, int]:
    """The name and the first value's index of the roster entry holding payload value element."""
    begin = 0
    for entry in layout:
        if element < begin + math.prod(entry["shape"]):
            return entry["name"], begin
        begin += math.prod(entry["shape"])


def load_checkpoint(path, expect_model_config: ADNetConfig | None = None,
                    params_only: bool = False) -> Checkpoint:
    """Read and check a checkpoint. With params_only the optimizer moments
    are checked against the file size but not read, and adam is None."""
    try:
        with open(path, "rb") as handle:
            return _read_checkpoint(path, handle, expect_model_config, params_only)
    except OSError as exc:
        raise FormatError(path, f"cannot read checkpoint: {exc}") from exc


def _read_checkpoint(path, handle, expect_model_config, params_only) -> Checkpoint:
    size = os.fstat(handle.fileno()).st_size
    if size < 12:
        raise FormatError(path, f"truncated header: {size} bytes, need 12", offset=size)
    head = handle.read(12)
    if head[:4] != CHECKPOINT_MAGIC:
        raise FormatError(path, f"bad magic {head[:4]!r}, expected {CHECKPOINT_MAGIC!r}",
                          offset=0)
    version, header_len = struct.unpack_from("<II", head, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(path, f"unsupported version {version}", offset=4)
    if size < 12 + header_len:
        raise FormatError(path, "truncated header JSON", offset=size)
    try:
        header = json.loads(handle.read(header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too long or too deep
        raise FormatError(path, f"invalid header JSON: {exc}", offset=12) from exc
    try:
        format_version = _json(header["format_version"])
        if format_version != _json(CHECKPOINT_VERSION):
            raise ConfigError(f"format_version must be {CHECKPOINT_VERSION}, got {format_version}")
        model_config = _header_config(ADNetConfig, header, "model")
        train_config = _header_config(TrainConfig, header, "train")
        scalars = check_types(HEADER_SCALARS, {name: header[name] for name in HEADER_SCALARS})
        adam_meta = header.get("adam")
        if adam_meta is not None:
            adam_meta = check_types(ADAM_SCALARS, {name: adam_meta[name] for name in ADAM_SCALARS},
                                    "adam")
        found = {**scalars, **{f"adam.{name}": value for name, value in (adam_meta or {}).items()}}
        for name, (holds, rule) in HEADER_RANGES.items():
            if name in found and not holds(found[name]):
                raise ConfigError(f"{name} must be {rule}, got {_json(found[name])}")
        roster = header["tensors"]
    except (KeyError, TypeError, ConfigError) as exc:
        raise FormatError(path, f"malformed header: {exc}", offset=12) from exc
    if not isinstance(roster, list):
        raise CheckpointError(f"{path}: tensors is {_json(roster)}, expected a list")
    # every stage stores a projection and a tensor per block, so a corrupt
    # stage or layer count is caught before it sizes the layout
    if model_config.num_stages * (model_config.num_layers + 1) > len(roster):
        raise CheckpointError(f"{path}: {len(roster)} tensors cannot hold "
                              f"{model_config.num_stages} stages of "
                              f"{model_config.num_layers} layers")
    # the payload is the parameter vector, then with Adam state its two moments
    count = sum(map(math.prod, architecture.parameter_shapes(model_config).values()))
    copies = 1 if adam_meta is None else 3
    layout = _roster(model_config, adam_meta is not None)
    if _json(roster) != _json(layout):
        # the first entry that differs, where "nothing" stands past an end
        found, wanted = ([*map(_json, entries), "nothing"] for entries in (roster, layout))
        index = next(index for index, (a, b) in enumerate(zip(found, wanted)) if a != b)
        raise CheckpointError(f"{path}: tensors[{index}] is {found[index]}, "
                              f"expected {wanted[index]}")
    if expect_model_config is not None and model_config != expect_model_config:
        raise CheckpointError(
            f"{path}: checkpoint model config {config_to_dict(model_config)} is "
            f"incompatible with requested {config_to_dict(expect_model_config)}")
    start = 12 + header_len
    end = start + 8 * copies * count
    if end > size:
        name, begin = _entry_at(layout, (size - start) // 8)
        raise FormatError(path, f"truncated payload for tensor {name!r}", offset=start + 8 * begin)
    if end != size:
        raise FormatError(path, f"{size - end} trailing bytes after last tensor", offset=end)
    vectors = np.empty((1 if params_only else copies, count), dtype="<f8")
    got = handle.readinto(vectors)
    if got != vectors.nbytes:
        raise FormatError(path, "file shrank while being read", offset=start + got)
    # no training run writes these values, so they are the file's fault
    bad = None
    if not (math.isfinite(vectors.min()) and math.isfinite(vectors.max())):  # NaN spreads to both
        bad, what = int(np.argmin(np.isfinite(vectors))), "non-finite"
    elif len(vectors) == 3 and vectors[2].min() < 0:  # a second moment
        bad, what = 2 * count + int(np.argmax(vectors[2] < 0)), "negative"
    if bad is not None:
        name, _ = _entry_at(layout, bad)
        raise FormatError(path, f"{what} value in tensor {name!r}", offset=start + 8 * bad)
    params = ModelParams(model_config, vectors[0])
    adam = None if len(vectors) == 1 else AdamState(**adam_meta, first_moment=vectors[1],
                                                    second_moment=vectors[2])
    return Checkpoint(model_config=model_config, train_config=train_config, **scalars,
                      params=params, adam=adam)
