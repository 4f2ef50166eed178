import bisect
import hashlib
import itertools
import json
import math
import os
import re
import stat
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adnet import io as storage
from adnet import evaluation, model, numerics, synth, training
from adnet.errors import CheckpointError, FormatError, InputError
from adnet.io import AnnotationManifest, Checkpoint, ClipFeatureSequence
from adnet.evaluation import TemporalSegment
from adnet.model import ADNetConfig
from adnet.training import TrainConfig
from _inputs import rewrite_header, set_at


def can_exchange(directory: Path) -> bool:
    """Whether renameat2 can swap two files in directory."""
    renameat2 = storage._renameat2()
    if renameat2 is None:
        return False
    (directory / ".a").write_bytes(b"a")
    (directory / ".b").write_bytes(b"b")
    swapped = renameat2(storage.AT_FDCWD, os.fsencode(directory / ".a"), storage.AT_FDCWD,
                        os.fsencode(directory / ".b"), storage.RENAME_EXCHANGE) == 0
    os.unlink(directory / ".a")
    os.unlink(directory / ".b")
    return swapped


class TestAtomicWrites:
    def test_overwrite_leaves_the_new_bytes_and_only_the_target(self, tmp_path):
        target = tmp_path / "doc.json"
        storage.atomic_write_bytes(target, b"old")
        storage.atomic_write_bytes(target, b"new ", np.arange(3, dtype="<i4"))
        assert target.read_bytes() == b"new " + np.arange(3, dtype="<i4").tobytes()
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_overwrite_swaps_instead_of_renaming(self, tmp_path):
        if not can_exchange(tmp_path):
            pytest.skip("renameat2 cannot exchange files here")
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        with mock.patch.object(os, "replace", side_effect=AssertionError("renamed over")):
            storage.atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["doc.json"]

    @pytest.mark.parametrize("renameat2", [None, lambda *args: -1],
                             ids=["no renameat2", "renameat2 fails"])
    def test_rename_when_the_swap_is_not_taken(self, tmp_path, renameat2):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        with mock.patch.object(storage, "_renameat2", return_value=renameat2):
            storage.atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_no_swap_renames_over(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        with mock.patch.object(storage, "_swap") as swap:
            storage.atomic_write_bytes(target, b"new", swap=False)
        swap.assert_not_called()
        assert target.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["doc.json"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask 022", "umask 077"])
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            storage.atomic_write_bytes(tmp_path / "doc.json", b"new")
            (tmp_path / "plain").write_bytes(b"new")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "doc.json").stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == mode

    @pytest.mark.parametrize("mode", [0o640, 0o600], ids=oct)
    @pytest.mark.parametrize("swap", [True, False], ids=["swapped", "renamed over"])
    def test_overwrite_keeps_the_old_mode(self, tmp_path, swap, mode):
        """From the temp file's creation on, under a umask that would
        widen it, so no other user can open the new bytes as they are
        written."""
        if swap and not can_exchange(tmp_path):
            pytest.skip("renameat2 cannot exchange files here")
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        target.chmod(mode)
        commit = (mock.patch.object(os, "replace", side_effect=AssertionError("renamed over"))
                  if swap else mock.patch.object(storage, "_swap", side_effect=AssertionError))
        fdopen, opened = os.fdopen, []

        def fdopen_noting_the_mode(fd, *args):
            opened.append(stat.S_IMODE(os.fstat(fd).st_mode))
            return fdopen(fd, *args)
        old = os.umask(0o022)
        try:
            with commit, mock.patch.object(os, "fdopen", fdopen_noting_the_mode):
                storage.atomic_write_bytes(target, b"new", swap=swap)
        finally:
            os.umask(old)
        assert target.read_bytes() == b"new"
        assert opened == [mode] and stat.S_IMODE(target.stat().st_mode) == mode

    def test_an_overwritten_checkpoint_is_renamed_over(self, tmp_path):
        path = tmp_path / "model.adnc"
        storage.save_checkpoint(trained_checkpoint(), path)
        first = path.read_bytes()
        with mock.patch.object(storage, "_swap") as swap:
            storage.save_checkpoint(trained_checkpoint(), path)
        swap.assert_not_called()
        assert path.read_bytes() == first

    @pytest.mark.parametrize("cdll", [mock.Mock(side_effect=OSError("no library")),
                                      mock.Mock(return_value=object())],
                             ids=["no C library", "no renameat2"])
    def test_renameat2_is_none_without_it(self, cdll):
        with mock.patch("ctypes.CDLL", cdll):
            assert storage._renameat2.__wrapped__() is None

    def test_chunk_that_raises_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        with pytest.raises(TypeError):
            storage.atomic_write_bytes(target, b"new", object())
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_directory_at_the_target_is_refused_and_kept(self, tmp_path):
        target = tmp_path / "doc.json"
        (target / "inside").mkdir(parents=True)
        (target / "inside" / "file").write_bytes(b"kept")
        with pytest.raises(IsADirectoryError):
            storage.atomic_write_bytes(target, b"new")
        assert (target / "inside" / "file").read_bytes() == b"kept"
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_symlink_at_the_target_is_replaced_not_followed(self, tmp_path):
        referent = tmp_path / "referent"
        referent.write_bytes(b"old")
        target = tmp_path / "doc.json"
        target.symlink_to(referent)
        storage.atomic_write_bytes(target, b"new")
        assert not target.is_symlink()
        assert target.read_bytes() == b"new"
        assert referent.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["doc.json", "referent"]

    def test_concurrent_reader_sees_a_whole_file(self, tmp_path):
        target = tmp_path / "doc.json"
        contents = [b"a" * 100_000, b"b" * 50_000]
        storage.atomic_write_bytes(target, contents[0])
        seen, done = set(), threading.Event()

        def read():
            while not done.is_set():
                try:
                    seen.add(target.read_bytes())
                except OSError as exc:  # a missing file, say
                    seen.add(repr(exc))

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for index in range(200):
                storage.atomic_write_bytes(target, contents[index % 2])
        finally:
            done.set()
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert seen and seen <= set(contents)
        assert os.listdir(tmp_path) == ["doc.json"]


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = ClipFeatureSequence("vid", rng.normal(size=(4, 10)).astype(np.float32)
                                  .astype(np.float64))
        path = tmp_path / "vid.adnf"
        storage.write_features(seq, path)
        back = storage.read_features(path)
        assert back.video_id == "vid"
        np.testing.assert_array_equal(back.features, seq.features)

    def test_features_come_back_as_stored(self, tmp_path):
        # float32, read-only, with no copy widened to float64
        rng = np.random.default_rng(1)
        written = rng.normal(size=(5, 12)).astype(np.float32)
        path = tmp_path / "v.adnf"
        storage.write_features(ClipFeatureSequence("v", written), path)
        features = storage.read_features(path).features
        assert features.dtype == np.float32 and features.shape == (5, 12)
        assert not features.flags.writeable
        assert features.tobytes() == written.tobytes()

    def test_exact_bytes(self, tmp_path):
        # clip-major little-endian f32 payload behind a 16-byte header
        seq = ClipFeatureSequence("v", np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]))
        path = tmp_path / "v.adnf"
        storage.write_features(seq, path)
        expected = (b"ADNF" + struct.pack("<III", 1, 2, 3)
                    + struct.pack("<6f", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        assert path.read_bytes() == expected

    def test_exact_bytes_of_a_random_matrix(self, tmp_path):
        feats = np.random.default_rng(1).normal(size=(5, 7))
        path = tmp_path / "v.adnf"
        storage.write_features(ClipFeatureSequence("v", feats), path)
        expected = b"ADNF" + struct.pack("<III", 1, 7, 5) + b"".join(
            struct.pack("<f", feats[row, clip]) for clip in range(7) for row in range(5))
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("value", [1e300, -1e39, np.inf, np.nan])
    def test_value_not_finite_in_float32_refused(self, tmp_path, value):
        feats = np.ones((3, 4))
        feats[2, 1] = value
        path = tmp_path / "v.adnf"
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: feature value .* "
                                             rf"at dim 2, clip 1 is not finite in float32$"):
            storage.write_features(ClipFeatureSequence("v", feats), path)
        assert list(tmp_path.iterdir()) == []


def manifest_doc(**overrides):
    doc = {
        "video_id": "vid",
        "frames_per_clip": 16,
        "total_frames": 320,
        "segments": [
            {"start_frame": 0, "end_frame": 160, "label": 0},
            {"start_frame": 160, "end_frame": 320, "label": 1},
        ],
    }
    doc.update(overrides)
    return doc


JSON_VALUES = {
    int: st.integers(), float: st.floats(allow_nan=False, allow_infinity=False),
    bool: st.booleans(), type(None): st.none(), str: st.text(max_size=6),
    list: st.lists(st.integers() | st.text(max_size=3), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def json_nodes(node, path=()):
    """(path, value) of every value in a JSON document, the root first."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_nodes(child, path + (key,))


def mutate(draw, doc) -> None:
    """One drawn mutation of a JSON document, in place: a leaf replaced by a
    value of another JSON type, a key deleted, an unknown key added, or a
    list reordered."""
    nodes = list(json_nodes(doc))
    objects = [node for _, node in nodes if isinstance(node, dict)]
    action = draw(st.sampled_from(["replace", "delete", "add", "reorder"]))
    if action == "replace":
        path, leaf = draw(st.sampled_from([(path, node) for path, node in nodes
                                           if not isinstance(node, (dict, list))]))
        kind = draw(st.sampled_from([kind for kind in JSON_VALUES if kind is not type(leaf)]))
        set_at(doc, path, draw(JSON_VALUES[kind]))
    elif action == "delete":
        obj = draw(st.sampled_from([obj for obj in objects if obj]))
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif action == "add":
        obj = draw(st.sampled_from(objects))
        obj["unknown_key"] = draw(st.one_of(*JSON_VALUES.values()))
    else:
        items = draw(st.sampled_from([node for _, node in nodes
                                      if isinstance(node, list) and len(node) > 1]))
        items[:] = draw(st.permutations(items))


def clip_labels(manifest):
    n = manifest.frames_per_clip
    return training.clip_labels(manifest.segments, n, -(-manifest.total_frames // n))


class TestAnnotations:
    def test_clip_labels_derived(self, tmp_path):
        path = tmp_path / "vid.json"
        path.write_text(json.dumps(manifest_doc()))
        manifest = storage.read_annotations(path)
        assert manifest.total_frames == 320
        np.testing.assert_array_equal(clip_labels(manifest), [0] * 10 + [1] * 10)

    def test_single_normal_segment(self, tmp_path):
        path = tmp_path / "vid.json"
        doc = manifest_doc(segments=[{"start_frame": 0, "end_frame": 320, "label": 0}])
        path.write_text(json.dumps(doc))
        manifest = storage.read_annotations(path)
        np.testing.assert_array_equal(clip_labels(manifest), np.zeros(20, dtype=int))

    def test_default_frames_per_clip(self, tmp_path):
        path = tmp_path / "vid.json"
        doc = manifest_doc()
        del doc["frames_per_clip"]
        path.write_text(json.dumps(doc))
        manifest = storage.read_annotations(path)
        assert manifest.frames_per_clip == 16

    def test_largest_total_frames_trains_and_evaluates(self, tmp_path):
        # two clips of 2**62 frames, the last one frame short, abnormal from
        # one frame before the second clip: no int64 edge or count overflows
        path = tmp_path / "vid.json"
        end = 2 ** 63 - 1
        path.write_text(json.dumps(manifest_doc(
            frames_per_clip=2 ** 62, total_frames=end,
            segments=[{"start_frame": 0, "end_frame": 2 ** 62 - 1, "label": 0},
                      {"start_frame": 2 ** 62 - 1, "end_frame": end, "label": 1}])))
        manifest = storage.read_annotations(path)
        np.testing.assert_array_equal(clip_labels(manifest), [0, 1])
        report = evaluation.evaluate({"vid": np.array([0.2, 0.8])}, {"vid": manifest.segments},
                                     2 ** 62)
        assert report.frame_auc == pytest.approx(1.0, abs=1e-15)
        assert report.scopes["all"][50] == (100.0, 100.0, 100.0)

    def test_segments_in_any_order(self, tmp_path):
        path = tmp_path / "vid.json"
        doc = manifest_doc()
        doc["segments"].reverse()
        path.write_text(json.dumps(doc))
        assert storage.read_annotations(path).segments == (TemporalSegment(0, 160, 0),
                                                           TemporalSegment(160, 320, 1))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_manifest_reads_or_raises_format_error(self, data):
        doc = manifest_doc()
        mutate(data.draw, doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vid.json"
            path.write_text(json.dumps(doc))
            try:
                storage.read_annotations(path)
            except FormatError:
                pass

    def test_write_read_round_trip(self, tmp_path):
        manifest = AnnotationManifest(
            video_id="vid", frames_per_clip=16, total_frames=64,
            segments=(TemporalSegment(0, 32, 0), TemporalSegment(32, 64, 1)))
        path = tmp_path / "vid.json"
        storage.write_annotations(manifest, path)
        back = storage.read_annotations(path)
        assert back == manifest
        np.testing.assert_array_equal(clip_labels(back), [0, 0, 1, 1])


def trained_checkpoint(seed=3, hidden_channels=8):
    cfg = ADNetConfig(window_width=8, num_stages=2, num_layers=3, input_dim=4,
                      hidden_channels=hidden_channels)
    params = model.build(cfg, seed=seed)
    adam = numerics.init_adam(params, lr=5e-4)
    rng = np.random.default_rng(seed)
    for grad in params.gradients().values():
        grad[...] = rng.normal(size=grad.shape)
    numerics.adam_step(params, adam)
    return Checkpoint(model_config=cfg, train_config=TrainConfig(seed=seed),
                      seed=seed, frames_per_clip=16, epochs_completed=4,
                      params=params, adam=adam)


def per_entry_walk(raw: bytes, params_only: bool):
    """The payload check of a checkpoint whose header is sound, made entry
    by entry from a table of where every roster entry begins and ends:
    (message, byte offset) of the first fault, or None. The reader sizes
    the payload as copies of the parameter vector instead."""
    header_len = struct.unpack_from("<I", raw, 8)[0]
    header = json.loads(raw[12:12 + header_len])
    layout, start, size = header["tensors"], 12 + header_len, len(raw)
    ends = list(itertools.accumulate(math.prod(entry["shape"]) for entry in layout))
    begins = [0, *ends[:-1]]
    for entry, begin, end in zip(layout, begins, ends):
        if start + 8 * end > size:
            return f"truncated payload for tensor {entry['name']!r}", start + 8 * begin
    offset = start + 8 * ends[-1]
    if offset != size:
        return f"{size - offset} trailing bytes after last tensor", offset
    n = len(layout) // (1 if header["adam"] is None else 3)
    wanted = n if params_only else len(layout)
    flat = np.frombuffer(raw, "<f8", count=ends[wanted - 1], offset=start)
    if not np.isfinite(flat).all():
        bad, what = int(np.argmin(np.isfinite(flat))), "non-finite"
    elif wanted > n and flat[ends[2 * n - 1]:].min() < 0:
        bad, what = ends[2 * n - 1] + int(np.argmax(flat[ends[2 * n - 1]:] < 0)), "negative"
    else:
        return None
    name = layout[bisect.bisect_right(ends, bad)]["name"]
    return f"{what} value in tensor {name!r}", start + 8 * bad


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoint") / "model.adnc"
    storage.save_checkpoint(trained_checkpoint(), path)
    return path.read_bytes()


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        ckpt = trained_checkpoint()
        path = tmp_path / "model.adnc"
        storage.save_checkpoint(ckpt, path)
        back = storage.load_checkpoint(path)
        assert back.model_config == ckpt.model_config
        assert back.train_config == ckpt.train_config
        assert back.epochs_completed == 4
        assert back.frames_per_clip == 16
        for name, tensor in ckpt.params.tensors.items():
            assert np.array_equal(back.params.tensors[name].value, tensor.value)
        assert back.adam.step_count == ckpt.adam.step_count
        assert np.array_equal(back.adam.first_moment, ckpt.adam.first_moment)
        assert np.array_equal(back.adam.second_moment, ckpt.adam.second_moment)

    def test_exact_bytes(self, tmp_path):
        # magic | <II | header JSON | the parameters in parameter_shapes
        # order, then their first moments, then their second moments
        ckpt = trained_checkpoint()
        path = tmp_path / "model.adnc"
        storage.save_checkpoint(ckpt, path)
        shapes = model.parameter_shapes(ckpt.model_config)
        arrays = ([ckpt.params.tensors[name].value for name in shapes]
                  + list(model.views(ckpt.model_config, ckpt.adam.first_moment).values())
                  + list(model.views(ckpt.model_config, ckpt.adam.second_moment).values()))
        names = [prefix + name for prefix in ("", "optimizer.m.", "optimizer.v.")
                 for name in shapes]
        adam = ckpt.adam
        header = json.dumps({
            "format_version": 1,
            "model": storage.config_to_dict(ckpt.model_config),
            "train": storage.config_to_dict(ckpt.train_config),
            "seed": 3, "frames_per_clip": 16, "epochs_completed": 4,
            "adam": {"lr": adam.lr, "beta1": adam.beta1, "beta2": adam.beta2,
                     "epsilon": adam.epsilon, "step_count": 1},
            "tensors": [{"name": name, "shape": list(array.shape)}
                        for name, array in zip(names, arrays)]}).encode()
        payload = b"".join(struct.pack(f"<{array.size}d", *array.ravel()) for array in arrays)
        assert path.read_bytes() == (b"ADNC" + struct.pack("<II", 1, len(header)) + header
                                     + payload)

    def test_stored_checkpoint_loads_and_saves_byte_for_byte(self, tmp_path):
        # a guard on the on-disk format: the file was written by an earlier
        # save_checkpoint (1 stage, 1 layer, hidden width 2, Adam state)
        stored = Path(__file__).parent / "data" / "format_v1.adnc"
        ckpt = storage.load_checkpoint(stored)
        payload = b"".join(vector.tobytes() for vector in (
            ckpt.params.flat, ckpt.adam.first_moment, ckpt.adam.second_moment))
        assert hashlib.sha256(payload).hexdigest() == (
            "2f1be9c0122b54b9fda02f36774b2543e0ac4c2d1bed4930f17ab75c49142dca")
        params_only = storage.load_checkpoint(stored, params_only=True)
        assert params_only.params.flat.tobytes() == ckpt.params.flat.tobytes()
        storage.save_checkpoint(ckpt, tmp_path / "again.adnc")
        assert (tmp_path / "again.adnc").read_bytes() == stored.read_bytes()

    @given(with_adam=st.booleans(),
           values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=81, max_size=81),
           negative=st.floats(max_value=0, exclude_max=True, allow_infinity=False))
    @settings(max_examples=4, deadline=None)
    def test_payload_faults_match_the_per_entry_walk(self, with_adam, values, negative):
        # every truncation, a NaN at every value and a negative value at
        # every second moment name the tensor and byte that the walk names
        ckpt = storage.load_checkpoint(Path(__file__).parent / "data" / "format_v1.adnc")
        count = ckpt.params.flat.size  # 27, so 81 values with the moments
        ckpt.params.flat[:] = values[:count]
        ckpt.adam.first_moment[:] = values[count:2 * count]
        ckpt.adam.second_moment[:] = np.abs(values[2 * count:])
        if not with_adam:
            ckpt.adam = None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.adnc"
            storage.save_checkpoint(ckpt, path)
            raw = path.read_bytes()
            start = len(raw) - 8 * count * (3 if with_adam else 1)

            def edited(element, value):
                edit = bytearray(raw)
                struct.pack_into("<d", edit, start + 8 * element, value)
                return bytes(edit)

            variants = [raw[:length] for length in range(start, len(raw))]
            variants += [edited(element, np.nan) for element in range((len(raw) - start) // 8)]
            if with_adam:
                variants += [edited(element, negative) for element in range(2 * count, 3 * count)]
            for variant, params_only in itertools.product(variants, (True, False)):
                path.write_bytes(variant)
                expected = per_entry_walk(variant, params_only)
                if expected is None:  # a moment, which a params_only load does not read
                    assert params_only and len(variant) == len(raw)
                    storage.load_checkpoint(path, params_only=True)
                    continue
                with pytest.raises(FormatError) as excinfo:
                    storage.load_checkpoint(path, params_only=params_only)
                assert str(excinfo.value) == f"{path} @ byte {expected[1]}: {expected[0]}"
            path.write_bytes(raw + b"\0")
            with pytest.raises(FormatError) as excinfo:
                storage.load_checkpoint(path)
            assert str(excinfo.value) == (f"{path} @ byte {len(raw)}: "
                                          "1 trailing bytes after last tensor")

    def test_loaded_tensors_are_aligned_float64(self, tmp_path):
        path = tmp_path / "model.adnc"
        storage.save_checkpoint(trained_checkpoint(), path)
        for params_only in (False, True):
            back = storage.load_checkpoint(path, params_only=params_only)
            arrays = [back.params.flat] + [tensor.value for tensor in back.params]
            if not params_only:
                arrays += [back.adam.first_moment, back.adam.second_moment]
            for array in arrays:
                assert array.dtype == np.float64
                assert array.flags.c_contiguous and array.flags.aligned

    def test_loaded_vectors_share_the_buffer_read(self, tmp_path):
        # parameters and moments are consecutive views into one buffer, and
        # every tensor a view into the parameters
        path = tmp_path / "model.adnc"
        storage.save_checkpoint(trained_checkpoint(), path)
        back = storage.load_checkpoint(path)
        vectors = [back.params.flat, back.adam.first_moment, back.adam.second_moment]
        base = vectors[0].base
        assert base is not None and all(vector.base is base for vector in vectors)
        size = back.params.flat.size
        assert [vector.ctypes.data - base.ctypes.data for vector in vectors] == \
            [0, 8 * size, 16 * size]
        for tensor in back.params:
            assert np.shares_memory(tensor.value, back.params.flat)

    def test_save_is_deterministic(self, tmp_path):
        ckpt = trained_checkpoint()
        storage.save_checkpoint(ckpt, tmp_path / "a.adnc")
        storage.save_checkpoint(ckpt, tmp_path / "b.adnc")
        assert (tmp_path / "a.adnc").read_bytes() == (tmp_path / "b.adnc").read_bytes()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_header_loads_or_raises(self, checkpoint_bytes, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.adnc"
            path.write_bytes(checkpoint_bytes)
            rewrite_header(path, lambda header: mutate(data.draw, header))
            try:
                storage.load_checkpoint(path)
            except (FormatError, CheckpointError):
                pass


def traced_peak(call) -> int:
    """The peak of memory traced by tracemalloc while call runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpointMemory:
    """Save and load make no payload-sized copy: a save allocates a small
    fraction of the file, and a load little beyond the one array that its
    tensors are views of."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        ckpt = trained_checkpoint(hidden_channels=64)  # a 2.4 MB file
        path = tmp_path_factory.mktemp("memory") / "model.adnc"
        storage.save_checkpoint(ckpt, path)
        return ckpt, path

    def test_save(self, saved):
        ckpt, path = saved
        peak = traced_peak(lambda: storage.save_checkpoint(ckpt, path))
        assert peak <= 0.25 * path.stat().st_size

    def test_full_load(self, saved):
        _, path = saved
        assert traced_peak(lambda: storage.load_checkpoint(path)) <= 1.25 * path.stat().st_size

    def test_parameters_only_load(self, saved):
        _, path = saved
        peak = traced_peak(lambda: storage.load_checkpoint(path, params_only=True))
        assert peak <= 0.5 * path.stat().st_size


class TestConfigDicts:
    def test_train_config_lambda_key(self):
        doc = storage.config_to_dict(TrainConfig(seed=1, lambda_=0.25))
        assert "lambda_" not in doc
        assert list(doc)[-1] == "lambda"  # where checkpoint headers have it
        assert doc["lambda"] == 0.25

    @pytest.mark.parametrize("config", [
        ADNetConfig(window_width=32, num_stages=3, num_layers=5, input_dim=9),
        TrainConfig(seed=1, lambda_=0.25, use_ad_loss=False),
        synth.SynthConfig(abnormal_segment_count_range=(0, 3), noise_std=2),
    ], ids=lambda config: type(config).__name__)
    def test_round_trip(self, config):
        doc = storage.config_to_dict(config)
        assert json.loads(json.dumps(doc)) == doc
        assert storage.config_from_dict(type(config), doc, "section") == config
