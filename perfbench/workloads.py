"""The benchmark's workloads: input generation, operations and output checks.

Every workload is a closed loop with one client: the next `adnet` command
starts when the previous one has returned. Commands run in-process through
`adnet.cli.main` with their standard output captured. Inputs are a pure
function of the seed; the program only sees the generated files.

- train: one-epoch `adnet train --resume` calls over a README-geometry
  corpus at class_mean_separation 0.5, for an epoch budget fixed by the run
  length; set-up writes the corpus and trains the first epoch. Exercises
  conv backward, the tape, gradient buffers and Adam. Held-out `infer` and
  `eval` run afterwards, untimed, for the quality metrics.
- infer: one `adnet infer` call per video against a checkpoint built in
  set-up, video lengths log-uniform from 32 to 4096 clips. Short videos
  cost per call (checkpoint load, JSON write); long ones cost the untaped
  forward. No backward pass, no Adam.
- eval: `adnet eval` calls over shards of long, over-segmented prediction
  documents. Only the evaluation and io layers work; the control for
  model-side changes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import struct
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

WIDTH = 64
MODEL = {"window_width": WIDTH, "num_stages": 5, "num_layers": 6}
FRAMES_PER_CLIP = 16
THRESHOLD = 0.5
SCORE_TOLERANCE = 1e-9   # window-by-window reference vs `adnet infer`
REPORT_TOLERANCE = 1e-9  # independent metrics vs `adnet eval`


class SetupError(RuntimeError):
    pass


@dataclasses.dataclass
class Op:
    argv: list[str]
    items: int   # work units the op completes: windows, clips or frames
    key: str


@dataclasses.dataclass
class Result:
    op: Op
    rc: int
    seconds: float
    stdout: str
    stderr: str
    failure: str | None = None


def run_cli(cli, argv, tracer=None) -> Result:
    """One `adnet` command in-process; a traceback counts as exit code -1."""
    out, err = StringIO(), StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.new_group()
            index = tracer.begin("cli.main")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the program must never raise; record it as a failure
            traceback.print_exc()
            rc = -1
        finally:
            if tracer is not None:
                tracer.end(index)
    seconds = time.perf_counter() - start
    return Result(Op(list(argv), 0, ""), rc, seconds, out.getvalue(), err.getvalue())


def seeds(seed: int, tag: int, count: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence([seed, tag]).generate_state(count)]


def window_count(num_clips: int, width: int = WIDTH) -> int:
    """Windows of the documented plan: stride width/2 until one reaches the end."""
    if num_clips <= width:
        return 1
    return 1 + math.ceil((num_clips - width) / (width // 2))


def adnf_clips(path: Path) -> int:
    with open(path, "rb") as handle:
        header = handle.read(16)
    return struct.unpack_from("<I", header, 8)[0]


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def stratified(rng, count: int, low: float, high: float, log: bool) -> list[int]:
    """One draw per equal-width stratum of [low, high] (of its log when
    log is set), shuffled: the spread of lengths barely moves with the seed."""
    a, b = (math.log(low), math.log(high)) if log else (low, high)
    points = a + (np.arange(count) + rng.random(count)) * (b - a) / count
    values = np.exp(points) if log else points
    return [int(round(v)) for v in rng.permutation(values)]


def synth_videos(adnet, lengths, rng, **config):
    """One video of each length from adnet's generator, named v000, v001, ..."""
    synth = adnet.synth
    for index, length in enumerate(lengths):
        video = synth.generate(synth.SynthConfig(
            num_videos=1, clips_min=length, clips_max=length,
            seed=int(rng.integers(0, 2**31)), **config))[0]
        video_id = f"v{index:03d}"
        yield video_id, video, dataclasses.replace(video.manifest, video_id=video_id)


def write_corpus(adnet, directory: Path, videos) -> None:
    """features/<id>.adnf and annotations/<id>.json, as `adnet synth` lays them out."""
    io = adnet.io
    features = _mkdir(directory / "features")
    annotations = _mkdir(directory / "annotations")
    for video_id, video, manifest in videos:
        io.write_features(io.ClipFeatureSequence(video_id, video.features.features),
                          features / f"{video_id}.adnf")
        io.write_annotations(manifest, annotations / f"{video_id}.json")


def midrank_auc(scores, labels) -> float:
    """Mann-Whitney AUC with tied scores sharing their mean rank."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = ((ends - counts + 1 + ends) / 2.0)[inverse]
    num_pos = int(labels.sum())
    num_neg = labels.size - num_pos
    return float((ranks[labels == 1].sum() - num_pos * (num_pos + 1) / 2.0)
                 / (num_pos * num_neg))


def runs(labels):
    """(starts, ends, labels) of the maximal constant runs of a 0/1 vector."""
    labels = np.asarray(labels)
    bounds = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [labels.size]))
    return starts, ends, labels[starts]


def greedy_counts(pred, gt, k: int, scope_labels) -> tuple[int, int, int]:
    """TP, FP, FN of temporal-order greedy matching: a prediction takes its
    best-IoU same-label ground-truth segment if it clears k percent and is
    unclaimed. Equivalently, TP is the number of distinct segments taken by
    qualifying predictions."""
    ps, pe, pl = pred
    gs, ge, gl = gt
    pin = np.isin(pl, scope_labels)
    gin = np.isin(gl, scope_labels)
    ps, pe, pl = ps[pin], pe[pin], pl[pin]
    gs, ge, gl = gs[gin], ge[gin], gl[gin]
    if ps.size == 0 or gs.size == 0:
        return 0, int(ps.size), int(gs.size)
    inter = np.minimum(pe[:, None], ge[None, :]) - np.maximum(ps[:, None], gs[None, :])
    union = np.maximum(pe[:, None], ge[None, :]) - np.minimum(ps[:, None], gs[None, :])
    iou = np.where(inter > 0, inter / union, 0.0)
    iou = np.where(pl[:, None] == gl[None, :], iou, -1.0)
    best = iou.argmax(axis=1)
    best_iou = iou[np.arange(ps.size), best]
    qualifying = (best_iou >= k / 100.0) & (best_iou >= 0.0)
    tp = int(np.unique(best[qualifying]).size)
    return tp, int(ps.size) - tp, int(gs.size) - tp


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    if tp == 0 and fp == 0 and fn == 0:
        return 100.0, 100.0, 100.0
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def reference_report(pred_dir: Path, gt_dir: Path, ks=(10, 25, 50)) -> dict:
    """AUC and per-scope precision/recall/F1 of a prediction directory,
    computed without adnet. Recall here is TP over the ground-truth segments
    in scope, so a report that matches it has TP + FN equal to that count."""
    scopes = {"abnormal": (1,), "normal": (0,), "all": (0, 1)}
    counts = {scope: {k: [0, 0, 0] for k in ks} for scope in scopes}
    all_scores, all_labels = [], []
    for gt_path in sorted(gt_dir.glob("*.json")):
        manifest = json.loads(gt_path.read_text(encoding="utf-8"))
        doc = json.loads((pred_dir / gt_path.name).read_text(encoding="utf-8"))
        labels = np.zeros(manifest["total_frames"], dtype=np.int64)
        for seg in manifest["segments"]:
            labels[seg["start_frame"]:seg["end_frame"]] = seg["label"]
        scores = np.repeat(np.asarray(doc["clip_scores"], dtype=np.float64),
                           doc["frames_per_clip"])[:labels.size]
        pred = runs((scores >= doc["config"]["threshold"]).astype(np.int64))
        gt = runs(labels)
        for scope, wanted in scopes.items():
            for k in ks:
                for slot, value in enumerate(greedy_counts(pred, gt, k, wanted)):
                    counts[scope][k][slot] += value
        all_scores.append(scores)
        all_labels.append(labels)
    report = {"frame_auc": midrank_auc(np.concatenate(all_scores), np.concatenate(all_labels)),
              "segmental": {}}
    for scope in scopes:
        report["segmental"][scope] = {
            f"f1@{k}": dict(zip(("precision", "recall", "f1"), prf(*counts[scope][k])))
            for k in ks}
    return report


def compare_reports(report: dict, reference: dict) -> str | None:
    """First disagreement between an `adnet eval` report and the reference."""
    if abs(report["frame_auc"] - reference["frame_auc"]) > REPORT_TOLERANCE:
        return f"frame_auc {report['frame_auc']} != reference {reference['frame_auc']}"
    for scope, block in reference["segmental"].items():
        for name, expected in block.items():
            got = report["segmental"][scope][name]
            for field, value in expected.items():
                if abs(got[field] - value) > REPORT_TOLERANCE:
                    return f"{scope} {name} {field} {got[field]} != reference {value}"
    return None


def quality_of(report: dict) -> tuple[float, float]:
    return report["frame_auc"], report["segmental"]["all"]["f1@50"]["f1"]


class Workload:
    """Shared plumbing; subclasses define set-up, operations and checks."""

    name = ""
    item = ""
    rate_per_pass = False   # items/s per pass (else per operation)
    repeat_passes = True    # keep looping passes until the run length is spent, else run one
    traced_passes = 1

    def __init__(self, adnet, root: Path, seed: int, seconds: float, **sizes):
        self.adnet = adnet
        self.cli = adnet.cli
        self.root = root
        self.seed = seed
        self.seconds = seconds
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise TypeError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)
        self.dir = root
        self.quality = (0.0, 0.0)

    def call(self, argv):
        result = run_cli(self.cli, [str(a) for a in argv])
        if result.rc != 0:
            raise SetupError(f"adnet {' '.join(map(str, argv))} exited {result.rc}: "
                             f"{result.stderr.strip()[-500:]}")
        return result

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the loop, such as references."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, result: Result) -> str | None:
        return None

    def verify(self) -> list[str | None]:
        """Checks made once after the loop; each counts as one operation."""
        return []


class Train(Workload):
    name = "train"
    item = "window"
    repeat_passes = False
    videos = 40
    heldout_videos = 80   # the held-out corpus only feeds the quality metrics
    clips_min = 48
    clips_max = 96
    separation = 0.5
    epoch_nominal_s = 1.8   # sizes the epoch budget from the run length

    @property
    def epochs(self) -> int:
        """Epoch budget: the first epoch is part of set-up, the rest are timed."""
        return max(2, round(self.seconds / self.epoch_nominal_s))

    def setup(self, directory):
        corpus_seed, train_seed = seeds(self.seed, 1, 2)
        rng = np.random.default_rng(corpus_seed)
        for corpus, count in (("corpus", self.videos), ("heldout", self.heldout_videos)):
            lengths = stratified(rng, count, self.clips_min, self.clips_max, log=False)
            write_corpus(self.adnet, directory / corpus, synth_videos(
                self.adnet, lengths, rng, class_mean_separation=self.separation))
        config = directory / "run.json"
        write_json(config, {
            "model": MODEL,
            "train": {"epochs": 1, "seed": train_seed},
            "paths": {"features_dir": str(directory / "corpus" / "features"),
                      "annotations_dir": str(directory / "corpus" / "annotations"),
                      "checkpoint": str(directory / "model.adnc")}})
        self.call(["train", "--config", config])
        self.dir = directory

    def prepare(self):
        self.windows = sum(window_count(adnf_clips(p))
                           for p in (self.dir / "corpus" / "features").glob("*.adnf"))
        self.next_epoch = 1

    def ops(self):
        argv = ["train", "--config", str(self.dir / "run.json"), "--resume"]
        return [Op(argv, self.windows, "resume") for _ in range(self.epochs - 1)]

    def check(self, op, result):
        epochs = [json.loads(line) for line in result.stdout.splitlines()
                  if line.startswith("{")]
        if len(epochs) != 1 or epochs[0]["epoch"] != self.next_epoch:
            return f"expected one log line for epoch {self.next_epoch}, got {epochs}"
        self.next_epoch += 1
        losses = [epochs[0][key] for key in ("mean_mse", "mean_ad", "mean_total")]
        if not all(math.isfinite(v) for v in losses):
            return f"non-finite loss {losses}"
        return None

    def verify(self):
        outcomes = []
        try:
            ckpt = self.adnet.io.load_checkpoint(self.dir / "model.adnc")
            finite = all(np.all(np.isfinite(t.value)) for t in ckpt.params.tensors.values())
            ok = ckpt.epochs_completed == self.next_epoch and ckpt.adam is not None and finite
            outcomes.append(None if ok else "reloaded checkpoint is incomplete or non-finite")
        except self.adnet.errors.AdnetError as exc:
            outcomes.append(f"checkpoint does not reload: {exc}")
        pred = self.dir / "heldout_pred"
        infer = run_cli(self.cli, ["infer", "--checkpoint", str(self.dir / "model.adnc"),
                                   "--features", str(self.dir / "heldout" / "features"),
                                   "--out", str(pred)])
        outcomes.append(None if infer.rc == 0 else f"held-out infer exited {infer.rc}")
        evaluation = run_cli(self.cli, ["eval", "--pred", str(pred),
                                        "--gt", str(self.dir / "heldout" / "annotations")])
        outcomes.append(None if evaluation.rc == 0 else f"held-out eval exited {evaluation.rc}")
        if evaluation.rc == 0:
            self.quality = quality_of(json.loads(evaluation.stdout))
        return outcomes


class Infer(Workload):
    name = "infer"
    item = "clip"
    rate_per_pass = True
    videos = 50
    min_clips = 32
    max_clips = 4096
    separation = 4.0
    reference_videos = 3   # shortest, median and longest are re-scored window by window
    # The checkpoint is a fixture, the same for every seed: 4 epochs of a
    # 4-video corpus at a raised learning rate, enough to score these
    # videos correctly, so the quality of infer outputs does not move with
    # the seed.
    CHECKPOINT = {"synth": {"num_videos": 4, "seed": 100, "class_mean_separation": 4.0},
                  "model": MODEL,
                  "train": {"epochs": 4, "seed": 1, "learning_rate": 2e-3}}

    def setup(self, directory):
        config = directory / "run.json"
        write_json(config, {**self.CHECKPOINT, "paths": {
            "features_dir": str(directory / "ckpt_corpus" / "features"),
            "annotations_dir": str(directory / "ckpt_corpus" / "annotations"),
            "checkpoint": str(directory / "model.adnc")}})
        self.call(["synth", "--config", config, "--out", directory / "ckpt_corpus"])
        self.call(["train", "--config", config])
        rng = np.random.default_rng(seeds(self.seed, 2, 2)[0])
        lengths = stratified(rng, self.videos, self.min_clips, self.max_clips, log=True)
        write_corpus(self.adnet, directory / "videos", synth_videos(
            self.adnet, lengths, rng, class_mean_separation=self.separation))
        self.dir = directory

    def prepare(self):
        paths = sorted((self.dir / "videos" / "features").glob("*.adnf"))
        self.lengths = {p.stem: adnf_clips(p) for p in paths}
        by_length = sorted(self.lengths, key=self.lengths.get)
        picks = np.linspace(0, len(by_length) - 1, self.reference_videos).round().astype(int)
        self.reference = {by_length[i]: self._reference_scores(by_length[i]) for i in picks}

    def _reference_scores(self, video_id):
        """Window-by-window scores from model.forward and merge_scores."""
        io, model, windowing = self.adnet.io, self.adnet.model, self.adnet.windowing
        params = io.load_checkpoint(self.dir / "model.adnc").params
        feats = io.read_features(self.dir / "videos" / "features" / f"{video_id}.adnf").features
        dim, total = feats.shape
        scored = []
        for start in range(0, total, WIDTH // 2):
            real = min(WIDTH, total - start)
            cols = np.zeros((dim, WIDTH))
            cols[:, :real] = feats[:, start:start + real]
            mask = np.zeros(WIDTH)
            mask[:real] = 1.0
            window = windowing.Window(features=cols, mask=mask, video_id=video_id,
                                      start_clip=start)
            scored.append((start, mask, model.forward(params, window)[-1].value.ravel()))
            if start + WIDTH >= total:
                break
        return windowing.merge_scores(scored, total)

    def ops(self):
        order = np.random.default_rng(seeds(self.seed, 2, 2)[1]).permutation(sorted(self.lengths))
        features = self.dir / "videos" / "features"
        return [Op(["infer", "--checkpoint", str(self.dir / "model.adnc"),
                    "--features", str(features / f"{video_id}.adnf"),
                    "--out", str(self.dir / "pred")], self.lengths[video_id], str(video_id))
                for video_id in order]

    def check(self, op, result):
        if result.rc != 0:
            return None
        doc = json.loads((self.dir / "pred" / f"{op.key}.json").read_text(encoding="utf-8"))
        scores = np.asarray(doc["clip_scores"], dtype=np.float64)
        if scores.shape != (op.items,) or len(doc["frame_scores"]) != FRAMES_PER_CLIP * op.items:
            return f"{op.key}: {scores.shape[0]} scores for {op.items} clips"
        if not (np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0):
            return f"{op.key}: scores not finite or outside [0, 1]"
        expected = self.reference.get(op.key)
        if expected is not None and np.max(np.abs(scores - expected)) > SCORE_TOLERANCE:
            return (f"{op.key}: differs from the window-by-window reference by "
                    f"{np.max(np.abs(scores - expected)):.3g}")
        return None

    def verify(self):
        evaluation = run_cli(self.cli, ["eval", "--pred", str(self.dir / "pred"),
                                        "--gt", str(self.dir / "videos" / "annotations")])
        if evaluation.rc != 0:
            return [f"eval of the inferred scores exited {evaluation.rc}"]
        self.quality = quality_of(json.loads(evaluation.stdout))
        return [None]


class Eval(Workload):
    name = "eval"
    item = "frame"
    traced_passes = 3
    videos = 40
    shards = 10   # one `adnet eval` call per shard of 4 videos
    min_clips = 1000
    max_clips = 4000
    abnormal_runs = (5, 5)   # 11 ground-truth segments a video
    noisy_margin = 0.4   # score margin inside over-segmented segments: flips ~34% of clips
    clean_margin = 4.0

    def setup(self, directory):
        rng = np.random.default_rng(seeds(self.seed, 3, 1)[0])
        lengths = stratified(rng, self.videos, self.min_clips, self.max_clips, log=False)
        gt_dir, pred_dir = _mkdir(directory / "gt"), _mkdir(directory / "pred")
        for video_id, video, manifest in synth_videos(
                self.adnet, lengths, rng, abnormal_segment_count_range=self.abnormal_runs):
            self.adnet.io.write_annotations(manifest, gt_dir / f"{video_id}.json")
            labels = video.clip_labels
            starts, ends, _ = runs(labels)
            noisy = np.zeros(labels.size, dtype=bool)
            for segment in rng.permutation(starts.size)[:starts.size // 2]:
                noisy[starts[segment]:ends[segment]] = True
            margin = np.where(noisy, self.noisy_margin, self.clean_margin)
            z = (2.0 * labels - 1.0) * margin + rng.normal(size=labels.size)
            scores = 1.0 / (1.0 + np.exp(-z))
            write_json(pred_dir / f"{video_id}.json", {
                "tool": "adnet", "version": self.adnet.__version__,
                "config": {"threshold": THRESHOLD, "model": {**MODEL, "input_dim": 16},
                           "frames_per_clip": FRAMES_PER_CLIP},
                "video_id": video_id, "num_clips": labels.size,
                "frames_per_clip": FRAMES_PER_CLIP,
                "clip_scores": scores.tolist(),
                "clip_labels": (scores >= THRESHOLD).astype(int).tolist(),
                "frame_scores": np.repeat(scores, FRAMES_PER_CLIP).tolist()})
        self.dir = directory

    def prepare(self):
        """Deal the videos, by length, into shards of near-equal frame
        counts, each a pred/gt directory pair of its own; reference
        reports for every shard and for the whole set."""
        frames = {p.stem: json.loads(p.read_text(encoding="utf-8"))["total_frames"]
                  for p in (self.dir / "gt").glob("*.json")}
        count = min(self.shards, len(frames))
        by_length = sorted(frames, key=lambda video_id: (frames[video_id], video_id))
        members = [[] for _ in range(count)]
        for rank, video_id in enumerate(by_length):   # dealt 0..n-1, n-1..0, 0..n-1, ...
            lap, place = divmod(rank, count)
            members[place if lap % 2 == 0 else count - 1 - place].append(video_id)
        self.shard_frames = {}
        self.reference = {}
        for index, videos in enumerate(members):
            shard = self.dir / "shards" / f"s{index}"
            for video_id in videos:
                for kind in ("pred", "gt"):
                    _mkdir(shard / kind)
                    shutil.copyfile(self.dir / kind / f"{video_id}.json",
                                    shard / kind / f"{video_id}.json")
            self.shard_frames[shard.name] = sum(frames[v] for v in videos)
            self.reference[shard.name] = reference_report(shard / "pred", shard / "gt")
        self.reference["all"] = reference_report(self.dir / "pred", self.dir / "gt")

    def ops(self):
        shards = self.dir / "shards"
        return [Op(["eval", "--pred", str(shards / key / "pred"), "--gt", str(shards / key / "gt")],
                   frames, key)
                for key, frames in self.shard_frames.items()]

    def check(self, op, result):
        if result.rc != 0:
            return None
        return compare_reports(json.loads(result.stdout), self.reference[op.key])

    def verify(self):
        """One untimed `adnet eval` over every video: the quality metrics."""
        evaluation = run_cli(self.cli, ["eval", "--pred", str(self.dir / "pred"),
                                        "--gt", str(self.dir / "gt")])
        if evaluation.rc != 0:
            return [f"eval of the whole prediction set exited {evaluation.rc}"]
        report = json.loads(evaluation.stdout)
        self.quality = quality_of(report)
        return [compare_reports(report, self.reference["all"])]


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


WORKLOADS = {cls.name: cls for cls in (Train, Infer, Eval)}


def run_pass(workload: Workload, tracer=None) -> list[Result]:
    results = []
    for op in workload.ops():
        result = run_cli(workload.cli, op.argv, tracer)
        result.op = op
        if result.rc != 0:
            result.failure = f"{op.key}: exit {result.rc}: {result.stderr.strip()[-300:]}"
        else:
            try:
                result.failure = workload.check(op, result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                result.failure = f"{op.key}: output unreadable: {exc!r}"
        results.append(result)
    return results


def measure(workload: Workload) -> list[list[Result]]:
    """One pass, or, when the workload repeats, complete passes until the
    run length is spent (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload))
        if not workload.repeat_passes or time.perf_counter() - start >= workload.seconds:
            return passes


def set_up(workload: Workload, repeats: int, min_total_s: float = 0.0) -> list[float]:
    """Set the workload up at least `repeats` times and until the set-ups
    took `min_total_s` together, keeping the last; seconds of each."""
    times = []
    while len(times) < repeats or sum(times) < min_total_s:
        directory = workload.root / f"setup{len(times)}"
        if times:
            shutil.rmtree(workload.root / f"setup{len(times) - 1}")
        start = time.perf_counter()
        workload.setup(directory)
        times.append(time.perf_counter() - start)
    workload.prepare()
    return times


def set_up_again(workload: Workload, count: int) -> list[float]:
    """`count` more set-ups into throwaway directories, keeping the inputs in
    use; seconds of each."""
    keep = workload.dir
    times = []
    for attempt in range(count):
        directory = workload.root / f"again{attempt}"
        start = time.perf_counter()
        workload.setup(directory)
        times.append(time.perf_counter() - start)
        shutil.rmtree(directory)
    workload.dir = keep
    return times
