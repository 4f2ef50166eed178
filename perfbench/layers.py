"""Per-layer instrumentation of adnet, from outside the program.

`Instrumentation` wraps the public functions of each adnet module (the layers)
in span recorders on a Tracer; `Tracer.restore` undoes it. Pullbacks are
timed by wrapping `Tape.record`, and first-touch gradient buffers are
counted by wrapping `Tensor.accumulate_grad`. Numerics ops are attributed
to a model stage by the parameter tensors they receive; ops without
parameters inherit the stage of the op before them.

`layer_metrics` turns the recorded spans into the per-layer metrics named
in BENCHMARK.json. FLOPs and bytes are computed from shapes, not
measured, and repeat exactly for the same inputs.
"""

from __future__ import annotations

import os
import statistics

from spans import Tracer, self_times

ELEMENTWISE = ("relu", "sigmoid", "add", "mask_mul", "scalar_scale", "scalar_sum")
NUM_STAGES = 5   # the benchmark's geometry, workloads.MODEL
F64 = 8


def conv_fwd_work(x, w, b, dilation):
    """(FLOPs, bytes) of one dilated-conv forward: the K-tap product plus
    the bias; x, w, b read and y written once."""
    cin, t = x.shape
    cout, _, k = w.shape
    return 2 * cout * cin * k * t + cout * t, F64 * (cin * t + cout * cin * k + cout + cout * t)


def conv_bwd_work(x, w, gy, dilation):
    """(FLOPs, bytes) of one dilated-conv backward: grad of the weights and
    of the input, each a K-tap product, plus the bias sum; x, w, gy read and
    gx, gw, gb written once."""
    cin, t = x.shape
    cout, _, k = w.shape
    flops = 4 * cout * cin * k * t + cout * t
    return flops, F64 * (2 * cin * t + 2 * cout * cin * k + cout * t + cout)


def adam_bytes_per_step(num_params: int) -> int:
    """Parameter, gradient and both moments read; parameter and moments written."""
    return 7 * F64 * num_params


class Instrumentation:
    """The spans and counters one traced pass over adnet records."""

    def __init__(self, tracer: Tracer, adnet):
        self.tracer = tracer
        self.counters = tracer.counters
        self.stage_of: dict[int, int] = {}
        self._params = None
        self.stage = None
        self.num_ks = len(adnet.evaluation.DEFAULT_KS)
        self.scopes = adnet.evaluation.SCOPES
        self._patch(adnet)

    # -- hooks -------------------------------------------------------------

    def _forward_begin(self, params, window, tape=None):
        if params is not self._params:
            self._params = params
            # parameter names start with "stage{s}."
            self.stage_of = {id(t): int(name[5:name.index(".")])
                             for name, t in params.tensors.items()}
        if tape is not None:
            self.tracer.new_group()
        self.stage = 0
        return "taped" if tape is not None else "untaped"

    def _forward_end(self, result, *args, **kwargs):
        self.stage = None

    def _op_stage(self, *args, **kwargs):
        if self.stage is not None:
            for value in args:
                stage = self.stage_of.get(id(value))
                if stage is not None:
                    self.stage = stage
                    break
        return self.stage

    def _count_bytes(self, key):
        def after(result, path, *args, **kwargs):
            self.counters[key] += os.path.getsize(path)
        return after

    def _text_bytes(self, result, path, text):
        self.counters["io.atomic_write_text.bytes"] += len(text.encode("utf-8"))

    def _kernel_work(self, prefix, work):
        def before(*args):
            flops, nbytes = work(*args)
            self.counters[prefix + ".flops"] += flops
            self.counters[prefix + ".bytes"] += nbytes
        return before

    def _materialized(self, windows, *args, **kwargs):
        self.counters["windowing.windows"] += len(windows)
        for window in windows:
            self.counters["windowing.window_clips"] += window.mask.shape[0]
            self.counters["windowing.real_clips"] += int(window.mask.sum())

    def _ad_loss_done(self, result, *args, **kwargs):
        self.counters["training.ad_loss_calls"] += 1
        if float(result.value) > 0.0:
            self.counters["training.ad_loss_active"] += 1

    def _adam_done(self, result, params, state):
        self.counters["numerics.adam_steps"] += 1
        self.counters["numerics.adam_params"] += sum(p.value.size for p in params)

    def _step_done(self, *args, **kwargs):
        self.tracer.new_group()

    def _evaluate_begin(self, pred, gt, frames_per_clip, ks=None, threshold=0.5):
        if ks is not None:
            self.num_ks = len(ks)

    def _match_begin(self, pred, gt, k, scope="all"):
        # counting walks every segment, so it gets a span of its own rather
        # than inflating the self time of the caller
        with self.tracer.span("trace.count_iou_pairs"):
            if scope == "all":
                self.counters["evaluation.pred_segments_x_ks"] += len(pred)
                self.counters["evaluation.gt_segments_x_ks"] += len(gt)
            labels = self.scopes.get(scope, ())
            gt_per_label = {label: sum(1 for s in gt if s.label == label) for label in labels}
            self.counters["evaluation.iou_pairs"] += sum(
                gt_per_label[s.label] for s in pred if s.label in gt_per_label)

    # -- wiring ------------------------------------------------------------

    def _patch(self, adnet):
        cli, io, kernels, model = adnet.cli, adnet.io, adnet.kernels, adnet.model
        numerics, training, windowing = adnet.numerics, adnet.training, adnet.windowing
        evaluation, synth = adnet.evaluation, adnet.synth
        span = self.tracer.patch_span

        for command in ("synth", "train", "infer", "eval"):
            span(cli, f"cmd_{command}", f"cli.{command}")

        span(io, "read_features", "io.read_features",
             after=self._count_bytes("io.read_features.bytes"))
        span(io, "read_annotations", "io.read_annotations")
        span(io, "load_checkpoint", "io.load_checkpoint",
             after=self._count_bytes("io.load_checkpoint.bytes"))
        span(io, "save_checkpoint", "io.save_checkpoint")
        span(io, "atomic_write_text", "io.atomic_write_text", after=self._text_bytes)
        span(io, "write_features", "io.write_features")
        span(io, "write_annotations", "io.write_annotations")

        span(kernels, "conv1d_dilated_fwd", "kernels.conv_fwd",
             before=self._kernel_work("kernels.conv_fwd", conv_fwd_work))
        span(kernels, "conv1d_dilated_bwd", "kernels.conv_bwd",
             before=self._kernel_work("kernels.conv_bwd", conv_bwd_work))

        for op in ("conv1d_dilated", "pointwise_conv") + ELEMENTWISE:
            span(numerics, op, f"numerics.{op}", before=self._op_stage)
        span(numerics, "adam_step", "numerics.adam_step", after=self._adam_done)
        span(numerics, "zero_grads", "numerics.zero_grads", after=self._step_done)
        span(numerics.Tape, "backward", "numerics.backward")
        self.tracer.patch(numerics.Tape, "record", self._wrap_record)
        self.tracer.patch(numerics.Tensor, "accumulate_grad", self._wrap_accumulate)

        span(model, "forward", "model.forward", before=self._forward_begin,
             after=self._forward_end)
        span(model, "score_sequence", "model.score_sequence")

        span(windowing, "plan_windows", "windowing.plan_windows")
        span(windowing, "materialize", "windowing.materialize", after=self._materialized)
        span(windowing, "merge_scores", "windowing.merge_scores")

        span(training, "train", "training.train")
        span(training, "total_loss", "training.total_loss")
        span(training, "mse_loss", "training.mse_loss")
        span(training, "ad_loss", "training.ad_loss", after=self._ad_loss_done)

        span(evaluation, "evaluate", "evaluation.evaluate", before=self._evaluate_begin)
        span(evaluation, "match_counts", "evaluation.match_counts", before=self._match_begin)
        for name in ("frame_auc", "expand_to_frames", "segments_from_labels"):
            span(evaluation, name, f"evaluation.{name}")

        span(synth, "generate", "synth.generate")

    def _wrap_record(self, original):
        tracer = self.tracer
        counters = self.counters

        def record(tape, output, pullback):
            counters["numerics.tape_records"] += 1
            op = tracer.current()
            name = "bwd:" + (op.name if op is not None else "unknown")
            tag = op.tag if op is not None else None

            def timed_pullback():
                index = tracer.begin(name, tag)
                try:
                    pullback()
                finally:
                    tracer.end(index)
            return original(tape, output, timed_pullback)
        return record

    def _wrap_accumulate(self, original):
        counters = self.counters

        def accumulate_grad(tensor, delta):
            if tensor.grad is None:
                counters["numerics.grad_allocs"] += 1
            return original(tensor, delta)
        return accumulate_grad


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples; 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(inst: Instrumentation, wall_s: float, untraced_wall_s: float,
                  setup_tracer: Tracer | None = None) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus the layer self-time table.

    wall_s is the traced pass's wall time and untraced_wall_s that of the
    same pass with tracing off.
    """
    spans = inst.tracer.spans
    own = self_times(spans)
    c = inst.counters
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    stage_ms = [0.0] * NUM_STAGES
    for span, own_s in zip(spans, own):
        self_ms[span.name] = self_ms.get(span.name, 0.0) + 1e3 * own_s
        calls[span.name] = calls.get(span.name, 0) + 1
        if isinstance(span.tag, int):
            stage_ms[span.tag] += 1e3 * span.duration

    def s(name):
        return self_ms.get(name, 0.0)

    def per(value, count):
        return value / count if count else 0.0

    def mean_ms(name, tag=None):
        durations = [1e3 * x.duration for x in spans
                     if x.name == name and (tag is None or x.tag == tag)]
        return per(sum(durations), len(durations))

    steps = c["numerics.adam_steps"]
    step_extent: dict[int, list[float]] = {}
    step_groups = {x.group for x in spans if x.name == "numerics.adam_step"}
    for x in spans:
        if x.group in step_groups:
            lo_hi = step_extent.setdefault(x.group, [x.start, x.end])
            lo_hi[0] = min(lo_hi[0], x.start)
            lo_hi[1] = max(lo_hi[1], x.end)
    step_ms = sorted(1e3 * (hi - lo) for lo, hi in step_extent.values())

    metrics = {}
    for kernel in ("conv_fwd", "conv_bwd"):
        name = f"kernels.{kernel}"
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_ms"] = (s(name), "ms")
        metrics[f"{name}.gflops_computed"] = (c[f"{name}.flops"] / 1e9, "GFLOP")
        metrics[f"{name}.flop_per_byte_computed"] = (
            per(c[f"{name}.flops"], c[f"{name}.bytes"]), "flop/B")

    elementwise = [f"numerics.{op}" for op in ELEMENTWISE]
    metrics["numerics.fwd.conv_self_ms"] = (s("numerics.conv1d_dilated"), "ms")
    metrics["numerics.fwd.pointwise_self_ms"] = (s("numerics.pointwise_conv"), "ms")
    metrics["numerics.fwd.elementwise_self_ms"] = (sum(s(n) for n in elementwise), "ms")
    metrics["numerics.bwd.conv_self_ms"] = (s("bwd:numerics.conv1d_dilated"), "ms")
    metrics["numerics.bwd.pointwise_self_ms"] = (s("bwd:numerics.pointwise_conv"), "ms")
    metrics["numerics.bwd.elementwise_self_ms"] = (
        sum(s("bwd:" + n) for n in elementwise), "ms")
    metrics["numerics.backward.self_ms"] = (s("numerics.backward"), "ms")
    metrics["numerics.tape_records_per_step"] = (per(c["numerics.tape_records"], steps), "count")
    metrics["numerics.grad_allocs_per_step"] = (per(c["numerics.grad_allocs"], steps), "count")
    metrics["numerics.adam_step.calls"] = (steps, "count")
    metrics["numerics.adam_step.self_ms_per_step"] = (per(s("numerics.adam_step"), steps), "ms")
    metrics["numerics.adam_step.bytes_computed"] = (
        adam_bytes_per_step(per(c["numerics.adam_params"], steps)), "B")
    metrics["numerics.zero_grads.self_ms_per_step"] = (
        per(s("numerics.zero_grads"), steps), "ms")

    metrics["model.forward.taped_ms_per_window"] = (mean_ms("model.forward", "taped"), "ms")
    metrics["model.forward.untaped_ms_per_window"] = (
        mean_ms("model.forward", "untaped"), "ms")
    metrics["model.score_sequence.ms_per_video"] = (mean_ms("model.score_sequence"), "ms")
    for stage, value in enumerate(stage_ms):
        metrics[f"model.stage{stage}.self_ms"] = (value, "ms")

    metrics["windowing.windows"] = (c["windowing.windows"], "count")
    metrics["windowing.useful_clip_ratio"] = (
        per(c["windowing.real_clips"], c["windowing.window_clips"]), "1")
    metrics["windowing.materialize.self_ms"] = (s("windowing.materialize"), "ms")
    metrics["windowing.merge_scores.self_ms"] = (s("windowing.merge_scores"), "ms")

    loss_fwd = s("training.total_loss") + s("training.mse_loss") + s("training.ad_loss")
    loss_bwd = s("bwd:training.mse_loss") + s("bwd:training.ad_loss")
    metrics["training.steps"] = (steps, "count")
    metrics["training.step_ms_p50"] = (percentile(step_ms, 50), "ms")
    metrics["training.step_ms_p90"] = (percentile(step_ms, 90), "ms")
    metrics["training.loss_fwd_self_ms_per_step"] = (per(loss_fwd, steps), "ms")
    metrics["training.loss_bwd_self_ms_per_step"] = (per(loss_bwd, steps), "ms")
    metrics["training.margin_active_share"] = (
        per(c["training.ad_loss_active"], c["training.ad_loss_calls"]), "1")

    for name in ("load_checkpoint", "read_features", "atomic_write_text"):
        metrics[f"io.{name}.self_ms"] = (s(f"io.{name}"), "ms")
        metrics[f"io.{name}.bytes"] = (c[f"io.{name}.bytes"], "B")
    metrics["io.read_annotations.self_ms"] = (s("io.read_annotations"), "ms")
    metrics["io.save_checkpoint.self_ms"] = (s("io.save_checkpoint"), "ms")

    metrics["evaluation.evaluate.self_ms"] = (s("evaluation.evaluate"), "ms")
    metrics["evaluation.match_counts.calls"] = (calls.get("evaluation.match_counts", 0), "count")
    metrics["evaluation.match_counts.self_ms"] = (s("evaluation.match_counts"), "ms")
    metrics["evaluation.iou_pairs_computed"] = (c["evaluation.iou_pairs"], "count")
    for name in ("frame_auc", "expand_to_frames", "segments_from_labels"):
        metrics[f"evaluation.{name}.self_ms"] = (s(f"evaluation.{name}"), "ms")
    for kind in ("pred", "gt"):
        metrics[f"evaluation.{kind}_segments"] = (
            c[f"evaluation.{kind}_segments_x_ks"] // inst.num_ks, "count")

    for command in ("train", "infer", "eval"):
        metrics[f"cli.{command}.self_ms"] = (s(f"cli.{command}"), "ms")
    metrics["cli.main.self_ms"] = (s("cli.main"), "ms")

    setup_self = {}
    if setup_tracer is not None:
        for span, own_s in zip(setup_tracer.spans, self_times(setup_tracer.spans)):
            setup_self[span.name] = setup_self.get(span.name, 0.0) + 1e3 * own_s
    metrics["synth.generate.self_ms"] = (setup_self.get("synth.generate", 0.0), "ms")

    by_layer: dict[str, float] = {}
    for name, value in self_ms.items():
        layer = name.removeprefix("bwd:").split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + value
    remainder_ms = 1e3 * wall_s - sum(by_layer.values())
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.overhead_ratio"] = (per(wall_s, untraced_wall_s), "1")
    metrics["trace.unattributed_share"] = (per(remainder_ms, 1e3 * wall_s), "1")
    metrics["trace.spans"] = (len(spans), "count")
    table = {"layer_self_ms": by_layer, "unattributed_ms": remainder_ms,
             "traced_wall_ms": 1e3 * wall_s, "untraced_wall_ms": 1e3 * untraced_wall_s,
             "step_count": len(step_ms)}
    return metrics, table
