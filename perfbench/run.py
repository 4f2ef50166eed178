"""adnet benchmark: one workload per process, end to end or traced per layer.

    python3 perfbench/run.py --workload {train,infer,eval} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; adnet is imported from its `src/`. With
--trace 0 the last line of standard output holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced pass, taken
after the same pass untraced. The line before it is a JSON report with
the environment, sample counts and failures. Generated inputs live in
`.perfbench_work/` under the checkout and are removed on exit.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so BLAS and OpenMP start one thread.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 2        # set-ups before the loop: at least this many,
SETUP_MIN_TOTAL_S = 0.5  # and more until they took this long together
EXIT_NO_PROGRAM = 2
EXIT_SETUP = 3


def load_adnet():
    """Import adnet from the checkout's src/, and only from there."""
    if not (SRC / "adnet" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import adnet
    import adnet.cli
    import adnet.errors
    import adnet.evaluation
    import adnet.io
    import adnet.kernels
    import adnet.model
    import adnet.numerics
    import adnet.synth
    import adnet.training
    import adnet.windowing
    if not Path(adnet.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return adnet


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment(adnet) -> dict:
    import numpy as np
    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size"))
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache_per_core": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "kernel_backend": adnet.kernels.backend(),
    }


def end_to_end(workload, passes, setup_times, peak_rss_mb) -> dict:
    """The run's end-to-end metrics. Timings are read on the slow side of
    the run, the 10th percentile of rates and the 90th of operation times:
    the guest CPU switches between a fast and a slow state for seconds to
    a minute at a time, and a run's median lands in either, while its
    slowest tenth lands in the slow state in almost every run."""
    auc, f1 = workload.quality
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "items_per_s_p10": (layers.percentile(rates(workload, passes), 10), "items/s"),
        "op_ms_p90": (layers.percentile(op_ms(passes), 90), "ms"),
        "quality.frame_auc": (auc, "1"),
        "quality.f1_50": (f1, "%"),
    }


def rates(workload, passes) -> list[float]:
    """Items per second of each pass, or of each operation."""
    if workload.rate_per_pass:
        return [sum(r.op.items for r in p) / sum(r.seconds for r in p) for p in passes]
    return [r.op.items / r.seconds for p in passes for r in p]


def op_ms(passes) -> list[float]:
    return [1e3 * r.seconds for p in passes for r in p]


def traced(workload, adnet) -> tuple[list, dict, dict]:
    """The workload's fixed passes untraced, then traced, then one traced
    set-up; (passes, per-layer metrics, self-time table)."""
    passes = [workloads.run_pass(workload) for _ in range(workload.traced_passes)]
    untraced_s = sum(r.seconds for p in passes for r in p)
    tracer = Tracer()
    instrumentation = layers.Instrumentation(tracer, adnet)
    try:
        traced_passes = [workloads.run_pass(workload, tracer)
                         for _ in range(workload.traced_passes)]
    finally:
        tracer.restore()
    traced_s = sum(r.seconds for p in traced_passes for r in p)
    measured_dir = workload.dir
    setup_tracer = Tracer()
    layers.Instrumentation(setup_tracer, adnet)
    try:
        workload.setup(workload.root / "traced_setup")
    finally:
        setup_tracer.restore()
    workload.dir = measured_dir
    metrics, table = layers.layer_metrics(instrumentation, traced_s, untraced_s, setup_tracer)
    return passes + traced_passes, metrics, table


def run(name: str, seed: int, seconds: float, trace: bool, adnet, work: Path,
        **sizes) -> tuple[dict, dict]:
    """Set up, measure and check one workload; (result line, report)."""
    workload = workloads.WORKLOADS[name](adnet, work, seed, seconds, **sizes)
    if trace:
        setup_times = workloads.set_up(workload, 1)
    else:
        setup_times = workloads.set_up(workload, SETUP_REPEATS, SETUP_MIN_TOTAL_S)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(adnet), "setup_s_samples": setup_times}
    if trace:
        passes, metrics, table = traced(workload, adnet)
        report.update(table)
    else:
        passes = workloads.measure(workload)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # as many set-ups again after the loop: set-up time drifts with the
        # machine over seconds, and the median should span the whole run
        setup_times += workloads.set_up_again(workload, len(setup_times))
    checks = workload.verify()
    if not trace:
        metrics = end_to_end(workload, passes, setup_times, peak_rss_mb)
        report["op_ms"] = op_ms(passes)
        report["op_ms_p50"] = layers.percentile(report["op_ms"], 50)
        report["items_per_s_p50"] = layers.percentile(rates(workload, passes), 50)
        report["passes"] = len(passes)
        report["item"] = workload.item
    failures = [r.failure for p in passes for r in p if r.failure] + [c for c in checks if c]
    report["failures"] = failures[:20]
    line = {"correct": not failures,
            "attempted": sum(len(p) for p in passes) + len(checks),
            "failed": len(failures),
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adnet benchmark")
    parser.add_argument("--workload", required=True, choices=("train", "infer", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    adnet = load_adnet()
    if adnet is None:
        print(f"perfbench: no adnet sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        line, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                           adnet, work)
    except Exception:  # set-up failed: no result can be reported
        traceback.print_exc()
        print(f"perfbench: {args.workload} could not run", file=sys.stderr)
        return EXIT_SETUP
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
