"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tests/ab_pairs.py --workload {train,infer,eval} PARENT CHANGE SEED...

runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in each checkout per seed, PARENT first on the first seed, CHANGE
first on the next, and so on. T is `run_seconds` of PARENT's
BENCHMARK.json. Each run's end-to-end line goes to standard error as it
finishes. Standard output then gets, for every end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the number of pairs
in which CHANGE reads better (ties count for neither side) and a verdict,
then the failed and attempted operations of each side. The verdict is
the first that holds of
  gain        at least 10 pairs ran, CHANGE wins at least 9 in 10 of them,
              and its median is better than PARENT's by more than
              PARENT's interquartile range;
  worse       CHANGE's median is worse than PARENT's by more than the
              metric's bound, a fraction of PARENT's median;
  unresolved  either side's interquartile range is wider than the bound,
              and not every CHANGE run reads better than every PARENT run;
  same        anything else.
The checkouts are only read; pytest does not collect this file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end line of one benchmark run in checkout; exits on failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], wins: int, sign: int,
            bound: float) -> str:
    """gain, worse, unresolved or same, as the module docstring defines
    them; sign is 1 where higher reads better and -1 where lower does."""
    (p1, parent_median, p3), (c1, change_median, c3) = quartiles(parent), quartiles(change)
    allowed = bound * abs(parent_median)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) \
            and sign * (change_median - parent_median) > p3 - p1:
        return "gain"
    if sign * (parent_median - change_median) > allowed:
        return "worse"
    if max(p3 - p1, c3 - c1) > allowed and \
            min(sign * value for value in change) <= max(sign * value for value in parent):
        return "unresolved"
    return "same"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "infer", "eval"))
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    lines = {"parent": [], "change": []}
    for index, seed in enumerate(args.seeds):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        for side in order:
            line = run(sides[side], args.workload, seed, seconds)
            lines[side].append(line)
            print(json.dumps({"seed": seed, "side": side, **line}), file=sys.stderr, flush=True)

    print(f"{args.workload}: {len(args.seeds)} pairs, seeds {' '.join(map(str, args.seeds))}, "
          f"{seconds:g} s runs")
    print(f"{'metric':<20} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'change wins':>11} {'verdict':>10}")
    for metric in benchmark["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [line["metrics"][name]["value"] for line in lines[side]]
                  for side in sides}
        wins = sum(sign * (new - old) > 0 for old, new in zip(values["parent"], values["change"]))
        cells = []
        for side in sides:
            q1, median, q3 = quartiles(values[side])
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{name:<20} {cells[0]:>34} {cells[1]:>34} {wins:>5}/{len(args.seeds)} "
              f"{verdict(values['parent'], values['change'], wins, sign, metric['bound']):>10}")
    for side in sides:
        failed = sum(line["failed"] for line in lines[side])
        attempted = sum(line["attempted"] for line in lines[side])
        print(f"{side}: {failed} failed of {attempted} attempted")


if __name__ == "__main__":
    main()
