"""Run the README's round trip and print the sha256 of every file it writes.

    python3 tests/roundtrip_digest.py OUT

runs `adnet synth`, `train`, `infer` and `eval` with the README's run.json
in the empty or new directory OUT, then one more epoch with
`train --resume` (the first checkpoint is kept as `model.first.adnc`).
`eval`'s standard output is kept as `report.json`. The package comes
from the `src/` of the checkout holding this script, and every path in
the documents is relative to OUT, so the output of two checkouts compares
with one `diff`. pytest does not collect this file.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = {
    "synth": {"num_videos": 40, "seed": 7},
    "model": {"window_width": 64, "num_stages": 5, "num_layers": 6},
    "train": {"epochs": 20, "seed": 7},
    "paths": {"features_dir": "corpus/features", "annotations_dir": "corpus/annotations",
              "checkpoint": "model.adnc", "out_dir": "out"},
}


def adnet(out: Path, *argv: str) -> str:
    """Standard output of one adnet command run in out; exits on failure."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "adnet.cli", *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"adnet {' '.join(argv)} exited {done.returncode}: {done.stderr}")
    return done.stdout


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    (out / "run.json").write_text(json.dumps(RUN, indent=2) + "\n")
    (out / "resume.json").write_text(
        json.dumps({**RUN, "train": {**RUN["train"], "epochs": 1}}, indent=2) + "\n")
    adnet(out, "synth", "--config", "run.json", "--out", "corpus")
    adnet(out, "train", "--config", "run.json")
    adnet(out, "infer", "--checkpoint", "model.adnc", "--features", "corpus/features",
          "--out", "pred")
    (out / "report.json").write_text(adnet(out, "eval", "--pred", "pred",
                                           "--gt", "corpus/annotations"))
    shutil.copyfile(out / "model.adnc", out / "model.first.adnc")
    adnet(out, "train", "--config", "resume.json", "--resume")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
