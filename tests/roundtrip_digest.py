"""Run the README's round trip and print the sha256 of every file it writes.

    python3 tests/roundtrip_digest.py OUT

runs `round_trip` of tests/_inputs.py (`adnet synth`, `train`, `infer`
and `eval`) with the README's run.json in the empty or new directory OUT,
then one more epoch with `train --resume` (the first checkpoint is kept
as `model.first.adnc`). `eval`'s report is kept as `report.json`. The
package comes from the `src/` of the checkout holding this script, and
every path in the documents is relative to OUT, so the output of two
checkouts compares with one `diff`. pytest does not collect this file.
"""

import contextlib
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy is first imported
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from _inputs import adnet, round_trip  # noqa: E402

SECTIONS = {
    "synth": {"num_videos": 40, "seed": 7},
    "model": {"window_width": 64, "num_stages": 5, "num_layers": 6},
    "train": {"epochs": 20, "seed": 7},
}


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    report = round_trip(out, SECTIONS)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    shutil.copyfile(out / "model.adnc", out / "model.first.adnc")
    resume = json.loads((out / "run.json").read_text())
    resume["train"]["epochs"] = 1
    (out / "resume.json").write_text(json.dumps(resume, indent=2) + "\n")
    with contextlib.chdir(out):
        assert adnet(["train", "--config", "resume.json", "--resume"])[0] == 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
