"""Lets the suite run from a fresh checkout: src/ is importable directly,
without installing the package."""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
