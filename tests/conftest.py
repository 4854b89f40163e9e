"""Shared test setup.

pyproject's `pythonpath = ["src"]` reaches the pytest process only. Tests
that start `python -m evex` in a subprocess need the checkout's `src` on
PYTHONPATH too, so a bare `python -m pytest` works without installing.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
