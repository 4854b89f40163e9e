"""Each demo, run as a script under -W error, prints demos/expected/<name>.txt byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["quickstart", "pipeline_demo", "reranking_ablation"])
def test_demo_prints_expected_output(tmp_path, name):
    # the working directory is tmp_path: pipeline_demo writes runs/pipeline-demo relative to it
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (ROOT / "demos" / "expected" / f"{name}.txt").read_bytes()
