"""Record the outputs that run.py compares against.

    python3 perfbench/record_baseline.py

Runs one untraced repetition of every workload for seeds 0..SEEDS-1 and
writes, for each, the sha256 of predictions.jsonl, report.json and
tuning.csv and the four test F1s at the workload's main selection to
perfbench/baseline.json. Re-record only in a change that means to change
those outputs, and say why.
"""

from __future__ import annotations

import json
import os
import shutil

import gen
import run

SEEDS = 64


def main() -> None:
    env = run.child_env()
    baseline: dict[str, dict[str, dict]] = {}
    for name, workload in sorted(run.WORKLOADS.items()):
        for seed in range(SEEDS):
            work = run.ROOT / ".perfbench" / f"baseline-{name}-seed{seed}-{os.getpid()}"
            try:
                gen.write_inputs(work / "inputs", workload.sizes, seed, workload.selection)
                result = run.repetition(work, 0, workload, False, env)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result["errors"]:
                raise SystemExit(f"{name} seed {seed}: {result['errors']}")
            baseline.setdefault(name, {})[str(seed)] = {
                "sha256": run.output_hashes(result),
                "f1": result["evaluations"][0]["f1"],
            }
            print(name, seed, flush=True)
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
