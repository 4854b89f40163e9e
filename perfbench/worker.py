"""One benchmark repetition, in a fresh process.

    python3 perfbench/worker.py PLAN.json

The plan (written by run.py) names the repository root, the run directory
and the CLI stage calls. Each call goes through `evex.cli.main` and is
timed alone; the checks between calls are not timed. The result JSON is
written to the path the plan names.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import check


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(plan: dict) -> dict:
    src = Path(plan["root"]) / "src"
    sys.path.insert(0, str(src))
    import evex.cli

    if Path(evex.cli.__file__).resolve().parent != (src / "evex").resolve():
        raise RuntimeError(f"imported evex from {evex.cli.__file__}, not from {src}")
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(evex)

    run_dir = Path(plan["run_dir"])
    gold = [json.loads(line) for line in Path(plan["gold"]).read_text(encoding="utf-8").splitlines()]
    result = {"attempted": 0, "failed": 0, "errors": [], "stage_s": [], "evaluations": []}
    for argv in plan["stages"]:
        result["attempted"] += 1
        start = perf_counter()
        try:
            code = evex.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, reported below
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        result["stage_s"].append(elapsed)
        if code != 0:
            result["failed"] += 1
            result["errors"].append(f"{argv[0]}: exit {code}")
            break
        if argv[0] == "evaluate":
            predictions = (run_dir / "predictions.jsonl").read_bytes()
            report_bytes = (run_dir / "report.json").read_bytes()
            report = json.loads(report_bytes)
            for problem in check.disagreements(predictions.decode("utf-8"), report, gold):
                result["errors"].append(f"evaluate #{len(result['evaluations'])}: {problem}")
            result["evaluations"].append({
                "f1": {s: report[s]["f1"] for s in check.SUBTASKS},
                "sha256": {
                    "predictions.jsonl": hashlib.sha256(predictions).hexdigest(),
                    "report.json": hashlib.sha256(report_bytes).hexdigest(),
                },
            })
    tuning = run_dir / "tuning.csv"
    if tuning.exists():
        result["tuning_sha256"] = hashlib.sha256(tuning.read_bytes()).hexdigest()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["run_dir_mb"] = _dir_bytes(run_dir) / 2**20
    if tracer is not None:
        result["trace"] = tracer.summary(run_dir)
        # a layer that was not wrapped would read 0 s, a false improvement
        result["errors"] += [f"trace: {name} not found, not traced" for name in tracer.missing]
    return result


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(plan)
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
