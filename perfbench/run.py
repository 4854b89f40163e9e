"""The evex benchmark: one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. The benchmark writes its inputs from
the seed (see gen.py), then repeats the workload's CLI stage sequence, one
repetition at a time, each in a fresh process (worker.py) on a fresh copy of
the inputs in a new run directory. It stops starting repetitions when the
next one would end after S seconds (at least MIN_REPS run). With --trace 1
every untraced repetition is followed by a traced one (spans.py), and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. Each CLI stage call is one operation; a
nonzero exit code is a failed one. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"  # written by record_baseline.py
MIN_REPS = 3
SETUP_SPAWNS = 2  # before each repetition, so they sample the whole run
F1_TOLERANCE = 1e-9  # the F1s are deterministic; this only absorbs float rounding


@dataclass(frozen=True)
class Workload:
    sizes: gen.Sizes
    selection: str | dict = "tune"
    # (alpha, theta) re-selections on the cached test candidates
    reselect: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def stages(self, config: str, run_dir: str) -> list[list[str]]:
        def call(command: str, *extra: str) -> list[str]:
            return [command, "--config", config, "--run-dir", run_dir, *extra]

        if self.selection == "tune":
            return [
                call("preprocess"),
                call("gen-candidates", "--split", "train"),
                call("gen-candidates", "--split", "dev"),
                call("gen-candidates", "--split", "test"),
                call("train-selector"),
                call("tune"),
                call("predict", "--split", "test"),
                call("evaluate", "--split", "test"),
                call("report", "--split", "test"),
            ]
        stages = [
            call("preprocess"),
            call("gen-candidates", "--split", "train"),
            call("train-selector"),
            call("gen-candidates", "--split", "test"),
            call("predict", "--split", "test"),
            call("evaluate", "--split", "test"),
        ]
        for alpha, theta in self.reselect:
            stages.append(call("predict", "--split", "test", "--alpha", str(alpha), "--theta", str(theta)))
            stages.append(call("evaluate", "--split", "test"))
        return stages


WORKLOADS = {
    # grid search, fusion and metric counting dominate; selector training is
    # second, large enough that featurize-once work shows in wall_s
    "tune_heavy": Workload(gen.Sizes(n_train=120, n_dev=200, n_test=200)),
    # generation, codec parsing, rank scoring and artifact I/O dominate
    "extract_wide": Workload(
        gen.Sizes(n_train=40, n_dev=0, n_test=1000, beams="wide"),
        selection={"alpha": 0.4, "theta": 0.2},
        reselect=((0.6, 0.15), (0.2, 0.3)),
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "extract_docs_per_s": "docs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_dir_mb": "MB",
    "trig_i_f1": "F1",
    "trig_c_f1": "F1",
    "arg_i_f1": "F1",
    "arg_c_f1": "F1",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # the same string hashing in every repetition
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict[str, str]) -> float:
    """From spawning a fresh interpreter until it has imported evex.cli."""
    code = "import evex.cli; print('ready', flush=True)"
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"importing evex.cli failed (exit {proc.returncode})")
    return elapsed


def repetition(work: Path, index: int, workload: Workload, trace: bool, env: dict[str, str]) -> dict:
    rep = work / f"rep-{index:03d}"
    shutil.copytree(work / "inputs", rep / "inputs")
    plan = {
        "root": str(ROOT),
        "run_dir": str(rep / "run"),
        "gold": str(rep / "inputs" / "corpus.test.jsonl"),
        "result": str(rep / "result.json"),
        "trace": trace,
        "stages": workload.stages(str(rep / "inputs" / "config.json"), str(rep / "run")),
    }
    (rep / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(rep / "plan.json")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads((rep / "result.json").read_text(encoding="utf-8"))
    shutil.rmtree(rep)
    return result


def baseline_problems(name: str, seed: int, result: dict) -> tuple[list[str], list[str]]:
    """Compare the main selection with the outputs recorded for this seed.

    Returns (hash notes, F1 losses): a changed hash is only reported, an F1
    below the recorded one fails the run.
    """
    recorded = json.loads(BASELINE.read_text(encoding="utf-8"))
    expected = recorded.get(name, {}).get(str(seed))
    if expected is None:
        return [], []
    hashes = output_hashes(result)
    notes = [f"{artifact} differs from baseline ({name}, seed {seed})"
             for artifact, digest in expected["sha256"].items() if hashes.get(artifact) != digest]
    f1 = result["evaluations"][0]["f1"]
    losses = [f"{subtask}_f1 {f1[subtask]:.6f} is below baseline {value:.6f} ({name}, seed {seed})"
              for subtask, value in expected["f1"].items() if f1[subtask] < value - F1_TOLERANCE]
    return notes, losses


def output_hashes(result: dict) -> dict[str, str]:
    """Hashes of the artifacts at the workload's main selection."""
    hashes = dict(result["evaluations"][0]["sha256"]) if result["evaluations"] else {}
    if "tuning_sha256" in result:
        hashes["tuning.csv"] = result["tuning_sha256"]
    return hashes


def failed_operation(error: str) -> dict:
    return {"attempted": 1, "failed": 1, "errors": [error], "stage_s": [], "evaluations": []}


def guarded_repetition(work: Path, index: int, workload: Workload, trace: bool, env: dict[str, str]) -> dict:
    """A repetition whose harness broke (the worker crashed or hung) counts
    as one failed operation instead of ending the run without a result."""
    try:
        return repetition(work, index, workload, trace, env)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        return failed_operation(f"repetition {index}: {exc}")


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    rates = gen.write_inputs(work / "inputs", workload.sizes, seed, workload.selection)
    print(f"realised rates: {json.dumps(rates, sort_keys=True)}", file=sys.stderr)
    env = child_env()

    setup: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    start = perf_counter()
    while True:
        # stop when one more repetition, at the mean pace so far, would end late
        elapsed = perf_counter() - start
        if len(plain) >= MIN_REPS and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
        try:
            if not setup:
                setup_seconds(env)  # compiles bytecode once; users pay that only once too
            setup += [setup_seconds(env) for _ in range(SETUP_SPAWNS)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            plain.append(failed_operation(f"setup: {exc}"))
            break
        plain.append(guarded_repetition(work, 2 * len(plain), workload, False, env))
        if trace:
            traced.append(guarded_repetition(work, 2 * len(traced) + 1, workload, True, env))
        if any(r["failed"] for r in plain + traced):
            break

    results = plain + traced
    errors = [e for r in results for e in r["errors"]]
    # every repetition of one seed must leave identical outputs
    signatures = {json.dumps([r["evaluations"], r.get("tuning_sha256")], sort_keys=True) for r in results}
    if len(signatures) > 1:
        errors.append("outputs differ between repetitions of one seed")
    if not errors:
        notes, losses = baseline_problems(name, seed, results[0])
        for line in notes:
            print(f"baseline mismatch: {line}", file=sys.stderr)
        errors += losses
    for line in errors:
        print(f"error: {line}", file=sys.stderr)

    walls = [sum(r["stage_s"]) for r in plain]
    print(f"{len(plain)} repetition(s), wall_s: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    if errors:
        metrics = {}
    elif trace:
        metrics = {key: statistics.median(r["trace"][key] for r in traced) for key in spans.SUMMARY_KEYS}
        metrics["trace_overhead_s"] = statistics.median(sum(r["stage_s"]) for r in traced) - statistics.median(walls)
    else:
        extract = extract_stage_indices(workload)
        f1 = results[0]["evaluations"][0]["f1"]
        metrics = {
            "wall_s": statistics.median(walls),
            # pooled over the run: one repetition's extraction lasts only 0.2-0.5 s
            "extract_docs_per_s": workload.sizes.n_test * len(plain)
            / sum(r["stage_s"][i] for r in plain for i in extract),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "run_dir_mb": statistics.median(r["run_dir_mb"] for r in plain),
            **{f"{s}_f1": f1[s] for s in ("trig_i", "trig_c", "arg_i", "arg_c")},
        }
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def extract_stage_indices(workload: Workload) -> list[int]:
    """gen-candidates on test, the first predict and the first evaluate."""
    stages = workload.stages("", "")
    wanted = []
    for command, split in (("gen-candidates", "test"), ("predict", None), ("evaluate", None)):
        wanted.append(next(
            i for i, argv in enumerate(stages)
            if argv[0] == command and (split is None or argv[-1] == split)
        ))
    return wanted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "evex" / "cli.py").is_file():
        print(f"error: no evex sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        outcome = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = spans.UNITS if args.trace else END_TO_END_UNITS
    for key, value in outcome["metrics"].items():
        print(f"{key:44s} {value:14.6f} {units[key]}", file=sys.stderr)
    outcome["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in outcome["metrics"].items()}
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
