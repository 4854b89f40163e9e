"""Tests of the benchmark itself: input generation, a tiny run of each
workload (traced and untraced), and the independent F1 check."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPLIT_SIZES = sorted(
    n for w in run.WORKLOADS.values() for n in (w.sizes.n_train, w.sizes.n_dev, w.sizes.n_test) if n
)


def tiny(workload: run.Workload) -> run.Workload:
    sizes = dataclasses.replace(
        workload.sizes, n_train=20, n_dev=10 if workload.sizes.n_dev else 0, n_test=10
    )
    return dataclasses.replace(workload, sizes=sizes)


@pytest.mark.parametrize("n", [SPLIT_SIZES[0], SPLIT_SIZES[-1]])
def test_rates_hold_at_smallest_and_largest_split(n):
    docs = gen.make_split(random.Random(7), "train", n, set())
    rates = gen.check_rates(docs)
    assert rates["empty_rate"] == round(gen.EMPTY_RATE * n) / n
    assert rates["two_event_rate"] == round(gen.TWO_EVENT_RATE * n) / n
    assert len({d["context"] for d in docs}) == n
    for doc in docs:
        for event in doc["events"]:
            assert event["trigger"]["word"] in doc["context"]


def test_drifted_rates_are_refused():
    docs = gen.make_split(random.Random(0), "train", 50, set())
    empty = [d for d in docs if not d["events"]]
    with pytest.raises(ValueError, match="empty_rate"):
        gen.check_rates(docs + empty[:5])


def test_same_seed_same_bytes(tmp_path):
    sizes = gen.Sizes(n_train=30, n_dev=10, n_test=10, beams="wide")
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.write_inputs(tmp_path / name, sizes, seed, "tune")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == ["config.json", "corpus.dev.jsonl", "corpus.test.jsonl", "corpus.train.jsonl", "script.json"]
    read = lambda d: [(tmp_path / d / f).read_bytes() for f in files]  # noqa: E731
    assert read("a") == read("b")
    assert read("a") != read("c")


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_repetition(tmp_path, name, trace):
    workload = tiny(run.WORKLOADS[name])
    gen.write_inputs(tmp_path / "inputs", workload.sizes, 1, workload.selection)
    result = run.repetition(tmp_path, 0, workload, trace, run.child_env())
    stages = workload.stages("", "")
    assert result["errors"] == []
    assert (result["attempted"], result["failed"]) == (len(stages), 0)
    assert len(result["evaluations"]) == sum(1 for argv in stages if argv[0] == "evaluate")
    assert ("tuning_sha256" in result) == (workload.selection == "tune")
    assert result["run_dir_mb"] > 0 and result["peak_rss_mb"] > 0
    if trace:
        summary = result["trace"]
        assert sorted(summary) == sorted(spans.SUMMARY_KEYS)
        ran = {argv[0].replace("-", "_") for argv in stages}
        for stage in spans.STAGES:
            assert (summary[f"cli.{stage}_calls"] > 0) == (stage in ran)
        assert sum(summary[f"cli.{s}_s"] for s in spans.STAGES) <= sum(result["stage_s"])
    else:
        assert "trace" not in result


def test_measure_reports_every_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    workload = tiny(run.WORKLOADS["extract_wide"])
    # a name baseline.json does not hold: the tiny run's F1s are not the full run's
    outcome = run.measure("tiny", workload, 2, 0, False, tmp_path)
    assert outcome["correct"] and outcome["failed"] == 0
    assert sorted(outcome["metrics"]) == sorted(run.END_TO_END_UNITS)
    assert all(value > 0 for value in outcome["metrics"].values())
    outcome = run.measure("tiny", workload, 2, 0, True, tmp_path / "traced")
    assert sorted(outcome["metrics"]) == sorted(spans.UNITS)


def test_f1_below_baseline_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    workload = tiny(run.WORKLOADS["extract_wide"])
    outcome = run.measure("tiny", workload, 2, 0, False, tmp_path / "first")
    f1 = {s: outcome["metrics"][f"{s}_f1"] for s in check.SUBTASKS}
    (tmp_path / "baseline.json").write_text(json.dumps(
        {"tiny": {"2": {"sha256": {"predictions.jsonl": "0" * 64}, "f1": f1}}}
    ))
    monkeypatch.setattr(run, "BASELINE", tmp_path / "baseline.json")
    # the same F1s with another hash: a printed note, not a failure
    assert run.measure("tiny", workload, 2, 0, False, tmp_path / "same")["correct"]
    f1["arg_c"] += 0.01
    (tmp_path / "baseline.json").write_text(json.dumps({"tiny": {"2": {"sha256": {}, "f1": f1}}}))
    outcome = run.measure("tiny", workload, 2, 0, False, tmp_path / "lower")
    assert not outcome["correct"] and outcome["metrics"] == {}


@pytest.mark.parametrize("broken", ["repetition", "setup_seconds"])
def test_broken_harness_is_a_failed_operation(tmp_path, monkeypatch, broken):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)

    def fail(*args):
        raise RuntimeError("exit 1")

    monkeypatch.setattr(run, broken, fail)
    outcome = run.measure("tiny", tiny(run.WORKLOADS["tune_heavy"]), 0, 30, False, tmp_path)
    assert outcome == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_missing_wrap_point_is_an_error(monkeypatch):
    import evex.cli

    tracer = spans.Tracer()
    monkeypatch.delitem(evex.cli.COMMANDS, "report")
    monkeypatch.delattr(evex.cli, "grid_search")
    tracer.install(evex)
    assert tracer.missing == ["evex.cli.COMMANDS['report']", "evex.cli.grid_search"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS


def _random_events(rng: random.Random) -> list[dict]:
    events = []
    for _ in range(rng.randint(0, 3)):
        events.append({
            "trigger": {"word": rng.choice(["went", "killed", "met"]), "type": rng.choice(["A", "B"])},
            "arguments": [
                {"role": rng.choice(["Agent", "Place"]), "entity": rng.choice(["x", "y z", "y  z"])}
                for _ in range(rng.randint(0, 3))
            ],
        })
    return events


def test_f1_recomputation_agrees_with_evex():
    from evex.corpus import frame_from_dict, instance_from_dict
    from evex.metrics import SUBTASKS, evaluate_corpus

    rng = random.Random(11)
    gold = [{"doc_id": f"d{i}", "context": "went killed met x y z", "events": _random_events(rng)}
            for i in range(40)]
    predicted = {d["doc_id"]: _random_events(rng) for d in gold if rng.random() < 0.8}
    ours = check.f1_table(predicted, gold)
    report = evaluate_corpus(
        [(doc_id, [frame_from_dict(e) for e in events]) for doc_id, events in predicted.items()],
        [instance_from_dict(d) for d in gold],
    ).to_dict()
    assert set(SUBTASKS) == set(ours)
    for subtask in SUBTASKS:
        for key in ("n_correct", "n_pred", "n_gold", "f1"):
            assert ours[subtask][key] == report[subtask][key], (subtask, key)

    lines = [json.dumps({"__meta__": {}})] + [
        json.dumps({"doc_id": k, "events": v}) for k, v in predicted.items()
    ]
    assert check.disagreements("\n".join(lines), report, gold) == []
    report["arg_c"]["n_correct"] += 1
    assert check.disagreements("\n".join(lines), report, gold) == [
        f"arg_c.n_correct: report {report['arg_c']['n_correct']} != recomputed {ours['arg_c']['n_correct']}"
    ]
