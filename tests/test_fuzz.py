"""A seeded fuzz of the artifact readers.

Each artifact below is damaged in a copy of a finished run of noisy demo seed
3 or 9, and the stage named for it runs on that copy. Whatever the damage,
the stage must exit with a documented code (0 success, 2 config, 3 missing
artifact, 4 data), raise no exception and emit no Python warning (numpy's
included), and every JSON artifact that a successful run writes must be
strict JSON (no NaN or Infinity). The damage pool and the seeds are fixed,
so every run of the suite makes the same damaged files.
"""

import json
import math
import random
import shutil
import warnings
from pathlib import Path

import pytest

from evex.cli import main
from evex.synthetic import build_demo_run

DEMO_SEEDS = (3, 9)
RUNS_PER_ARTIFACT = 30
# artifact -> the stage that reads it (the other files of the run stay intact, so the
# caches keyed by the selector.model and candidates digests are read where they still match)
STAGES = {
    "config.json": ["predict"],
    "script.json": ["gen-candidates", "--split", "dev"],
    "corpus.train.jsonl": ["preprocess"],
    "corpus.test.jsonl": ["evaluate"],
    "candidates.train.jsonl": ["train-selector"],
    "candidates.dev.jsonl": ["tune"],
    "candidates.test.jsonl": ["predict"],
    "selector.model": ["predict"],
    "rank_scores.dev.jsonl": ["tune"],
    "rank_scores.test.jsonl": ["report"],
    "tuned.json": ["predict"],
    "predictions.jsonl": ["evaluate"],
}
# what a damaged JSON node becomes, or what an added key holds
VALUES = [
    None, True, 0, -1, 0.5, 1e308, -1e308, 10**400, math.nan, math.inf, -math.inf,
    "", "x [T]", "[none]", [], [0.1], {}, {"a": 1},
]
JSON_DAMAGE = ("replace a node", "delete a node", "add a key")
BYTE_DAMAGE = ("cut the file", "change a byte")
DOCUMENTED_EXITS = (0, 2, 3, 4)


def nodes(value, path=()):
    """(path, node) for the value and everything inside it, depth first."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from nodes(child, (*path, key))


def parent_of(value, path):
    for key in path[:-1]:
        value = value[key]
    return value


def damaged_node(value, kind: str, rng: random.Random):
    """The parsed JSON value with one node replaced or deleted, or one key added; a
    deletion with no node to delete, or an addition with no object, replaces instead."""
    found = list(nodes(value))
    if kind == "delete a node" and len(found) > 1:
        path, _ = rng.choice(found[1:])
        del parent_of(value, path)[path[-1]]
        return value
    objects = [node for _, node in found if isinstance(node, dict)]
    if kind == "add a key" and objects:
        rng.choice(objects)[rng.choice(["extra", "", "weights", "__meta__", "events"])] = rng.choice(VALUES)
        return value
    path, _ = rng.choice(found)
    if not path:
        return rng.choice(VALUES)
    parent_of(value, path)[path[-1]] = rng.choice(VALUES)
    return value


def damaged_bytes(name: str, data: bytes, kind: str, rng: random.Random) -> bytes:
    if kind == "cut the file":
        return data[: rng.randrange(len(data))]
    if kind == "change a byte":
        i = rng.randrange(len(data))
        return data[:i] + bytes([(data[i] + rng.randrange(1, 256)) % 256]) + data[i + 1 :]
    if name.endswith(".jsonl"):  # one line of the file, its meta header included
        lines = data.decode("utf-8").splitlines()
        i = rng.randrange(len(lines))
        lines[i] = json.dumps(damaged_node(json.loads(lines[i]), kind, rng), sort_keys=True, ensure_ascii=False)
        return ("\n".join(lines) + "\n").encode("utf-8")
    return json.dumps(damaged_node(json.loads(data), kind, rng), sort_keys=True, ensure_ascii=False).encode("utf-8")


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def non_json_outputs(run_dir: Path, before: dict[str, bytes]) -> list[str]:
    """The JSON artifacts a run wrote (new or changed) that are not strict JSON."""
    bad = []
    for path in sorted(run_dir.iterdir()):
        if path.suffix not in (".json", ".jsonl", ".model") or before.get(path.name) == path.read_bytes():
            continue
        text = path.read_text(encoding="utf-8")
        try:
            for line in text.splitlines() if path.suffix == ".jsonl" else [text]:
                strict_json(line)
        except ValueError as exc:
            bad.append(f"{path.name}: {exc}")
    return bad


@pytest.fixture(scope="module")
def finished_runs(tmp_path_factory):
    """seed -> (run directory, its files' bytes) after a whole pipeline on noisy demo seeds 3 and 9."""
    runs = {}
    for seed in DEMO_SEEDS:
        run_dir = tmp_path_factory.mktemp(f"demo{seed}")
        config = build_demo_run(run_dir, seed=seed, noisy=True)
        assert main(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
        runs[seed] = run_dir, {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "run.log"}
    return runs


@pytest.mark.parametrize("artifact", list(STAGES))
def test_damaged_artifact_exits_with_a_documented_code(artifact, finished_runs, tmp_path, capsys):
    rng = random.Random(f"fuzz {artifact}")
    stage, *flags = STAGES[artifact]
    failures = []
    for i in range(RUNS_PER_ARTIFACT):
        seed = DEMO_SEEDS[i % len(DEMO_SEEDS)]
        base, files = finished_runs[seed]
        run_dir = tmp_path / f"run{i}"
        shutil.copytree(base, run_dir)
        kind = rng.choice(JSON_DAMAGE + BYTE_DAMAGE)
        damaged = {**files, artifact: damaged_bytes(artifact, files[artifact], kind, rng)}
        (run_dir / artifact).write_bytes(damaged[artifact])
        what = f"run {i} (demo seed {seed}, {kind})"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([stage, "--config", str(run_dir / "config.json"), "--run-dir", str(run_dir), *flags])
            except Exception as exc:  # every exception is a finding
                failures.append(f"{what}: raised {type(exc).__name__}: {exc}")
                continue
        err = capsys.readouterr().err
        if caught:
            failures.append(f"{what}: warned {[str(w.message) for w in caught]}")
        if code not in DOCUMENTED_EXITS:
            failures.append(f"{what}: exit {code}")
        elif code and "error: " not in err:
            failures.append(f"{what}: exit {code} without an error line")
        elif not code:
            failures += [f"{what}: {bad}" for bad in non_json_outputs(run_dir, damaged)]
        shutil.rmtree(run_dir)
    assert not failures, "\n".join(failures)
