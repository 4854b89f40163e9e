import hashlib
import json
import logging
from pathlib import Path

from evex.cli import main
from evex.synthetic import build_demo_run

F1_KEYS = ("trig_i", "trig_c", "arg_i", "arg_c")


def run(args):
    return main([str(a) for a in args])


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["preprocess", "--config", bad, "--run-dir", tmp_path]) == 2
    missing = tmp_path / "missing.json"
    assert run(["preprocess", "--config", missing, "--run-dir", tmp_path]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"selection": {"alpha": 3.0, "theta": 0.2}}))
    assert run(["preprocess", "--config", invalid, "--run-dir", tmp_path]) == 2


def test_tune_without_dev_candidates_exits_3(tmp_path, capsys):
    cfg = build_demo_run(tmp_path, seed=1)
    rc = run(["tune", "--config", cfg, "--run-dir", tmp_path])
    assert rc == 3
    assert "run gen-candidates on dev first" in capsys.readouterr().err


def test_missing_corpus_exits_4(tmp_path):
    cfg_path = build_demo_run(tmp_path, seed=1)
    cfg = json.loads(cfg_path.read_text())
    cfg["corpus"]["train"] = "absent.jsonl"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(cfg))
    assert run(["preprocess", "--config", broken, "--run-dir", tmp_path]) == 4


def test_unknown_backend_exits_2(tmp_path):
    cfg = build_demo_run(tmp_path, seed=1)
    assert run(["preprocess", "--config", cfg, "--run-dir", tmp_path]) == 0
    rc = run(["gen-candidates", "--config", cfg, "--run-dir", tmp_path, "--split", "train", "--backend", "bert"])
    assert rc == 2


def test_stagewise_run_matches_pipeline(tmp_path):
    cfg = build_demo_run(tmp_path / "staged", seed=6)
    rd = tmp_path / "staged"
    assert run(["preprocess", "--config", cfg, "--run-dir", rd]) == 0
    for split in ("train", "dev", "test"):
        assert run(["gen-candidates", "--config", cfg, "--run-dir", rd, "--split", split]) == 0
    assert run(["train-selector", "--config", cfg, "--run-dir", rd]) == 0
    assert run(["tune", "--config", cfg, "--run-dir", rd]) == 0
    assert run(["predict", "--config", cfg, "--run-dir", rd, "--split", "test"]) == 0
    assert run(["evaluate", "--config", cfg, "--run-dir", rd, "--split", "test"]) == 0
    assert run(["report", "--config", cfg, "--run-dir", rd, "--split", "test"]) == 0

    report = json.loads((rd / "report.json").read_text())
    for key in F1_KEYS:
        assert report[key]["f1"] == 1.0
    for name in ("pairs.jsonl", "tuning.csv", "tuned.json", "predictions.jsonl", "theta_sweep.csv", "alpha_sweep.csv"):
        assert (rd / name).exists()


def test_predict_defaults_when_untuned(tmp_path):
    cfg_path = build_demo_run(tmp_path, seed=7, selection="tune")
    rd = tmp_path
    assert run(["preprocess", "--config", cfg_path, "--run-dir", rd]) == 0
    for split in ("train", "test"):
        assert run(["gen-candidates", "--config", cfg_path, "--run-dir", rd, "--split", split]) == 0
    assert run(["train-selector", "--config", cfg_path, "--run-dir", rd]) == 0
    # no tuned.json yet: predict falls back to the library defaults
    assert run(["predict", "--config", cfg_path, "--run-dir", rd, "--split", "test"]) == 0
    meta = json.loads((rd / "predictions.jsonl").read_text().splitlines()[0])["__meta__"]
    assert (meta["alpha"], meta["theta"]) == (0.4, 0.2)


def test_predict_cli_overrides(tmp_path):
    cfg_path = build_demo_run(tmp_path, seed=8)
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    assert run(
        ["predict", "--config", cfg_path, "--run-dir", tmp_path, "--split", "test", "--alpha", 0.9, "--theta", 0.45]
    ) == 0
    meta = json.loads((tmp_path / "predictions.jsonl").read_text().splitlines()[0])["__meta__"]
    assert (meta["alpha"], meta["theta"]) == (0.9, 0.45)


def test_predict_caches_rank_and_fused_scores(tmp_path):
    cfg_path = build_demo_run(tmp_path, seed=8)
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    lines = (tmp_path / "candidates.test.jsonl").read_text().splitlines()[1:]
    for line in lines:
        row = json.loads(line)
        for candidate in row["candidates"]:
            assert candidate["rank_score"] is not None
            assert 0.0 <= candidate["fused_score"] <= 1.0


def artifact_hashes(run_dir: Path) -> dict:
    out = {}
    for p in sorted(Path(run_dir).iterdir()):
        if p.is_file() and p.name != "run.log":
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_rerun_is_byte_identical(tmp_path):
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["pipeline", "--config", cfg, "--run-dir", tmp_path]) == 0
    first = artifact_hashes(tmp_path)
    assert run(["pipeline", "--config", cfg, "--run-dir", tmp_path]) == 0
    assert artifact_hashes(tmp_path) == first


def test_artifacts_embed_config_hash(tmp_path):
    cfg_path = build_demo_run(tmp_path, seed=10)
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    expected = json.loads((tmp_path / "report.json").read_text())["config_hash"]
    header = json.loads((tmp_path / "candidates.train.jsonl").read_text().splitlines()[0])
    assert header["__meta__"]["config_hash"] == expected
    assert f"config_hash={expected}" in (tmp_path / "tuning.csv").read_text().splitlines()[0]
    assert json.loads((tmp_path / "selector.model").read_text())["config_hash"] == expected


def test_config_hash_mismatch_warns(tmp_path, caplog):
    cfg_path = build_demo_run(tmp_path, seed=11)
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    changed = json.loads(cfg_path.read_text())
    changed["selection"] = {"alpha": 0.5, "theta": 0.1}
    cfg2 = tmp_path / "config2.json"
    cfg2.write_text(json.dumps(changed))
    with caplog.at_level(logging.WARNING, logger="evex"):
        assert run(["predict", "--config", cfg2, "--run-dir", tmp_path, "--split", "test"]) == 0
    assert any("config hash mismatch" in r.message for r in caplog.records)


def test_run_log_length_does_not_grow_with_grid(tmp_path):
    line_counts = []
    for name, tuning in (("default", None), ("single", {"alpha_grid": [0.4], "theta_grid": [0.2]})):
        rd = tmp_path / name
        cfg_path = build_demo_run(rd, seed=9, noisy=True)
        if tuning:
            cfg = json.loads(cfg_path.read_text())
            cfg["tuning"] = tuning
            cfg_path.write_text(json.dumps(cfg))
        assert run(["pipeline", "--config", cfg_path, "--run-dir", rd]) == 0
        line_counts.append(len((rd / "run.log").read_text().splitlines()))
    assert line_counts[0] == line_counts[1]
