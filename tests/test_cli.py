import hashlib
import io
import json
import logging
import sys
from pathlib import Path

import pytest

from evex.artifacts import read_jsonl
from evex.cli import build_parser, load_config, main
from evex.codec import CodecConfig, build_trigger_prompt, encode_trigger_target
from evex.corpus import load_corpus
from evex.generation import candidate_list_from_dict
from evex.selector import SelectionConfig, kept_mask
from evex.synthetic import build_demo_run, make_synthetic_corpus
from evex.tuning import GridCell, evaluate_selection, write_score_table

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
    # settings nothing reads are refused, not ignored
    for section, key in (("generation", "max_input_len"), ("backend", "hyperparams")):
        rd = tmp_path / key
        cfg_path = build_demo_run(rd, seed=1)
        cfg = json.loads(cfg_path.read_text())
        cfg.setdefault(section, {})[key] = 650 if section == "generation" else {}
        cfg_path.write_text(json.dumps(cfg))
        assert run(["preprocess", "--config", cfg_path, "--run-dir", rd]) == 2


@pytest.mark.parametrize(
    "section, value",
    [
        ("tuning", {"theta_grid": [1.5]}),
        ("tuning", {"alpha_grid": [-0.1, 0.5]}),
        ("tuning", {"alpha_grids": [0.4]}),
        ("scorer", {"dims": 5}),
        ("scorer", {"dim": "big"}),
        ("pairs", {"include_emptyy": False}),
        ("pairs", {"include_empty": "false"}),
        ("tuning", {"alpha_grid": ["0.5"]}),
        ("backend", {"id": "bert", "script": "script.json"}),
        ("codec", {"none_token": 5}),
        ("corpus", {"train": "corpus.train.jsonl", "dev": "corpus.dev.jsonl", "tset": "corpus.test.jsonl"}),
        ("scorer", {"dim": 1000.5}),
        ("generation", {"beam_width": 2.5}),
        ("selector_train", {"epochs": 2.5}),
        ("backend", {"script": 5}),
        ("backend", {"script": [1, 2]}),
        ("backend", {"script": {"p": [["a"]]}}),
        ("backend", {"script": {"p": [["a [T]", "NaN"]]}}),
        ("backend", {"script": {"p": [["a [T]", "1.5"]]}}),
        ("backend", {"script": {"p": [[5, -0.1]]}}),
    ],
    ids=[
        "theta_grid_1.5", "alpha_grid_negative", "alpha_grids_typo", "dims_typo", "dim_string", "include_emptyy_typo",
        "include_empty_string", "alpha_grid_string", "backend_bert", "none_token_int", "corpus_tset",
        "dim_float", "beam_width_float", "epochs_float",
        "script_int", "script_list", "script_hypothesis_without_score", "script_score_nan",
        "script_score_string", "script_text_int",
    ],
)
def test_bad_config_section_exits_2_before_any_stage(tmp_path, capsys, section, value):
    cfg_path = build_demo_run(tmp_path, seed=2)
    cfg = json.loads(cfg_path.read_text())
    cfg[section] = value
    cfg_path.write_text(json.dumps(cfg))
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 2
    assert "error: bad run config" in capsys.readouterr().err
    assert not (tmp_path / "pairs.jsonl").exists()


@pytest.mark.parametrize("content", ["{not json", "[1, 2]"], ids=["not_json", "json_list"])
def test_bad_script_file_exits_2_at_gen_candidates(tmp_path, capsys, content):
    cfg_path = build_demo_run(tmp_path, seed=2)
    (tmp_path / "script.json").write_text(content)
    assert run(["preprocess", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    assert run(["gen-candidates", "--config", cfg_path, "--run-dir", tmp_path, "--split", "train"]) == 2
    err = capsys.readouterr().err
    assert f"error: bad backend script {tmp_path / 'script.json'}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "candidates.train.jsonl").exists()


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
    cfg_path = build_demo_run(tmp_path, seed=1)
    assert run(["preprocess", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    cfg = json.loads(cfg_path.read_text())
    cfg["backend"]["id"] = "bert"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["gen-candidates", "--config", cfg_path, "--run-dir", tmp_path, "--split", "train"]) == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        ("preprocess", "--split=train"),
        ("gen-candidates", "--seed=1"),
        ("gen-candidates", "--alpha=0.3"),
        ("gen-candidates", "--backend=toy"),
        ("train-selector", "--split=train"),
        ("train-selector", "--theta=0.3"),
        ("tune", "--alpha=0.3"),
        ("tune", "--split=dev"),
        ("tune", "--seed=1"),
        ("predict", "--seed=1"),
        ("evaluate", "--alpha=0.3"),
        ("report", "--seed=1"),
        ("pipeline", "--split=test"),
        # out of [0, 1]
        ("predict", "--alpha=3"),
        ("report", "--theta=-0.1"),
        ("pipeline", "--alpha=nan"),
    ],
)
def test_flag_a_subcommand_does_not_read_exits_2(command, flag):
    argv = [command, "--config", "config.json", flag]
    if command == "gen-candidates":
        argv.append("--split=train")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_benchmark_stage_calls_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run as bench_run

    parser = build_parser()
    calls = [argv for w in bench_run.WORKLOADS.values() for argv in w.stages("config.json", "rd")]
    assert calls
    for argv in calls:
        parser.parse_args(argv)


def test_run_log_length_does_not_grow_with_parse_warnings(tmp_path):
    malformed = ["no type here", "[and] x [T]", "w [Bad Type]", "a [T] [and] [and] b"]
    logs = []
    for n_malformed in (0, len(malformed)):
        rd = tmp_path / f"malformed{n_malformed}"
        cfg = build_demo_run(rd, seed=9, noisy=True)
        script = json.loads((rd / "script.json").read_text())
        for prompt, hypotheses in script.items():
            if prompt.startswith("TriggerEvent:"):
                hypotheses += [[text, -9.0 - i] for i, text in enumerate(malformed[:n_malformed])]
            else:
                hypotheses[0][0] += " </Stray>"
        (rd / "script.json").write_text(json.dumps(script))
        assert run(["preprocess", "--config", cfg, "--run-dir", rd]) == 0
        assert run(["gen-candidates", "--config", cfg, "--run-dir", rd, "--split", "test"]) == 0
        logs.append((rd / "run.log").read_text())
    assert len(logs[0].splitlines()) == len(logs[1].splitlines())
    assert "unmatched tag: " in logs[0] and "unparseable trigger segment" not in logs[0]
    for kind in ("unparseable trigger segment", "event type contains whitespace", "empty trigger segment"):
        assert f"{kind}: " in logs[1]


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


def add_joined_hypotheses(run_dir: Path, seed: int) -> int:
    """Give each two-event context of build_demo_run(run_dir, seed) a top-scored
    hypothesis that joins both gold triggers with the and-token, so a cell can
    keep two candidates that parse the same trigger. Returns how many it added."""
    cfg = CodecConfig()
    script = json.loads((run_dir / "script.json").read_text())
    two_event = [i for i in make_synthetic_corpus(seed=seed).all_instances() if len(i.gold_frames) == 2]
    for instance in two_event:
        joined = encode_trigger_target(list(instance.gold_frames), cfg)
        script[build_trigger_prompt(instance.context, cfg)].append([joined, 0.0])
    (run_dir / "script.json").write_text(json.dumps(script))
    return len(two_event)


def kept_parses(candidates, alpha: float, theta: float) -> list:
    """The triggers of the kept candidates, a trigger once per candidate that parses it."""
    kept = kept_mask(candidates, alpha, theta).tolist()
    return [t for c, keep in zip(candidates.candidates, kept) if keep for t in c.triggers]


@pytest.mark.parametrize(
    "flags, joined",
    [([], False), (["--alpha", 0.7, "--theta", 0.3], False), ([], True)],
    ids=["flags0", "flags1", "joined_triggers"],
)
def test_report_sweeps_equal_per_cell_evaluation(tmp_path, flags, joined):
    rd = tmp_path / "run"
    cfg_path = build_demo_run(rd, seed=9, noisy=True)
    if joined:
        assert add_joined_hypotheses(rd, seed=9) > 0
    assert run(["pipeline", "--config", cfg_path, "--run-dir", rd]) == 0
    assert run(["report", "--config", cfg_path, "--run-dir", rd, "--split", "test", *flags]) == 0
    cfg = load_config(str(cfg_path))
    instances = {i.doc_id: i for i in load_corpus(rd / "corpus.test.jsonl").instances}
    paired = [(instances[cl.doc_id], cl) for cl in read_jsonl(rd / "candidates.test.jsonl", convert=candidate_list_from_dict)]
    alpha, theta = (0.7, 0.3) if flags else (0.4, 0.2)  # the flags, else the library defaults
    sweeps = {
        "theta_sweep.csv": [(alpha, t) for t in sorted(cfg.theta_grid)],
        "alpha_sweep.csv": [(a, theta) for a in sorted(cfg.alpha_grid)],
    }
    if joined:  # some swept cell keeps two candidates of a doc that parse the same trigger
        parses = [kept_parses(cl, a, t) for _, cl in paired for cells in sweeps.values() for a, t in cells]
        assert any(len(p) > len(set(p)) for p in parses)
    for name, cells in sweeps.items():
        table = [GridCell(a, t, evaluate_selection(paired, SelectionConfig(a, t))) for a, t in cells]
        write_score_table(table, tmp_path / name, comment=f"config_hash={cfg.hash} split=test")
        assert (rd / name).read_bytes() == (tmp_path / name).read_bytes()


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


def no_candidate_above_theta(run_dir: Path) -> int:
    """The count in the last predict line of run.log."""
    line = [line for line in (run_dir / "run.log").read_text().splitlines() if " predict[" in line][-1]
    return int(line.split(", ")[-1].split(" doc(s) with no candidate above theta")[0])


def test_predict_counts_docs_with_no_candidate_above_theta(tmp_path):
    cfg_path = build_demo_run(tmp_path, seed=4)
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    lists = read_jsonl(tmp_path / "candidates.test.jsonl", convert=candidate_list_from_dict)
    # fused scores never exceed 1, so theta 1 keeps nothing in any doc with candidates
    assert run(["predict", "--config", cfg_path, "--run-dir", tmp_path, "--split", "test", "--theta", 1.0]) == 0
    assert no_candidate_above_theta(tmp_path) == sum(1 for cl in lists if cl.candidates) == len(lists)
    # beam scores alone keep each empty context's no-event candidate, which selects no trigger
    assert run(
        ["predict", "--config", cfg_path, "--run-dir", tmp_path, "--split", "test", "--alpha", 0.0, "--theta", 0.5]
    ) == 0
    rows = read_jsonl(tmp_path / "predictions.jsonl")
    assert sum(1 for row in rows if not row["events"]) > 0
    assert no_candidate_above_theta(tmp_path) == 0


def dev_rank_scores(run_dir: Path) -> list:
    rows = (run_dir / "candidates.dev.jsonl").read_text().splitlines()[1:]
    return [[c["rank_score"] for c in json.loads(row)["candidates"]] for row in rows]


def test_retrained_selector_rescores_cached_candidates(tmp_path):
    retrained, fresh = tmp_path / "retrained", tmp_path / "fresh"
    for rd in (retrained, fresh):
        build_demo_run(rd, seed=9, noisy=True)
    assert run(["pipeline", "--config", retrained / "config.json", "--run-dir", retrained]) == 0
    seed0_scores = dev_rank_scores(retrained)
    assert run(["train-selector", "--config", retrained / "config.json", "--run-dir", retrained, "--seed", 5]) == 0
    assert run(["tune", "--config", retrained / "config.json", "--run-dir", retrained]) == 0
    assert run(["pipeline", "--config", fresh / "config.json", "--run-dir", fresh, "--seed", 5]) == 0

    assert (retrained / "selector.model").read_bytes() == (fresh / "selector.model").read_bytes()
    assert dev_rank_scores(fresh) != seed0_scores
    assert dev_rank_scores(retrained) == dev_rank_scores(fresh)
    assert (retrained / "tuning.csv").read_bytes() == (fresh / "tuning.csv").read_bytes()


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


def test_each_main_call_logs_to_its_own_stderr(tmp_path, monkeypatch):
    cfg = build_demo_run(tmp_path, seed=1)
    first, second = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stderr", first)
    assert run(["preprocess", "--config", cfg, "--run-dir", tmp_path]) == 0
    first.close()  # as pytest closes the captured stderr of a finished test
    monkeypatch.setattr(sys, "stderr", second)
    assert run(["preprocess", "--config", cfg, "--run-dir", tmp_path]) == 0
    assert "INFO preprocess: " in second.getvalue()
    assert "Logging error" not in second.getvalue()
