import hashlib
import io
import json
import logging
import math
import re
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from evex import cli
from evex.artifacts import read_json, read_jsonl
from evex.cli import MODEL_DIGEST_KEY, build_parser, load_config, main
from evex.codec import CodecConfig, build_trigger_prompt, encode_trigger_target
from evex.corpus import load_corpus
from evex.events import intern_pair, intern_trigger
from evex.generation import ScriptedBackend, candidate_list_from_dict, parse_hypothesis
from evex.selector import HashedNgramScorer, kept_mask
from evex.synthetic import build_demo_run, make_synthetic_corpus
from evex.tuning import GridCell, write_score_table

from util import per_cell_report, reference_features, reference_score

F1_KEYS = ("trig_i", "trig_c", "arg_i", "arg_c")
# a JSON integer that parses but fits no float: float() raises OverflowError on it
PAST_FLOAT = 10**400


def run(args):
    return main([str(a) for a in args])


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["preprocess", "--config", bad, "--run-dir", tmp_path]) == 2
    bad.write_bytes(b'{"corpus": {}}\xff')  # not UTF-8
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
        ("pairs", {"include_emptyy": False}),  # there is no pairs section, whatever it holds
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
        ("backend", {"script": {"p": [["a [T]", -0.1]]}}),
        ("backend", {"id": "toy"}),
        ("selecton", {"alpha": 0.9, "theta": 0.9}),
        ("pairs", [["include_empty", False]]),
        ("pairs", {"multi_trigger_target": False, "include_empty": True}),
        ("scorer", [["dim", 1024]]),
        ("tuning", [["metric", "trig_i"]]),
        ("selector_train", {"learning_rate": math.nan}),
        ("selector_train", {"learning_rate": math.inf}),
        ("selector_train", {"learning_rate": PAST_FLOAT}),
        ("scorer", {"word_ngrams": [], "char_ngrams": []}),
        ("scorer", {"dim": 2**40}),
        ("scorer", {"dim": 2**62}),
        ("scorer", {"dim": PAST_FLOAT}),
    ],
    ids=[
        "theta_grid_1.5", "alpha_grid_negative", "alpha_grids_typo", "dims_typo", "dim_string", "include_emptyy_typo",
        "include_empty_string", "alpha_grid_string", "backend_bert", "none_token_int", "corpus_tset",
        "dim_float", "beam_width_float", "epochs_float",
        "script_int", "script_list", "script_inline", "script_missing", "selecton_typo", "pairs_list",
        "pairs_section", "scorer_list", "tuning_list", "learning_rate_nan", "learning_rate_inf",
        "learning_rate_past_float", "no_ngram_length", "dim_2**40", "dim_2**62", "dim_past_float",
    ],
)
def test_bad_config_section_exits_2_before_any_stage(tmp_path, capsys, section, value):
    cfg_path = build_demo_run(tmp_path, seed=2)
    cfg = json.loads(cfg_path.read_text())
    cfg[section] = value
    cfg_path.write_text(json.dumps(cfg))
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "error: bad run config" in err
    assert not (tmp_path / "pairs.jsonl").exists()


def test_scorer_weights_past_memory_exit_2_from_train_selector_and_4_from_a_model(tmp_path, capsys, monkeypatch):
    """Config load checks the scorer settings and allocates no weights. A dim whose weights do not
    fit in memory is a config error where train-selector allocates them, and a data error in a
    selector.model; the allocation is made to fail, never made."""
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["pipeline", "--config", cfg, "--run-dir", tmp_path]) == 0
    model = tmp_path / "selector.model"
    model.write_text(json.dumps({**json.loads(model.read_text()), "dim": 2**20}))  # the config's dim is 2**18
    damaged = model.read_bytes()
    zeros = np.zeros

    def zeros_below(shape, *args, **kwargs):
        if isinstance(shape, int) and shape >= 2**18:
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros_below)
    capsys.readouterr()
    assert run(["predict", "--config", cfg, "--run-dir", tmp_path]) == 4
    err = capsys.readouterr().err
    assert f"error: {model} does not parse (ValueError: dim {2**20} is more weights than memory holds)" in err
    for command in ("preprocess", "evaluate"):  # stages that never score load the config
        assert run([command, "--config", cfg, "--run-dir", tmp_path]) == 0
    assert run(["train-selector", "--config", cfg, "--run-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert f"error: bad run config {cfg}: dim {2**18} is more weights than memory holds" in err
    assert "Traceback" not in err and model.read_bytes() == damaged


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        "[1, 2]",
        *(
            json.dumps({"p": hypotheses})
            for hypotheses in (
                [["a"]], [["a [T]", "NaN"]], [["a [T]", "1.5"]], [[5, -0.1]], [["a", 1.0, 2]], [5], None,
                [["a [T]", PAST_FLOAT]],
            )
        ),
    ],
    ids=[
        "not_json", "json_list", "script_hypothesis_without_score", "script_score_nan", "script_score_string",
        "script_text_int", "script_hypothesis_triple", "script_hypothesis_int", "script_hypotheses_null",
        "script_score_past_float",
    ],
)
def test_bad_script_file_exits_2_at_gen_candidates(tmp_path, capsys, content):
    cfg_path = build_demo_run(tmp_path, seed=2)
    (tmp_path / "script.json").write_text(content)
    assert run(["preprocess", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    assert run(["gen-candidates", "--config", cfg_path, "--run-dir", tmp_path, "--split", "train"]) == 2
    err = capsys.readouterr().err
    assert f"error: bad backend script {tmp_path / 'script.json'}" in err
    if content.startswith('{"p"'):  # a bad hypothesis list is named by its prompt
        assert "'p'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "candidates.train.jsonl").exists()


def test_script_path_resolves_against_the_config_directory(tmp_path):
    """Like the corpus paths, a relative backend.script is found next to the config, not in --run-dir."""
    cfg_path = build_demo_run(tmp_path / "inputs", seed=2)
    rd = tmp_path / "elsewhere" / "run"
    for run_dir in (rd, cfg_path.parent):
        assert run(["preprocess", "--config", cfg_path, "--run-dir", run_dir]) == 0
        assert run(["gen-candidates", "--config", cfg_path, "--run-dir", run_dir, "--split", "train"]) == 0
    for name in ("candidates.train.jsonl", "load_report.train.json"):
        assert (rd / name).read_bytes() == (cfg_path.parent / name).read_bytes()


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


def test_corpus_not_utf8_exits_4(tmp_path, capsys):
    cfg_path = build_demo_run(tmp_path, seed=1)
    with open(tmp_path / "corpus.train.jsonl", "ab") as fh:
        fh.write(b"\xff\n")
    assert run(["preprocess", "--config", cfg_path, "--run-dir", tmp_path]) == 4
    assert f"error: cannot read corpus {tmp_path / 'corpus.train.jsonl'}" in capsys.readouterr().err
    assert not (tmp_path / "pairs.jsonl").exists()


def test_gold_role_with_angle_bracket_is_a_load_problem(tmp_path):
    """The codec could not tag such a role, so its line is skipped and reported like any malformed line."""
    cfg_path = build_demo_run(tmp_path, seed=1)
    corpus = tmp_path / "corpus.train.jsonl"
    event = {"trigger": {"word": "went", "type": "Movement"}, "arguments": [{"role": "<Place>", "entity": "home"}]}
    with corpus.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"doc_id": "bad-role", "context": "He went home .", "events": [event]}) + "\n")
    assert run(["preprocess", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    assert run(["gen-candidates", "--config", cfg_path, "--run-dir", tmp_path, "--split", "train"]) == 0
    problems = read_json(tmp_path / "load_report.train.json")["problems"]
    assert [p["line"] for p in problems] == [len(corpus.read_text().splitlines())]
    assert "angle brackets" in problems[0]["message"]
    # the argument targets are encoded from the ontology induced at preprocess, which never held the role
    assert "<<Place>>" not in (tmp_path / "pairs.jsonl").read_text()


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


def test_each_stage_starts_with_empty_parse_memos(tmp_path, monkeypatch):
    """Two gen-candidates stages in one process: the second parses every distinct text
    again, as a fresh process would, and its run.log line reads as the first's."""
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)
    memos = (parse_hypothesis, intern_trigger, intern_pair)
    sizes = []
    command = cli.COMMANDS["gen-candidates"]
    monkeypatch.setitem(
        cli.COMMANDS, "gen-candidates", lambda *a: (sizes.append([m.cache_info().currsize for m in memos]), command(*a))
    )
    assert run(["preprocess", "--config", cfg, "--run-dir", tmp_path]) == 0
    for _ in range(2):
        assert run(["gen-candidates", "--config", cfg, "--run-dir", tmp_path, "--split", "test"]) == 0
        assert all(m.cache_info().currsize for m in memos)
    assert sizes == [[0] * len(memos)] * 2
    lines = [line.partition(" INFO ")[2] for line in (tmp_path / "run.log").read_text().splitlines()]
    summaries = [line for line in lines if line.startswith("gen-candidates[test]")]
    hypotheses, parsed = map(int, re.search(r"(\d+) hypotheses, (\d+) parsed", summaries[0]).groups())
    assert summaries[0] == summaries[1] and 0 < parsed < hypotheses


def run_stagewise(cfg: Path, rd: Path) -> None:
    """The stages of `pipeline`, one main call each."""
    assert run(["preprocess", "--config", cfg, "--run-dir", rd]) == 0
    for split in ("train", "dev", "test"):
        assert run(["gen-candidates", "--config", cfg, "--run-dir", rd, "--split", split]) == 0
    assert run(["train-selector", "--config", cfg, "--run-dir", rd]) == 0
    assert run(["tune", "--config", cfg, "--run-dir", rd]) == 0
    assert run(["predict", "--config", cfg, "--run-dir", rd, "--split", "test"]) == 0
    assert run(["evaluate", "--config", cfg, "--run-dir", rd, "--split", "test"]) == 0
    assert run(["report", "--config", cfg, "--run-dir", rd, "--split", "test"]) == 0


def test_stagewise_run_matches_pipeline(tmp_path):
    rd = tmp_path / "staged"
    run_stagewise(build_demo_run(rd, seed=6), rd)
    report = json.loads((rd / "report.json").read_text())
    for key in F1_KEYS:
        assert report[key]["f1"] == 1.0
    for name in ("pairs.jsonl", "tuning.csv", "tuned.json", "predictions.jsonl", "theta_sweep.csv", "alpha_sweep.csv"):
        assert (rd / name).exists()

    # the same noisy demo, staged in one directory and as one pipeline call in another, writes the same bytes
    staged, whole = tmp_path / "noisy_staged", tmp_path / "noisy_pipeline"
    run_stagewise(build_demo_run(staged, seed=9, noisy=True), staged)
    assert run(["pipeline", "--config", build_demo_run(whole, seed=9, noisy=True), "--run-dir", whole]) == 0
    assert artifact_hashes(staged) == artifact_hashes(whole)


def test_gen_candidates_reads_no_training_pairs(tmp_path):
    """gen-candidates reads the corpus and the backend script only: pairs.jsonl is an export that no stage reads."""
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)

    def gen_candidates() -> dict[str, bytes]:
        for split in ("train", "dev", "test"):
            assert run(["gen-candidates", "--config", cfg, "--run-dir", tmp_path, "--split", split]) == 0
        outputs = [*tmp_path.glob("candidates.*.jsonl"), *tmp_path.glob("load_report.*.json")]
        return {p.name: p.read_bytes() for p in outputs}

    assert run(["preprocess", "--config", cfg, "--run-dir", tmp_path]) == 0
    with_pairs = gen_candidates()
    (tmp_path / "pairs.jsonl").unlink()
    assert len(with_pairs) == 6 and gen_candidates() == with_pairs


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


def read_candidates(run_dir: Path, split: str) -> list:
    convert = partial(candidate_list_from_dict, codec_cfg=CodecConfig())
    return read_jsonl(run_dir / f"candidates.{split}.jsonl", convert=convert)


def scored_lists(run_dir: Path, split: str) -> list:
    """The split's candidate lists with the cached rank scores attached, read back from the two artifacts."""
    scores = read_jsonl(run_dir / f"rank_scores.{split}.jsonl")
    return [cl.with_rank_scores(s) for cl, s in zip(read_candidates(run_dir, split), scores, strict=True)]


def kept_parses(candidates, alpha: float, theta: float) -> list:
    """The triggers of the kept candidates, a trigger once per candidate that parses it."""
    kept = kept_mask(candidates, alpha, theta).tolist()
    return [t for c, keep in zip(candidates.candidates, kept) if keep for t in c.triggers]


@pytest.mark.parametrize(
    "overrides, joined",
    [({}, False), ({"alpha": 0.7, "theta": 0.3}, False), ({}, True), ({"alpha": 0.9}, False), ({"theta": 0.3}, False)],
    ids=["flags0", "flags1", "joined_triggers", "alpha_flag", "theta_flag"],
)
def test_report_sweeps_equal_per_cell_evaluation(tmp_path, overrides, joined):
    rd = tmp_path / "run"
    cfg_path = build_demo_run(rd, seed=9, noisy=True)
    if joined:
        assert add_joined_hypotheses(rd, seed=9) > 0
    assert run(["pipeline", "--config", cfg_path, "--run-dir", rd]) == 0
    flags = [item for name, value in overrides.items() for item in (f"--{name}", value)]
    assert run(["report", "--config", cfg_path, "--run-dir", rd, "--split", "test", *flags]) == 0
    cfg = load_config(str(cfg_path))
    instances = {i.doc_id: i for i in load_corpus(rd / "corpus.test.jsonl").instances}
    paired = [(instances[cl.doc_id], cl) for cl in scored_lists(rd, "test")]
    # the base is tune's choice, not the library defaults (0.4, 0.2); each flag overrides its own value
    tuned = json.loads((rd / "tuned.json").read_text())
    assert (tuned["alpha"], tuned["theta"]) != (0.4, 0.2)
    if len(overrides) == 1:
        assert all(tuned[name] != value for name, value in overrides.items())
    alpha, theta = overrides.get("alpha", tuned["alpha"]), overrides.get("theta", tuned["theta"])
    sweeps = {
        "theta_sweep.csv": [(alpha, t) for t in sorted(cfg.theta_grid)],
        "alpha_sweep.csv": [(a, theta) for a in sorted(cfg.alpha_grid)],
    }
    if joined:  # some swept cell keeps two candidates of a doc that parse the same trigger
        parses = [kept_parses(cl, a, t) for _, cl in paired for cells in sweeps.values() for a, t in cells]
        assert any(len(p) > len(set(p)) for p in parses)
    for name, cells in sweeps.items():
        table = [GridCell(a, t, per_cell_report(paired, a, t)) for a, t in cells]
        write_score_table(table, tmp_path / name, comment=f"config_hash={cfg.hash} split=test")
        assert (rd / name).read_bytes() == (tmp_path / name).read_bytes()


def write_whole_pair_rank_scores(run_dir: Path, split: str) -> None:
    """Rewrite rank_scores.{split}.jsonl, under its own header, with each candidate scored from the
    whole pair's reference features: its context-only n-grams counted too."""
    path = run_dir / f"rank_scores.{split}.jsonl"
    header = path.read_text().splitlines(keepends=True)[0]
    scorer = HashedNgramScorer.from_dict(json.loads((run_dir / "selector.model").read_text()))
    rows = [
        [reference_score(scorer, reference_features(scorer, cl.context, c.raw_text)) for c in cl.candidates]
        for cl in read_candidates(run_dir, split)
    ]
    path.write_text(header + "".join(json.dumps(row) + "\n" for row in rows))


@pytest.mark.parametrize("noisy", [False, True], ids=["plain", "noisy"])
@pytest.mark.parametrize("seed", [0, 3, 7, 9])
def test_outputs_equal_those_of_whole_pair_rank_scores(tmp_path, seed, noisy):
    """Candidate-side rank scores select as whole-pair ones do: a run whose cached rank scores
    come from the whole pairs tunes, predicts, evaluates and reports the same bytes."""
    ours, whole_pair = tmp_path / "ours", tmp_path / "whole_pair"
    build_demo_run(ours, seed=seed, noisy=noisy)
    assert run(["pipeline", "--config", ours / "config.json", "--run-dir", ours]) == 0
    shutil.copytree(ours, whole_pair)
    for split in ("dev", "test"):
        write_whole_pair_rank_scores(whole_pair, split)
    written = {split: (whole_pair / f"rank_scores.{split}.jsonl").read_bytes() for split in ("dev", "test")}
    assert written["test"] != (ours / "rank_scores.test.jsonl").read_bytes()
    for stage in ("tune", "predict", "evaluate", "report"):
        assert run([stage, "--config", whole_pair / "config.json", "--run-dir", whole_pair]) == 0
    for split, blob in written.items():  # the stages read the whole-pair scores, never rescored them
        assert (whole_pair / f"rank_scores.{split}.jsonl").read_bytes() == blob
    for name in ("predictions.jsonl", "report.json", "tuning.csv", "theta_sweep.csv", "alpha_sweep.csv"):
        assert (whole_pair / name).read_bytes() == (ours / name).read_bytes()


def test_predict_defaults_when_untuned(tmp_path):
    cfg_path = build_demo_run(tmp_path, seed=7)
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


@pytest.mark.parametrize("flag, value", [("alpha", 0.9), ("theta", 0.3)])
def test_predict_flag_overrides_only_its_own_value_of_the_tuned_selection(tmp_path, flag, value):
    cfg_path = build_demo_run(tmp_path, seed=7, noisy=True)
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    tuned = json.loads((tmp_path / "tuned.json").read_text())
    assert (tuned["alpha"], tuned["theta"]) == (0.8, 0.3)  # not the library defaults (0.4, 0.2)
    assert run(["predict", "--config", cfg_path, "--run-dir", tmp_path, f"--{flag}", value]) == 0
    meta = json.loads((tmp_path / "predictions.jsonl").read_text().splitlines()[0])["__meta__"]
    expected = {**tuned, flag: value}
    assert (meta["alpha"], meta["theta"]) == (expected["alpha"], expected["theta"])


@pytest.mark.parametrize("stale", ["retrained", "no_digest"])
def test_predict_refuses_a_selection_tuned_on_another_selector(tmp_path, capsys, stale):
    cfg_path = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    tuned_path = tmp_path / "tuned.json"
    old = json.loads(tuned_path.read_text())
    if stale == "retrained":
        assert run(["train-selector", "--config", cfg_path, "--run-dir", tmp_path, "--seed", 5]) == 0
    else:
        tuned_path.write_text(json.dumps({k: v for k, v in old.items() if k != MODEL_DIGEST_KEY}))
    capsys.readouterr()
    for command in ("predict", "report"):
        assert run([command, "--config", cfg_path, "--run-dir", tmp_path]) == 3
        assert "error: tuned.json was not tuned on the current selector.model: run tune first" in capsys.readouterr().err
    # both flags set: no tuned value is used
    assert run(["predict", "--config", cfg_path, "--run-dir", tmp_path, "--alpha", 0.5, "--theta", 0.3]) == 0
    assert run(["tune", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    assert run(["predict", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    tuned = json.loads(tuned_path.read_text())
    meta = json.loads((tmp_path / "predictions.jsonl").read_text().splitlines()[0])["__meta__"]
    assert (meta["alpha"], meta["theta"]) == (tuned["alpha"], tuned["theta"])
    if stale == "retrained":  # the new selector tunes to another selection
        assert (old["alpha"], old["theta"]) == (0.7, 0.25) and (tuned["alpha"], tuned["theta"]) == (0.8, 0.25)


def test_evaluate_refuses_predictions_of_another_split(tmp_path, capsys):
    cfg_path = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    assert run(["predict", "--config", cfg_path, "--run-dir", tmp_path, "--split", "dev"]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--config", cfg_path, "--run-dir", tmp_path]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {tmp_path / 'predictions.jsonl'} holds predictions for split 'dev', not 'test'" in err
    assert run(["evaluate", "--config", cfg_path, "--run-dir", tmp_path, "--split", "dev"]) == 0


def no_candidate_above_theta(run_dir: Path) -> int:
    """The count in the last predict line of run.log."""
    line = [line for line in (run_dir / "run.log").read_text().splitlines() if " predict[" in line][-1]
    return int(line.split(", ")[-1].split(" doc(s) with no candidate above theta")[0])


def test_predict_counts_docs_with_no_candidate_above_theta(tmp_path):
    cfg_path = build_demo_run(tmp_path, seed=4)
    assert run(["pipeline", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    lists = read_candidates(tmp_path, "test")
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
    return read_jsonl(run_dir / "rank_scores.dev.jsonl")


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


def test_diverged_selector_training_exits_4_and_keeps_the_old_model(tmp_path):
    """A finite learning rate that overflows the weights is refused before selector.model is written.
    Run in a subprocess, where numpy's overflow warnings stay warnings."""
    cfg_path = build_demo_run(tmp_path, seed=3, noisy=True)
    assert run(["preprocess", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    assert run(["gen-candidates", "--config", cfg_path, "--run-dir", tmp_path, "--split", "train"]) == 0
    assert run(["train-selector", "--config", cfg_path, "--run-dir", tmp_path]) == 0
    model = (tmp_path / "selector.model").read_bytes()
    cfg = json.loads(cfg_path.read_text())
    cfg.setdefault("selector_train", {})["learning_rate"] = 1e308
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "evex", "train-selector", "--config", str(cfg_path), "--run-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "selector_train.learning_rate" in proc.stderr
    assert (tmp_path / "selector.model").read_bytes() == model


def test_only_gen_candidates_writes_candidates(tmp_path):
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["preprocess", "--config", cfg, "--run-dir", tmp_path]) == 0
    for split in ("train", "dev", "test"):
        assert run(["gen-candidates", "--config", cfg, "--run-dir", tmp_path, "--split", split]) == 0
    written = {split: (tmp_path / f"candidates.{split}.jsonl").read_bytes() for split in ("train", "dev", "test")}
    assert run(["train-selector", "--config", cfg, "--run-dir", tmp_path]) == 0
    for command in ("tune", "predict", "evaluate", "report"):
        assert run([command, "--config", cfg, "--run-dir", tmp_path]) == 0
    for split, blob in written.items():
        assert (tmp_path / f"candidates.{split}.jsonl").read_bytes() == blob
    assert sorted(p.name for p in tmp_path.glob("rank_scores.*")) == [f"rank_scores.{s}.jsonl" for s in ("dev", "test")]


def test_regenerated_candidates_rescore(tmp_path):
    """A new backend script regenerates candidates.test.jsonl; the next predict
    rescores them, as a fresh run with that script does."""
    regenerated, fresh = tmp_path / "regenerated", tmp_path / "fresh"
    for rd in (regenerated, fresh):
        build_demo_run(rd, seed=9, noisy=True)
    assert run(["pipeline", "--config", regenerated / "config.json", "--run-dir", regenerated]) == 0
    dev_scores, test_scores = dev_rank_scores(regenerated), (regenerated / "rank_scores.test.jsonl").read_bytes()
    for rd in (regenerated, fresh):  # one new top hypothesis per test context
        script = json.loads((rd / "script.json").read_text())
        for instance in load_corpus(rd / "corpus.test.jsonl").instances:
            prompt = build_trigger_prompt(instance.context, CodecConfig())
            script[prompt].append([f"{instance.context.split()[0]} [New]", 0.0])
        (rd / "script.json").write_text(json.dumps(script))
    config = regenerated / "config.json"
    assert run(["gen-candidates", "--config", config, "--run-dir", regenerated, "--split", "test"]) == 0
    assert run(["predict", "--config", config, "--run-dir", regenerated]) == 0
    assert run(["pipeline", "--config", fresh / "config.json", "--run-dir", fresh]) == 0

    assert (regenerated / "selector.model").read_bytes() == (fresh / "selector.model").read_bytes()
    assert (regenerated / "rank_scores.test.jsonl").read_bytes() != test_scores
    for name in ("candidates.test.jsonl", "rank_scores.test.jsonl", "predictions.jsonl"):
        assert (regenerated / name).read_bytes() == (fresh / name).read_bytes()
    assert dev_rank_scores(regenerated) == dev_scores


@pytest.mark.parametrize(
    "damage",
    ["missing_row", "short_row", "cut_mid_line", "nan_score", "infinite_score", "past_float_score"]
    + ["no_header", "meta_number", "meta_list", "meta_without_rank_rows"],
)
def test_damaged_rank_scores_exit_4_or_rescore(tmp_path, capsys, damage):
    """Under a matching key, a row that does not parse (cut, or a score that is no
    finite number) is its reader's data error, and rows out of line with the
    candidates are a mismatch; a cache whose header is missing or not an object,
    or does not say its rows are candidate-side, matches no key, so it is scored again."""
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["pipeline", "--config", cfg, "--run-dir", tmp_path]) == 0
    path = tmp_path / "rank_scores.test.jsonl"
    written = path.read_text()
    lines = written.splitlines(keepends=True)
    scored = next(i for i in range(1, len(lines)) if json.loads(lines[i]))  # a row with a score

    def first_score(value):
        row = json.loads(lines[scored])
        return "".join(lines[:scored]) + json.dumps([value, *row[1:]]) + "\n" + "".join(lines[scored + 1 :])

    damaged = {
        "nan_score": first_score(math.nan),
        "infinite_score": first_score(-math.inf),
        "past_float_score": first_score(PAST_FLOAT),
        "missing_row": "".join(lines[:-1]),
        "short_row": "".join(lines[:-1]) + json.dumps(json.loads(lines[-1])[:-1]) + "\n",
        "cut_mid_line": written[: len(written) - len(lines[-1]) // 2],
        "no_header": "".join(lines[1:]),
        "meta_number": '{"__meta__": 3}\n' + "".join(lines[1:]),
        "meta_list": '{"__meta__": [1]}\n' + "".join(lines[1:]),
        # the digests still match; rows of zeros show that the cache is not read
        "meta_without_rank_rows": json.dumps({"__meta__": {
            k: v for k, v in json.loads(lines[0])["__meta__"].items() if k != "rank_rows"
        }}) + "\n" + "".join(json.dumps([0.0] * len(json.loads(line))) + "\n" for line in lines[1:]),
    }
    path.write_text(damaged[damage])
    capsys.readouterr()
    rc = run(["predict", "--config", cfg, "--run-dir", tmp_path])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if damage in ("no_header", "meta_number", "meta_list", "meta_without_rank_rows"):
        assert rc == 0 and path.read_text() == written
    elif damage in ("missing_row", "short_row"):
        assert rc == 4
        assert f"error: rank score cache {path} does not match candidates.test.jsonl" in err
        assert "delete it to rescore" in err
    else:
        assert rc == 4
        assert f"error: {path} does not parse" in err and "does not match" not in err


def cut_mid_line(path: Path) -> None:
    """Keep the first half of the file, ending inside a line."""
    data = path.read_bytes()
    cut = len(data) // 2
    while b"\n" in data[cut - 1 : cut + 1]:
        cut -= 1
    path.write_bytes(data[:cut])


def rewrite(edit, line=None):
    """A damage that replaces a JSON artifact (or line `line` of a JSONL one) by edit(its parse)."""

    def damage(path: Path) -> None:
        if line is None:
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        else:
            lines = path.read_text().splitlines(keepends=True)
            lines[line] = json.dumps(edit(json.loads(lines[line]))) + "\n"
            path.write_text("".join(lines))

    return damage


def without(key):
    return lambda raw: {k: v for k, v in raw.items() if k != key}


def one_event(word="w", type="T", role="R", entity="e"):
    """A predictions row edit: its events become one event of these values."""
    return lambda raw: {**raw, "events": [
        {"trigger": {"word": word, "type": type}, "arguments": [{"role": role, "entity": entity}]}
    ]}


def one_entry(key, entry):
    """A candidates row edit: its candidates, or its cached arguments (of word "w"), become this one entry."""
    return lambda raw: {**raw, key: [entry] if key == "candidates" else {"w": [entry]}}


def first_scored_row(edit):
    """A rank_scores damage: its first row holding a score becomes edit(that row)."""

    def damage(path: Path) -> None:
        lines = path.read_text().splitlines(keepends=True)
        i = next(i for i in range(1, len(lines)) if json.loads(lines[i]))
        rewrite(edit, line=i)(path)

    return damage


def with_key(key, value):
    """A row edit: key is set to value."""
    return lambda raw: {**raw, key: value}


def one_argument(role="R", entity="e"):
    """A candidates row edit: its cached arguments become one [role, entity] pair of these values."""
    return one_entry("arguments", [role, entity])


# test id -> (command, artifact, damage): a file cut short, or one that parses but does not fit its reader
DAMAGED_ARTIFACTS = {
    "predict-selector.model": ("predict", "selector.model", cut_mid_line),
    "predict-tuned.json": ("predict", "tuned.json", cut_mid_line),
    "evaluate-predictions.jsonl": ("evaluate", "predictions.jsonl", cut_mid_line),
    "tuned-list": ("predict", "tuned.json", rewrite(lambda raw: [1])),
    "tuned-alpha-5": ("predict", "tuned.json", rewrite(lambda raw: {**raw, "alpha": 5})),
    "selector-format-x": ("predict", "selector.model", rewrite(lambda raw: {**raw, "format": "x"})),
    "selector-no-dim": ("predict", "selector.model", rewrite(without("dim"))),
    "selector-weight-past-dim": ("predict", "selector.model", rewrite(lambda raw: {**raw, "weights": {raw["dim"]: 1}})),
    "selector-weight-negative-index": ("predict", "selector.model", rewrite(lambda raw: {**raw, "weights": {"-1": 1}})),
    "selector-weight-nan": ("predict", "selector.model", rewrite(lambda raw: {**raw, "weights": {"0": math.nan}})),
    "selector-weight-infinity": ("predict", "selector.model", rewrite(lambda raw: {**raw, "weights": {"0": math.inf}})),
    "selector-weight-past-float": (
        "predict", "selector.model", rewrite(lambda raw: {**raw, "weights": {"0": PAST_FLOAT}})
    ),
    "predictions-row-no-events": ("evaluate", "predictions.jsonl", rewrite(without("events"), line=1)),
    "predictions-first-line-5": ("evaluate", "predictions.jsonl", rewrite(lambda raw: 5, line=0)),
    "predictions-meta-number": ("evaluate", "predictions.jsonl", rewrite(lambda raw: {"__meta__": 3}, line=0)),
    "candidates-row-no-doc_id": ("predict", "candidates.test.jsonl", rewrite(without("doc_id"), line=1)),
    # a JSON list or object where a string belongs: the parse memos cannot hash it
    "predictions-trigger-word-list": ("evaluate", "predictions.jsonl", rewrite(one_event(word=["w"]), line=1)),
    "predictions-event-type-object": ("evaluate", "predictions.jsonl", rewrite(one_event(type={"T": 1}), line=1)),
    "predictions-role-list": ("evaluate", "predictions.jsonl", rewrite(one_event(role=["R"]), line=1)),
    "predictions-entity-object": ("evaluate", "predictions.jsonl", rewrite(one_event(entity={"e": 1}), line=1)),
    "candidates-role-list": ("predict", "candidates.test.jsonl", rewrite(one_argument(role=["R"]), line=1)),
    "candidates-entity-object": ("predict", "candidates.test.jsonl", rewrite(one_argument(entity={"e": 1}), line=1)),
    # a candidate that is not [raw_text, beam_score], an argument that is not [role, entity]
    "candidates-candidate-string": ("predict", "candidates.test.jsonl", rewrite(one_entry("candidates", "a1"), line=1)),
    "candidates-candidate-3-items": (
        "predict", "candidates.test.jsonl", rewrite(one_entry("candidates", ["w [T]", -0.5, 0.0]), line=1)
    ),
    "candidates-argument-object": (
        "predict", "candidates.test.jsonl", rewrite(one_entry("arguments", {"role": "R", "entity": "e"}), line=1)
    ),
    "candidates-argument-string": ("predict", "candidates.test.jsonl", rewrite(one_entry("arguments", "RE"), line=1)),
    "candidates-beam-score-past-float": (
        "predict", "candidates.test.jsonl", rewrite(one_entry("candidates", ["w [T]", PAST_FLOAT]), line=1)
    ),
    # a stored doc_id or context that is not a string
    "candidates-context-int": ("predict", "candidates.test.jsonl", rewrite(with_key("context", 5), line=1)),
    "candidates-context-list": ("predict", "candidates.test.jsonl", rewrite(with_key("context", ["a"]), line=1)),
    "candidates-doc_id-list": ("predict", "candidates.test.jsonl", rewrite(with_key("doc_id", ["d"]), line=1)),
    "candidates-doc_id-int": ("predict", "candidates.test.jsonl", rewrite(with_key("doc_id", 5), line=1)),
    "train-candidates-context-int": (
        "train-selector", "candidates.train.jsonl", rewrite(with_key("context", 5), line=1)
    ),
    "predictions-doc_id-list": ("evaluate", "predictions.jsonl", rewrite(with_key("doc_id", ["d"]), line=1)),
    # a score that is not a finite JSON number, though float() would take it; each row keeps its length
    "rank-scores-digit-string": ("predict", "rank_scores.test.jsonl", first_scored_row(lambda row: "9" * len(row))),
    "rank-scores-true": ("predict", "rank_scores.test.jsonl", first_scored_row(lambda row: [True] * len(row))),
    "rank-scores-numeric-strings": (
        "predict", "rank_scores.test.jsonl", first_scored_row(lambda row: ["1.5"] * len(row))
    ),
    "selector-weight-string": ("predict", "selector.model", rewrite(with_key("weights", {"0": "0.5"}))),
    "selector-weight-true": ("predict", "selector.model", rewrite(with_key("weights", {"0": True}))),
    "selector-dim-2**40": ("predict", "selector.model", rewrite(with_key("dim", 2**40))),
}


@pytest.mark.parametrize("case", DAMAGED_ARTIFACTS)
def test_damaged_artifact_exits_4(tmp_path, capsys, case):
    command, name, damage = DAMAGED_ARTIFACTS[case]
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["pipeline", "--config", cfg, "--run-dir", tmp_path]) == 0
    path = tmp_path / name
    damage(path)
    capsys.readouterr()
    assert run([command, "--config", cfg, "--run-dir", tmp_path]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {path} does not parse" in err


# [text, score] entries -> whether every score reader accepts them
SCORED_ENTRIES = {
    "int": (["w [T]", -1], True),
    "tuple": (("w [T]", -1.0), True),
    "true": (["w [T]", True], False),
    "numeric-string": (["w [T]", "1"], False),
    "nan": (["w [T]", math.nan], False),
    "infinity": (["w [T]", math.inf], False),
    "past-float": (["w [T]", PAST_FLOAT], False),
    "text-int": ([5, -1.0], False),
    "one-item": (["w [T]"], False),
    "three-items": (["w [T]", -1, 0], False),
}


@pytest.mark.parametrize("case", SCORED_ENTRIES)
def test_every_score_reader_takes_the_same_entries(case):
    """The backend script and the candidates reader check a [text, score] entry, and the
    rank-score and selector.model readers its score alone, by one rule: each accepts an
    entry, giving the same float, or rejects it with a ValueError."""
    entry, accepted = SCORED_ENTRIES[case]
    model = HashedNgramScorer(dim=8).to_dict()
    row = {"doc_id": "d", "context": "w .", "candidates": [entry]}
    reads = [
        lambda: ScriptedBackend({"p": [entry]}).generate_topk("p", 1)[0][1],
        lambda: candidate_list_from_dict(row, CodecConfig()).candidates[0].beam_score,
    ]
    if len(entry) == 2 and isinstance(entry[0], str):  # the score alone
        reads += [
            lambda: cli._rank_score_row([entry[1]])[0],
            lambda: float(HashedNgramScorer.from_dict({**model, "weights": {"0": entry[1]}}).weights[0]),
        ]
    for read in reads:
        if accepted:
            score = read()
            assert type(score) is float and score == -1.0
        else:
            with pytest.raises(ValueError):
                read()


@pytest.mark.parametrize("damage", ["repeated_doc", "no_rows"])
@pytest.mark.parametrize("command, split", [("tune", "dev"), ("predict", "test"), ("report", "test")])
def test_candidates_without_rows_or_with_a_repeated_doc_exit_4(tmp_path, capsys, command, split, damage):
    """Every split gen-candidates writes holds one list per doc of a nonempty corpus."""
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["pipeline", "--config", cfg, "--run-dir", tmp_path]) == 0
    path = tmp_path / f"candidates.{split}.jsonl"
    header, first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(header + (first + "".join(rest) + first if damage == "repeated_doc" else ""))
    capsys.readouterr()
    assert run([command, "--config", cfg, "--run-dir", tmp_path]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    doc_id = json.loads(first)["doc_id"]
    problem = f"repeats doc_id {doc_id!r}" if damage == "repeated_doc" else "holds no candidate lists"
    assert f"error: {path} {problem}" in err


def test_predictions_with_a_repeated_doc_exit_4(tmp_path, capsys):
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["pipeline", "--config", cfg, "--run-dir", tmp_path]) == 0
    path = tmp_path / "predictions.jsonl"
    header, first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(header + first + "".join(rest) + first)
    capsys.readouterr()
    assert run(["evaluate", "--config", cfg, "--run-dir", tmp_path]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {path}: repeated doc_id in predictions: {json.loads(first)['doc_id']!r}" in err


@pytest.mark.parametrize("where", ["existing_file", "under_a_file"])
def test_unusable_run_dir_exits_2(tmp_path, capsys, where):
    cfg = build_demo_run(tmp_path / "demo", seed=9)
    (tmp_path / "file").write_text("")
    run_dir = {"existing_file": tmp_path / "file", "under_a_file": tmp_path / "file" / "run"}[where]
    capsys.readouterr()
    assert run(["preprocess", "--config", cfg, "--run-dir", run_dir]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: cannot use run dir {run_dir}" in err


def test_only_gen_candidates_writes_load_reports(tmp_path):
    cfg = build_demo_run(tmp_path, seed=9, noisy=True)
    assert run(["pipeline", "--config", cfg, "--run-dir", tmp_path]) == 0
    reports = sorted(tmp_path.glob("load_report.*.json"))
    assert [p.name for p in reports] == [f"load_report.{s}.json" for s in ("dev", "test", "train")]
    assert not list(tmp_path.glob("*.tmp"))
    for path in reports:
        path.unlink()
    for command in ("train-selector", "tune", "predict", "evaluate", "report"):
        assert run([command, "--config", cfg, "--run-dir", tmp_path]) == 0
    assert not list(tmp_path.glob("load_report.*"))


def test_load_reports_do_not_depend_on_where_the_run_lies(tmp_path, capsys):
    """A load report stores the corpus path as the config writes it; the log names the resolved path."""
    run_dirs = [tmp_path / "a", tmp_path / "a_run_directory_with_a_longer_path"]
    for rd in run_dirs:
        cfg = build_demo_run(rd, seed=9, noisy=True)
        with open(rd / "corpus.test.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        assert run(["preprocess", "--config", cfg, "--run-dir", rd]) == 0
        assert run(["gen-candidates", "--config", cfg, "--run-dir", rd, "--split", "test"]) == 0
        assert f"{rd / 'corpus.test.jsonl'}: 1 load problem(s)" in capsys.readouterr().err
    reports = [(rd / "load_report.test.json").read_bytes() for rd in run_dirs]
    assert reports[0] == reports[1]
    assert read_json(run_dirs[0] / "load_report.test.json")["path"] == "corpus.test.jsonl"


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
