"""README's run-config and artifact text against the code, so the two cannot drift apart."""

import json
import re
from pathlib import Path

from evex import cli
from evex.artifacts import write_jsonl
from evex.cli import SECTIONS, load_config
from evex.codec import CodecConfig
from evex.events import MEMO_SIZE, ArgumentPair, Trigger
from evex.generation import candidate_list_from_dict, candidate_list_to_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_config_example_loads(tmp_path):
    example = re.search(r"Config file:\s*```json\n(.*?)```", README, re.DOTALL).group(1)
    path = tmp_path / "config.json"
    path.write_text(example, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.script_path == tmp_path / "script.json"


def test_readme_lists_the_config_sections():
    listed = re.search(r"top-level key other than the \w+ sections\s*\(([^)]*)\)", README).group(1)
    assert tuple(re.findall(r"`(\w+)`", listed)) == SECTIONS


def test_readme_lists_the_artifacts_of_the_cli_table():
    listed = re.search(r"Artifacts written to the run directory:(.*?)Each artifact has one", README, re.DOTALL).group(1)
    readme = set(re.findall(r"`([\w.{}]+\.\w+)`", listed))
    # the table rows of the cli docstring: an indented first column, "a / b" naming two artifacts
    rows = re.findall(r"^    (\S+(?: / \S+)?)", cli.__doc__, re.MULTILINE)
    table = {name for row in rows for name in row.split(" / ")}
    assert readme == table
    assert "selector.model" in table and "load_report.{split}.json" in table


def test_readme_states_the_parse_memo_bound():
    stated = re.search(r"at most `events.MEMO_SIZE` = ([\d,]+) entries", README).group(1)
    assert int(stated.replace(",", "")) == MEMO_SIZE


def test_readme_candidates_row_reads_and_writes_back(tmp_path):
    row = re.search(r"A candidates row:\s*```json\n(.*?)\n```", README, re.DOTALL).group(1)
    cl = candidate_list_from_dict(json.loads(row), CodecConfig())
    assert cl.candidates[0].triggers == (Trigger("went", "Movement"),)
    assert cl.arguments_by_word == {"went": (ArgumentPair("Destination", "home"),)}
    write_jsonl(tmp_path / "candidates.jsonl", [candidate_list_to_dict(cl)], {})
    assert (tmp_path / "candidates.jsonl").read_text(encoding="utf-8").splitlines()[1] == row
