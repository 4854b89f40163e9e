"""README's run-config and artifact text against the code, so the two cannot drift apart."""

import re
from pathlib import Path

from evex import cli
from evex.cli import SECTIONS, load_config
from evex.events import MEMO_SIZE

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
