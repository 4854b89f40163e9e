"""README's run-config text against the config surface, so the two cannot drift apart."""

import re
from pathlib import Path

from evex.cli import SECTIONS, load_config

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
