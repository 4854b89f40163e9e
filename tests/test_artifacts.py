import logging
from functools import partial

import pytest

from evex import artifacts
from evex.cli import main
from evex.codec import CodecConfig
from evex.generation import candidate_list_from_dict
from evex.synthetic import build_demo_run

META = {"artifact": "rows", "config_hash": "abc"}


def test_write_jsonl_from_a_generator_writes_the_bytes_of_a_list(tmp_path):
    rows = [{"b": i, "a": [str(i)] * i, "ü": None} for i in range(5)]
    artifacts.write_jsonl(tmp_path / "list.jsonl", rows, META)
    artifacts.write_jsonl(tmp_path / "gen.jsonl", (dict(r) for r in rows), META)
    assert (tmp_path / "gen.jsonl").read_bytes() == (tmp_path / "list.jsonl").read_bytes()
    assert artifacts.read_jsonl(tmp_path / "gen.jsonl") == rows


def test_a_failed_write_leaves_the_old_artifact(tmp_path):
    path = tmp_path / "rows.jsonl"
    artifacts.write_jsonl(path, [{"a": 1}, {"a": 2}], META)
    old = path.read_bytes()

    def rows():
        yield {"a": 3}
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError):
        artifacts.write_jsonl(path, rows(), META)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_read_jsonl_converts_each_row_and_still_warns(tmp_path, caplog):
    cfg = build_demo_run(tmp_path, seed=4, noisy=True)
    assert main(["preprocess", "--config", str(cfg), "--run-dir", str(tmp_path)]) == 0
    assert main(["gen-candidates", "--config", str(cfg), "--run-dir", str(tmp_path), "--split", "test"]) == 0
    path = tmp_path / "candidates.test.jsonl"
    stored = artifacts.read_meta(path)["config_hash"]

    want = [candidate_list_from_dict(r, CodecConfig()) for r in artifacts.read_jsonl(path, stored)]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="evex"):
        convert = partial(candidate_list_from_dict, codec_cfg=CodecConfig())
        assert artifacts.read_jsonl(path, stored, convert=convert) == want
        assert not caplog.records
        assert artifacts.read_jsonl(path, "0" * 16, convert=convert) == want
    assert want and all(cl.candidates for cl in want)
    assert [r.message for r in caplog.records] == [
        f"config hash mismatch for {path}: artifact {stored}, current {'0' * 16}"
    ]


def test_read_json_names_the_file_when_convert_does_not_fit(tmp_path):
    path = tmp_path / "tuned.json"
    artifacts.write_json(path, {"alpha": 0.5}, "abc")
    with pytest.raises(artifacts.DataError) as info:
        artifacts.read_json(path, "abc", convert=lambda raw: raw["theta"])
    assert str(info.value) == f"{path} does not parse (KeyError: 'theta')"
