"""Run-directory artifact I/O.

Every artifact embeds the run-config hash for provenance: JSONL files carry
a meta header line, JSON files a top-level field, CSV files a leading
comment. Artifacts are timestamp-free so identical runs are byte-identical;
timestamps live only in the sidecar log. Writers replace an artifact whole; readers
name an artifact that does not parse, or does not fit its converter, in a DataError.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

log = logging.getLogger("evex")

META_KEY = "__meta__"


class DataError(Exception):
    exit_code = 4


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """A file that replaces path when the block ends: a failed write leaves path as it was."""
    tmp = Path(f"{path}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def _reading(path: str | Path) -> Iterator[TextIO]:
    try:
        with Path(path).open(encoding="utf-8") as fh:
            yield fh
    except (LookupError, TypeError, AttributeError, ValueError) as exc:  # damaged, or not of the converter's shape
        raise DataError(f"{path} does not parse ({type(exc).__name__}: {exc})") from exc


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _warn_if_stale(path: str | Path, header: dict, expect_hash: str | None) -> None:
    stored = header.get("config_hash")
    if expect_hash and stored and stored != expect_hash:
        log.warning("config hash mismatch for %s: artifact %s, current %s", path, stored, expect_hash)


def write_jsonl(path: str | Path, rows: Iterable, meta: dict) -> None:
    """The meta header, then one JSON line per row, all from one encoder (json.dumps
    would build one per row; the bytes are the same)."""
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    with replacing(path) as fh:
        fh.write(encode({META_KEY: meta}) + "\n")
        for row in rows:
            fh.write(encode(row) + "\n")


def read_jsonl(path: str | Path, expect_hash: str | None = None, convert: Callable | None = None) -> list:
    """Rows of a JSONL artifact, header excluded, each passed through convert as it
    is read (so the raw rows are never all alive at once). A hash mismatch warns."""
    rows: list = []
    with _reading(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            if i == 0 and META_KEY in raw:
                _warn_if_stale(path, raw[META_KEY], expect_hash)
                continue
            rows.append(raw if convert is None else convert(raw))
    return rows


def read_meta(path: str | Path) -> dict:
    """The meta header of a JSONL artifact, {} if it has none or it is not an object."""
    with _reading(path) as fh:
        first = json.loads(fh.readline() or "{}")
    meta = first.get(META_KEY) if isinstance(first, dict) else None
    return meta if isinstance(meta, dict) else {}


def write_json(path: str | Path, payload: dict, cfg_hash: str) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfg_hash
    with replacing(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


def read_json(path: str | Path, expect_hash: str | None = None, convert: Callable | None = None):
    """A JSON artifact, passed through convert. A hash mismatch warns."""
    with _reading(path) as fh:
        payload = json.load(fh)
        _warn_if_stale(path, payload, expect_hash)
        return payload if convert is None else convert(payload)
