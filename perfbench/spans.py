"""Spans and counters recorded from outside evex, by wrapping the public
functions each module exposes at the site where they are imported.

Spans (name, start, end, parent) are kept in memory; `summary` turns them
into calls, total time and self time (total minus direct child spans) per
name, plus the counters. Single-threaded: the program under test runs in
the calling thread only.
"""

from __future__ import annotations

import functools
from pathlib import Path
from time import perf_counter

STAGES = ("preprocess", "gen_candidates", "train_selector", "tune", "predict", "evaluate", "report")

# every span name the summary reports, whether or not the workload runs it
SPAN_NAMES = tuple(f"cli.{s}" for s in STAGES) + (
    "corpus.load_corpus",
    "corpus.make_corpus_pairs",
    "artifacts.read_jsonl",
    "artifacts.write_jsonl",
    "generation.generate_trigger_candidates",
    "generation.attach_argument_cache",
    "codec.decode_trigger_candidate",
    "codec.decode_argument_output",
    "selector.train_selector",
    "selector.train_step",
    "selector.score",
    "selector.fuse_and_select",
    "tuning.grid_search",
    "tuning.evaluate_selection",
    "metrics.evaluate_corpus",
)

COUNTERS = (
    "cli.run_log_lines",
    "corpus.pairs",
    "artifacts.bytes_written",
    "artifacts.candidates_writes",
    "generation.backend_calls",
    "generation.candidates_per_doc",
    "generation.kept_ratio",
    "codec.parse_warnings",
    "selector.empty_selection_ratio",
)


SUMMARY_KEYS = [f"{span}{suffix}" for span in SPAN_NAMES for suffix in ("_s", "_self_s", "_calls")]
SUMMARY_KEYS += COUNTERS

# unit of every per-layer metric, trace_overhead_s (computed by run.py) included
UNITS = {key: "s" if key.endswith("_s") else "count" for key in SUMMARY_KEYS}
UNITS.update({
    "artifacts.bytes_written": "bytes",
    "generation.candidates_per_doc": "candidates",
    "generation.kept_ratio": "ratio",
    "selector.empty_selection_ratio": "ratio",
    "trace_overhead_s": "s",
})


def count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, owner, attr: str, name: str | None, on_result=None) -> None:
        """Replace owner.attr by a wrapper recording a span called `name`
        (none when name is None) and passing (args, result) to on_result."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrapped(fn, name, on_result))

    def wrapped(self, fn, name: str | None, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def install(self, evex) -> None:
        """Wrap the layers of an imported evex package (evex.cli loaded)."""
        cli, tuning, generation = evex.cli, evex.tuning, evex.generation
        for stage in STAGES:
            command = stage.replace("_", "-")
            if command in cli.COMMANDS:
                cli.COMMANDS[command] = self.wrapped(cli.COMMANDS[command], f"cli.{stage}")
            else:
                self.missing.append(f"evex.cli.COMMANDS[{command!r}]")

        self.wrap(cli, "load_corpus", "corpus.load_corpus")
        self.wrap(cli, "make_corpus_pairs", "corpus.make_corpus_pairs",
                  lambda a, r: self.add("corpus.pairs", len(r)))
        self.wrap(evex.artifacts, "read_jsonl", "artifacts.read_jsonl")
        self.wrap(evex.artifacts, "write_jsonl", "artifacts.write_jsonl", self._on_write)

        self.wrap(cli, "generate_trigger_candidates", "generation.generate_trigger_candidates",
                  lambda a, r: self.add("kept", len(r[0].candidates)))
        self.wrap(cli, "attach_argument_cache", "generation.attach_argument_cache")
        backend = generation.ScriptedBackend

        def on_topk(args, result):
            self.add("generation.backend_calls")
            self.add("hypotheses", len(result))

        self.wrap(backend, "generate_topk", None, on_topk)
        self.wrap(backend, "generate_greedy", None, lambda a, r: self.add("generation.backend_calls"))
        on_decode = lambda a, r: self.add("codec.parse_warnings", len(r[1]))  # noqa: E731
        self.wrap(generation, "decode_trigger_candidate", "codec.decode_trigger_candidate", on_decode)
        self.wrap(generation, "decode_argument_output", "codec.decode_argument_output", on_decode)

        self.wrap(cli, "train_selector", "selector.train_selector")
        self.wrap(evex.selector.HashedNgramScorer, "train_step", "selector.train_step")
        self.wrap(evex.selector.HashedNgramScorer, "score", "selector.score")
        on_select = lambda a, r: self.add("empty_selections", 0 if r else 1)  # noqa: E731
        for module in (cli, tuning):
            self.wrap(module, "fuse_and_select", "selector.fuse_and_select", on_select)
            self.wrap(module, "evaluate_selection", "tuning.evaluate_selection")
            self.wrap(module, "evaluate_corpus", "metrics.evaluate_corpus")
        self.wrap(cli, "grid_search", "tuning.grid_search")

    def _on_write(self, args, result) -> None:
        path = Path(args[0])
        self.add("artifacts.bytes_written", path.stat().st_size)
        if path.name.startswith("candidates."):
            self.add("artifacts.candidates_writes")

    def summary(self, run_dir: Path) -> dict[str, float]:
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        child = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = total[name]
            out[f"{name}_self_s"] = total[name] - child[name]
            out[f"{name}_calls"] = calls[name]
        counts = self.counts
        generated = calls["generation.generate_trigger_candidates"]
        selections = calls["selector.fuse_and_select"]
        out.update({
            "cli.run_log_lines": count_lines(run_dir / "run.log"),
            "corpus.pairs": counts.get("corpus.pairs", 0),
            "artifacts.bytes_written": counts.get("artifacts.bytes_written", 0),
            "artifacts.candidates_writes": counts.get("artifacts.candidates_writes", 0),
            "generation.backend_calls": counts.get("generation.backend_calls", 0),
            "generation.candidates_per_doc": counts.get("kept", 0) / generated if generated else 0.0,
            "generation.kept_ratio": counts.get("kept", 0) / counts["hypotheses"] if counts.get("hypotheses") else 0.0,
            "codec.parse_warnings": counts.get("codec.parse_warnings", 0),
            "selector.empty_selection_ratio": counts.get("empty_selections", 0) / selections if selections else 0.0,
        })
        return out
