"""Pipeline orchestration: stage commands over a run directory.

The run config names the corpus of each split and the backend script file;
a relative path in it resolves against the config file's directory, wherever
the run directory lies. Stages read and write the run directory:

    pairs.jsonl               generator training pairs: an export for a generator
                              trained outside evex; no stage reads it
    load_report.{split}.json  corpus load problems (written by gen-candidates)
    candidates.{split}.jsonl  candidate raw texts, beam scores and cached arguments
                              (written by gen-candidates only)
    rank_scores.{split}.jsonl candidate-side rank-score cache, keyed by the
                              selector.model and candidates file digests (written
                              by whichever of tune, predict and report finds it stale)
    selector.model            rank scorer parameters + training trace
    tuning.csv / tuned.json   grid-search table and chosen (alpha, theta), keyed by
                              the selector.model digest
    predictions.jsonl         final frames per doc
    report.json               the four-subtask evaluation
    theta_sweep.csv           threshold ablation at the base weight
    alpha_sweep.csv           weight ablation at the base threshold

Exit codes: 0 success, 2 config error, 3 missing artifact, 4 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from collections import Counter
from dataclasses import asdict, replace
from functools import partial
from itertools import compress
from pathlib import Path

import numpy as np

from . import artifacts
from .artifacts import DataError
from .codec import CodecConfig
from .corpus import (
    frame_from_dict,
    frame_to_dict,
    load_corpus,
    make_corpus_pairs,
    LoadResult,
)
from .events import ContextInstance, is_finite_number, ontology_from_corpus
from .generation import (
    BackendError,
    CandidateList,
    GenerationConfig,
    ScriptedBackend,
    attach_argument_cache,
    candidate_list_from_dict,
    candidate_list_to_dict,
    clear_memos,
    frames_from_cache,
    generate_trigger_candidates,
    parse_hypothesis,
    stored_string,
)
from .metrics import TRIG_C, evaluate_corpus
from .selector import (
    HashedNgramScorer,
    SelectionConfig,
    SelectorTrainConfig,
    fuse_and_select,  # noqa: F401  unused here; a benchmark tracer wraps it by this name
    score_candidates,
    select,
    train_selector,
)
from .tuning import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_THETA_GRID,
    checked_grids,
    evaluate_selection,  # noqa: F401  unused here; a benchmark tracer wraps it by this name
    grid_search,
    sweep_selection,
    write_score_table,
)

log = logging.getLogger("evex")

SPLITS = ("train", "dev", "test")
SECTIONS = ("corpus", "backend", "codec", "generation", "selector_train", "scorer", "selection", "tuning")
# the one backend id: a ScriptedBackend
BACKEND_ID = "toy"
# rank_scores meta keys: sha256 of the selector.model and candidates file bytes the scores came from;
# tuned.json records the selector.model one too
MODEL_DIGEST_KEY = "selector_sha256"
CANDIDATES_DIGEST_KEY = "candidates_sha256"


class ConfigError(Exception):
    exit_code = 2


class MissingArtifactError(Exception):
    exit_code = 3


class RunConfig:
    """Validated view of the run-config JSON file: each value is checked, not
    coerced, when the file is loaded, by the code that owns its rule."""

    def __init__(self, raw: dict, path: Path):
        self.path = path
        self.hash = artifacts.config_hash(raw)
        try:
            if set(raw) - set(SECTIONS):
                raise ValueError(f"unknown top-level key(s): {sorted(set(raw) - set(SECTIONS))}")
            self.corpus = _section(raw, "corpus", SPLITS, str)
            backend = _section(raw, "backend", ("id", "script"), str)
            if backend.get("id", BACKEND_ID) != BACKEND_ID:
                raise ValueError(f"unknown backend id: {backend['id']!r} (known: {BACKEND_ID!r})")
            if "script" not in backend:
                raise ValueError("backend.script must name the backend script file")
            self.script_path = path.parent / backend["script"]  # resolves like the corpus paths
            self.codec = CodecConfig(**raw.get("codec", {}))
            self.generation = GenerationConfig(**raw.get("generation", {}))
            self.selector_train = SelectorTrainConfig(**raw.get("selector_train", {}))
            self.scorer_params = raw.get("scorer", {})
            HashedNgramScorer.checked_settings(**self.scorer_params)  # keys and values now; no weights allocated
            selection = raw.get("selection", "tune")
            self.selection = None if selection == "tune" else SelectionConfig(**selection)
            tuning = _section(raw, "tuning", ("alpha_grid", "theta_grid", "metric"))
            self.metric = tuning.get("metric", TRIG_C)
            self.alpha_grid, self.theta_grid = checked_grids(
                tuning.get("alpha_grid", DEFAULT_ALPHA_GRID), tuning.get("theta_grid", DEFAULT_THETA_GRID), self.metric
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad run config {path}: {exc}") from exc

    def corpus_path(self, split: str) -> Path:
        if split not in self.corpus:
            raise ConfigError(f"no {split!r} corpus in config {self.path}")
        return self.path.parent / self.corpus[split]  # an absolute path replaces the config's directory


def _section(raw: dict, name: str, known: tuple[str, ...], kind: type = object) -> dict:
    """The config section `name`, a JSON object; a key outside `known`, or a value not of type `kind`, is an error."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a JSON object")
    if set(section) - set(known):
        raise ValueError(f"unknown {name} key(s): {sorted(set(section) - set(known))}")
    if not all(isinstance(value, kind) for value in section.values()):
        raise ValueError(f"{name} values must be of type {kind.__name__}")
    return section


def load_config(path: str) -> RunConfig:
    config_path = Path(path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return RunConfig(raw, config_path)


def _load_split(cfg: RunConfig, split: str) -> LoadResult:
    path = cfg.corpus_path(split)
    try:
        result = load_corpus(path, cfg.codec)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read corpus {path}: {exc}") from exc
    if not result.instances:
        raise DataError(f"corpus {path} contains no usable instances ({len(result.problems)} load problem(s))")
    return result


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path.name} not found: run {hint} first")
    return path


def _build_backend(cfg: RunConfig) -> ScriptedBackend:
    """The backend replaying the config's script file."""
    try:
        return ScriptedBackend(json.loads(cfg.script_path.read_text(encoding="utf-8")))
    except OSError as exc:
        raise ConfigError(f"cannot read backend script {cfg.script_path}: {exc}") from exc
    except (TypeError, ValueError) as exc:  # not UTF-8 JSON, or not an input -> hypotheses map
        raise ConfigError(f"bad backend script {cfg.script_path}: {exc}") from exc


def _read_candidates(run_dir: Path, cfg: RunConfig, split: str) -> list[CandidateList]:
    """The split's candidate lists, one per doc: a file without rows or with a repeated doc_id is a data error."""
    path = _require(run_dir / f"candidates.{split}.jsonl", f"gen-candidates on {split}")
    convert = partial(candidate_list_from_dict, codec_cfg=cfg.codec)
    lists = artifacts.read_jsonl(path, cfg.hash, convert=convert)
    if not lists:
        raise DataError(f"{path} holds no candidate lists")
    doc_ids: set[str] = set()
    for cl in lists:
        if cl.doc_id in doc_ids:
            raise DataError(f"{path} repeats doc_id {cl.doc_id!r}")
        doc_ids.add(cl.doc_id)
    return lists


def cmd_preprocess(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    instances = _load_split(cfg, "train").instances
    pairs = make_corpus_pairs(instances, ontology_from_corpus(instances), cfg.codec)
    artifacts.write_jsonl(
        run_dir / "pairs.jsonl", (asdict(p) for p in pairs), {"artifact": "pairs", "config_hash": cfg.hash}
    )
    log.info("preprocess: %d instances -> %d training pairs", len(instances), len(pairs))


def cmd_gen_candidates(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    split = args.split
    backend = _build_backend(cfg)
    loaded = _load_split(cfg, split)  # every split passes through here, so its load report is written here
    report = {"path": cfg.corpus[split], **loaded.to_dict()}  # as the config writes it, wherever the run lies
    artifacts.write_json(run_dir / f"load_report.{split}.json", report, cfg.hash)
    if loaded.problems:
        path = cfg.corpus_path(split)
        log.warning("%s: %d load problem(s), see load_report.%s.json", path, len(loaded.problems), split)
    lists: list[CandidateList] = []
    warning_kinds: Counter[str] = Counter()
    before = parse_hypothesis.cache_info()  # the log line counts this split's memo calls and misses
    for instance in loaded.instances:
        try:
            candidates, warnings = generate_trigger_candidates(
                backend, instance, cfg.generation, cfg.codec
            )
            candidates, arg_warnings = attach_argument_cache(backend, candidates, cfg.codec)
        except BackendError as exc:
            raise DataError(str(exc)) from exc
        warning_kinds.update(w.partition(": ")[0] for w in warnings + arg_warnings)  # "<kind>: <detail>"
        lists.append(candidates)
    artifacts.write_jsonl(
        run_dir / f"candidates.{split}.jsonl",
        (candidate_list_to_dict(cl) for cl in lists),
        {"artifact": "candidates", "split": split, "config_hash": cfg.hash},
    )
    by_kind = ", ".join(f"{kind}: {count}" for kind, count in sorted(warning_kinds.items()))
    after = parse_hypothesis.cache_info()
    log.info(
        "gen-candidates[%s]: %d contexts, %d hypotheses, %d parsed, %d parse warning(s)%s",
        split,
        len(lists),
        after.hits + after.misses - before.hits - before.misses,
        after.misses - before.misses,
        warning_kinds.total(),
        f" ({by_kind})" if by_kind else "",
    )


def cmd_train_selector(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    data = [
        (cl.context, [f.trigger for f in instance.gold_frames], cl)
        for instance, cl in _with_gold(cfg, "train", _read_candidates(run_dir, cfg, "train"))
    ]
    train_cfg = cfg.selector_train
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    try:
        scorer = HashedNgramScorer(**cfg.scorer_params)
    except ValueError as exc:  # weights past memory: config load checks the settings, allocating nothing
        raise ConfigError(f"bad run config {cfg.path}: {exc}") from exc
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a divergence is refused below, without numpy's warnings
            result = train_selector(scorer, data, train_cfg, cfg.codec)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    # non-finite weights make a selector.model no reader accepts, and a non-finite loss one that is not JSON; the old stays
    if not (np.isfinite(scorer.weights).all() and np.isfinite(result.loss_per_epoch).all()):
        rate = train_cfg.learning_rate
        raise DataError(f"training diverged (non-finite loss or weights): lower selector_train.learning_rate ({rate:g})")
    scorer.save(run_dir / "selector.model", extra={"config_hash": cfg.hash, "train": asdict(result)})
    log.info(
        "train-selector: %d trained / %d skipped, first epoch loss %.4f, last %.4f",
        result.n_trained,
        result.n_skipped,
        result.loss_per_epoch[0],
        result.loss_per_epoch[-1],
    )


def _model_digest(run_dir: Path) -> str:
    """The sha256 of the selector.model bytes, which keys the rank scores and the tuned selection made with it."""
    return hashlib.sha256(_require(run_dir / "selector.model", "train-selector").read_bytes()).hexdigest()


def _scored_candidates(cfg: RunConfig, run_dir: Path, split: str) -> list[CandidateList]:
    """Candidates of a split with rank scores from the current selector.

    The scores are cached in rank_scores.{split}.jsonl, one list per doc in
    candidate order, under the sha256 of the selector.model bytes and of the
    candidates file bytes: a retrained selector or regenerated candidates rescore.
    """
    candidate_lists = _read_candidates(run_dir, cfg, split)
    key = {
        "rank_rows": "candidate-side",  # HashedNgramScorer.scores' rows: a cache without this key is scored again
        MODEL_DIGEST_KEY: _model_digest(run_dir),
        CANDIDATES_DIGEST_KEY: hashlib.sha256((run_dir / f"candidates.{split}.jsonl").read_bytes()).hexdigest(),
    }
    path = run_dir / f"rank_scores.{split}.jsonl"
    if path.exists() and key.items() <= artifacts.read_meta(path).items():  # the rows and both digests match
        rows = artifacts.read_jsonl(path, cfg.hash, convert=_rank_score_row)
        try:
            return [cl.with_rank_scores(s) for cl, s in zip(candidate_lists, rows, strict=True)]
        except ValueError as exc:  # rows that do not line up with the candidates: a row missing, short or long
            raise DataError(
                f"rank score cache {path} does not match candidates.{split}.jsonl ({exc}); delete it to rescore"
            ) from exc
    scorer = artifacts.read_json(run_dir / "selector.model", cfg.hash, convert=HashedNgramScorer.from_dict)
    try:  # finite weights can still sum past float range; TriggerCandidate refuses a non-finite rank score
        with np.errstate(over="ignore", invalid="ignore"):
            candidate_lists = [score_candidates(cl, scorer) for cl in candidate_lists]
    except ValueError as exc:
        raise DataError(f"{run_dir / 'selector.model'} scores a {split} candidate past float range ({exc})") from exc
    meta = {"artifact": "rank_scores", "split": split, "config_hash": cfg.hash, **key}
    artifacts.write_jsonl(path, ([c.rank_score for c in cl.candidates] for cl in candidate_lists), meta)
    return candidate_lists


def _rank_score_row(row: object) -> list[float]:
    """A rank_scores row: a JSON array of scores that each pass events.is_finite_number."""
    if type(row) is not list or not all(map(is_finite_number, row)):
        raise ValueError(f"expected an array of finite scores, got {row!r}")
    return [float(s) for s in row]


def _with_gold(cfg: RunConfig, split: str, lists: list[CandidateList]) -> list[tuple[ContextInstance, CandidateList]]:
    """Each candidate list paired with its instance in the split's corpus."""
    instances = {i.doc_id: i for i in _load_split(cfg, split).instances}
    paired = []
    for cl in lists:
        if cl.doc_id not in instances:
            raise DataError(f"candidates doc {cl.doc_id!r} not present in {split} corpus")
        paired.append((instances[cl.doc_id], cl))
    return paired


def cmd_tune(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    dev = _with_gold(cfg, "dev", _scored_candidates(cfg, run_dir, "dev"))
    result = grid_search(dev, cfg.alpha_grid, cfg.theta_grid, cfg.metric)
    best_f1 = result.report.score(result.metric).f1
    write_score_table(result.table, run_dir / "tuning.csv", comment=f"config_hash={cfg.hash}")
    tuned = {"alpha": result.alpha, "theta": result.theta, "metric": result.metric, "best_f1": best_f1}
    artifacts.write_json(run_dir / "tuned.json", {**tuned, MODEL_DIGEST_KEY: _model_digest(run_dir)}, cfg.hash)
    log.info("tune: best %s F1 %.4f at alpha=%g theta=%g", result.metric, best_f1, result.alpha, result.theta)


def _resolve_selection(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> SelectionConfig:
    """The selection in effect: the config's explicit one; in tune mode tune's choice (tuned.json)
    once tune has run, else the library defaults. --alpha and --theta each override their own value.
    A tuned value still in effect must come from the current selector.model, else tune must run again."""
    base = cfg.selection
    tuned_path = run_dir / "tuned.json"
    flags = {name: value for name in ("alpha", "theta") if (value := getattr(args, name)) is not None}
    if base is None and tuned_path.exists():
        base, digest = artifacts.read_json(
            tuned_path,
            cfg.hash,
            convert=lambda tuned: (SelectionConfig(tuned["alpha"], tuned["theta"]), tuned.get(MODEL_DIGEST_KEY)),
        )
        if len(flags) < 2 and digest != _model_digest(run_dir):
            raise MissingArtifactError(f"{tuned_path.name} was not tuned on the current selector.model: run tune first")
    return replace(base or SelectionConfig(), **flags)


def cmd_predict(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    split = args.split
    scored = _scored_candidates(cfg, run_dir, split)  # first: a damaged selector.model is exit 4, not a stale tune
    selection = _resolve_selection(cfg, run_dir, args)
    rows = []
    n_none_above = 0
    for cl in scored:
        kept, triggers, selected = select(cl, selection.alpha, selection.theta)
        frames = frames_from_cache(cl, list(compress(triggers, selected.tolist())))
        rows.append({"doc_id": cl.doc_id, "events": [frame_to_dict(f) for f in frames]})
        n_none_above += bool(cl.candidates) and not kept.any()
    artifacts.write_jsonl(
        run_dir / "predictions.jsonl",
        rows,
        {
            "artifact": "predictions",
            "split": split,
            "alpha": selection.alpha,
            "theta": selection.theta,
            "config_hash": cfg.hash,
        },
    )
    n_events = sum(len(r["events"]) for r in rows)
    log.info(
        "predict[%s]: alpha=%g theta=%g, %d events over %d docs, %d doc(s) with no candidate above theta",
        split, selection.alpha, selection.theta, n_events, len(rows), n_none_above,
    )


def cmd_evaluate(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    split = args.split
    path = _require(run_dir / "predictions.jsonl", "predict")
    predictions = artifacts.read_jsonl(
        path, cfg.hash, convert=lambda row: (stored_string(row, "doc_id"), [frame_from_dict(e) for e in row["events"]])
    )
    predicted = artifacts.read_meta(path).get("split")
    if predicted != split:
        raise DataError(f"{path} holds predictions for split {predicted!r}, not {split!r}: run predict --split {split}")
    gold = _load_split(cfg, split).instances
    try:
        report = evaluate_corpus(predictions, gold)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    artifacts.write_json(run_dir / "report.json", {"split": split, **report.to_dict()}, cfg.hash)
    print(report.summary())


def cmd_report(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    split = args.split
    paired = _with_gold(cfg, split, _scored_candidates(cfg, run_dir, split))
    base = _resolve_selection(cfg, run_dir, args)
    theta_pairs = [(base.alpha, t) for t in sorted(cfg.theta_grid)]
    cells = sweep_selection(paired, theta_pairs + [(a, base.theta) for a in sorted(cfg.alpha_grid)])
    theta_cells, alpha_cells = cells[: len(theta_pairs)], cells[len(theta_pairs) :]
    comment = f"config_hash={cfg.hash} split={split}"
    write_score_table(theta_cells, run_dir / "theta_sweep.csv", comment)
    write_score_table(alpha_cells, run_dir / "alpha_sweep.csv", comment)
    log.info(
        "report[%s]: wrote theta_sweep.csv (alpha=%g) and alpha_sweep.csv (theta=%g)", split, base.alpha, base.theta
    )


def cmd_pipeline(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    for split in SPLITS:
        cfg.corpus_path(split)  # fail fast on missing split config
    cmd_preprocess(cfg, run_dir, args)
    for split in SPLITS:
        sub = argparse.Namespace(**{**vars(args), "split": split})
        cmd_gen_candidates(cfg, run_dir, sub)
    cmd_train_selector(cfg, run_dir, args)
    cmd_tune(cfg, run_dir, args)
    test_args = argparse.Namespace(**{**vars(args), "split": "test"})
    cmd_predict(cfg, run_dir, test_args)
    cmd_evaluate(cfg, run_dir, test_args)
    cmd_report(cfg, run_dir, test_args)


COMMANDS = {
    "preprocess": cmd_preprocess,
    "gen-candidates": cmd_gen_candidates,
    "train-selector": cmd_train_selector,
    "tune": cmd_tune,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evex",
        description="Generate, re-rank, select, and evaluate event extractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in COMMANDS}
    for p in commands.values():
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--run-dir", default=None, help="artifact directory (default: config dir)")
    # beyond those two, each subcommand takes only the flags it reads
    commands["gen-candidates"].add_argument("--split", choices=SPLITS, required=True)
    for name in ("predict", "evaluate", "report"):
        commands[name].add_argument("--split", choices=SPLITS, default="test")
    for name in ("train-selector", "pipeline"):
        commands[name].add_argument("--seed", type=int, default=None)
    for name in ("predict", "report", "pipeline"):
        commands[name].add_argument("--alpha", type=_unit_interval, default=None)
        commands[name].add_argument("--theta", type=_unit_interval, default=None)
    return parser


def _unit_interval(text: str) -> float:
    """argparse type of --alpha and --theta: a float that SelectionConfig accepts."""
    try:
        return SelectionConfig(alpha=float(text)).alpha
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in [0, 1]") from None


# marks the handlers main() installs, so that the next call replaces them
HANDLER_NAME = "evex.cli"


def _setup_logging(run_dir: Path) -> None:
    """INFO to the current sys.stderr, DEBUG to run_dir/run.log, in place of the last call's."""
    log.setLevel(logging.DEBUG)
    for handler in [h for h in log.handlers if h.get_name() == HANDLER_NAME]:
        handler.close()
        log.removeHandler(handler)
    stream = logging.StreamHandler(sys.stderr)
    stream.setLevel(logging.INFO)
    stream.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    file_handler = logging.FileHandler(run_dir / "run.log", encoding="utf-8")
    file_handler.setLevel(logging.DEBUG)
    file_handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    for handler in (stream, file_handler):
        handler.set_name(HANDLER_NAME)
        log.addHandler(handler)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        run_dir = Path(args.run_dir) if args.run_dir else cfg.path.parent
        try:
            run_dir.mkdir(parents=True, exist_ok=True)
            _setup_logging(run_dir)
        except OSError as exc:
            raise ConfigError(f"cannot use run dir {run_dir}: {exc}") from exc
        clear_memos()  # each stage starts its parsing cold, as in a fresh process, however many ran before it here
        COMMANDS[args.command](cfg, run_dir, args)
    except (ConfigError, MissingArtifactError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
