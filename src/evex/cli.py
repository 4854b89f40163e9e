"""Pipeline orchestration: stage commands over a run directory.

Stages read and write a run directory:

    pairs.jsonl               generator training pairs
    ontology.json             induced role ontology
    load_report.{split}.json  corpus load problems
    candidates.{split}.jsonl  candidate lists with scores and cached arguments
                              (rank scores cached under the selector.model digest)
    selector.model            rank scorer parameters + training trace
    tuning.csv / tuned.json   grid-search table and chosen (alpha, theta)
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
from dataclasses import replace
from pathlib import Path

from . import artifacts
from .codec import CodecConfig
from .corpus import (
    frame_from_dict,
    frame_to_dict,
    load_corpus,
    make_corpus_pairs,
    TrainingPair,
)
from .events import ContextInstance, ontology_from_corpus
from .generation import (
    BackendError,
    CandidateList,
    GenerationConfig,
    ScriptedBackend,
    attach_argument_cache,
    candidate_list_from_dict,
    candidate_list_to_dict,
    frames_from_cache,
    generate_trigger_candidates,
)
from .metrics import TRIG_C, evaluate_corpus
from .selector import (
    HashedNgramScorer,
    SelectionConfig,
    SelectorTrainConfig,
    fuse_and_select,
    kept_mask,
    score_candidates,
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
# the one backend id: a ScriptedBackend
BACKEND_ID = "toy"
# candidates meta key: sha256 of the selector.model bytes the rank scores came from
MODEL_DIGEST_KEY = "selector_sha256"


class ConfigError(Exception):
    exit_code = 2


class MissingArtifactError(Exception):
    exit_code = 3


class DataError(Exception):
    exit_code = 4


class RunConfig:
    """Validated view of the run-config JSON file: each value is checked, not
    coerced, when the file is loaded, by the code that owns its rule."""

    def __init__(self, raw: dict, path: Path):
        self.path = path
        self.hash = artifacts.config_hash(raw)
        try:
            self.corpus = _section(raw, "corpus", SPLITS, str)
            backend = _section(raw, "backend", ("id", "script"))
            if backend.get("id", BACKEND_ID) != BACKEND_ID:
                raise ValueError(f"unknown backend id: {backend['id']!r} (known: {BACKEND_ID!r})")
            self.backend_script = backend.get("script")
            if not isinstance(self.backend_script, str):
                ScriptedBackend(self.backend_script)  # checks an inline script now; a file one at gen-candidates
            self.codec = CodecConfig(**raw.get("codec", {}))
            self.generation = GenerationConfig(**raw.get("generation", {}))
            self.selector_train = SelectorTrainConfig(**raw.get("selector_train", {}))
            self.scorer_params = dict(raw.get("scorer", {}))
            HashedNgramScorer(**self.scorer_params)  # checks keys and values now, not at train-selector
            self.pairs = _section(raw, "pairs", ("multi_trigger_target", "include_empty"), bool)
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
        path = Path(self.corpus[split])
        if not path.is_absolute():
            path = self.path.parent / path
        return path


def _section(raw: dict, name: str, known: tuple[str, ...], kind: type = object) -> dict:
    """The config section `name`; a key outside `known`, or a value not of type `kind`, is an error."""
    section = dict(raw.get(name, {}))
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return RunConfig(raw, config_path)


def _load_split(cfg: RunConfig, run_dir: Path, split: str) -> list[ContextInstance]:
    path = cfg.corpus_path(split)
    try:
        result = load_corpus(path, cfg.codec)
    except OSError as exc:
        raise DataError(f"cannot read corpus {path}: {exc}") from exc
    artifacts.write_json(
        run_dir / f"load_report.{split}.json",
        {"path": str(path), **result.to_dict()},
        cfg.hash,
    )
    if result.problems:
        log.warning("%s: %d load problem(s), see load_report.%s.json", path, len(result.problems), split)
    if not result.instances:
        raise DataError(f"corpus {path} contains no usable instances")
    return result.instances


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path.name} not found: run {hint} first")
    return path


def _build_backend(cfg: RunConfig, run_dir: Path) -> ScriptedBackend:
    """The backend of the config's script: none, inline, or a file path, which
    resolves against the run directory (corpus paths resolve against the config's)."""
    if not isinstance(cfg.backend_script, str):
        return ScriptedBackend(cfg.backend_script)
    script_path = run_dir / cfg.backend_script  # an absolute path replaces run_dir
    try:
        return ScriptedBackend(json.loads(script_path.read_text(encoding="utf-8")))
    except OSError as exc:
        raise ConfigError(f"cannot read backend script {script_path}: {exc}") from exc
    except (TypeError, ValueError) as exc:  # not JSON, or not an input -> hypotheses map
        raise ConfigError(f"bad backend script {script_path}: {exc}") from exc


def _read_pairs(run_dir: Path, cfg: RunConfig) -> list[TrainingPair]:
    path = _require(run_dir / "pairs.jsonl", "preprocess")
    rows = artifacts.read_jsonl(path, cfg.hash)
    return [TrainingPair(r["input"], r["target"], r["task"], r["doc_id"]) for r in rows]


def _read_candidates(run_dir: Path, cfg: RunConfig, split: str) -> list[CandidateList]:
    path = _require(run_dir / f"candidates.{split}.jsonl", f"gen-candidates on {split}")
    return artifacts.read_jsonl(path, cfg.hash, convert=candidate_list_from_dict)


def _write_candidates(
    run_dir: Path, cfg: RunConfig, split: str, lists: list[CandidateList], model_digest: str | None = None
) -> None:
    meta = {"artifact": "candidates", "split": split, "config_hash": cfg.hash}
    if model_digest is not None:
        meta[MODEL_DIGEST_KEY] = model_digest
    artifacts.write_jsonl(
        run_dir / f"candidates.{split}.jsonl", (candidate_list_to_dict(cl) for cl in lists), meta
    )


def cmd_preprocess(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    instances = _load_split(cfg, run_dir, "train")
    ontology = ontology_from_corpus(instances)
    pairs = make_corpus_pairs(instances, ontology, cfg.codec, **cfg.pairs)
    artifacts.write_json(
        run_dir / "ontology.json",
        {"roles_by_type": {t: list(r) for t, r in ontology.items()}},
        cfg.hash,
    )
    artifacts.write_jsonl(
        run_dir / "pairs.jsonl",
        [{"input": p.input, "target": p.target, "task": p.task, "doc_id": p.doc_id} for p in pairs],
        {"artifact": "pairs", "config_hash": cfg.hash},
    )
    log.info("preprocess: %d instances -> %d training pairs", len(instances), len(pairs))


def cmd_gen_candidates(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    split = args.split
    pairs = _read_pairs(run_dir, cfg)
    backend = _build_backend(cfg, run_dir)
    backend.fit(pairs)
    instances = _load_split(cfg, run_dir, split)
    lists: list[CandidateList] = []
    warning_kinds: Counter[str] = Counter()
    for instance in instances:
        try:
            candidates, warnings = generate_trigger_candidates(
                backend, instance, cfg.generation, cfg.codec
            )
            candidates, arg_warnings = attach_argument_cache(backend, candidates, cfg.codec)
        except BackendError as exc:
            raise DataError(str(exc)) from exc
        # "doc <id>: <kind>: <detail>" -> "<kind>"
        doc_prefix = f"doc {instance.doc_id}: "
        warning_kinds.update(
            message.removeprefix(doc_prefix).partition(": ")[0] for message in warnings + arg_warnings
        )
        lists.append(candidates)
    _write_candidates(run_dir, cfg, split, lists)
    by_kind = ", ".join(f"{kind}: {count}" for kind, count in sorted(warning_kinds.items()))
    log.info(
        "gen-candidates[%s]: %d contexts, %d parse warning(s)%s",
        split,
        len(lists),
        warning_kinds.total(),
        f" ({by_kind})" if by_kind else "",
    )


def cmd_train_selector(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    data = [
        (cl.context, [f.trigger for f in instance.gold_frames], cl)
        for instance, cl in _with_gold(cfg, run_dir, "train", _read_candidates(run_dir, cfg, "train"))
    ]
    train_cfg = cfg.selector_train
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    scorer = HashedNgramScorer(**cfg.scorer_params)
    try:
        result = train_selector(scorer, data, train_cfg, cfg.codec)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    scorer.save(
        run_dir / "selector.model",
        extra={
            "config_hash": cfg.hash,
            "train": {
                "loss_per_epoch": result.loss_per_epoch,
                "n_trained": result.n_trained,
                "n_skipped": result.n_skipped,
            },
        },
    )
    log.info(
        "train-selector: %d trained / %d skipped, first epoch loss %.4f, last %.4f",
        result.n_trained,
        result.n_skipped,
        result.loss_per_epoch[0],
        result.loss_per_epoch[-1],
    )


def _scored_candidates(cfg: RunConfig, run_dir: Path, split: str) -> list[CandidateList]:
    """Candidates of a split with rank scores from the current selector.

    The scores are cached in candidates.{split}.jsonl under the sha256 of the
    selector.model bytes; any other model, a retrained one included, rescores.
    """
    candidate_lists = _read_candidates(run_dir, cfg, split)
    model_path = _require(run_dir / "selector.model", "train-selector")
    digest = hashlib.sha256(model_path.read_bytes()).hexdigest()
    if artifacts.read_meta(run_dir / f"candidates.{split}.jsonl").get(MODEL_DIGEST_KEY) != digest:
        scorer = HashedNgramScorer.from_dict(artifacts.read_json(model_path, cfg.hash))
        candidate_lists = [score_candidates(cl, scorer) for cl in candidate_lists]
        _write_candidates(run_dir, cfg, split, candidate_lists, digest)
    return candidate_lists


def _with_gold(
    cfg: RunConfig, run_dir: Path, split: str, lists: list[CandidateList]
) -> list[tuple[ContextInstance, CandidateList]]:
    """Each candidate list paired with its instance in the split's corpus."""
    instances = {i.doc_id: i for i in _load_split(cfg, run_dir, split)}
    paired = []
    for cl in lists:
        if cl.doc_id not in instances:
            raise DataError(f"candidates doc {cl.doc_id!r} not present in {split} corpus")
        paired.append((instances[cl.doc_id], cl))
    return paired


def cmd_tune(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    dev = _with_gold(cfg, run_dir, "dev", _scored_candidates(cfg, run_dir, "dev"))
    result = grid_search(dev, cfg.alpha_grid, cfg.theta_grid, cfg.metric)
    best_f1 = result.best_report().score(result.metric).f1
    write_score_table(result.table, run_dir / "tuning.csv", comment=f"config_hash={cfg.hash}")
    artifacts.write_json(
        run_dir / "tuned.json",
        {"alpha": result.alpha, "theta": result.theta, "metric": result.metric, "best_f1": best_f1},
        cfg.hash,
    )
    log.info("tune: best %s F1 %.4f at alpha=%g theta=%g", result.metric, best_f1, result.alpha, result.theta)


def _resolve_selection(cfg: RunConfig, args: argparse.Namespace) -> SelectionConfig:
    """--alpha/--theta over the config's selection, or over the library defaults when tuning."""
    flags = {name: value for name in ("alpha", "theta") if (value := getattr(args, name)) is not None}
    return replace(cfg.selection or SelectionConfig(), **flags)


def cmd_predict(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    split = args.split
    selection = _resolve_selection(cfg, args)
    tuned_path = run_dir / "tuned.json"
    # a tuning run given neither flag selects at tune's choice, once tune has run
    if cfg.selection is None and args.alpha is None and args.theta is None and tuned_path.exists():
        tuned = artifacts.read_json(tuned_path, cfg.hash)
        selection = SelectionConfig(alpha=tuned["alpha"], theta=tuned["theta"])
    rows = []
    n_none_above = 0
    for cl in _scored_candidates(cfg, run_dir, split):
        triggers = fuse_and_select(cl, scorer=None, cfg=selection)
        frames = frames_from_cache(cl, triggers)
        rows.append({"doc_id": cl.doc_id, "events": [frame_to_dict(f) for f in frames]})
        # a selected trigger means some candidate cleared theta
        if cl.candidates and not triggers:
            n_none_above += not kept_mask(cl, selection.alpha, selection.theta).any()
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
    rows = artifacts.read_jsonl(path, cfg.hash)
    predictions = [
        (r["doc_id"], [frame_from_dict(e) for e in r["events"]]) for r in rows
    ]
    gold = _load_split(cfg, run_dir, split)
    try:
        report = evaluate_corpus(predictions, gold)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    artifacts.write_json(run_dir / "report.json", {"split": split, **report.to_dict()}, cfg.hash)
    print(report.summary())


def cmd_report(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    split = args.split
    paired = _with_gold(cfg, run_dir, split, _scored_candidates(cfg, run_dir, split))
    base = _resolve_selection(cfg, args)
    theta_pairs = [(base.alpha, t) for t in sorted(cfg.theta_grid)]
    cells = sweep_selection(paired, theta_pairs + [(a, base.theta) for a in sorted(cfg.alpha_grid)])
    theta_cells, alpha_cells = cells[: len(theta_pairs)], cells[len(theta_pairs) :]
    write_score_table(
        theta_cells, run_dir / "theta_sweep.csv", comment=f"config_hash={cfg.hash} split={split}"
    )
    write_score_table(
        alpha_cells, run_dir / "alpha_sweep.csv", comment=f"config_hash={cfg.hash} split={split}"
    )
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
        run_dir.mkdir(parents=True, exist_ok=True)
        _setup_logging(run_dir)
        COMMANDS[args.command](cfg, run_dir, args)
    except (ConfigError, MissingArtifactError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
