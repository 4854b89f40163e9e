"""Pipeline orchestration: stage commands over a run directory.

Stages read and write a run directory:

    pairs.jsonl               generator training pairs
    ontology.json             induced role ontology
    load_report.{split}.json  corpus load problems
    candidates.{split}.jsonl  candidate lists with scores and cached arguments
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
import json
import logging
import sys
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
    Seq2SeqBackend,
    attach_argument_cache,
    candidate_list_from_dict,
    candidate_list_to_dict,
    frames_from_cache,
    generate_trigger_candidates,
)
from .metrics import SUBTASKS, TRIG_C, evaluate_corpus
from .selector import (
    HashedNgramScorer,
    SelectionConfig,
    SelectorTrainConfig,
    fuse_and_select,
    fuse_scores,
    score_candidates,
    train_selector,
)
from .tuning import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_THETA_GRID,
    evaluate_selection,  # noqa: F401  unused here; a benchmark tracer wraps it by this name
    grid_search,
    sweep_selection,
    write_score_table,
)

log = logging.getLogger("evex")

SPLITS = ("train", "dev", "test")


class ConfigError(Exception):
    exit_code = 2


class MissingArtifactError(Exception):
    exit_code = 3


class DataError(Exception):
    exit_code = 4


def _build_toy_backend(params: dict, run_dir: Path) -> Seq2SeqBackend:
    script = params.get("script")
    if script is None:
        return ScriptedBackend()
    if isinstance(script, str):
        script_path = Path(script)
        if not script_path.is_absolute():
            script_path = run_dir / script_path
        try:
            script = json.loads(script_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read backend script {script_path}: {exc}") from exc
    return ScriptedBackend({k: [tuple(h) for h in v] for k, v in script.items()})


BACKENDS = {"toy": _build_toy_backend}


def register_backend(backend_id: str, factory) -> None:
    BACKENDS[backend_id] = factory


class RunConfig:
    """Validated view of the run-config JSON file."""

    def __init__(self, raw: dict, path: Path):
        self.raw = raw
        self.path = path
        self.hash = artifacts.config_hash(raw)
        try:
            self.corpus = {k: str(v) for k, v in raw.get("corpus", {}).items()}
            self.backend_id = raw.get("backend", {}).get("id", "toy")
            self.backend_params = dict(raw.get("backend", {}))
            self.backend_params.pop("id", None)
            self.codec = CodecConfig(**raw.get("codec", {}))
            self.generation = GenerationConfig(**raw.get("generation", {}))
            self.selector_train = SelectorTrainConfig(**raw.get("selector_train", {}))
            self.scorer_params = dict(raw.get("scorer", {}))
            pairs = raw.get("pairs", {})
            self.multi_trigger_target = bool(pairs.get("multi_trigger_target", False))
            self.include_empty = bool(pairs.get("include_empty", True))
            selection = raw.get("selection", "tune")
            if selection == "tune":
                self.selection: SelectionConfig | None = None
            else:
                self.selection = SelectionConfig(**selection)
            tuning = raw.get("tuning", {})
            self.alpha_grid = [float(a) for a in tuning.get("alpha_grid", DEFAULT_ALPHA_GRID)]
            self.theta_grid = [float(t) for t in tuning.get("theta_grid", DEFAULT_THETA_GRID)]
            self.metric = tuning.get("metric", TRIG_C)
            if self.metric not in SUBTASKS:
                raise ValueError(f"unknown tuning metric: {self.metric!r}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad run config {path}: {exc}") from exc

    def corpus_path(self, split: str) -> Path:
        if split not in self.corpus:
            raise ConfigError(f"no {split!r} corpus in config {self.path}")
        path = Path(self.corpus[split])
        if not path.is_absolute():
            path = self.path.parent / path
        return path

    def base_selection(self) -> SelectionConfig:
        """The explicit selection config, or library defaults when tuning."""
        return self.selection if self.selection is not None else SelectionConfig()


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
        result = load_corpus(path)
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


def _build_backend(cfg: RunConfig, run_dir: Path, backend_id: str | None) -> Seq2SeqBackend:
    backend_id = backend_id or cfg.backend_id
    if backend_id not in BACKENDS:
        raise ConfigError(f"unknown backend id: {backend_id!r} (registered: {sorted(BACKENDS)})")
    return BACKENDS[backend_id](cfg.backend_params, run_dir)


def _read_pairs(run_dir: Path, cfg: RunConfig) -> list[TrainingPair]:
    path = _require(run_dir / "pairs.jsonl", "preprocess")
    rows = artifacts.read_jsonl(path, cfg.hash)
    return [TrainingPair(r["input"], r["target"], r["task"], r["doc_id"]) for r in rows]


def _read_candidates(run_dir: Path, cfg: RunConfig, split: str) -> list[CandidateList]:
    path = _require(run_dir / f"candidates.{split}.jsonl", f"gen-candidates on {split}")
    return [candidate_list_from_dict(r) for r in artifacts.read_jsonl(path, cfg.hash)]


def _write_candidates(run_dir: Path, cfg: RunConfig, split: str, lists: list[CandidateList]) -> None:
    artifacts.write_jsonl(
        run_dir / f"candidates.{split}.jsonl",
        [candidate_list_to_dict(cl) for cl in lists],
        {"artifact": "candidates", "split": split, "config_hash": cfg.hash},
    )


def _load_scorer(run_dir: Path, cfg: RunConfig) -> HashedNgramScorer:
    path = _require(run_dir / "selector.model", "train-selector")
    payload = artifacts.read_json(path, cfg.hash)
    return HashedNgramScorer.from_dict(payload)


def cmd_preprocess(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    instances = _load_split(cfg, run_dir, "train")
    ontology = ontology_from_corpus(instances)
    pairs = make_corpus_pairs(
        instances,
        ontology,
        cfg.codec,
        multi_trigger_target=cfg.multi_trigger_target,
        include_empty=cfg.include_empty,
    )
    artifacts.write_json(
        run_dir / "ontology.json",
        {"roles_by_type": {t: list(r) for t, r in ontology.roles_by_type.items()}},
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
    backend = _build_backend(cfg, run_dir, args.backend)
    backend.fit(pairs, cfg.backend_params.get("hyperparams"))
    instances = _load_split(cfg, run_dir, split)
    lists: list[CandidateList] = []
    n_warnings = 0
    for instance in instances:
        try:
            candidates, warnings = generate_trigger_candidates(
                backend, instance, cfg.generation, cfg.codec
            )
            candidates, arg_warnings = attach_argument_cache(backend, candidates, cfg.codec)
        except BackendError as exc:
            raise DataError(str(exc)) from exc
        n_warnings += len(warnings) + len(arg_warnings)
        for message in warnings + arg_warnings:
            log.debug("parse warning: %s", message)
        lists.append(candidates)
    _write_candidates(run_dir, cfg, split, lists)
    log.info(
        "gen-candidates[%s]: %d contexts, %d parse warning(s)", split, len(lists), n_warnings
    )


def cmd_train_selector(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    candidate_lists = _read_candidates(run_dir, cfg, "train")
    instances = {i.doc_id: i for i in _load_split(cfg, run_dir, "train")}
    data = []
    for cl in candidate_lists:
        if cl.doc_id not in instances:
            raise DataError(f"candidates doc {cl.doc_id!r} not present in train corpus")
        gold = [f.trigger for f in instances[cl.doc_id].gold_frames]
        data.append((cl.context, gold, cl))
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


def _scored_split(
    cfg: RunConfig, run_dir: Path, split: str
) -> list[tuple[ContextInstance, CandidateList]]:
    """Candidates of a split with rank scores cached back to the artifact."""
    candidate_lists = _read_candidates(run_dir, cfg, split)
    if any(c.rank_score is None for cl in candidate_lists for c in cl.candidates):
        scorer = _load_scorer(run_dir, cfg)
        candidate_lists = [score_candidates(cl, scorer) for cl in candidate_lists]
        _write_candidates(run_dir, cfg, split, candidate_lists)
    instances = {i.doc_id: i for i in _load_split(cfg, run_dir, split)}
    paired = []
    for cl in candidate_lists:
        if cl.doc_id not in instances:
            raise DataError(f"candidates doc {cl.doc_id!r} not present in {split} corpus")
        paired.append((instances[cl.doc_id], cl))
    return paired


def cmd_tune(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    _require(run_dir / "candidates.dev.jsonl", "gen-candidates on dev")
    _require(run_dir / "selector.model", "train-selector")
    dev = _scored_split(cfg, run_dir, "dev")
    result = grid_search(dev, cfg.alpha_grid, cfg.theta_grid, cfg.metric)
    write_score_table(result.table, run_dir / "tuning.csv", comment=f"config_hash={cfg.hash}")
    artifacts.write_json(
        run_dir / "tuned.json",
        {
            "alpha": result.alpha,
            "theta": result.theta,
            "metric": result.metric,
            "best_f1": result.best_report().score(result.metric).f1,
        },
        cfg.hash,
    )
    log.info(
        "tune: best %s F1 %.4f at alpha=%g theta=%g",
        result.metric,
        result.best_report().score(result.metric).f1,
        result.alpha,
        result.theta,
    )


def _resolve_selection(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> SelectionConfig:
    if args.alpha is not None or args.theta is not None:
        base = cfg.base_selection()
        return SelectionConfig(
            alpha=base.alpha if args.alpha is None else args.alpha,
            theta=base.theta if args.theta is None else args.theta,
        )
    if cfg.selection is not None:
        return cfg.selection
    tuned_path = run_dir / "tuned.json"
    if tuned_path.exists():
        tuned = artifacts.read_json(tuned_path, cfg.hash)
        return SelectionConfig(alpha=tuned["alpha"], theta=tuned["theta"])
    return SelectionConfig()


def cmd_predict(cfg: RunConfig, run_dir: Path, args: argparse.Namespace) -> None:
    split = args.split or "test"
    selection = _resolve_selection(cfg, run_dir, args)
    paired = _scored_split(cfg, run_dir, split)
    rows = []
    fused_lists = []
    n_none_above = 0
    for _, cl in paired:
        triggers = fuse_and_select(cl, scorer=None, cfg=selection)
        frames = frames_from_cache(cl, triggers)
        rows.append({"doc_id": cl.doc_id, "events": [frame_to_dict(f) for f in frames]})
        if cl.candidates:
            fused = fuse_scores(
                [c.rank_score for c in cl.candidates],
                [c.beam_score for c in cl.candidates],
                selection.alpha,
            )
            n_none_above += max(fused) <= selection.theta
            cl = cl.with_fused_scores(fused)
        fused_lists.append(cl)
    _write_candidates(run_dir, cfg, split, fused_lists)
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
    split = args.split or "test"
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
    split = args.split or "test"
    paired = _scored_split(cfg, run_dir, split)
    base = cfg.base_selection()
    alpha = base.alpha if args.alpha is None else args.alpha
    theta = base.theta if args.theta is None else args.theta

    theta_pairs = [(alpha, t) for t in sorted(cfg.theta_grid)]
    cells = sweep_selection(paired, theta_pairs + [(a, theta) for a in sorted(cfg.alpha_grid)])
    theta_cells, alpha_cells = cells[: len(theta_pairs)], cells[len(theta_pairs) :]
    write_score_table(
        theta_cells, run_dir / "theta_sweep.csv", comment=f"config_hash={cfg.hash} split={split}"
    )
    write_score_table(
        alpha_cells, run_dir / "alpha_sweep.csv", comment=f"config_hash={cfg.hash} split={split}"
    )
    log.info("report[%s]: wrote theta_sweep.csv (alpha=%g) and alpha_sweep.csv (theta=%g)", split, alpha, theta)


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
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--run-dir", default=None, help="artifact directory (default: config dir)")
        p.add_argument("--split", choices=SPLITS, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--backend", default=None, help="backend id override")
    return parser


def _setup_logging(run_dir: Path) -> None:
    log.setLevel(logging.DEBUG)
    for handler in list(log.handlers):
        if isinstance(handler, logging.FileHandler):
            handler.close()
            log.removeHandler(handler)
    if not log.handlers:
        stream = logging.StreamHandler(sys.stderr)
        stream.setLevel(logging.INFO)
        stream.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        log.addHandler(stream)
    file_handler = logging.FileHandler(run_dir / "run.log", encoding="utf-8")
    file_handler.setLevel(logging.DEBUG)
    file_handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    log.addHandler(file_handler)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        run_dir = Path(args.run_dir) if args.run_dir else cfg.path.parent
        run_dir.mkdir(parents=True, exist_ok=True)
        _setup_logging(run_dir)
        if args.split is not None and args.command in ("preprocess", "train-selector", "tune", "pipeline"):
            log.debug("--split is ignored by %s", args.command)
        COMMANDS[args.command](cfg, run_dir, args)
    except (ConfigError, MissingArtifactError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
