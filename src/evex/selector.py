"""Contrastive re-ranking of trigger candidates and fused-score selection.

The scorer assigns a relevance score to each (context, candidate text) pair.
Training pushes gold trigger texts above sampled incorrect candidates by a
margin (pairwise hinge objective); selection softmaxes rank scores and beam
scores over the candidates of one context, mixes them with weight alpha, and
keeps every candidate whose fused score exceeds the threshold theta.

The reference scorer is a linear model over hashed character and word n-gram
counts of "context || candidate", trained by stochastic subgradient descent.
Hashing the same strings again in every epoch would dominate training, so a
training call keeps a feature table: each unique (context, text) pair is
hashed once into index/count arrays (in the order the hashing emits them), and
every step scores and updates from those arrays. A pretrained text encoder
with a projection head can be slotted in through the same RankScorer
interface.
"""

from __future__ import annotations

import json
import random
import zlib
from collections.abc import Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import CodecConfig, encode_trigger
from .events import Trigger
from .generation import CandidateList

# one training example: (context, positive text, negative texts)
ContrastiveItem = tuple[str, str, list[str]]
# hashed features of one (context, text) pair: indices and their counts
FeatureRow = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SelectorTrainConfig:
    margin: float = 0.5
    negatives_k: int = 5
    learning_rate: float = 0.005
    epochs: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not -1.0 <= self.margin <= 1.0:
            raise ValueError("margin must lie in [-1, 1]")
        if self.negatives_k < 1:
            raise ValueError("negatives_k must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class SelectionConfig:
    alpha: float = 0.4
    theta: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


class RankScorer:
    """Scores the relevance of a candidate text to its context."""

    def score(self, context: str, candidate_text: str) -> float:
        raise NotImplementedError

    def train_step(self, batch: list[ContrastiveItem], margin: float, learning_rate: float) -> float:
        """One subgradient update on the batch; returns the pre-update loss."""
        raise NotImplementedError

    def training(self):
        """Context manager around one training call; a scorer may keep work
        that repeats across steps (such as featurization) until it exits."""
        return nullcontext()


class HashedNgramScorer(RankScorer):
    """Linear scorer over hashed n-gram counts of "context || candidate".

    Deterministic: hashing uses crc32, weights start at zero. Context
    features are shared by all candidates of one context, so they cancel in
    pairwise updates and shift all scores equally at inference (softmax
    invariant); the ranking signal lives in the candidate-side n-grams.
    """

    FORMAT = "hashed-ngram-linear/1"

    def __init__(
        self,
        dim: int = 2**18,
        word_ngrams: tuple[int, ...] = (1, 2),
        char_ngrams: tuple[int, ...] = (3, 4),
    ):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.word_ngrams = tuple(int(n) for n in word_ngrams)
        self.char_ngrams = tuple(int(n) for n in char_ngrams)
        self.weights = np.zeros(self.dim, dtype=np.float64)
        # (context, text) -> FeatureRow, kept only inside training()
        self._table: dict[tuple[str, str], FeatureRow] | None = None

    def _features(self, context: str, candidate_text: str) -> dict[int, float]:
        text = f"{context} || {candidate_text}".casefold()
        text = " ".join(text.split())
        counts: dict[int, float] = {}
        tokens = text.split()
        for n in self.word_ngrams:
            for i in range(len(tokens) - n + 1):
                key = f"w{n}:" + " ".join(tokens[i : i + n])
                idx = zlib.crc32(key.encode("utf-8")) % self.dim
                counts[idx] = counts.get(idx, 0.0) + 1.0
        for n in self.char_ngrams:
            for i in range(len(text) - n + 1):
                key = f"c{n}:" + text[i : i + n]
                idx = zlib.crc32(key.encode("utf-8")) % self.dim
                counts[idx] = counts.get(idx, 0.0) + 1.0
        return counts

    def _score_features(self, feats: dict[int, float]) -> float:
        if not feats:
            return 0.0
        idx = np.fromiter(feats.keys(), dtype=np.intp, count=len(feats))
        cnt = np.fromiter(feats.values(), dtype=np.float64, count=len(feats))
        return float(self.weights[idx] @ cnt)

    def _feature_row(self, context: str, text: str) -> FeatureRow:
        """The pair's features as arrays, from the table inside training().

        Indices are crc32 values modulo dim, so they fit in uint32. Both
        arrays keep the order of _features, so a score equals
        _score_features bit for bit.
        """
        table = self._table if self._table is not None else {}
        row = table.get((context, text))
        if row is None:
            feats = self._features(context, text)
            row = table[context, text] = (
                np.fromiter(feats.keys(), dtype=np.uint32, count=len(feats)),
                np.fromiter(feats.values(), dtype=np.float64, count=len(feats)),
            )
        return row

    @contextmanager
    def training(self):
        self._table = {}
        try:
            yield
        finally:
            self._table = None

    def score(self, context: str, candidate_text: str) -> float:
        return self._score_features(self._features(context, candidate_text))

    def loss_and_grad(
        self, batch: list[ContrastiveItem], margin: float
    ) -> tuple[float, dict[int, float]]:
        """Batch hinge loss and its subgradient w.r.t. the weights.

        The subgradient at a hinge kink is taken as zero (the term only
        contributes when strictly positive).
        """
        loss = 0.0
        grad: dict[int, float] = {}
        for context, positive, negatives in batch:
            pos_feats = self._features(context, positive)
            pos_score = self._score_features(pos_feats)
            for negative in negatives:
                neg_feats = self._features(context, negative)
                neg_score = self._score_features(neg_feats)
                term = margin - pos_score + neg_score
                if term > 0.0:
                    loss += term
                    for idx, cnt in pos_feats.items():
                        grad[idx] = grad.get(idx, 0.0) - cnt
                    for idx, cnt in neg_feats.items():
                        grad[idx] = grad.get(idx, 0.0) + cnt
        return loss, grad

    def train_step(self, batch: list[ContrastiveItem], margin: float, learning_rate: float) -> float:
        """The loss and update of loss_and_grad, computed from feature rows.

        Scores and the loss are summed in the same order as there. The
        subgradient is a sum of integer counts, exact in any order, so it is
        accumulated per index with bincount.
        """
        weights = self.weights
        loss = 0.0
        idx_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        for context, positive, negatives in batch:
            pos_idx, pos_cnt = self._feature_row(context, positive)
            pos_score = float(weights[pos_idx] @ pos_cnt)
            for negative in negatives:
                neg_idx, neg_cnt = self._feature_row(context, negative)
                term = margin - pos_score + float(weights[neg_idx] @ neg_cnt)
                if term > 0.0:
                    loss += term
                    idx_parts += (pos_idx, neg_idx)
                    val_parts += (-pos_cnt, neg_cnt)
        if idx_parts:
            keys, inverse = np.unique(np.concatenate(idx_parts), return_inverse=True)
            weights[keys] -= learning_rate * np.bincount(inverse, weights=np.concatenate(val_parts))
        return loss

    def to_dict(self) -> dict:
        nonzero = np.flatnonzero(self.weights)
        return {
            "format": self.FORMAT,
            "dim": self.dim,
            "word_ngrams": list(self.word_ngrams),
            "char_ngrams": list(self.char_ngrams),
            "weights": {str(int(i)): float(self.weights[i]) for i in nonzero},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "HashedNgramScorer":
        if raw.get("format") != cls.FORMAT:
            raise ValueError(f"unsupported scorer format: {raw.get('format')!r}")
        scorer = cls(
            dim=raw["dim"],
            word_ngrams=tuple(raw["word_ngrams"]),
            char_ngrams=tuple(raw["char_ngrams"]),
        )
        for idx, value in raw["weights"].items():
            scorer.weights[int(idx)] = float(value)
        return scorer

    def save(self, path: str | Path, extra: dict | None = None) -> None:
        blob = self.to_dict()
        if extra:
            blob.update(extra)
        Path(path).write_text(json.dumps(blob, sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "HashedNgramScorer":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def hinge_loss(pos_scores: list[float], neg_scores: list[float], margin: float) -> float:
    """Sum of max(0, margin - positive + negative) over all (pos, neg) pairs."""
    if not pos_scores or not neg_scores:
        raise ValueError("empty score list")
    return sum(
        max(0.0, margin - pos + neg) for pos in pos_scores for neg in neg_scores
    )


def sample_negatives(
    candidates: CandidateList,
    gold: list[Trigger],
    k: int,
    seed: int,
) -> list[str]:
    """Up to k candidate texts whose parsed triggers share no member with the
    gold triggers, sampled uniformly without replacement."""
    gold_set = set(gold)
    incorrect = [
        c.raw_text for c in candidates.candidates if not gold_set.intersection(c.triggers)
    ]
    if len(incorrect) <= k:
        return incorrect
    return random.Random(seed).sample(incorrect, k)


@dataclass
class SelectorTrainResult:
    loss_per_epoch: list[float] = field(default_factory=list)
    n_trained: int = 0
    n_skipped: int = 0


def train_selector(
    scorer: RankScorer,
    data: list[tuple[str, list[Trigger], CandidateList]],
    cfg: SelectorTrainConfig,
    codec_cfg: CodecConfig | None = None,
) -> SelectorTrainResult:
    """Contrastive training over (context, gold triggers, candidates) rows.

    Positives are the gold triggers re-encoded to candidate text form;
    negatives are sampled from the incorrect candidates. Rows lacking either
    side are skipped and counted. One subgradient step per row per epoch.
    """
    if not data:
        raise ValueError("empty training data")
    codec_cfg = codec_cfg or CodecConfig()
    rng = random.Random(cfg.seed)

    def batch_for(row: tuple[str, list[Trigger], CandidateList], seed: int) -> list[ContrastiveItem]:
        context, gold, candidates = row
        if not gold:
            return []
        negatives = sample_negatives(candidates, list(gold), cfg.negatives_k, seed)
        if not negatives:
            return []
        return [(context, encode_trigger(t, codec_cfg), negatives) for t in gold]

    if not any(batch_for(row, 0) for row in data):
        raise ValueError("untrainable dataset: no instance with both a positive and a negative")

    result = SelectorTrainResult()
    first_epoch = True
    with scorer.training():
        for _ in range(cfg.epochs):
            order = list(range(len(data)))
            rng.shuffle(order)
            epoch_loss = 0.0
            for i in order:
                batch = batch_for(data[i], rng.randrange(2**31))
                if not batch:
                    if first_epoch:
                        result.n_skipped += 1
                    continue
                if first_epoch:
                    result.n_trained += 1
                epoch_loss += scorer.train_step(batch, cfg.margin, cfg.learning_rate)
            result.loss_per_epoch.append(epoch_loss)
            first_epoch = False
    return result


def softmax(scores: list[float]) -> list[float]:
    arr = np.asarray(scores, dtype=np.float64)
    arr = arr - arr.max()
    exp = np.exp(arr)
    return list(exp / exp.sum())


def fuse_scores(rank_scores: list[float], beam_scores: list[float], alpha: float) -> list[float]:
    """alpha * softmax(rank) + (1 - alpha) * softmax(beam), elementwise."""
    if len(rank_scores) != len(beam_scores):
        raise ValueError("score lists must have equal length")
    p = softmax(rank_scores)
    q = softmax(beam_scores)
    return [alpha * pi + (1.0 - alpha) * qi for pi, qi in zip(p, q)]


def score_candidates(candidates: CandidateList, scorer: RankScorer) -> CandidateList:
    """Fill rank scores for every candidate in the list."""
    return candidates.with_rank_scores(
        [scorer.score(candidates.context, c.raw_text) for c in candidates.candidates]
    )


def fuse_and_select(
    candidates: CandidateList,
    scorer: RankScorer | None,
    cfg: SelectionConfig,
) -> list[Trigger]:
    """Select final triggers: fused score strictly above theta.

    With scorer=None the cached rank scores on the candidates are used
    (selection sweeps over precomputed scores). Returns the union of parsed
    triggers of the selected candidates, deduplicated, in first-appearance
    order; the explicit no-event candidate contributes no triggers.
    """
    if not candidates.candidates:
        return []
    if scorer is not None:
        scored = score_candidates(candidates, scorer)
    else:
        if any(c.rank_score is None for c in candidates.candidates):
            raise ValueError("candidates carry no rank scores and no scorer was given")
        scored = candidates
    rank_scores = [c.rank_score for c in scored.candidates]
    beam_scores = [c.beam_score for c in scored.candidates]
    fused = fuse_scores(rank_scores, beam_scores, cfg.alpha)
    # strict inequality: an exact tie at theta selects nothing
    return selected_triggers(scored, [i for i, score in enumerate(fused) if score > cfg.theta])


def selected_triggers(candidates: CandidateList, kept: Sequence[int]) -> list[Trigger]:
    """Union of the parsed triggers of the kept candidates (indices in
    ascending order), deduplicated, in first-appearance order."""
    selected: list[Trigger] = []
    seen: set[Trigger] = set()
    for i in kept:
        for trigger in candidates.candidates[i].triggers:
            if trigger not in seen:
                seen.add(trigger)
                selected.append(trigger)
    return selected
