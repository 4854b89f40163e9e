"""Contrastive re-ranking of trigger candidates and fused-score selection.

The scorer assigns a relevance score to each (context, candidate text) pair.
Training pushes gold trigger texts above sampled incorrect candidates by a
margin (pairwise hinge objective); selection (select, the one rule that
predict and the grid sweep read) softmaxes rank scores and beam scores over
the candidates of one context, mixes them with weight alpha, and keeps every
candidate whose fused score exceeds the threshold theta.

The reference scorer is a linear model over hashed character and word n-gram
counts of "context || candidate", trained by stochastic subgradient descent.
Most of a pair's n-grams lie in the shared "context ||" prefix; they add the
same to every candidate of a context, which softmax removes, so scores()
counts each candidate's side alone: its text's n-grams and those across the
" || " junction (training counts the whole pair). A feature row is a dict
count of a pair's hashed n-gram indices, in first-appearance order. Rows
never depend on the weights, and texts repeat within a corpus and across
epochs, so the scorer stores every row it builds, once. One hinge pass over
those rows (_hinge) gives the batch loss and its subgradient; train_step
applies it to the weights and loss_and_grad returns it as a dict.
"""

from __future__ import annotations

import json
import random
import zlib
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .artifacts import replacing
from .codec import CodecConfig, encode_trigger
from .events import Trigger, is_finite_number, is_number
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
        if not all(is_number(n, int) for n in (self.negatives_k, self.epochs, self.seed)):
            raise ValueError("negatives_k, epochs and seed must be integers")
        if not is_number(self.margin) or not -1.0 <= self.margin <= 1.0:
            raise ValueError("margin must be a number in [-1, 1]")
        if self.negatives_k < 1:
            raise ValueError("negatives_k must be >= 1")
        if not is_finite_number(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be a positive finite number")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class SelectionConfig:
    alpha: float = 0.4
    theta: float = 0.2

    def __post_init__(self) -> None:
        # the one [0, 1] rule of alpha and theta; grids and --alpha/--theta reuse it
        for name in ("alpha", "theta"):
            value = getattr(self, name)
            if not is_number(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


class _GramIndices(dict):
    """One n-gram family's memo: n-gram -> its hashed index, crc32 of the family tag and the n-gram, mod dim."""

    def __init__(self, family: str, dim: int):
        super().__init__()
        self.family, self.dim = family, dim

    def __missing__(self, gram: str) -> int:
        index = self[gram] = zlib.crc32(f"{self.family}{gram}".encode("utf-8")) % self.dim
        return index


def _count(stream: Iterable[int]) -> FeatureRow:
    """The feature row of a stream of hashed indices: a dict count, its indices and counts in first-appearance order."""
    counts = Counter(stream)
    return np.fromiter(counts, np.uint32, len(counts)), np.fromiter(counts.values(), np.float32, len(counts))


class HashedNgramScorer:
    """Linear scorer over hashed n-gram counts of "context || candidate".

    Deterministic: hashing uses crc32, weights start at zero. Context
    features are shared by all candidates of one context, so they cancel in
    pairwise updates (an exact zero subgradient) and would shift its scores
    equally (softmax invariant): scores() counts the candidate-side n-grams alone.

    The pair is normalised as casefold plus whitespace collapse. Both act on
    each character alone, so the normalised pair is the normalised prefix
    "context ||", a space, and the normalised candidate. Every n-gram of it
    lies inside the prefix, inside the candidate, or across the junction (at
    most n - 1 word n-grams, n char n-grams, per family), which reaches only
    the prefix's tail: its last max(word_ngrams) - 1 tokens and
    max(char_ngrams) - 1 chars, "||" / " ||" at the default lengths.

    A row is a dict count of the pair's hashed indices (_count) in the order a
    whole-pair pass emits them. Each family memoises n-gram -> index
    (_GramIndices), and one dict stores every row built, finished: a
    whole-pair (training) row under (context, text), a candidate-side
    (scoring) row under (tail, text). Neither depends on the weights, and
    neither is capped: each holds one entry per distinct n-gram or pair the
    scorer has seen, and each CLI stage builds a fresh scorer. Counts are
    float32, exact below 2**24. A score is a dot product of a fresh gather of
    the weights with a row's own counts, as the tests' per-pair reference
    computes it. dim lies in [1, 2**32]; from_dict checks each stored weight
    with events.is_finite_number.
    """

    FORMAT = "hashed-ngram-linear/1"

    def __init__(self, **settings):
        """settings: dim, word_ngrams and char_ngrams, with the defaults and rules of checked_settings."""
        self.dim, self.word_ngrams, self.char_ngrams = self.checked_settings(**settings)
        try:
            self.weights = np.zeros(self.dim, dtype=np.float64)
        except MemoryError:
            raise ValueError(f"dim {self.dim} is more weights than memory holds") from None
        families = [f"w{n}:" for n in self.word_ngrams] + [f"c{n}:" for n in self.char_ngrams]
        self._grams = [_GramIndices(family, self.dim) for family in families]
        # (context or prefix tail, text) -> FeatureRow, whole-pair under a context, candidate-side under a tail
        self._stored: dict[tuple[str | tuple, str], FeatureRow] = {}

    @staticmethod
    def checked_settings(dim: int = 2**18, word_ngrams: Sequence[int] = (1, 2), char_ngrams: Sequence[int] = (3, 4)):
        """(dim, word_ngrams, char_ngrams) as the scorer keeps them, checked without allocating weights."""
        word_ngrams, char_ngrams = tuple(word_ngrams), tuple(char_ngrams)
        if not all(is_number(n, int) for n in (dim, *word_ngrams, *char_ngrams)):
            raise ValueError("dim and n-gram lengths must be integers")
        if not 1 <= dim <= 2**32:  # indices are crc32 values mod dim: a larger dim adds weights no n-gram reaches
            raise ValueError("dim must be in [1, 2**32]")
        if any(n < 1 for n in word_ngrams + char_ngrams):
            raise ValueError("n-gram lengths must be positive")
        if not word_ngrams + char_ngrams:  # no feature at all: every score the same constant
            raise ValueError("at least one n-gram length is needed, in word_ngrams or char_ngrams")
        return dim, word_ngrams, char_ngrams

    def _indices(self, words: Sequence[Sequence[str]], chars: Sequence[str]) -> list[list[int]]:
        """Per n-gram family, the hashed indices of the n-grams of its token list (word
        families, in word_ngrams order) or string (char families)."""
        grams = [[" ".join(t[i : i + n]) for i in range(len(t) - n + 1)] for n, t in zip(self.word_ngrams, words)]
        grams += [[s[i : i + n] for i in range(len(s) - n + 1)] for n, s in zip(self.char_ngrams, chars)]
        return [list(map(memo.__getitem__, g)) for memo, g in zip(self._grams, grams)]

    def _rows(self, context: str, texts: Sequence[str], whole_pair: bool = True) -> list[FeatureRow]:
        """Per text, the hashed n-gram indices of the normalised "context || text" and their
        counts, in first-appearance order: word families, then char families, each as the
        prefix's n-grams, then the text's. The text's n-grams are those of the text behind
        the prefix tail's last n - 1 tokens (chars: tail chars, the joining space, the text;
        nothing for an empty text). Without whole_pair a row holds the text's n-grams alone,
        its candidate side. Each row is built once and stored; a call whose whole-pair rows
        are all stored tokenises and hashes nothing."""
        stored = self._stored
        if whole_pair and all((context, text) in stored for text in texts):
            return [stored[context, text] for text in texts]
        tokens = context.casefold().split() + ["||"]
        prefix = " ".join(tokens)
        counted = (tokens, prefix) if whole_pair else ([], "")  # the prefix adds the same to every row of the context
        prefix_parts = self._indices([counted[0]] * len(self.word_ngrams), [counted[1]] * len(self.char_ngrams))
        # per family, the prefix's tail: its last n - 1 tokens or chars, all a junction n-gram reaches
        tail = (
            tuple(tuple(tokens[max(0, len(tokens) - n + 1) :]) for n in self.word_ngrams),
            tuple(prefix[max(0, len(prefix) - n + 1) :] for n in self.char_ngrams),
        )
        owner = context if whole_pair else tail  # a candidate-side row is the same after every context of one tail
        rows = []
        for text in texts:
            row = stored.get((owner, text))
            if row is None:
                tokens = text.casefold().split()
                joined = " ".join(tokens)
                words = [[*t, *tokens] for t in tail[0]]
                chars = [f"{t} {joined}" if joined else "" for t in tail[1]]
                parts = zip(prefix_parts, self._indices(words, chars))
                row = stored[owner, text] = _count(chain.from_iterable(chain.from_iterable(parts)))
            rows.append(row)
        return rows

    def scores(self, context: str, texts: Sequence[str]) -> list[float]:
        """Relevance of each text to the context from its candidate-side row."""
        weights = self.weights
        return [float(weights[idx] @ cnt) for idx, cnt in self._rows(context, texts, whole_pair=False)]

    def score(self, context: str, candidate_text: str) -> float:
        """Relevance of a candidate text to its context (scores, one text)."""
        return self.scores(context, [candidate_text])[0]

    def _hinge(self, batch: list[ContrastiveItem], margin: float) -> tuple[float, np.ndarray, np.ndarray]:
        """Batch hinge loss and its subgradient w.r.t. the weights, as the sorted
        hashed indices it touches and their values: the one hinge pass, under
        loss_and_grad and train_step.

        Scores come from each item's whole-pair rows (_rows, which builds a row the
        first time a pair is seen), the loss is summed item by item, and the
        subgradient at a hinge kink is taken as zero (a term only contributes
        when strictly positive). The subgradient is a sum of integer counts,
        exact in any order, so it is accumulated per index with bincount.
        """
        weights = self.weights
        loss = 0.0
        idx_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        for context, positive, negatives in batch:
            (pos_idx, pos_cnt), *negative_rows = self._rows(context, [positive, *negatives])
            pos_score = float(weights[pos_idx] @ pos_cnt)
            for neg_idx, neg_cnt in negative_rows:
                term = margin - pos_score + float(weights[neg_idx] @ neg_cnt)
                if term > 0.0:
                    loss += term
                    idx_parts += (pos_idx, neg_idx)
                    val_parts += (-pos_cnt, neg_cnt)
        if not idx_parts:  # no active term, as in most steps once the margins hold
            return loss, np.empty(0, np.intp), np.empty(0)
        keys, inverse = np.unique(np.concatenate(idx_parts), return_inverse=True)
        return loss, keys, np.bincount(inverse, weights=np.concatenate(val_parts))

    def loss_and_grad(self, batch: list[ContrastiveItem], margin: float) -> tuple[float, dict[int, float]]:
        """Batch hinge loss and its subgradient (_hinge), as index -> value."""
        loss, keys, grad = self._hinge(batch, margin)
        return loss, dict(zip(keys.tolist(), grad.tolist()))

    def train_step(self, batch: list[ContrastiveItem], margin: float, learning_rate: float) -> float:
        """One subgradient update on the batch (_hinge); returns the pre-update loss."""
        loss, keys, grad = self._hinge(batch, margin)
        self.weights[keys] -= learning_rate * grad
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
            index = int(idx)
            if not 0 <= index < scorer.dim or not is_finite_number(value):
                raise ValueError(f"weight {idx!r}: {value!r} is not a finite number at an index in [0, {scorer.dim})")
            scorer.weights[index] = float(value)
        return scorer

    def save(self, path: str | Path, extra: dict | None = None) -> None:
        blob = self.to_dict()
        if extra:
            blob.update(extra)
        with replacing(path) as fh:
            fh.write(json.dumps(blob, sort_keys=True))


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
    scorer: HashedNgramScorer,
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

    # whether a row yields a batch does not depend on the sampling seed
    n_trained = sum(1 for row in data if batch_for(row, 0))
    if not n_trained:
        raise ValueError("untrainable dataset: no instance with both a positive and a negative")

    result = SelectorTrainResult(n_trained=n_trained, n_skipped=len(data) - n_trained)
    for _ in range(cfg.epochs):
        order = list(range(len(data)))
        rng.shuffle(order)
        epoch_loss = 0.0
        for i in order:
            batch = batch_for(data[i], rng.randrange(2**31))
            if batch:
                epoch_loss += scorer.train_step(batch, cfg.margin, cfg.learning_rate)
        result.loss_per_epoch.append(epoch_loss)
    return result


def softmax(scores: Sequence[float]) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if not arr.size:
        return arr
    with np.errstate(over="ignore"):  # scores spanning past float range: exp(-inf) is the limit, 0
        exp = np.exp(arr - arr.max())
    return exp / exp.sum()


def fuse_scores(rank_scores: list[float], beam_scores: list[float], alpha: float | np.ndarray) -> np.ndarray:
    """alpha * softmax(rank) + (1 - alpha) * softmax(beam), elementwise; a column
    of alphas gives one row of fused scores per alpha."""
    if len(rank_scores) != len(beam_scores):
        raise ValueError("score lists must have equal length")
    return alpha * softmax(rank_scores) + (1.0 - alpha) * softmax(beam_scores)


def select(
    candidates: CandidateList, alpha: float | np.ndarray, theta: float | np.ndarray
) -> tuple[np.ndarray, list[Trigger], np.ndarray]:
    """The selection rule, one pass: (kept, triggers, selected). kept: each candidate's fused score,
    from the cached rank scores, strictly above theta (a tie keeps nothing). triggers: the doc's
    distinct parsed triggers, in first appearance over all its candidates. selected: whether a kept
    candidate parses each trigger. Columns of alphas and thetas give one row of both per cell."""
    cands = candidates.candidates
    ranks = [c.rank_score for c in cands]
    if any(rank is None for rank in ranks):
        raise ValueError(f"candidates of doc {candidates.doc_id!r} carry no rank scores")
    kept = fuse_scores(ranks, [c.beam_score for c in cands], alpha) > theta
    column = {t: j for j, t in enumerate(dict.fromkeys(t for c in cands for t in c.triggers))}
    parses = np.zeros((len(cands), len(column)))  # parses[i, j]: candidate i parses trigger j
    parses.flat[[i * len(column) + column[t] for i, c in enumerate(cands) for t in c.triggers]] = 1.0
    return kept, list(column), kept @ parses > 0


def score_candidates(candidates: CandidateList, scorer: HashedNgramScorer) -> CandidateList:
    """Fill rank scores for every candidate in the list."""
    return candidates.with_rank_scores(
        scorer.scores(candidates.context, [c.raw_text for c in candidates.candidates])
    )


def fuse_and_select(
    candidates: CandidateList,
    scorer: HashedNgramScorer | None,
    cfg: SelectionConfig,
) -> list[Trigger]:
    """The selected triggers of select's one cell, each once, in select's order (the explicit
    no-event candidate parses none). scorer=None selects with the cached rank scores."""
    if scorer is not None:
        candidates = score_candidates(candidates, scorer)
    _, triggers, selected = select(candidates, cfg.alpha, cfg.theta)
    return list(compress(triggers, selected.tolist()))
