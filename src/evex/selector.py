"""Contrastive re-ranking of trigger candidates and fused-score selection.

The scorer assigns a relevance score to each (context, candidate text) pair.
Training pushes gold trigger texts above sampled incorrect candidates by a
margin (pairwise hinge objective); selection softmaxes rank scores and beam
scores over the candidates of one context, mixes them with weight alpha, and
keeps every candidate whose fused score exceeds the threshold theta.

The reference scorer is a linear model over hashed character and word n-gram
counts of "context || candidate", trained by stochastic subgradient descent.
Most of a pair's n-grams lie in the shared "context ||" prefix, and the
candidate texts and n-grams of a corpus repeat, so the scorer hashes each
distinct n-gram once into a dense id, keeps a context's prefix ids, and
memoises each text's ids with those across the " || " junction. numpy counts
the id streams of a context's candidates, in one batch, into feature rows
(hashed indices and counts, in first-appearance order).
Building rows again in every epoch would dominate training, so a training
call keeps a feature table of each unique pair's row for its steps.
"""

from __future__ import annotations

import json
import random
import zlib
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import CodecConfig, encode_trigger
from .events import Trigger, is_number
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
        if not is_number(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be a positive number")
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


class _GramIds(dict):
    """One n-gram family's memo: n-gram -> dense id of its hashed index. A
    miss hashes the n-gram; n-grams that collide, within or across families,
    share an id through `ids` (index -> id), and `indices` maps ids back."""

    def __init__(self, family: str, dim: int, ids: dict[int, int], indices: array):
        super().__init__()
        self.family, self.dim, self.ids, self.indices = family, dim, ids, indices

    def __missing__(self, gram: str) -> int:
        index = zlib.crc32(f"{self.family}{gram}".encode("utf-8")) % self.dim
        gid = self[gram] = self.ids.setdefault(index, len(self.ids))
        if gid == len(self.indices):
            self.indices.append(index)
        return gid


class HashedNgramScorer:
    """Linear scorer over hashed n-gram counts of "context || candidate".

    Deterministic: hashing uses crc32, weights start at zero. Context
    features are shared by all candidates of one context, so they cancel in
    pairwise updates and shift all scores equally at inference (softmax
    invariant); the ranking signal lives in the candidate-side n-grams.

    The pair is normalised as casefold plus whitespace collapse. Both act on
    each character alone, so the normalised pair is the normalised prefix
    "context ||", a space, and the normalised candidate. Every n-gram of it
    lies inside the prefix, inside the candidate, or across the junction
    (at most n - 1 word n-grams, n char n-grams, per family), which reaches
    only the prefix's tail: its last max(word_ngrams) - 1 tokens and
    max(char_ngrams) - 1 chars, "||" / " ||" at the default lengths. Each
    family memoises n-gram -> dense id (_GramIds), so a distinct n-gram is
    hashed once; so are a context's prefix ids while its candidates are
    scored, and each text's junction and text ids per (tail, text). Ids
    depend on dim and the n-gram lengths, never on the weights. All memos
    share one cap, MEMO_SIZE entries, and are emptied together.

    scores() builds the rows of a context's candidates in one batch (_rows):
    one np.minimum.at, a ufunc, as repeated fancy-index writes have no set
    order, on a scratch of one slot per (row, id) finds each id's first
    position in its row's id stream (the order a whole-string pass emits the
    n-grams). First occurrences and bincount over first positions give each
    row's (index, count) vector of a dict count of its stream, in its order,
    so every score is the same float as a pair's alone. The training table
    keeps counts as float32, exact for integer counts below 2**24.
    """

    MEMO_SIZE = 2**14
    FORMAT = "hashed-ngram-linear/1"
    _NO_POSITION = np.iinfo(np.int32).max

    def __init__(
        self,
        dim: int = 2**18,
        word_ngrams: tuple[int, ...] = (1, 2),
        char_ngrams: tuple[int, ...] = (3, 4),
    ):
        self.dim, self.word_ngrams, self.char_ngrams = dim, tuple(word_ngrams), tuple(char_ngrams)
        if not all(is_number(n, int) for n in (dim, *self.word_ngrams, *self.char_ngrams)):
            raise ValueError("dim and n-gram lengths must be integers")
        if dim < 1:
            raise ValueError("dim must be positive")
        if any(n < 1 for n in self.word_ngrams + self.char_ngrams):
            raise ValueError("n-gram lengths must be positive")
        self.weights = np.zeros(self.dim, dtype=np.float64)
        # (context, text) -> FeatureRow, kept only inside training()
        self._table: dict[tuple[str, str], FeatureRow] | None = None
        self._first = np.empty(0, dtype=np.int32)
        self._reset_memos()

    def _reset_memos(self) -> None:
        """Empty the id memos (ids, never scores: a weight update cannot stale them)."""
        ids, self._indices = {}, array("I")
        families = [f"w{n}:" for n in self.word_ngrams] + [f"c{n}:" for n in self.char_ngrams]
        self._grams = [_GramIds(family, self.dim, ids, self._indices) for family in families]
        self._context_memo: tuple[str, list[array], tuple] | None = None
        self._junction_memo: dict[tuple[tuple, str], list[array]] = {}

    def _rows(self, context: str, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Row r, [cuts[r], cuts[r + 1]), holds the hashed n-gram indices of the normalised
        "context || texts[r]" and their counts, in first-appearance order: word families,
        then char families, each as prefix, junction and text part. A chunk of rows has
        rows x ids <= 4 * MEMO_SIZE (or one row), so the scratch stays bounded."""
        idx_parts, cnt_parts, cuts = [np.empty(0, np.uint32)], [np.empty(0)], [0]
        start, scratch_size = 0, 4 * self.MEMO_SIZE
        while start < len(texts):
            if len(self._junction_memo) + sum(map(len, self._grams)) >= self.MEMO_SIZE:
                self._reset_memos()
            memo = self._context_memo
            if memo is None or memo[0] != context:
                tokens, text, parts = self._side(context.casefold().split() + ["||"])
                # the prefix's tail: the tokens and chars its junction n-grams can reach
                n_words, n_chars = max(self.word_ngrams, default=1) - 1, max(self.char_ngrams, default=1) - 1
                tail = (tuple(tokens[max(0, len(tokens) - n_words) :]), text[max(0, len(text) - n_chars) :])
                memo = self._context_memo = (context, parts, tail)
            _, prefix_parts, tail = memo
            stream, ends, n_ids = array("I"), [0], 0
            for text in texts[start:]:
                pieces = self._junction_memo.get((tail, text))
                if pieces is None:
                    pieces = self._junction_memo[tail, text] = self._junction(tail, text)
                if len(ends) > 1 and len(ends) * len(self._indices) > scratch_size:
                    break
                for prefix_part, piece in zip(prefix_parts, pieces):
                    stream += prefix_part
                    stream += piece
                ends.append(len(stream))
                n_ids = len(self._indices)
            rows = len(ends) - 1
            start += rows
            if len(self._first) < rows * n_ids:  # one slot per (row, id)
                self._first = np.full(max(rows * n_ids, scratch_size), self._NO_POSITION, dtype=np.int32)
            ids = np.frombuffer(stream, dtype=np.uint32)
            keys = ids + np.repeat(np.arange(rows) * n_ids, [e - s for s, e in zip(ends, ends[1:])])
            positions = np.arange(len(ids), dtype=np.int32)
            np.minimum.at(self._first, keys, positions)
            first = self._first[keys]
            self._first[keys] = self._NO_POSITION
            kept = np.flatnonzero(first == positions)
            cnt_parts.append(np.bincount(first, minlength=len(ids))[kept].astype(np.float64))
            idx_parts.append(np.frombuffer(self._indices, dtype=np.uint32)[ids[kept]])
            cuts += (cuts[-1] + np.searchsorted(kept, ends[1:])).tolist()
        return np.concatenate(idx_parts), np.concatenate(cnt_parts), cuts

    def _row(self, context: str, candidate_text: str) -> FeatureRow:
        """The row of one pair (see _rows)."""
        return self._rows(context, [candidate_text])[:2]

    def _features(self, context: str, candidate_text: str) -> dict[int, float]:
        """The row of _row as an index -> count dict, in the same order."""
        idx, cnt = self._row(context, candidate_text)
        return dict(zip(idx.tolist(), cnt.tolist()))

    def _junction(self, tail: tuple, candidate_text: str) -> list[array]:
        """Per family, the ids of the n-grams across the junction of a prefix ending
        in tail with the text, then those inside the text."""
        tail_tokens, tail_text = tail
        tokens, text, parts = self._side(candidate_text.casefold().split())
        pieces = []
        for k, n in enumerate(self.word_ngrams):
            # at most n - 1 tokens from each side, so every n-gram spans both
            window = [*tail_tokens[max(0, len(tail_tokens) - n + 1) :], *tokens[: n - 1]]
            junction = (" ".join(window[i : i + n]) for i in range(len(window) - n + 1))
            pieces.append(array("I", map(self._grams[k].__getitem__, junction)) + parts[k])
        for k, n in enumerate(self.char_ngrams, len(self.word_ngrams)):
            # every n-gram of the window holds the joining space, which an empty text lacks
            window = f"{tail_text[max(0, len(tail_text) - n + 1) :]} {text[: n - 1]}" if text else ""
            junction = (window[i : i + n] for i in range(len(window) - n + 1))
            pieces.append(array("I", map(self._grams[k].__getitem__, junction)) + parts[k])
        return pieces

    def _side(self, tokens: list[str]) -> tuple[list[str], str, list[array]]:
        """One side of the junction: its tokens, their joined text, and per
        n-gram family the ids of the n-grams that lie entirely inside it."""
        text = " ".join(tokens)
        words = [[" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)] for n in self.word_ngrams]
        chars = [[text[i : i + n] for i in range(len(text) - n + 1)] for n in self.char_ngrams]
        parts = [array("I", map(memo.__getitem__, grams)) for memo, grams in zip(self._grams, words + chars)]
        return tokens, text, parts

    def _score_features(self, feats: dict[int, float]) -> float:
        idx = np.fromiter(feats.keys(), dtype=np.intp, count=len(feats))
        cnt = np.fromiter(feats.values(), dtype=np.float64, count=len(feats))
        return float(self.weights[idx] @ cnt)

    def _feature_row(self, context: str, text: str) -> FeatureRow:
        """The pair's row from the table inside training(), counts as float32."""
        table = self._table if self._table is not None else {}
        row = table.get((context, text))
        if row is None:
            idx, cnt = self._row(context, text)
            row = table[context, text] = (idx, cnt.astype(np.float32))
        return row

    @contextmanager
    def training(self):
        """Keep the feature table for the steps of one training call."""
        self._table = {}
        try:
            yield
        finally:
            self._table = None

    def scores(self, context: str, texts: Sequence[str]) -> list[float]:
        """Relevance of each candidate text to the context, from one batch of rows."""
        idx, cnt, cuts = self._rows(context, texts)
        weights = self.weights[idx]
        return [float(weights[s:e] @ cnt[s:e]) for s, e in zip(cuts, cuts[1:])]

    def score(self, context: str, candidate_text: str) -> float:
        """Relevance of a candidate text to its context."""
        return self.scores(context, [candidate_text])[0]

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
        """One subgradient update on the batch; returns the pre-update loss.

        The loss and update of loss_and_grad, computed from feature rows,
        with scores and the loss summed in the same order as there. The
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
    with scorer.training():
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


def softmax(scores: list[float]) -> list[float]:
    if not scores:
        return []
    arr = np.asarray(scores, dtype=np.float64)
    arr = arr - arr.max()
    exp = np.exp(arr)
    return list(exp / exp.sum())


def fuse_scores(rank_scores: list[float], beam_scores: list[float], alpha: float) -> list[float]:
    """alpha * softmax(rank) + (1 - alpha) * softmax(beam), elementwise."""
    if len(rank_scores) != len(beam_scores):
        raise ValueError("score lists must have equal length")
    return fuse_softmaxed(softmax(rank_scores), softmax(beam_scores), alpha)


def fuse_softmaxed(p: Sequence[float], q: Sequence[float], alpha: float) -> list[float]:
    """The fusion formula, alpha * p + (1 - alpha) * q elementwise, over softmaxed scores."""
    return [alpha * pi + (1.0 - alpha) * qi for pi, qi in zip(p, q)]


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
    """Select final triggers: fused score strictly above theta.

    With scorer=None the cached rank scores on the candidates are used
    (selection sweeps over precomputed scores). Returns the union of parsed
    triggers of the selected candidates, deduplicated, in first-appearance
    order; the explicit no-event candidate contributes no triggers.
    """
    if scorer is not None:
        scored = score_candidates(candidates, scorer)
    else:
        if any(c.rank_score is None for c in candidates.candidates):
            raise ValueError("candidates carry no rank scores and no scorer was given")
        scored = candidates
    rank_scores = [c.rank_score for c in scored.candidates]
    beam_scores = [c.beam_score for c in scored.candidates]
    fused = fuse_scores(rank_scores, beam_scores, cfg.alpha)
    return selected_triggers(scored, kept_indices(fused, cfg.theta))


def kept_indices(fused: Sequence[float], theta: float) -> tuple[int, ...]:
    """The selection rule: indices of the fused scores strictly above theta,
    ascending. An exact tie at theta selects nothing."""
    return tuple(i for i, score in enumerate(fused) if score > theta)


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
