import json
import math
import random
from itertools import compress

import numpy as np
import pytest

from evex.codec import CodecConfig
from evex.events import Trigger
from evex.generation import CandidateList, TriggerCandidate
from evex.selector import (
    HashedNgramScorer,
    SelectionConfig,
    SelectorTrainConfig,
    fuse_and_select,
    fuse_scores,
    hinge_loss,
    sample_negatives,
    score_candidates,
    select,
    softmax,
    train_selector,
)
from evex.synthetic import make_synthetic_corpus, noisy_script, ontology_from_corpus

from util import oracle_fuse_select, oracle_selected_triggers, reference_features, reference_score

CFG = CodecConfig()


def make_candidates(texts_scores, context="some context .", doc_id="d"):
    candidates = []
    for text, score in texts_scores:
        word = text.split(" [")[0]
        triggers = () if text == "[none]" else (Trigger(word, text.rsplit("[", 1)[1].rstrip("]")),)
        candidates.append(TriggerCandidate(text, triggers, score))
    return CandidateList(doc_id, context, tuple(candidates))


def test_selector_train_config_validation():
    with pytest.raises(ValueError):
        SelectorTrainConfig(margin=1.5)
    with pytest.raises(ValueError):
        SelectorTrainConfig(negatives_k=0)
    with pytest.raises(ValueError):
        SelectorTrainConfig(learning_rate=0.0)
    cfg = SelectorTrainConfig()
    assert (cfg.margin, cfg.negatives_k, cfg.learning_rate) == (0.5, 5, 0.005)


def test_selection_config_defaults_and_bounds():
    cfg = SelectionConfig()
    assert (cfg.alpha, cfg.theta) == (0.4, 0.2)
    with pytest.raises(ValueError):
        SelectionConfig(alpha=1.2)
    with pytest.raises(ValueError):
        SelectionConfig(theta=-0.1)


def test_hinge_loss_worked_example_exact():
    assert hinge_loss([0.8], [0.3, 0.9], 0.5) == 0.6


def test_hinge_loss_margin_zero_tie():
    assert hinge_loss([0.4], [0.4], 0.0) == 0.0


def test_hinge_loss_well_separated():
    assert hinge_loss([1.0, 1.0], [0.0], 0.5) == 0.0


def test_hinge_loss_empty_list_errors():
    with pytest.raises(ValueError):
        hinge_loss([], [0.1], 0.5)
    with pytest.raises(ValueError):
        hinge_loss([0.1], [], 0.5)


def test_hinge_loss_shift_invariance():
    rng = random.Random(6)
    for _ in range(100):
        pos = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))]
        neg = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))]
        margin = rng.uniform(-1, 1)
        shift = rng.uniform(-5, 5)
        base = hinge_loss(pos, neg, margin)
        shifted = hinge_loss([p + shift for p in pos], [n + shift for n in neg], margin)
        assert shifted == pytest.approx(base, abs=1e-9)


def test_sample_negatives_exhaustion():
    cl = make_candidates(
        [(f"good{i} [T]", -0.1 * i) for i in range(6)]
        + [(f"bad{i} [T]", -1.0 - 0.1 * i) for i in range(4)]
    )
    gold = [Trigger(f"good{i}", "T") for i in range(6)]
    negatives = sample_negatives(cl, gold, k=5, seed=0)
    assert sorted(negatives) == [f"bad{i} [T]" for i in range(4)]


def test_sample_negatives_all_correct():
    cl = make_candidates([("a [T]", -0.1)])
    assert sample_negatives(cl, [Trigger("a", "T")], k=5, seed=0) == []


def test_sample_negatives_deterministic_under_seed():
    cl = make_candidates([(f"bad{i} [T]", -0.1 * i) for i in range(8)])
    first = sample_negatives(cl, [Trigger("zz", "T")], k=5, seed=42)
    second = sample_negatives(cl, [Trigger("zz", "T")], k=5, seed=42)
    assert first == second and len(first) == 5


def test_sample_negatives_excludes_any_gold_overlap():
    cl = make_candidates([("a [T]", -0.1), ("b [T]", -0.2), ("[none]", -0.3)])
    negatives = sample_negatives(cl, [Trigger("a", "T")], k=5, seed=1)
    # the no-event candidate shares no trigger with gold, so it is a valid negative
    assert sorted(negatives) == ["[none]", "b [T]"]


def test_zero_init_scorer_margin_zero_first_loss_is_zero():
    scorer = HashedNgramScorer(dim=2**12)
    batch = [("ctx a", "pos [T]", ["neg [T]", "worse [T]"])]
    assert scorer.train_step(batch, margin=0.0, learning_rate=0.01) == 0.0


def test_scorer_save_load_roundtrip(tmp_path):
    scorer = HashedNgramScorer(dim=2**12)
    scorer.train_step([("ctx", "pos [T]", ["neg [T]"])], margin=0.5, learning_rate=0.05)
    path = tmp_path / "scorer.json"
    scorer.save(path)
    loaded = HashedNgramScorer.from_dict(json.loads(path.read_text()))
    for text in ("pos [T]", "neg [T]", "other [U]"):
        assert loaded.score("ctx", text) == scorer.score("ctx", text)


def test_scorer_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "scorer.json"
    path.write_text('{"format": "other/9", "dim": 8, "word_ngrams": [1], "char_ngrams": [], "weights": {}}')
    with pytest.raises(ValueError, match="format"):
        HashedNgramScorer.from_dict(json.loads(path.read_text()))


ODD_PIECES = [
    "a", "Bc", " ", "\t", "\n", "ß", "ẞ", "İ", "ǅ", "ΟΔΟΣ", "ς", "[", "]", "[]",
    "||", "|", "😀", "[none]", "x [T]",
]


def featurizer_pairs(rng):
    """Shuffled (context, text) pairs from the synthetic corpus and its noisy
    beams, and random strings of odd pieces; contexts interleave (A, B, A)."""
    instances = make_synthetic_corpus(seed=5).all_instances()[:12]
    script = noisy_script(instances, ontology_from_corpus(instances), seed=5)
    contexts = [i.context for i in instances]
    texts = sorted({t for hypotheses in script.values() for t, _ in hypotheses})
    texts = rng.sample(texts, 12)
    for _ in range(8):
        contexts.append("".join(rng.choice(ODD_PIECES) for _ in range(rng.randint(1, 12))))
        texts.append("".join(rng.choice(ODD_PIECES) for _ in range(rng.randint(1, 8))))
    contexts += ["", " \t\n"]
    texts += ["", " \n", "😀"]
    pairs = [(c, t) for c in contexts for t in rng.sample(texts, 6)]
    return pairs + rng.sample(pairs, len(pairs))


def candidate_side_score(scorer, context, text):
    return reference_score(scorer, reference_features(scorer, context, text, candidate_side=True))


@pytest.mark.parametrize("word_ngrams, char_ngrams", [((1, 2), (3, 4)), ((1, 2, 3), (2, 5)), ((1,), (1,)), ((), (3,))])
@pytest.mark.parametrize("dim", [7, 64, 2**18])
def test_features_match_whole_pair_reference(dim, word_ngrams, char_ngrams):
    """A training row is the whole pair's reference features; a scoring row, and the
    score, come from the reference's candidate side."""
    rng = random.Random(dim)
    scorer = HashedNgramScorer(dim=dim, word_ngrams=word_ngrams, char_ngrams=char_ngrams)
    scorer.weights = np.random.default_rng(dim).normal(size=dim)
    for context, text in featurizer_pairs(rng):
        for whole_pair in (True, False):
            want = reference_features(scorer, context, text, candidate_side=not whole_pair)
            idx, cnt, _ = scorer._rows(context, [text], whole_pair)
            assert list(zip(idx.tolist(), cnt.tolist())) == list(want.items())
        assert scorer.score(context, text) == candidate_side_score(scorer, context, text)


@pytest.mark.parametrize("dim", [7, 2**18])
def test_rows_across_memo_resets_match_a_fresh_scorer(dim):
    rng = random.Random(40 + dim)
    weights = np.random.default_rng(dim).normal(size=dim)
    capped = HashedNgramScorer(dim=dim)
    capped.MEMO_SIZE = 64  # a few pairs fill it
    capped.weights = weights
    resets = []
    reset_memos = capped._reset_memos
    capped._reset_memos = lambda: (resets.append(1), reset_memos())
    for context, text in featurizer_pairs(rng):
        fresh = HashedNgramScorer(dim=dim)
        fresh.weights = weights
        (got_idx, got_cnt), (want_idx, want_cnt) = capped._rows(context, [text])[:2], fresh._rows(context, [text])[:2]
        assert got_idx.tolist() == want_idx.tolist() and got_cnt.tolist() == want_cnt.tolist()
        assert capped.score(context, text) == fresh.score(context, text)
    assert len(resets) > 20


def texts_by_context(pairs):
    """The texts of each context in pair order, repeats kept."""
    grouped: dict[str, list[str]] = {}
    for context, text in pairs:
        grouped.setdefault(context, []).append(text)
    return grouped


@pytest.mark.parametrize("word_ngrams, char_ngrams", [((1, 2), (3, 4)), ((1, 2, 3), (2, 5)), ((1,), (1,)), ((), (3,))])
@pytest.mark.parametrize("dim", [7, 64, 2**18])
def test_batched_scores_match_whole_pair_reference(dim, word_ngrams, char_ngrams):
    """A batch of training rows is the whole pairs' reference features; batched scores
    are those of the reference's candidate side."""
    rng = random.Random(dim)
    scorer = HashedNgramScorer(dim=dim, word_ngrams=word_ngrams, char_ngrams=char_ngrams)
    scorer.weights = np.random.default_rng(dim).normal(size=dim)
    for context, texts in texts_by_context(featurizer_pairs(rng)).items():
        idx, cnt, cuts = scorer._rows(context, texts)
        rows = [list(zip(idx[s:e].tolist(), cnt[s:e].tolist())) for s, e in zip(cuts, cuts[1:])]
        assert rows == [list(reference_features(scorer, context, text).items()) for text in texts]
        want = [candidate_side_score(scorer, context, text) for text in texts]
        assert scorer.scores(context, texts) == want
        assert [scorer.score(context, text) for text in texts] == want


def test_whole_pair_and_candidate_side_scores_differ_by_one_constant_per_context():
    """The prefix's n-grams add the same to every text of a context, so the candidate-side
    scores select as the whole-pair ones do: softmax takes the constant out."""
    rng = random.Random(70)
    scorer = HashedNgramScorer(dim=2**18)
    scorer.weights = np.random.default_rng(70).normal(size=scorer.dim)
    shares = []
    for context, texts in texts_by_context(featurizer_pairs(rng)).items():
        whole = np.array([reference_score(scorer, reference_features(scorer, context, text)) for text in texts])
        side = np.array(scorer.scores(context, texts))
        assert np.ptp(whole - side) <= 1e-9
        assert np.abs(softmax(whole) - softmax(side)).max() <= 1e-12
        shares.append(abs(whole[0] - side[0]))
    assert max(shares) > 1.0  # the prefix's share is not zero: the two forms differ


def test_batched_scores_edge_cases():
    scorer = HashedNgramScorer(dim=2**18)
    scorer.weights = np.random.default_rng(3).normal(size=scorer.dim)
    context = "troops fired on the crowd ."
    assert scorer.scores(context, []) == []
    texts = ["fired [Attack]", "", "fired [Attack]", "crowd [Meet]", "", "fired [Attack]"]
    want = [candidate_side_score(scorer, context, t) for t in texts]
    assert scorer.scores(context, texts) == want
    assert want[1] == 0.0  # an empty text has no candidate side: no n-gram but the prefix's
    rng = random.Random(9)
    words = ["fired", "crowd", "bomb", "ẞtraße", "||", "[and]", "x", "😀"]
    texts = [f"{' '.join(rng.choices(words, k=rng.randint(1, 6)))} [T{i}]" for i in range(300)]
    got = scorer.scores(context, texts)
    assert got == [candidate_side_score(scorer, context, t) for t in texts]


def numpy_attributes(scorer):
    return {name: value.shape for name, value in vars(scorer).items() if isinstance(value, np.ndarray)}


def test_scoring_keeps_no_array_sized_by_a_call():
    """The scratch of a batch lives for its call: a long list leaves only the weights."""
    scorer = HashedNgramScorer(dim=2**18)
    before = numpy_attributes(scorer)
    rng = random.Random(11)
    words = ["fired", "crowd", "bomb", "x", "[and]"]
    texts = [f"{' '.join(rng.choices(words, k=rng.randint(1, 6)))} [T{i}]" for i in range(300)]
    scorer.scores("troops fired on the crowd .", texts)
    assert numpy_attributes(scorer) == before == {"weights": (2**18,)}


def memo_entries(scorer):
    return len(scorer._text_memo) + sum(map(len, scorer._grams))


@pytest.mark.parametrize("dim", [7, 2**18])
def test_memos_exceed_the_cap_by_at_most_one_calls_new_entries(dim):
    rng = random.Random(60 + dim)
    capped = HashedNgramScorer(dim=dim)
    capped.MEMO_SIZE = 64
    grew_past_cap = False
    for context, texts in texts_by_context(featurizer_pairs(rng)).items():
        fresh = HashedNgramScorer(dim=dim)
        fresh.scores(context, texts)  # from empty memos: every entry the call can add
        capped.scores(context, texts)
        assert memo_entries(capped) < capped.MEMO_SIZE + memo_entries(fresh)
        grew_past_cap |= memo_entries(capped) > capped.MEMO_SIZE
    assert grew_past_cap


@pytest.mark.parametrize("dim", [7, 2**18])
def test_batched_scores_across_memo_resets_match_a_fresh_scorer(dim):
    rng = random.Random(50 + dim)
    weights = np.random.default_rng(dim).normal(size=dim)
    capped = HashedNgramScorer(dim=dim)
    capped.MEMO_SIZE = 48  # a call or two fills it (scoring rows add no prefix n-grams to the memos)
    capped.weights = weights
    resets = []
    reset_memos = capped._reset_memos
    capped._reset_memos = lambda: (resets.append(1), reset_memos())
    for context, texts in texts_by_context(featurizer_pairs(rng)).items():
        fresh = HashedNgramScorer(dim=dim)
        fresh.weights = weights
        assert capped.scores(context, texts) == fresh.scores(context, texts)
    assert len(resets) > 20


def test_junction_memo_is_keyed_by_the_prefix_tail():
    """Under word trigrams and char 5-grams the junction reaches past "||" into
    the context, so one text after two contexts has two junctions."""
    scorer = HashedNgramScorer(dim=2**18, word_ngrams=(1, 2, 3), char_ngrams=(2, 5))
    scorer.weights = np.random.default_rng(4).normal(size=scorer.dim)
    text = "fired [Attack]"
    for context in ("troops fired", "a bomb exploded", "troops fired"):
        assert scorer.scores(context, [text]) == [candidate_side_score(scorer, context, text)]
    assert scorer.score("troops fired", text) != scorer.score("a bomb exploded", text)


def test_scorer_rejects_nonpositive_ngram_length():
    with pytest.raises(ValueError, match="n-gram"):
        HashedNgramScorer(dim=64, word_ngrams=(0, 1))
    with pytest.raises(ValueError, match="n-gram"):
        HashedNgramScorer(dim=64, char_ngrams=(-1,))
    with pytest.raises(ValueError, match="n-gram"):  # no feature at all: every score would be 0
        HashedNgramScorer(dim=64, word_ngrams=(), char_ngrams=())
    HashedNgramScorer(dim=64, word_ngrams=(), char_ngrams=(3,))  # one empty family is fine


def test_scorer_dim_lies_in_the_crc32_range():
    HashedNgramScorer(dim=1)
    for dim in (0, 2**32 + 1, 2**40, 2**62, 10**400):  # checked by rule, before numpy allocates
        with pytest.raises(ValueError, match=r"dim must be in \[1, 2\*\*32\]"):
            HashedNgramScorer(dim=dim)


def test_scorer_weights_past_memory_are_a_dim_error(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "zeros", no_memory)
    with pytest.raises(ValueError, match="dim 1024 is more weights than memory holds"):
        HashedNgramScorer(dim=1024)


def test_scores_follow_weight_changes_after_memoised_scoring():
    rng = random.Random(31)
    pairs = featurizer_pairs(rng)[:60]
    scorer = HashedNgramScorer(dim=2**10)
    scorer.weights = np.random.default_rng(31).normal(size=scorer.dim)
    before = [scorer.score(c, t) for c, t in pairs]

    def assert_scores_as_fresh_scorer():
        fresh = HashedNgramScorer(dim=scorer.dim)
        fresh.weights = scorer.weights.copy()
        got = [scorer.score(c, t) for c, t in pairs]
        assert got == [fresh.score(c, t) for c, t in pairs]
        assert got != before

    context, text = pairs[0]
    scorer.train_step([(context, text, [t for c, t in pairs[1:4]])], margin=5.0, learning_rate=0.1)
    assert_scores_as_fresh_scorer()
    scorer.weights = np.random.default_rng(32).normal(size=scorer.dim)
    assert_scores_as_fresh_scorer()


def test_analytic_subgradient_matches_central_differences():
    rng = random.Random(17)
    scorer = HashedNgramScorer(dim=2**10)
    checked = 0
    while checked < 100:
        scorer.weights = np.asarray([rng.uniform(-1, 1) for _ in range(scorer.dim)])
        batch = [
            (
                " ".join(f"w{rng.randrange(30)}" for _ in range(6)),
                f"p{rng.randrange(20)} [T{rng.randrange(3)}]",
                [f"n{rng.randrange(20)} [T{rng.randrange(3)}]" for _ in range(rng.randint(1, 3))],
            )
        ]
        margin = rng.uniform(-0.5, 0.5)
        # stay away from hinge kinks so the two-sided difference is clean
        kink_gap = min(
            abs(margin - scorer.score(c, p) + scorer.score(c, n))
            for c, p, negs in batch
            for n in negs
        )
        if kink_gap < 1e-3:
            continue
        loss, grad = scorer.loss_and_grad(batch, margin)
        active = [i for i, g in grad.items() if g != 0.0]
        coord = rng.choice(active) if active else rng.randrange(scorer.dim)
        h = 1e-5
        original = scorer.weights[coord]
        scorer.weights[coord] = original + h
        up, _ = scorer.loss_and_grad(batch, margin)
        scorer.weights[coord] = original - h
        down, _ = scorer.loss_and_grad(batch, margin)
        scorer.weights[coord] = original
        numeric = (up - down) / (2 * h)
        analytic = grad.get(coord, 0.0)
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom < 1e-4
        checked += 1


def separable_training_data(rng, n=30):
    """Positives share a marker token the negatives never carry."""
    data = []
    for i in range(n):
        context = " ".join(f"c{rng.randrange(50)}" for _ in range(5))
        gold = [Trigger(f"gold{i % 7}", "T")]
        candidates = make_candidates(
            [(f"gold{i % 7} [T]", -0.1)]
            + [(f"junk{rng.randrange(9)} [T]", -0.5 - 0.1 * j) for j in range(3)],
            context=context,
            doc_id=f"d{i}",
        )
        data.append((context, gold, candidates))
    return data


def test_train_selector_loss_decreases_on_separable_data():
    rng = random.Random(23)
    data = separable_training_data(rng)
    scorer = HashedNgramScorer(dim=2**14)
    result = train_selector(scorer, data, SelectorTrainConfig(epochs=8, seed=0))
    assert result.loss_per_epoch[-1] < result.loss_per_epoch[0]
    assert result.n_trained == len(data)
    # trained scorer ranks a gold text above a junk text in its own context
    context, gold, candidates = data[0]
    gold_text = f"{gold[0].word} [T]"
    junk_texts = [c.raw_text for c in candidates.candidates if not c.raw_text.startswith("gold")]
    assert scorer.score(context, gold_text) > max(scorer.score(context, t) for t in junk_texts)


class DictUpdateScorer(HashedNgramScorer):
    """The reference update, apart from the scorer's rows and hinge pass: whole-pair
    features (reference_features), a dict subgradient, applied index by index."""

    def train_step(self, batch, margin, learning_rate):
        loss, grad = 0.0, {}
        for context, positive, negatives in batch:
            pos = reference_features(self, context, positive)
            pos_score = reference_score(self, pos)
            for negative in negatives:
                neg = reference_features(self, context, negative)
                term = margin - pos_score + reference_score(self, neg)
                if term > 0.0:
                    loss += term
                    for idx, count in pos.items():
                        grad[idx] = grad.get(idx, 0.0) - count
                    for idx, count in neg.items():
                        grad[idx] = grad.get(idx, 0.0) + count
        for idx, val in grad.items():
            self.weights[idx] -= learning_rate * val
        return loss


def test_train_selector_matches_dict_reference():
    rng = random.Random(24)
    data = []
    for i in range(25):
        context = " ".join(f"c{rng.randrange(50)}" for _ in range(5))
        gold = [Trigger(f"g{rng.randrange(9)}", f"T{j}") for j in range(rng.randint(0, 2))]
        texts = [(f"{t.word} [{t.event_type}]", -0.1) for t in gold]
        texts += [(f"j{rng.randrange(12)} [T{rng.randrange(2)}]", -0.5 - 0.1 * k) for k in range(rng.randint(0, 7))]
        data.append((context, gold, make_candidates(texts, context=context, doc_id=f"d{i}")))
    # dim 64 makes hash collisions within and across pairs certain
    for dim, seed in ((64, 0), (64, 1), (2**12, 2)):
        cfg = SelectorTrainConfig(epochs=6, negatives_k=3, learning_rate=0.05, seed=seed)
        ours, reference = HashedNgramScorer(dim=dim), DictUpdateScorer(dim=dim)
        # the second call trains on from the first's weights, with the feature rows the first kept
        for _ in range(2):
            got = train_selector(ours, data, cfg)
            want = train_selector(reference, data, cfg)
            assert got.loss_per_epoch == want.loss_per_epoch
            assert np.array_equal(ours.weights, reference.weights)
        assert np.count_nonzero(ours.weights) > 0


def test_hinge_builds_a_contexts_missing_rows_in_one_call(monkeypatch):
    """A batch of 3 items over one context (3 gold triggers) builds its rows in one _rows call."""
    scorer, want = HashedNgramScorer(dim=2**10), DictUpdateScorer(dim=2**10)
    calls = []
    rows = scorer._rows
    monkeypatch.setattr(scorer, "_rows", lambda context, texts: (calls.append(list(texts)), rows(context, texts))[1])
    batch = [("a b c", positive, ["x [T]", "y [U]"]) for positive in ("a [T]", "b [T]", "c [U]")]
    for _ in range(2):  # the second step reads every row from the table
        assert scorer.train_step(batch, 0.5, 0.1) == want.train_step(batch, 0.5, 0.1)
    assert calls == [["a [T]", "x [T]", "y [U]", "b [T]", "c [U]"]]
    assert np.array_equal(scorer.weights, want.weights)


def test_train_selector_all_gold_candidates_is_untrainable():
    cl = make_candidates([("a [T]", -0.1)])
    data = [("ctx", [Trigger("a", "T")], cl)]
    with pytest.raises(ValueError, match="untrainable"):
        train_selector(HashedNgramScorer(dim=256), data, SelectorTrainConfig(epochs=1))


def test_train_selector_empty_data_errors():
    with pytest.raises(ValueError):
        train_selector(HashedNgramScorer(dim=256), [], SelectorTrainConfig(epochs=1))


def test_train_selector_skips_and_counts_unusable_rows():
    rng = random.Random(2)
    data = separable_training_data(rng, n=5)
    data.append(("quiet ctx", [], make_candidates([("x [T]", -0.1)], context="quiet ctx")))
    scorer = HashedNgramScorer(dim=2**12)
    result = train_selector(scorer, data, SelectorTrainConfig(epochs=2, seed=1))
    assert result.n_skipped == 1 and result.n_trained == 5


def test_softmax_singleton_and_stability():
    assert softmax([3.7]) == [1.0]
    big = softmax([1000.0, 999.0])
    assert big[0] > big[1] and abs(sum(big) - 1.0) < 1e-12


def test_fuse_worked_example():
    fused = fuse_scores([2.0, 0.0], [0.0, 0.0], alpha=0.4)
    assert fused[0] == pytest.approx(0.6523, abs=5e-5)
    assert fused[1] == pytest.approx(0.3477, abs=5e-5)
    cl = make_candidates([("a [T]", 0.0), ("b [T]", 0.0)]).with_rank_scores([2.0, 0.0])
    both = fuse_and_select(cl, scorer=None, cfg=SelectionConfig(alpha=0.4, theta=0.2))
    assert [t.word for t in both] == ["a", "b"]
    first_only = fuse_and_select(cl, scorer=None, cfg=SelectionConfig(alpha=0.4, theta=0.35))
    assert [t.word for t in first_only] == ["a"]


def test_single_candidate_fused_is_one():
    cl = make_candidates([("a [T]", -4.2)]).with_rank_scores([1.3])
    assert fuse_scores([1.3], [-4.2], alpha=0.7) == [1.0]
    assert fuse_and_select(cl, scorer=None, cfg=SelectionConfig(alpha=0.7, theta=0.99)) == [Trigger("a", "T")]


def test_alpha_zero_uses_beam_only():
    cl = make_candidates([("a [T]", 0.0), ("b [T]", -3.0)])
    low_rank = cl.with_rank_scores([-100.0, 100.0])
    high_rank = cl.with_rank_scores([100.0, -100.0])
    cfg = SelectionConfig(alpha=0.0, theta=0.5)
    assert fuse_and_select(low_rank, None, cfg) == fuse_and_select(high_rank, None, cfg)


def test_fused_scores_sum_to_one_and_bounds():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 10)
        fused = fuse_scores(
            [rng.uniform(-5, 5) for _ in range(n)],
            [rng.uniform(-10, 0) for _ in range(n)],
            alpha=rng.random(),
        )
        assert abs(sum(fused) - 1.0) < 1e-9
        assert all(0.0 <= f <= 1.0 for f in fused)


def test_fusion_monotonicity_in_rank_score():
    rng = random.Random(32)
    for _ in range(100):
        n = rng.randint(2, 8)
        ranks = [rng.uniform(-3, 3) for _ in range(n)]
        beams = [rng.uniform(-5, 0) for _ in range(n)]
        alpha = rng.random()
        base = fuse_scores(ranks, beams, alpha)
        i = rng.randrange(n)
        bumped = list(ranks)
        bumped[i] += rng.uniform(0.1, 2.0)
        after = fuse_scores(bumped, beams, alpha)
        assert after[i] >= base[i] - 1e-12
        for j in range(n):
            if j != i:
                assert after[j] <= base[j] + 1e-12


def test_selection_permutation_invariance():
    rng = random.Random(33)
    texts = [(f"w{i} [T{i}]", rng.uniform(-3, 0)) for i in range(6)]
    ranks = [rng.uniform(-2, 2) for _ in range(6)]
    cl = make_candidates(texts).with_rank_scores(ranks)
    cfg = SelectionConfig(alpha=0.6, theta=0.15)
    base = set(fuse_and_select(cl, None, cfg))
    order = list(range(6))
    rng.shuffle(order)
    shuffled = CandidateList(cl.doc_id, cl.context, tuple(cl.candidates[i] for i in order))
    assert set(fuse_and_select(shuffled, None, cfg)) == base


def test_theta_boundaries():
    rng = random.Random(34)
    cl = make_candidates([(f"w{i} [T]", rng.uniform(-3, 0)) for i in range(5)])
    cl = cl.with_rank_scores([rng.uniform(-2, 2) for _ in range(5)])
    everything = fuse_and_select(cl, None, SelectionConfig(alpha=0.5, theta=0.0))
    assert len(everything) == 5
    assert fuse_and_select(cl, None, SelectionConfig(alpha=0.5, theta=1.0)) == []


def test_empty_candidate_list_and_no_event_candidate():
    empty = CandidateList("d", "ctx", ())
    assert fuse_and_select(empty, None, SelectionConfig()) == []
    cl = make_candidates([("[none]", -0.1), ("w [T]", -5.0)]).with_rank_scores([0.0, 0.0])
    selected = fuse_and_select(cl, None, SelectionConfig(alpha=0.5, theta=0.05))
    assert selected == [Trigger("w", "T")]  # the no-event candidate adds nothing


def test_selected_triggers_keep_their_order_over_all_candidates():
    """Selected triggers come in first-appearance order over all of the doc's
    candidates, kept or not: a dropped candidate that parses b first puts b first."""
    a, b = Trigger("a", "T"), Trigger("b", "T")
    candidates = (TriggerCandidate("b [T]", (b,), 0.0), TriggerCandidate("a [T] [and] b [T]", (a, b), 0.0))
    cl = CandidateList("d", "ctx", candidates).with_rank_scores([0.0, 5.0])
    kept, triggers, selected = select(cl, 1.0, 0.5)
    assert kept.tolist() == [False, True]
    assert triggers == [b, a] and selected.tolist() == [True, True]
    assert fuse_and_select(cl, None, SelectionConfig(alpha=1.0, theta=0.5)) == [b, a]
    assert oracle_selected_triggers(cl, 1.0, 0.5) == [b, a]


def test_select_rows_equal_its_one_cell_cases():
    """Columns of alphas and thetas give one row per cell, each the bits of that cell alone."""
    rng = random.Random(36)
    for _ in range(100):
        n = rng.randint(0, 8)
        words = [f"w{i}" for i in range(4)]
        candidates = tuple(
            TriggerCandidate(f"c{i}", tuple(Trigger(w, "T") for w in rng.sample(words, rng.randint(0, 2))),
                             rng.uniform(-4, 0), rank_score=rng.uniform(-2, 2))
            for i in range(n)
        )
        cl = CandidateList("d", "ctx", candidates)
        cells = [(rng.choice([0.0, 0.5, 1.0, rng.random()]), rng.choice([0.0, 0.25, rng.random()])) for _ in range(6)]
        alphas, thetas = np.array(cells).T[:, :, None]
        kept, triggers, selected = select(cl, alphas, thetas)
        assert kept.shape == (len(cells), n) and selected.shape == (len(cells), len(triggers))
        assert triggers == list(dict.fromkeys(t for c in candidates for t in c.triggers))
        for (alpha, theta), kept_row, selected_row in zip(cells, kept, selected):
            one_kept, one_triggers, one_selected = select(cl, alpha, theta)
            assert one_triggers == triggers
            assert one_kept.tolist() == kept_row.tolist() and one_selected.tolist() == selected_row.tolist()
            assert list(compress(triggers, one_selected)) == oracle_selected_triggers(cl, alpha, theta)


def test_fuse_and_select_requires_scores_or_scorer():
    cl = make_candidates([("a [T]", -0.1)])
    with pytest.raises(ValueError, match="rank scores"):
        fuse_and_select(cl, scorer=None, cfg=SelectionConfig())
    scored = score_candidates(cl, HashedNgramScorer(dim=256))
    assert scored.candidates[0].rank_score == 0.0


def test_selection_matches_independent_oracle():
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(1, 10)
        texts = [(f"w{i} [T{i}]", rng.uniform(-8, 0)) for i in range(n)]
        ranks = [rng.uniform(-4, 4) for _ in range(n)]
        alpha, theta = rng.random(), rng.random()
        cl = make_candidates(texts).with_rank_scores(ranks)
        beams = [c.beam_score for c in cl.candidates]
        fused, expected_idx = oracle_fuse_select(ranks, beams, alpha, theta)
        ours = fuse_scores(ranks, beams, alpha)
        assert all(abs(a - b) < 1e-12 for a, b in zip(ours, fused))
        selected = fuse_and_select(cl, None, SelectionConfig(alpha=alpha, theta=theta))
        expected = {Trigger(f"w{i}", f"T{i}") for i in expected_idx}
        assert set(selected) == expected
