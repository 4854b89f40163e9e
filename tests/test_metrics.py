import random

import numpy as np
import pytest

from evex.events import ArgumentPair, ContextInstance, EventFrame, Trigger
from evex.metrics import (
    ARG_C,
    ARG_I,
    SUBTASKS,
    TRIG_C,
    TRIG_I,
    evaluate_corpus,
    f1_from_counts,
    match_count_matrix,
)

from util import oracle_corpus_counts, oracle_match, random_gold_corpus, random_pred_frames


def fig1_frames():
    """Two events with three arguments total: a transport (went -> home) and
    an attack (killed -> father-in-law, home)."""
    transport = EventFrame(
        Trigger("went", "Transport"), (ArgumentPair("Destination", "home"),)
    )
    attack = EventFrame(
        Trigger("killed", "Attack"),
        (ArgumentPair("Agent", "father-in-law"), ArgumentPair("Place", "home")),
    )
    return [transport, attack]


def match(pred, gold, subtask):
    """(n_correct, n_pred, n_gold) of one instance from the production rule, match_count_matrix
    with one row that predicts every frame; each worked example also asks the oracle."""
    got = tuple(match_count_matrix(np.ones((1, len(pred))), [(pred, gold)])[0, SUBTASKS.index(subtask)].tolist())
    assert got == oracle_match(pred, gold, subtask)
    return got


def test_perfect_prediction_on_two_event_example():
    frames = fig1_frames()
    assert match(frames, frames, TRIG_C) == (2, 2, 2)
    assert match(frames, frames, ARG_C) == (3, 3, 3)


def test_word_match_type_mismatch():
    pred = [EventFrame(Trigger("went", "Attack"))]
    gold = [EventFrame(Trigger("went", "Movement_Transport"))]
    assert match(pred, gold, TRIG_I) == (1, 1, 1)
    assert match(pred, gold, TRIG_C) == (0, 1, 1)


def test_argument_identification_vs_classification():
    pred = [EventFrame(Trigger("hit", "Attack"), (ArgumentPair("Destination", "home"),))]
    gold = [EventFrame(Trigger("hit", "Attack"), (ArgumentPair("Place", "home"),))]
    assert match(pred, gold, ARG_I) == (1, 1, 1)
    assert match(pred, gold, ARG_C) == (0, 1, 1)


def test_multiset_matching_caps_duplicates():
    gold = [EventFrame(Trigger("fired", "Attack"))]
    pred = [EventFrame(Trigger("fired", "Attack")), EventFrame(Trigger("fired", "Attack"))]
    n_correct, n_pred, n_gold = match(pred, gold, TRIG_C)
    assert (n_correct, n_pred, n_gold) == (1, 2, 1)


def test_f1_hand_example():
    assert f1_from_counts(3, 4, 6) == (0.75, 0.5, 0.6)


def test_f1_degenerate_cases():
    assert f1_from_counts(0, 0, 5) == (0.0, 0.0, 0.0)
    assert f1_from_counts(5, 5, 5) == (1.0, 1.0, 1.0)
    assert f1_from_counts(0, 0, 0) == (0.0, 0.0, 0.0)


def test_f1_precondition_violations():
    with pytest.raises(ValueError):
        f1_from_counts(3, 2, 6)
    with pytest.raises(ValueError):
        f1_from_counts(-1, 2, 2)


def test_identical_predictions_score_one():
    rng = random.Random(41)
    gold = random_gold_corpus(rng)
    predictions = [(g.doc_id, list(g.gold_frames)) for g in gold]
    report = evaluate_corpus(predictions, gold)
    for name in SUBTASKS:
        score = report.score(name)
        if score.n_gold:
            assert score.f1 == 1.0


def test_empty_predictions_preserve_gold_counts():
    rng = random.Random(42)
    gold = random_gold_corpus(rng)
    report = evaluate_corpus([], gold)
    total_gold_triggers = sum(len(g.gold_frames) for g in gold)
    assert report.trig_c.n_gold == total_gold_triggers
    assert report.trig_c.f1 == 0.0 and report.trig_c.n_pred == 0


def test_unknown_doc_id_raises():
    gold = [ContextInstance("d1", "a b c", ())]
    with pytest.raises(ValueError, match="ghost"):
        evaluate_corpus([("ghost", [])], gold)


def test_repeated_prediction_doc_id_raises():
    gold = [
        ContextInstance(
            "d1", "x fired y", (EventFrame(Trigger("fired", "Attack")), EventFrame(Trigger("x", "B")))
        )
    ]
    rows = [
        ("d1", [EventFrame(Trigger("fired", "Attack"))]),
        ("d1", [EventFrame(Trigger("x", "B"))]),
    ]
    with pytest.raises(ValueError, match="repeated doc_id in predictions: 'd1'"):
        evaluate_corpus(rows, gold)


def test_corpus_evaluation_matches_bruteforce_oracle():
    rng = random.Random(43)
    for _ in range(50):
        gold = random_gold_corpus(rng, n=rng.randint(3, 15))
        predictions = random_pred_frames(rng, gold)
        report = evaluate_corpus(list(predictions.items()), gold)
        for name in SUBTASKS:
            expected = oracle_corpus_counts(predictions, gold, name)
            got = report.score(name)
            assert (got.n_correct, got.n_pred, got.n_gold) == expected


def test_ordering_invariants_on_random_corpora():
    rng = random.Random(44)
    for _ in range(50):
        gold = random_gold_corpus(rng, n=rng.randint(3, 12))
        predictions = random_pred_frames(rng, gold)
        report = evaluate_corpus(list(predictions.items()), gold)
        assert report.arg_c.n_correct <= report.arg_i.n_correct
        assert report.trig_c.n_correct <= report.trig_i.n_correct


def test_permutation_invariance():
    rng = random.Random(45)
    gold = random_gold_corpus(rng, n=10)
    predictions = random_pred_frames(rng, gold)
    rows = list(predictions.items())
    base = evaluate_corpus(rows, gold).to_dict()
    rng.shuffle(rows)
    shuffled_gold = list(gold)
    rng.shuffle(shuffled_gold)
    shuffled_rows = [(doc, list(reversed(frames))) for doc, frames in rows]
    assert evaluate_corpus(shuffled_rows, shuffled_gold).to_dict() == base


def test_match_count_matrix_equals_oracle_per_row():
    rng = random.Random(61)
    corpus = random_gold_corpus(rng, n=40)  # shared vocabulary: repeated keys in gold and in predictions
    predictions = random_pred_frames(rng, corpus)
    for instance in corpus:
        gold = list(instance.gold_frames)
        frames = predictions[instance.doc_id] + [f for i in corpus[:3] for f in i.gold_frames]
        selected = np.array([[rng.random() < 0.5 for _ in frames] for _ in range(rng.randint(1, 6))], dtype=bool)
        counts = match_count_matrix(selected, [(frames, gold)])
        assert counts.shape == (len(selected), len(SUBTASKS), 3)
        for row, row_counts in zip(selected, counts.tolist()):
            chosen = [frame for frame, keep in zip(frames, row) if keep]
            assert row_counts == [list(oracle_match(chosen, gold, name)) for name in SUBTASKS]
    # no docs; one doc with no frames and no gold
    assert match_count_matrix(np.zeros((2, 0), dtype=bool), []).tolist() == [[[0, 0, 0]] * 4] * 2
    assert match_count_matrix(np.zeros((2, 0), dtype=bool), [([], [])]).tolist() == [[[0, 0, 0]] * 4] * 2


def test_match_count_matrix_over_many_docs_equals_oracle_sum_per_row():
    """One call over several docs: each row's counts are the sum over docs of the oracle's.
    Keys equal across docs (a shared vocabulary, other docs' gold frames among the
    predictions) must not match, and each row's counts must stay its own."""
    rng = random.Random(62)
    for _ in range(30):
        corpus = random_gold_corpus(rng, n=rng.randint(2, 8))
        predictions = random_pred_frames(rng, corpus)
        docs = [
            (predictions[i.doc_id] + list(rng.choice(corpus).gold_frames), list(i.gold_frames)) for i in corpus
        ]
        n_frames = sum(len(frames) for frames, _ in docs)
        selected = np.array([[rng.random() < 0.5 for _ in range(n_frames)] for _ in range(rng.randint(2, 6))])
        counts = match_count_matrix(selected, docs)
        for row, row_counts in zip(selected.tolist(), counts.tolist()):
            expected = np.zeros((len(SUBTASKS), 3), dtype=np.int64)
            start = 0
            for frames, gold in docs:
                chosen = [frame for frame, keep in zip(frames, row[start : start + len(frames)]) if keep]
                expected += [oracle_match(chosen, gold, name) for name in SUBTASKS]
                start += len(frames)
            assert row_counts == expected.tolist()


def test_a_frame_matches_only_the_gold_of_its_own_doc():
    """Doc A predicts doc B's gold frame and doc B predicts nothing: no frame is correct."""
    attack = EventFrame(Trigger("fired", "Attack"), (ArgumentPair("Target", "troops"),))
    docs = [([attack], []), ([], [attack])]  # (predicted frames, gold frames) of docs A and B
    counts = match_count_matrix(np.ones((1, 1)), docs)[0]
    assert counts.tolist() == [[0, 1, 1]] * 4
    gold = [ContextInstance("a", "guns fired at troops", ()), ContextInstance("b", "guns fired at troops", (attack,))]
    report = evaluate_corpus([("a", [attack])], gold)
    assert [(report.score(name).n_correct, report.score(name).n_pred) for name in SUBTASKS] == [(0, 1)] * 4
