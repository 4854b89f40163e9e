import csv
import random

import pytest

from evex.events import ArgumentPair, ContextInstance, EventFrame, Trigger
from evex.generation import CandidateList, TriggerCandidate
from evex.selector import SelectionConfig, fuse_scores
from evex.tuning import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_THETA_GRID,
    evaluate_selection,
    grid_search,
    sweep_selection,
    write_score_table,
)

from util import per_cell_report, safe_word


def scored_candidate(word, etype, beam, rank):
    return TriggerCandidate(f"{word} [{etype}]", (Trigger(word, etype),), beam, rank_score=rank)


def paired(doc_id, context, gold_words, candidates):
    frames = tuple(EventFrame(Trigger(w, "T")) for w in gold_words)
    instance = ContextInstance(doc_id, context, frames)
    return instance, CandidateList(doc_id, context, tuple(candidates))


def planted_dev_set():
    """Exactly one grid cell of {0, 0.5, 1} x {0.3, 0.6} selects perfectly.

    Instance one: the gold candidate wins on rank score, an impostor wins on
    beam score, so any weight below one leaks the impostor in or the gold
    out. Instance two: two golds share the rank mass (about 0.5 each), so a
    threshold of 0.6 drops them. Only (alpha=1.0, theta=0.3) is clean.
    """
    inst1 = paired(
        "d1",
        "ctx one",
        ["a"],
        [scored_candidate("a", "T", 0.0, 2.0), scored_candidate("z", "T", 2.0, 0.0)],
    )
    inst2 = paired(
        "d2",
        "ctx two",
        ["b", "c"],
        [
            scored_candidate("b", "T", 0.0, 2.0),
            scored_candidate("c", "T", 0.0, 2.0),
            scored_candidate("y", "T", 0.0, -2.0),
        ],
    )
    return [inst1, inst2]


def test_grid_search_finds_planted_optimum():
    result = grid_search(planted_dev_set(), alpha_grid=[0.0, 0.5, 1.0], theta_grid=[0.3, 0.6])
    assert (result.alpha, result.theta) == (1.0, 0.3)
    assert result.report.trig_c.f1 == 1.0
    others = [c for c in result.table if (c.alpha, c.theta) != (1.0, 0.3)]
    assert all(c.report.trig_c.f1 < 1.0 for c in others)


def test_tie_break_prefers_small_theta_then_small_alpha():
    # a single always-selected candidate makes every cell identical
    inst = paired("d", "ctx", ["a"], [scored_candidate("a", "T", -0.2, 1.0)])
    result = grid_search([inst], alpha_grid=[0.6, 0.1], theta_grid=[0.5, 0.1])
    assert (result.alpha, result.theta) == (0.1, 0.1)


def test_default_grids_contain_reported_optimum():
    assert 0.4 in DEFAULT_ALPHA_GRID
    assert 0.2 in DEFAULT_THETA_GRID
    assert all(0.0 <= v <= 1.0 for v in DEFAULT_ALPHA_GRID + DEFAULT_THETA_GRID)


def random_scored_dev(rng, n_docs=8):
    dev = []
    for i in range(n_docs):
        words = [safe_word(rng) + str(j) for j in range(rng.randint(1, 5))]
        gold = rng.sample(words, rng.randint(0, len(words)))
        candidates = [
            scored_candidate(w, "T", rng.uniform(-4, 0), rng.uniform(-2, 2)) for w in words
        ]
        dev.append(paired(f"d{i}", f"ctx {i}", gold, candidates))
    return dev


def test_returned_cell_is_table_maximum():
    rng = random.Random(51)
    for _ in range(10):
        dev = random_scored_dev(rng)
        result = grid_search(dev, alpha_grid=[0.0, 0.3, 0.7], theta_grid=[0.1, 0.25, 0.5])
        best_f1 = max(c.report.trig_c.f1 for c in result.table)
        winners = [c for c in result.table if c.report.trig_c.f1 == best_f1]
        expected = min(winners, key=lambda c: (c.theta, c.alpha))
        assert (result.alpha, result.theta) == (expected.alpha, expected.theta)
        assert result.report.trig_c.f1 == best_f1
        assert result.report == expected.report


def tied_scored_dev(rng):
    """random_scored_dev plus an empty candidate list, candidates sharing a
    trigger, cached arguments, and docs of 1, 2 and 4 candidates with equal
    scores, whose fused scores are exactly 1, 1/2 and 1/4 at alpha 0 or 1."""
    dev = random_scored_dev(rng)
    dev.append(paired("empty", "ctx empty", ["a"], []))
    shared = TriggerCandidate("a [T] [and] b [T]", (Trigger("a", "T"), Trigger("b", "T")), -1.0, rank_score=0.5)
    instance, candidates = paired(
        "shared", "ctx shared", ["a", "c"],
        [scored_candidate("a", "T", -0.5, 1.0), shared, scored_candidate("c", "T", -2.0, -1.0)],
    )
    entity = ArgumentPair("Agent", "someone")
    instance = ContextInstance(instance.doc_id, instance.context, (EventFrame(Trigger("a", "T"), (entity,)),))
    candidates = CandidateList(candidates.doc_id, candidates.context, candidates.candidates, {"a": (entity,), "b": (entity,)})
    dev.append((instance, candidates))
    for n in (1, 2, 4):
        words = [safe_word(rng) + str(j) for j in range(n)]
        dev.append(paired(f"tie{n}", f"ctx tie {n}", words[:1], [scored_candidate(w, "T", -1.0, 0.3) for w in words]))
    return dev


def test_sweep_matches_per_cell_reference():
    rng = random.Random(53)
    for _ in range(10):
        dev = tied_scored_dev(rng)
        alphas = [0.0, 0.5, 1.0, round(rng.random(), 3)]
        thetas = [0.0, 0.25, 0.5, 1.0, round(rng.random(), 3)]
        cells = [(alpha, theta) for theta in thetas for alpha in alphas]
        cells += rng.sample(cells, 5)  # repeated cells, each with its own GridCell
        rng.shuffle(cells)
        swept = sweep_selection(dev, cells)
        assert [(cell.alpha, cell.theta) for cell in swept] == cells
        for cell in swept:
            expected = per_cell_report(dev, cell.alpha, cell.theta)
            assert cell.report == expected
            assert evaluate_selection(dev, SelectionConfig(cell.alpha, cell.theta)) == expected
    # the cases the sweep must get right are really there
    fused = [fuse_scores([c.rank_score for c in cl.candidates], [c.beam_score for c in cl.candidates], 1.0)
             for _, cl in dev if cl.candidates]
    assert any(0.25 in f for f in fused) and any(0.5 in f for f in fused) and any(1.0 in f for f in fused)
    assert any(not cl.candidates for _, cl in dev)


def edge_dev_set(rng):
    """Docs whose counting the sweep must get right: one word under two event
    types (two triggers sharing a trig_i key and the word's cached arguments),
    duplicate ArgumentPairs in the cache, repeated keys within a frame and
    across gold frames, a list of more than 64 candidates, a list of no-event
    candidates only, and an empty list. Scores are random."""
    agent, place = ArgumentPair("Agent", "someone"), ArgumentPair("Place", "home")
    a_t, a_u, b_t = Trigger("a", "T"), Trigger("a", "U"), Trigger("b", "T")

    def candidate(text, triggers):
        return TriggerCandidate(text, triggers, rng.uniform(-4, 0), rank_score=rng.uniform(-2, 2))

    shared = [
        candidate("a [T]", (a_t,)),
        candidate("a [U]", (a_u,)),
        candidate("a [T] [and] b [T]", (a_t, b_t)),
        candidate("a [U] [and] b [T]", (a_u, b_t)),
        candidate("[none]", ()),
    ]
    # b's two pairs share an entity: one frame, two equal arg_i keys
    arguments = {"a": (agent, agent, place), "b": (place, place, ArgumentPair("Agent", "home"))}
    gold = (EventFrame(a_t, (agent,)), EventFrame(a_t, (agent, place)), EventFrame(a_u, (place,)), EventFrame(b_t))
    words = [f"w{i}" for i in range(30)]
    wide = [candidate(f"c{i}", tuple(Trigger(w, rng.choice("TU")) for w in rng.sample(words, 2))) for i in range(70)]
    wide_gold = tuple(EventFrame(Trigger(w, "T"), (agent,)) for w in words[:12])
    return [
        (ContextInstance("shared", "a b", gold), CandidateList("shared", "a b", tuple(shared), arguments)),
        (ContextInstance("wide", "w", wide_gold), CandidateList("wide", "w", tuple(wide), {w: (agent,) for w in words})),
        (ContextInstance("none", "n", gold[:1]), CandidateList("none", "n", (candidate("[none]", ()),) * 2)),
        (ContextInstance("empty", "e", gold[2:]), CandidateList("empty", "e", ())),
    ]


def test_sweep_edge_cases_match_per_cell_reference():
    rng = random.Random(54)
    for _ in range(5):
        dev = edge_dev_set(rng)
        # thetas down to 0.01 keep several of the 70 wide candidates at once
        thetas = [0.0, 0.01, 0.02, 0.1, 0.2, 0.4, 1.0, round(rng.random(), 3)]
        cells = [(alpha, theta) for theta in thetas for alpha in (0.0, 0.3, 1.0, round(rng.random(), 3))]
        cells += cells[:4] + rng.sample(cells, 3)  # repeated cells
        swept = sweep_selection(dev, cells)
        assert [(cell.alpha, cell.theta) for cell in swept] == cells
        for cell in swept:
            expected = per_cell_report(dev, cell.alpha, cell.theta)
            assert cell.report == expected
            assert evaluate_selection(dev, SelectionConfig(cell.alpha, cell.theta)) == expected
        # theta 0 keeps every candidate; a trigger that several of them parse counts once
        distinct = sum(len({t for c in cl.candidates for t in c.triggers}) for _, cl in dev)
        parsed = sum(len(c.triggers) for _, cl in dev for c in cl.candidates)
        assert sweep_selection(dev, [(0.5, 0.0)])[0].report.trig_c.n_pred == distinct < parsed


def test_sweep_rejects_repeated_doc_id():
    dev = planted_dev_set()
    with pytest.raises(ValueError, match="duplicate doc_id"):
        sweep_selection(dev + dev[:1], [(0.5, 0.3)])


def test_sweep_and_grid_search_name_a_doc_without_rank_scores():
    dev = planted_dev_set()
    instance, cl = dev[1]
    unscored = TriggerCandidate("b [T]", (Trigger("b", "T"),), 0.0)
    dev[1] = (instance, CandidateList(cl.doc_id, cl.context, (*cl.candidates[:2], unscored)))
    with pytest.raises(ValueError, match="doc 'd2' carry no rank scores"):
        sweep_selection(dev, [(0.5, 0.3)])
    with pytest.raises(ValueError, match="doc 'd2' carry no rank scores"):
        grid_search(dev)


def test_grid_search_reproducible():
    rng = random.Random(52)
    dev = random_scored_dev(rng)
    first = grid_search(dev, alpha_grid=[0.0, 0.5], theta_grid=[0.2, 0.4])
    second = grid_search(dev, alpha_grid=[0.0, 0.5], theta_grid=[0.2, 0.4])
    assert first == second


def test_grid_search_metric_selector():
    dev = planted_dev_set()
    result = grid_search(dev, alpha_grid=[0.0, 1.0], theta_grid=[0.3], metric="arg_c")
    assert result.metric == "arg_c"
    with pytest.raises(ValueError, match="metric"):
        grid_search(dev, alpha_grid=[0.0], theta_grid=[0.3], metric="accuracy")


def test_grid_search_validation():
    with pytest.raises(ValueError, match="empty dev set"):
        grid_search([], alpha_grid=[0.1], theta_grid=[0.1])
    dev = planted_dev_set()
    with pytest.raises(ValueError):
        grid_search(dev, alpha_grid=[], theta_grid=[0.1])
    with pytest.raises(ValueError):
        grid_search(dev, alpha_grid=[0.5], theta_grid=[1.5])
    # values are type-checked, not coerced
    for bad in ("0.5", True):
        with pytest.raises(ValueError):
            grid_search(dev, alpha_grid=[bad], theta_grid=[0.1])


def test_score_table_csv_format(tmp_path):
    result = grid_search(planted_dev_set(), alpha_grid=[0.0, 1.0], theta_grid=[0.3, 0.6])
    path = tmp_path / "tuning.csv"
    write_score_table(result.table, path, comment="config_hash=abc")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc"
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 4
    assert set(rows[0]) == {"alpha", "theta", "trig_i_f1", "trig_c_f1", "arg_i_f1", "arg_c_f1"}
