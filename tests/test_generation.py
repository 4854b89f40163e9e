import json
import random

import pytest

from evex.codec import CodecConfig, build_argument_prompt, build_trigger_prompt, decode_trigger_candidate
from evex.events import MEMO_SIZE, ArgumentPair, ContextInstance, EventFrame, Trigger, intern_pair, intern_trigger
from evex.generation import (
    BackendError,
    GenerationConfig,
    ScriptedBackend,
    attach_argument_cache,
    candidate_list_from_dict,
    candidate_list_to_dict,
    clear_memos,
    frames_from_cache,
    generate_arguments,
    generate_trigger_candidates,
    parse_hypothesis,
)

CFG = CodecConfig()
GEN = GenerationConfig()


def test_generation_config_defaults_and_validation():
    assert GEN.beam_width == 10
    with pytest.raises(ValueError):
        GenerationConfig(beam_width=0)


def test_scripted_backend_contract():
    prompt = "TriggerEvent: x ."
    backend = ScriptedBackend({prompt: [("a [T]", -0.5), ("b [T]", -0.1), ("c [T]", -0.9)]})
    top = backend.generate_topk(prompt, 2)
    assert top == [("b [T]", -0.1), ("a [T]", -0.5)]  # sorted, truncated to k
    assert backend.generate_greedy(prompt) == "b [T]"
    assert backend.generate_topk("unscripted", 5) == []
    assert backend.generate_greedy("unscripted") == ""


def test_scripted_backend_keeps_script_order_among_equal_scores():
    entries = [("a [T]", -1.0), ("b [T]", 0.0), ("c [T]", -1.0), ("d [T]", -0.0), ("e [T]", -1)]
    backend = ScriptedBackend({"p": entries})
    assert [t for t, _ in backend.generate_topk("p", 5)] == ["b [T]", "d [T]", "a [T]", "c [T]", "e [T]"]
    assert backend.generate_greedy("p") == "b [T]"


def test_scripted_backend_scores_non_increasing():
    rng = random.Random(9)
    for _ in range(30):
        entries = [(f"h{i} [T]", rng.uniform(-5, 0)) for i in range(rng.randint(1, 8))]
        backend = ScriptedBackend({"p": entries})
        scores = [s for _, s in backend.generate_topk("p", rng.randint(1, 10))]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert len(scores) <= len(entries)


def instance(context="He went home .", frames=()):
    return ContextInstance("doc-1", context, tuple(frames))


def test_candidate_dedup_keeps_highest_beam_score():
    prompt = build_trigger_prompt("He went home .", CFG)
    backend = ScriptedBackend(
        {prompt: [("went [Movement_Transport]", -0.1), ("went [Movement_Transport]", -0.4)]}
    )
    cl, warnings = generate_trigger_candidates(backend, instance(), GEN, CFG)
    assert len(cl.candidates) == 1
    assert cl.candidates[0].beam_score == -0.1
    assert warnings == []


def test_unparseable_hypothesis_dropped_with_warning():
    prompt = build_trigger_prompt("He went home .", CFG)
    backend = ScriptedBackend({prompt: [("killed [Life_Die]", -0.2), ("noise", -0.3)]})
    cl, warnings = generate_trigger_candidates(backend, instance(), GEN, CFG)
    assert len(cl.candidates) == 1
    assert len(warnings) == 1


def test_backend_with_fewer_hypotheses_than_beam_width():
    prompt = build_trigger_prompt("He went home .", CFG)
    backend = ScriptedBackend({prompt: [(f"w{i} [T]", -float(i)) for i in range(3)]})
    cl, _ = generate_trigger_candidates(backend, instance(), GEN, CFG)
    assert len(cl.candidates) == 3


def test_empty_token_survives_as_no_event_candidate():
    prompt = build_trigger_prompt("He went home .", CFG)
    backend = ScriptedBackend({prompt: [("[none]", -0.1), ("went [T]", -0.5)]})
    cl, _ = generate_trigger_candidates(backend, instance(), GEN, CFG)
    assert [c.raw_text for c in cl.candidates] == ["[none]", "went [T]"]
    assert cl.candidates[0].triggers == ()


def test_candidates_sorted_and_truncated():
    prompt = build_trigger_prompt("He went home .", CFG)
    entries = [(f"w{i} [T]", -0.1 * i) for i in range(15)]
    backend = ScriptedBackend({prompt: entries})
    cl, _ = generate_trigger_candidates(backend, instance(), GEN, CFG)
    assert len(cl.candidates) == GEN.beam_width
    scores = [c.beam_score for c in cl.candidates]
    assert scores == sorted(scores, reverse=True)


def test_backend_failure_carries_doc_id():
    class Exploding(ScriptedBackend):
        def generate_topk(self, input_text, k):
            raise RuntimeError("boom")

    with pytest.raises(BackendError, match="doc-1"):
        generate_trigger_candidates(Exploding(), instance(), GEN, CFG)


def test_generate_arguments_decodes_target():
    context = "And gave ... then went home ... killed him ."
    prompt = build_argument_prompt(context, "killed", CFG)
    backend = ScriptedBackend(
        {prompt: [("<Agent> father - in - law </Agent> <Place> home </Place>", -0.05)]}
    )
    pairs, warnings = generate_arguments(backend, context, Trigger("killed", "Life_Die"), CFG)
    assert pairs == [ArgumentPair("Agent", "father - in - law"), ArgumentPair("Place", "home")]
    assert warnings == []


def test_generate_arguments_all_none_slots():
    context = "He went home ."
    prompt = build_argument_prompt(context, "went", CFG)
    backend = ScriptedBackend({prompt: [("<Artifact> [None] </Artifact> <Place> [None] </Place>", -0.1)]})
    pairs, warnings = generate_arguments(backend, context, Trigger("went", "Movement_Transport"), CFG)
    assert pairs == [] and warnings == []


def test_generate_arguments_malformed_output():
    context = "He went home ."
    prompt = build_argument_prompt(context, "went", CFG)
    backend = ScriptedBackend({prompt: [("<Artifact> half open", -0.1)]})
    pairs, warnings = generate_arguments(backend, context, Trigger("went", "T"), CFG)
    assert pairs == [] and warnings


def test_argument_cache_and_frame_assembly():
    context = "a b c ."
    trig_prompt = build_trigger_prompt(context, CFG)
    arg_prompt = build_argument_prompt(context, "b", CFG)
    backend = ScriptedBackend(
        {
            trig_prompt: [("b [T]", -0.1)],
            arg_prompt: [("<R> a </R>", -0.1)],
        }
    )
    cl, _ = generate_trigger_candidates(backend, instance(context), GEN, CFG)
    cl, warnings = attach_argument_cache(backend, cl, CFG)
    assert warnings == []
    assert cl.arguments_by_word == {"b": (ArgumentPair("R", "a"),)}
    frames = frames_from_cache(cl, [Trigger("b", "T")])
    assert frames == [EventFrame(Trigger("b", "T"), (ArgumentPair("R", "a"),))]


def test_candidate_generation_deterministic():
    rng = random.Random(4)
    context = "alpha beta gamma ."
    prompt = build_trigger_prompt(context, CFG)
    entries = [(f"w{i} [T{i % 2}]", rng.uniform(-3, 0)) for i in range(8)]
    backend = ScriptedBackend({prompt: entries})
    first, _ = generate_trigger_candidates(backend, instance(context), GEN, CFG)
    second, _ = generate_trigger_candidates(backend, instance(context), GEN, CFG)
    assert first == second


def test_candidate_list_dict_roundtrip():
    context = "a b ."
    prompt = build_trigger_prompt(context, CFG)
    backend = ScriptedBackend({prompt: [("a [T]", -0.25), ("[none]", -0.5)]})
    lists, _ = generate_trigger_candidates(backend, instance(context), GEN, CFG)
    raw = candidate_list_to_dict(lists.with_rank_scores([0.5, -0.5]))
    # the stored form holds each candidate's [raw_text, beam_score], no parse and no rank score:
    # those come from the codec and rank_scores.*
    assert raw["candidates"] == [["a [T]", -0.25], ["[none]", -0.5]]
    assert set(raw) == {"doc_id", "context", "candidates", "arguments"}
    assert candidate_list_from_dict(raw, CFG) == lists


def test_wide_beam_dict_roundtrip_decodes_the_generated_parse():
    context = "a b c d e ."
    prompt = build_trigger_prompt(context, CFG)
    hypotheses = [
        ("a [T] [and] b [U]", -0.1),  # joint target
        ("  b  [U]   [and]\ta [T] ", -0.2),  # its whitespace duplicate, with a lower beam score
        ("c   [T]", -0.3),  # survives, stored whitespace-normalized
        ("d [T] [and] e [Bad Type]", -0.4),  # a type with a space: the raw text keeps a segment the parse drops
        ("[ None ]", -0.5),  # the empty token
        ("e [Bad Type]", -0.6),  # parses to nothing: dropped
        ("c [T]", -0.7),  # duplicate of a normalized raw text
    ]
    args = {build_argument_prompt(context, w, CFG): [(f"<R> {w}{w} </R>", 0.0)] for w in "abcd"}
    backend = ScriptedBackend({prompt: hypotheses, **args})
    generated, _ = generate_trigger_candidates(backend, instance(context), GenerationConfig(beam_width=20), CFG)
    generated, _ = attach_argument_cache(backend, generated, CFG)
    texts = ["a [T] [and] b [U]", "c [T]", "d [T] [and] e [Bad Type]", "[ None ]"]
    assert [c.raw_text for c in generated.candidates] == texts
    assert generated.candidates[2].triggers == (Trigger("d", "T"),)
    raw = json.loads(json.dumps(candidate_list_to_dict(generated)))
    clear_memos()
    assert candidate_list_from_dict(raw, CFG) == generated
    assert candidate_list_from_dict(raw, CFG) == generated  # from the memo this time
    memo = parse_hypothesis.cache_info()
    assert memo.misses == memo.hits == len(generated.candidates)


def test_wide_beam_roundtrip_leaves_out_a_word_whose_arguments_decode_to_nothing():
    context = "a b c ."
    prompt = build_trigger_prompt(context, CFG)
    hypotheses = [("a [T] [and] b [U]", -0.1), ("b [U]", -0.2), ("c [T]", -0.3), ("[none]", -0.4)]
    args = {
        "a": [("<R> x </R> <S> y </S>", 0.0)],
        "b": [("<R> [None] </R>", 0.0)],  # a none-token fill: no pair
        "c": [("<R> z </R>", 0.0)],
    }
    args = {build_argument_prompt(context, w, CFG): h for w, h in args.items()}
    backend = ScriptedBackend({prompt: hypotheses, **args})
    greedy_prompts = []
    greedy = backend.generate_greedy
    backend.generate_greedy = lambda text: greedy_prompts.append(text) or greedy(text)
    generated, _ = generate_trigger_candidates(backend, instance(context), GenerationConfig(beam_width=20), CFG)
    generated, warnings = attach_argument_cache(backend, generated, CFG)
    assert warnings == []
    assert greedy_prompts == [build_argument_prompt(context, w, CFG) for w in "abc"]  # each word once, b too
    assert generated.arguments_by_word == {
        "a": (ArgumentPair("R", "x"), ArgumentPair("S", "y")),
        "c": (ArgumentPair("R", "z"),),
    }
    assert frames_from_cache(generated, [Trigger("b", "U")]) == [EventFrame(Trigger("b", "U"), ())]
    raw = json.loads(json.dumps(candidate_list_to_dict(generated)))
    assert raw["arguments"] == {"a": [["R", "x"], ["S", "y"]], "c": [["R", "z"]]}
    assert candidate_list_from_dict(raw, CFG) == generated


@pytest.mark.parametrize(
    "key, entry",
    [
        ("candidates", ["a [T]"]),
        ("candidates", [-0.1, "a [T]"]),
        ("candidates", ["a [T]", "-0.1"]),
        ("candidates", ["a [T]", True]),
        ("candidates", {"raw_text": "a [T]", "beam_score": -0.1}),  # the object form of earlier run directories
        ("arguments", ["R", "e", "f"]),
        ("arguments", ["R", 1]),
    ],
)
def test_candidate_list_from_dict_rejects_an_entry_of_another_shape(key, entry):
    # test_cli.py's DAMAGED_ARTIFACTS holds more shapes, read through the predict stage
    raw = {"doc_id": "d", "context": "a .", "candidates": [["a [T]", -0.1]], "arguments": {"a": [["R", "e"]]}}
    raw[key] = [entry] if key == "candidates" else {"a": [entry]}
    with pytest.raises(ValueError, match=r"expected a \[(raw_text, beam_score|role, entity)\] array"):
        candidate_list_from_dict(raw, CFG)


@pytest.mark.parametrize(
    "text, kept",
    [
        ("a [T] [and]  b [U]", True),
        ("[ None ]", True),
        ("noise", False),
        ("e [Bad Type]", False),
        ("d [T] [and] e [X Y]", True),
    ],
)
def test_parse_hypothesis_is_the_decoders_parse_once_per_text(text, kept):
    clear_memos()
    triggers, warnings = decode_trigger_candidate(text, CFG)
    parsed = parse_hypothesis(text, CFG)
    assert parsed == (" ".join(text.split()), tuple(triggers), tuple(warnings), kept)
    assert parse_hypothesis(text, CFG) is parsed
    assert parse_hypothesis.cache_info().misses == 1


def test_parse_memos_are_bounded():
    memos = (parse_hypothesis, intern_trigger, intern_pair)
    assert [m.cache_info().maxsize for m in memos] == [MEMO_SIZE] * len(memos)
    clear_memos()
    for i in range(MEMO_SIZE + 5):
        parse_hypothesis(f"w{i} [T]", CFG)
    assert parse_hypothesis.cache_info().currsize == intern_trigger.cache_info().currsize == MEMO_SIZE
    clear_memos()
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)
