import json
import random

import pytest

from evex.codec import CodecConfig, decode_argument_output, decode_trigger_candidate
from evex.corpus import (
    TASK_ARGUMENT,
    TASK_TRIGGER,
    TrainingPair,
    load_corpus,
    make_corpus_pairs,
    write_corpus,
)
from evex.events import ArgumentPair, ContextInstance, EventFrame, Trigger, ontology_from_corpus

from util import ontology_covering, random_frame

CFG = CodecConfig()


def write_lines(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_direct_mapping(tmp_path):
    line = json.dumps(
        {
            "doc_id": "d1",
            "context": "He went home .",
            "events": [
                {
                    "trigger": {"word": "went", "type": "Movement_Transport"},
                    "arguments": [{"role": "Destination", "entity": "home"}],
                }
            ],
        }
    )
    result = load_corpus(write_lines(tmp_path, [line]))
    assert result.problems == []
    (inst,) = result.instances
    assert inst.doc_id == "d1"
    assert inst.gold_frames == (
        EventFrame(
            Trigger("went", "Movement_Transport"), (ArgumentPair("Destination", "home"),)
        ),
    )


def test_load_missing_events_is_negative_context(tmp_path):
    result = load_corpus(write_lines(tmp_path, [json.dumps({"doc_id": "d", "context": "quiet day ."})]))
    assert result.instances[0].gold_frames == ()
    assert result.problems == []


def test_load_reports_bad_lines_with_numbers(tmp_path):
    good = json.dumps({"doc_id": "d", "context": "ok ."})
    # a JSON list or object where a string belongs, in each field a parse memo keys on
    ill_typed = [
        json.dumps({"doc_id": f"x{i}", "context": "w e .", "events": [{"trigger": trigger, "arguments": [argument]}]})
        for i, (trigger, argument) in enumerate([
            ({"word": ["w"], "type": "T"}, {"role": "R", "entity": "e"}),
            ({"word": "w", "type": {"T": 1}}, {"role": "R", "entity": "e"}),
            ({"word": "w", "type": "T"}, {"role": ["R"], "entity": "e"}),
            ({"word": "w", "type": "T"}, {"role": "R", "entity": {"e": 1}}),
        ])
    ]
    result = load_corpus(write_lines(tmp_path, ["{oops", good, json.dumps({"context": "no id"}), *ill_typed]))
    assert len(result.instances) == 1
    lines = sorted(p.line for p in result.problems)
    assert lines == [1, 3, 4, 5, 6, 7]
    assert all("malformed instance: unhashable type" in p.message for p in result.problems[2:])


def test_load_skips_and_reports_repeated_doc_id(tmp_path):
    first = json.dumps({"doc_id": "d", "context": "He went home .",
                        "events": [{"trigger": {"word": "went", "type": "T"}}]})
    repeat = json.dumps({"doc_id": "d", "context": "She left ."})
    other = json.dumps({"doc_id": "e", "context": "quiet day ."})
    result = load_corpus(write_lines(tmp_path, [first, repeat, other]))
    assert [(i.doc_id, i.context) for i in result.instances] == [("d", "He went home ."), ("e", "quiet day .")]
    assert [p.line for p in result.problems] == [2]
    assert "duplicate doc_id 'd'" in result.problems[0].message


def test_load_reports_trigger_substring_violation(tmp_path):
    line = json.dumps(
        {
            "doc_id": "d",
            "context": "He stayed put .",
            "events": [{"trigger": {"word": "went", "type": "T"}, "arguments": []}],
        }
    )
    result = load_corpus(write_lines(tmp_path, [line]))
    assert len(result.instances) == 1  # kept, flagged
    assert any("went" in p.message for p in result.problems)


def test_load_reports_codec_placeholder_entity(tmp_path):
    def line(doc_id, entity):
        return json.dumps({"doc_id": doc_id, "context": "He went home .", "events": [
            {"trigger": {"word": "went", "type": "T"}, "arguments": [{"role": "Place", "entity": entity}]}
        ]})

    path = write_lines(tmp_path, [line("a", "NA"), line("b", "[None]"), line("c", "home")])
    na = load_corpus(path, CodecConfig(none_token="NA"))
    assert [i.doc_id for i in na.instances] == ["b", "c"]
    assert [p.line for p in na.problems] == [1]
    assert "'NA' is a codec placeholder" in na.problems[0].message
    default = load_corpus(path)
    assert [i.doc_id for i in default.instances] == ["a", "c"]
    assert [p.line for p in default.problems] == [2]


def test_load_unreadable_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "missing.jsonl")


def test_write_then_load_roundtrip(tmp_path):
    rng = random.Random(3)
    instances = [
        ContextInstance(f"d{i}", "alpha beta gamma delta", (random_frame(rng),))
        for i in range(5)
    ]
    path = tmp_path / "c.jsonl"
    write_corpus(instances, path)
    result = load_corpus(path)
    assert result.instances == instances


def test_training_pair_rejects_unknown_task():
    with pytest.raises(ValueError):
        TrainingPair("x", "y", "both", "d")


def fig3_style_corpus():
    """Two-event instance shaped like the worked preprocessing example, plus
    one extra instance so the transport type carries roles in the ontology."""
    two_event = ContextInstance(
        "d1",
        "And gave ... then went home ... killed him .",
        (
            EventFrame(
                Trigger("killed", "Life_Die"),
                (ArgumentPair("Agent", "father - in - law"), ArgumentPair("Place", "home")),
            ),
            EventFrame(Trigger("went", "Movement_Transport")),
        ),
    )
    role_filler = ContextInstance(
        "d2",
        "they moved the crates home .",
        (
            EventFrame(
                Trigger("moved", "Movement_Transport"),
                (ArgumentPair("Artifact", "the crates"), ArgumentPair("Place", "home")),
            ),
        ),
    )
    return two_event, role_filler


def test_make_training_pairs_two_event_instance():
    two_event, role_filler = fig3_style_corpus()
    onto = ontology_from_corpus([two_event, role_filler])
    pairs = make_corpus_pairs([two_event], onto, CFG)
    assert len(pairs) == 4
    trigger_pairs = [p for p in pairs if p.task == TASK_TRIGGER]
    argument_pairs = [p for p in pairs if p.task == TASK_ARGUMENT]
    assert [p.target for p in trigger_pairs] == ["killed [Life_Die]", "went [Movement_Transport]"]
    assert all(
        p.input == "TriggerEvent: And gave ... then went home ... killed him ." for p in trigger_pairs
    )
    assert argument_pairs[0].input == (
        "Arguments: And gave ... then went home ... killed him . <Trigger> killed"
    )
    assert argument_pairs[0].target == "<Agent> father - in - law </Agent> <Place> home </Place>"
    assert argument_pairs[1].input == (
        "Arguments: And gave ... then went home ... killed him . <Trigger> went"
    )
    assert argument_pairs[1].target == "<Artifact> [None] </Artifact> <Place> [None] </Place>"


def test_make_training_pairs_zero_event_instance():
    inst = ContextInstance("d", "nothing happened .", ())
    pairs = make_corpus_pairs([inst], ontology_from_corpus([inst]), CFG)
    assert len(pairs) == 1
    assert pairs[0].target == "[none]" and pairs[0].task == TASK_TRIGGER


def test_make_training_pairs_unknown_type_names_doc():
    inst = ContextInstance("doc-9", "he went .", (EventFrame(Trigger("went", "T")),))
    with pytest.raises(ValueError, match="doc-9"):
        make_corpus_pairs([inst], ontology_from_corpus([ContextInstance("x", "y z", ())]), CFG)


def test_pair_count_and_prefix_invariants():
    rng = random.Random(21)
    for _ in range(50):
        frames = [random_frame(rng) for _ in range(rng.randint(0, 3))]
        inst = ContextInstance("d", "ctx words here", tuple(frames))
        onto = ontology_covering(list(frames), rng)
        pairs = make_corpus_pairs([inst], onto, CFG)
        arg_pairs = [p for p in pairs if p.task == TASK_ARGUMENT]
        assert len(arg_pairs) == len(frames)
        for p in pairs:
            if p.task == TASK_TRIGGER:
                assert p.input.startswith(CFG.trigger_prefix)
            else:
                assert p.input.startswith(CFG.argument_prefix) and CFG.trigger_marker in p.input


def test_emitted_targets_decode_back():
    rng = random.Random(22)
    for _ in range(50):
        frames = [random_frame(rng) for _ in range(rng.randint(0, 3))]
        inst = ContextInstance("d", "ctx words here", tuple(frames))
        onto = ontology_covering(list(frames), rng)
        for pair in make_corpus_pairs([inst], onto, CFG):
            if pair.task == TASK_TRIGGER:
                decoded, warnings = decode_trigger_candidate(pair.target, CFG)
                assert warnings == []
                assert set(decoded) <= {f.trigger for f in frames}
            else:
                decoded_args, warnings = decode_argument_output(pair.target, CFG)
                assert warnings == []
                all_args = {a for f in frames for a in f.arguments}
                assert set(decoded_args) <= all_args
