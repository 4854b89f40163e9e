import random
from collections import Counter

import pytest

from evex.codec import (
    CodecConfig,
    build_argument_prompt,
    build_trigger_prompt,
    decode_argument_output,
    decode_trigger_candidate,
    encode_argument_target,
    encode_trigger_target,
)
from evex.events import ArgumentPair, EventFrame, Ontology, Trigger

from util import corrupted_string, ontology_covering, random_frame

CFG = CodecConfig()


def test_codec_config_rejects_token_collisions():
    with pytest.raises(ValueError):
        CodecConfig(none_token="[and]")
    with pytest.raises(ValueError):
        CodecConfig(trigger_prefix="")


def test_trigger_prompt_shape():
    assert build_trigger_prompt("He went home .", CFG) == "TriggerEvent: He went home ."


def test_trigger_prompt_trims():
    assert build_trigger_prompt("  He went  home .  ", CFG) == "TriggerEvent: He went home ."


def test_trigger_prompt_empty_context():
    with pytest.raises(ValueError, match="empty context"):
        build_trigger_prompt("   ", CFG)


def test_argument_prompt_shape():
    prompt = build_argument_prompt("And gave ... then went home ... killed him .", "killed", CFG)
    assert prompt == "Arguments: And gave ... then went home ... killed him . <Trigger> killed"
    prompt = build_argument_prompt("... went home ...", "went", CFG)
    assert prompt == "Arguments: ... went home ... <Trigger> went"


def test_argument_prompt_empty_trigger():
    with pytest.raises(ValueError):
        build_argument_prompt("ctx", "  ", CFG)


def test_encode_single_trigger_target():
    frames = [EventFrame(Trigger("killed", "Life_Die"))]
    assert encode_trigger_target(frames, CFG) == "killed [Life_Die]"


def test_encode_multi_trigger_target_joiner():
    frames = [EventFrame(Trigger("went", "Movement_Transport")), EventFrame(Trigger("killed", "Life_Die"))]
    assert encode_trigger_target(frames, CFG) == "went [Movement_Transport] [and] killed [Life_Die]"


def test_encode_zero_frames_is_empty_token():
    assert encode_trigger_target([], CFG) == "[none]"


def test_decode_single_trigger():
    triggers, warnings = decode_trigger_candidate("killed [Life_Die]", CFG)
    assert triggers == [Trigger("killed", "Life_Die")]
    assert warnings == []


def test_decode_multi_trigger():
    text = "went [Movement_Transport] [and] killed [Life_Die]"
    triggers, warnings = decode_trigger_candidate(text, CFG)
    assert [t.word for t in triggers] == ["went", "killed"]
    assert warnings == []


def test_decode_malformed_trigger_warns():
    triggers, warnings = decode_trigger_candidate("gibberish with no brackets", CFG)
    assert triggers == [] and len(warnings) == 1


def test_decode_empty_token_either_casing():
    assert decode_trigger_candidate("[none]", CFG) == ([], [])
    assert decode_trigger_candidate("[None]", CFG) == ([], [])
    assert decode_trigger_candidate(" [ none ] ", CFG) == ([], [])


def test_decode_takes_last_bracketed_token_as_type():
    triggers, warnings = decode_trigger_candidate("all [out] war [Conflict_Attack]", CFG)
    assert triggers == [Trigger("all [out] war", "Conflict_Attack")]
    assert warnings == []


def test_decode_rejects_type_with_whitespace():
    triggers, warnings = decode_trigger_candidate("went [Movement Transport]", CFG)
    assert triggers == [] and "whitespace" in warnings[0]


def test_encode_argument_target_filled_slots():
    onto = Ontology({"Life_Die": ("Agent", "Place")})
    f = EventFrame(
        Trigger("killed", "Life_Die"),
        (ArgumentPair("Agent", "father - in - law"), ArgumentPair("Place", "home")),
    )
    assert encode_argument_target(f, onto, CFG) == "<Agent> father - in - law </Agent> <Place> home </Place>"


def test_encode_argument_target_unfilled_slots():
    onto = Ontology({"Movement_Transport": ("Artifact", "Place")})
    f = EventFrame(Trigger("went", "Movement_Transport"))
    assert encode_argument_target(f, onto, CFG) == "<Artifact> [None] </Artifact> <Place> [None] </Place>"


def test_encode_argument_target_unknown_type():
    with pytest.raises(ValueError, match="not in ontology"):
        encode_argument_target(EventFrame(Trigger("w", "X")), Ontology({}), CFG)


def test_encode_argument_target_multi_entity_fill():
    onto = Ontology({"T": ("Entity",)})
    f = EventFrame(Trigger("met", "T"), (ArgumentPair("Entity", "a"), ArgumentPair("Entity", "b")))
    assert encode_argument_target(f, onto, CFG) == "<Entity> a [and] b </Entity>"


def test_decode_argument_output_basic():
    pairs, warnings = decode_argument_output("<Agent> father - in - law </Agent> <Place> home </Place>", CFG)
    assert pairs == [ArgumentPair("Agent", "father - in - law"), ArgumentPair("Place", "home")]
    assert warnings == []


def test_decode_argument_output_none_slots_dropped():
    assert decode_argument_output("<Artifact> [None] </Artifact>", CFG) == ([], [])
    assert decode_argument_output("<Artifact> [ None] </Artifact>", CFG) == ([], [])


def test_argument_placeholders_follow_the_codec():
    assert CFG.is_placeholder("[ none ]") and CFG.is_placeholder("[None]")
    assert not CFG.is_placeholder("NA")
    na = CodecConfig(none_token="NA")
    assert na.is_placeholder("na") and not na.is_placeholder("[None]") and not na.is_placeholder("[none]")
    # under this codec "[None]" is an entity like any other
    assert decode_argument_output("<Agent> [None] </Agent>", na) == ([ArgumentPair("Agent", "[None]")], [])
    assert decode_argument_output("<Agent> NA </Agent>", na) == ([], [])


def test_decode_argument_output_multi_entity_split():
    pairs, _ = decode_argument_output("<Entity> a [and] b </Entity>", CFG)
    assert pairs == [ArgumentPair("Entity", "a"), ArgumentPair("Entity", "b")]


def test_decode_argument_tolerates_tag_whitespace():
    pairs, warnings = decode_argument_output("< Agent> he </ Agent > <Place> home </ Place >", CFG)
    assert pairs == [ArgumentPair("Agent", "he"), ArgumentPair("Place", "home")]
    assert warnings == []


def test_decode_argument_unmatched_tags_warn():
    pairs, warnings = decode_argument_output("<Agent> he </Agent> <Place> home", CFG)
    assert pairs == [ArgumentPair("Agent", "he")]
    assert any("unmatched tag" in w for w in warnings)


def test_trigger_roundtrip_randomized():
    rng = random.Random(11)
    for _ in range(300):
        frames = [random_frame(rng) for _ in range(rng.randint(0, 4))]
        decoded, warnings = decode_trigger_candidate(encode_trigger_target(frames, CFG), CFG)
        assert warnings == []
        assert decoded == [f.trigger for f in frames]


def test_argument_roundtrip_randomized():
    rng = random.Random(12)
    for _ in range(300):
        frame = random_frame(rng)
        onto = ontology_covering([frame], rng)
        decoded, warnings = decode_argument_output(encode_argument_target(frame, onto, CFG), CFG)
        assert warnings == []
        assert Counter(decoded) == Counter(frame.arguments)


def test_decoding_never_raises_on_corrupted_input():
    rng = random.Random(13)
    for _ in range(500):
        text = corrupted_string(rng)
        triggers, _ = decode_trigger_candidate(text, CFG)
        for t in triggers:
            assert t.word and t.event_type and not any(c.isspace() for c in t.event_type)
        pairs, _ = decode_argument_output(text, CFG)
        for p in pairs:
            assert p.role and p.entity and p.entity != "[None]"


def test_encoding_is_deterministic():
    rng = random.Random(14)
    frames = [random_frame(rng) for _ in range(3)]
    onto = ontology_covering(frames, rng)
    assert encode_trigger_target(frames, CFG) == encode_trigger_target(frames, CFG)
    assert encode_argument_target(frames[0], onto, CFG) == encode_argument_target(frames[0], onto, CFG)
