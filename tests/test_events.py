import random
from dataclasses import FrozenInstanceError, fields

import pytest

from evex.events import (
    ArgumentPair,
    ContextInstance,
    EventFrame,
    Trigger,
    intern_pair,
    intern_trigger,
    ontology_from_corpus,
)
from evex.generation import CandidateList, TriggerCandidate


def frame(word, etype, *args):
    return EventFrame(Trigger(word, etype), tuple(ArgumentPair(r, e) for r, e in args))


def test_trigger_normalizes_whitespace():
    t = Trigger("  went \t home ", "Movement_Transport")
    assert t.word == "went home"


@pytest.mark.parametrize("word,etype", [("", "T"), ("   ", "T"), ("w", ""), ("w", "Life Die")])
def test_trigger_rejects_bad_fields(word, etype):
    with pytest.raises(ValueError):
        Trigger(word, etype)


@pytest.mark.parametrize(
    "intern, direct, raw",
    [
        (intern_trigger, Trigger, ("  went \t home ", " Movement_Transport")),
        (intern_pair, ArgumentPair, (" Place", "the  bridge ")),
    ],
)
def test_interned_value_equals_the_direct_one_and_repeats_as_one_object(intern, direct, raw):
    value = intern(*raw)
    assert type(value) is direct and value == direct(*raw)
    assert intern(*raw) is value
    for _ in range(2):  # a bad raw value raises on every call: the memo keeps no failure
        with pytest.raises(ValueError):
            intern(raw[0], "")
        with pytest.raises(TypeError):  # unhashable, refused before any validation
            intern(raw[0], ["a list"])


def slotted_values(trigger_of, pair_of):
    """One value of each slotted type, by type name, from triggers and pairs that trigger_of and pair_of build."""
    trigger, pair = trigger_of("went", "Movement"), pair_of("Place", "home")
    candidate = TriggerCandidate("went [Movement]", (trigger,), -0.5, 1.25)
    return {
        "Trigger": trigger,
        "ArgumentPair": pair,
        "EventFrame": EventFrame(trigger, (pair,)),
        "ContextInstance": ContextInstance("d1", "he went home .", (EventFrame(trigger, (pair,)),)),
        "TriggerCandidate": candidate,
        "CandidateList": CandidateList("d1", "he went home .", (candidate,), {"went": (pair,)}),
    }


@pytest.mark.parametrize("name", slotted_values(Trigger, ArgumentPair))
def test_value_types_are_slotted_and_frozen(name):
    """No per-instance __dict__; fields stay frozen; values built from interned parts
    compare and hash equal to those built directly."""
    value = slotted_values(intern_trigger, intern_pair)[name]
    direct = slotted_values(Trigger, ArgumentPair)[name]
    assert type(value).__name__ == name and not hasattr(value, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(value, fields(value)[0].name, None)
    # a name that is no field has no slot either; CPython 3.10 and 3.11 raise TypeError there
    with pytest.raises((FrozenInstanceError, TypeError)):
        value.extra = 1
    assert value == direct
    if name != "CandidateList":  # its argument cache is a dict, so it has no hash
        assert hash(value) == hash(direct)


def test_argument_pair_rejects_empty_fields():
    with pytest.raises(ValueError):
        ArgumentPair("", "home")
    with pytest.raises(ValueError):
        ArgumentPair("Agent", "  ")


def test_frame_collapses_duplicate_pairs():
    f = frame("went", "T", ("Dest", "home"), ("Dest", "home"), ("Agent", "he"))
    assert f.arguments == (ArgumentPair("Dest", "home"), ArgumentPair("Agent", "he"))


def test_frame_equality_is_order_insensitive_over_arguments():
    a = frame("went", "T", ("Dest", "home"), ("Agent", "he"))
    b = frame("went", "T", ("Agent", "he"), ("Dest", "home"))
    assert a == b
    assert hash(a) == hash(b)
    assert a != frame("went", "U", ("Dest", "home"), ("Agent", "he"))


def test_context_requires_nonempty_fields():
    with pytest.raises(ValueError):
        ContextInstance("d", "   ", ())
    with pytest.raises(ValueError):
        ContextInstance("", "ctx", ())


def test_trigger_violations_reported_not_dropped():
    inst = ContextInstance("d1", "He went home .", (frame("went", "T"), frame("flew", "T")))
    violations = inst.trigger_violations()
    assert len(violations) == 1 and "flew" in violations[0]
    assert len(inst.gold_frames) == 2


def test_same_word_may_head_two_event_types():
    inst = ContextInstance("d1", "it fired .", (frame("fired", "Attack"), frame("fired", "End_Position")))
    assert len(inst.gold_frames) == 2


def test_ontology_single_frame_induction():
    inst = ContextInstance("d", "He went home .", (frame("went", "Movement_Transport", ("Destination", "home")),))
    onto = ontology_from_corpus([inst])
    assert onto == {"Movement_Transport": ("Destination",)}


def test_ontology_first_seen_role_order():
    i1 = ContextInstance("a", "x killed y .", (frame("killed", "Life_Die", ("Agent", "x")),))
    i2 = ContextInstance("b", "y died at home .", (frame("died", "Life_Die", ("Place", "home")),))
    onto = ontology_from_corpus([i1, i2])
    assert onto["Life_Die"] == ("Agent", "Place")


def test_ontology_empty_corpus_vs_zero_frames():
    with pytest.raises(ValueError, match="empty corpus"):
        ontology_from_corpus([])
    onto = ontology_from_corpus([ContextInstance("d", "nothing happened .", ())])
    assert onto == {}


def test_ontology_induction_idempotent():
    rng = random.Random(5)
    corpus = []
    for i in range(20):
        frames = tuple(
            frame(f"w{rng.randrange(4)}", f"T{rng.randrange(3)}", (f"R{rng.randrange(5)}", "e"))
            for _ in range(rng.randrange(3))
        )
        corpus.append(ContextInstance(f"d{i}", "w0 w1 w2 w3 e", frames))
    assert ontology_from_corpus(corpus) == ontology_from_corpus(corpus)


def test_ontology_rejects_angle_bracket_roles():
    """The codec tags a role as <role> ... </role>, so no ontology may hold one with
    an angle bracket: the argument pair refuses it, before any frame holds it."""
    for role in ("<Bad>", "A>B", "a <b"):
        with pytest.raises(ValueError, match="angle brackets"):
            ArgumentPair(role, "x")

