"""Domain types: triggers, argument pairs, event frames, contexts, and the
training-time role ontology.

The dataclasses are immutable after construction, slotted (one allocation,
no per-instance __dict__), and safe to share across threads.
Surface strings are whitespace-normalized once, at construction, so that
downstream equality checks are plain string comparisons.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

MEMO_SIZE = 2**14  # entries per parse memo; cli.main empties the memos as a stage starts


def normalize_ws(text: str) -> str:
    """Collapse whitespace runs to single spaces and strip the ends."""
    return " ".join(text.split())


def is_number(value: object, kind: type | tuple[type, ...] = (int, float)) -> bool:
    """Whether a config value is a number of `kind`; a bool (JSON true/false) is none."""
    return isinstance(value, kind) and not isinstance(value, bool)


def is_finite_number(value: object) -> bool:
    """The rule of every score read from a file: a number (no bool) that is a finite float."""
    return is_number(value) and abs(value) <= sys.float_info.max


def matches_token(text: str, token: str) -> bool:
    """Whitespace- and case-tolerant token equality, e.g. '[ None]' == '[none]'."""
    return "".join(text.split()).casefold() == "".join(token.split()).casefold()


@dataclass(frozen=True, slots=True)
class Trigger:
    """A trigger word together with the event type it expresses."""

    word: str
    event_type: str

    def __post_init__(self) -> None:
        word = normalize_ws(self.word)
        event_type = self.event_type.strip()
        if not word:
            raise ValueError("trigger word must be nonempty")
        if not event_type:
            raise ValueError("event type must be nonempty")
        if event_type.split() != [event_type]:
            raise ValueError(f"event type must not contain whitespace: {event_type!r}")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "event_type", event_type)


@dataclass(frozen=True, slots=True)
class ArgumentPair:
    """One (role, entity) participation in an event."""

    role: str
    entity: str

    def __post_init__(self) -> None:
        role = normalize_ws(self.role)
        entity = normalize_ws(self.entity)
        if not role:
            raise ValueError("argument role must be nonempty")
        if "<" in role or ">" in role:  # the codec tags a role as <role> ... </role>
            raise ValueError(f"argument role must not contain angle brackets: {role!r}")
        if not entity:
            raise ValueError("argument entity must be nonempty")
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "entity", entity)


@lru_cache(maxsize=MEMO_SIZE)
def intern_trigger(word: str, event_type: str) -> Trigger:
    """Trigger(word, event_type), built once per distinct raw value the memo holds."""
    return Trigger(word, event_type)


@lru_cache(maxsize=MEMO_SIZE)
def intern_pair(role: str, entity: str) -> ArgumentPair:
    """ArgumentPair(role, entity), built once per distinct raw value the memo holds."""
    return ArgumentPair(role, entity)


@dataclass(frozen=True, slots=True)
class EventFrame:
    """One event: a trigger plus its role-labeled arguments.

    Duplicate (role, entity) pairs are collapsed on construction; argument
    order is otherwise preserved. Frame equality is order-insensitive over
    arguments.
    """

    trigger: Trigger
    arguments: tuple[ArgumentPair, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "arguments", tuple(dict.fromkeys(self.arguments)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventFrame):
            return NotImplemented
        return self.trigger == other.trigger and set(self.arguments) == set(other.arguments)

    def __hash__(self) -> int:
        return hash((self.trigger, frozenset(self.arguments)))


@dataclass(frozen=True, slots=True)
class ContextInstance:
    """One sentence context with its gold event frames."""

    doc_id: str
    context: str
    gold_frames: tuple[EventFrame, ...] = ()

    def __post_init__(self) -> None:
        if not self.doc_id.strip():
            raise ValueError("doc_id must be nonempty")
        if not self.context.strip():
            raise ValueError("context must be nonempty")
        object.__setattr__(self, "gold_frames", tuple(self.gold_frames))

    def trigger_violations(self) -> list[str]:
        """Gold triggers whose word is not a substring of the context.

        Violating frames are reported, never dropped: evaluation still
        counts them.
        """
        return [
            f"trigger word {f.trigger.word!r} not found in context of {self.doc_id!r}"
            for f in self.gold_frames
            if f.trigger.word not in normalize_ws(self.context)
        ]


# event type -> ordered role list, induced from training data; used only when
# encoding argument targets for training, inference never consults it
Ontology = dict[str, tuple[str, ...]]


def ontology_from_corpus(instances: list[ContextInstance]) -> Ontology:
    """Induce the role ontology: every (event_type, role) seen in gold frames,
    roles kept in first-occurrence order.
    """
    if not instances:
        raise ValueError("empty corpus")
    roles_by_type: dict[str, list[str]] = {}
    for instance in instances:
        for frame in instance.gold_frames:
            roles = roles_by_type.setdefault(frame.trigger.event_type, [])
            for pair in frame.arguments:
                if pair.role not in roles:
                    roles.append(pair.role)
    return {t: tuple(r) for t, r in roles_by_type.items()}
