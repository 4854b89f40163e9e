"""Linearization between event frames and generator text.

The string formats produced here are the wire format between the pipeline
and any generation backend:

    trigger input:    "TriggerEvent: <context>"
    trigger target:   "killed [Life_Die]"            (multiple joined by " [and] ")
    argument input:   "Arguments: <context> <Trigger> killed"
    argument target:  "<Agent> father - in - law </Agent> <Place> home </Place>"

Decoding is regex-based and never raises: malformed segments are skipped
and reported in a warning list returned alongside the parsed values. Each
warning reads "<kind>" or "<kind>: <detail>".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .events import (
    ArgumentPair, EventFrame, Ontology, Trigger, intern_pair, intern_trigger, matches_token, normalize_ws
)

# the final "[Type]" token of a segment; everything before it is the word
_TRIGGER_SEGMENT_RE = re.compile(r"^(?P<word>.*\S)\s*\[\s*(?P<type>[^\[\]]+?)\s*\]$")
# "<Role> fill </Role>" with tolerant whitespace inside tags
_ROLE_SPAN_RE = re.compile(r"<\s*(?P<role>[^<>/](?:[^<>]*?))\s*>\s*(?P<fill>.*?)\s*<\s*/\s*(?P=role)\s*>")
_TAG_RE = re.compile(r"<[^<>]*>")


@dataclass(frozen=True)
class CodecConfig:
    """Reserved strings of the linearized format."""

    trigger_prefix: str = "TriggerEvent: "
    argument_prefix: str = "Arguments: "
    trigger_marker: str = "<Trigger>"
    and_token: str = "[and]"
    none_token: str = "[None]"  # unfilled argument slot
    empty_token: str = "[none]"  # trigger target of a zero-event context

    def __post_init__(self) -> None:
        values = (
            self.trigger_prefix,
            self.argument_prefix,
            self.trigger_marker,
            self.and_token,
            self.none_token,
            self.empty_token,
        )
        if any(not isinstance(v, str) or not v for v in values):
            raise ValueError("codec tokens must be nonempty strings")
        if len(set(values)) != len(values):
            raise ValueError("codec tokens must be pairwise distinct")

    def is_placeholder(self, text: str) -> bool:
        """Whether text is the none token: the fill of an unfilled slot, never an entity."""
        return matches_token(text, self.none_token)


def build_trigger_prompt(context: str, cfg: CodecConfig) -> str:
    context = normalize_ws(context)
    if not context:
        raise ValueError("empty context")
    return cfg.trigger_prefix + context


def build_argument_prompt(context: str, trigger_word: str, cfg: CodecConfig) -> str:
    """Context with the trigger word appended after the trigger marker."""
    context = normalize_ws(context)
    trigger_word = normalize_ws(trigger_word)
    if not context:
        raise ValueError("empty context")
    if not trigger_word:
        raise ValueError("empty trigger word")
    return f"{cfg.argument_prefix}{context} {cfg.trigger_marker} {trigger_word}"


def encode_trigger(trigger: Trigger, cfg: CodecConfig) -> str:
    return f"{trigger.word} [{trigger.event_type}]"


def encode_trigger_target(frames: list[EventFrame], cfg: CodecConfig) -> str:
    """Render triggers as "word [Type]" joined by the and-token; zero frames
    render as the empty token."""
    if not frames:
        return cfg.empty_token
    return f" {cfg.and_token} ".join(encode_trigger(f.trigger, cfg) for f in frames)


def decode_trigger_candidate(text: str, cfg: CodecConfig) -> tuple[list[Trigger], list[str]]:
    """Parse a generated trigger hypothesis back into triggers.

    Splits on the and-token, then reads each segment as "word [Type]" where
    the type is the final bracketed token. Returns (triggers, warnings);
    never raises. The empty token decodes to no triggers and no warnings.
    """
    text = normalize_ws(text)
    if not text or matches_token(text, cfg.empty_token):
        return [], []
    triggers: list[Trigger] = []
    warnings: list[str] = []
    for segment in text.split(cfg.and_token):
        segment = segment.strip()
        if not segment:
            warnings.append("empty trigger segment")
            continue
        m = _TRIGGER_SEGMENT_RE.match(segment)
        if m is None:
            warnings.append(f"unparseable trigger segment: {segment!r}")
            continue
        word, event_type = m.group("word"), m.group("type")
        try:
            triggers.append(intern_trigger(word, event_type))
        except ValueError:  # the word holds a non-space, so the type holds whitespace
            warnings.append(f"event type contains whitespace: {event_type!r}")
    return triggers, warnings


def encode_argument_target(frame: EventFrame, ontology: Ontology, cfg: CodecConfig) -> str:
    """Emit one "<Role> fill </Role>" slot per ontology role of the frame's
    type; unfilled roles carry the none token, multi-entity fills are joined
    by the and-token."""
    event_type = frame.trigger.event_type
    if event_type not in ontology:
        raise ValueError(f"type not in ontology: {event_type}")
    slots = []
    for role in ontology[event_type]:
        entities = [p.entity for p in frame.arguments if p.role == role]
        fill = f" {cfg.and_token} ".join(entities) if entities else cfg.none_token
        slots.append(f"<{role}> {fill} </{role}>")
    return " ".join(slots)


def decode_argument_output(text: str, cfg: CodecConfig) -> tuple[list[ArgumentPair], list[str]]:
    """Extract (role, entity) pairs from generated role-tagged text.

    Only spans with matching open/close tags are read; none-token fills are
    dropped; multi-entity fills split on the and-token. Unmatched tags are
    skipped with warnings; never raises.
    """
    pairs: list[ArgumentPair] = []
    warnings: list[str] = []

    def read_span(m: re.Match) -> str:
        role = normalize_ws(m.group("role"))
        fill = normalize_ws(m.group("fill"))
        for entity in fill.split(cfg.and_token):
            entity = entity.strip()
            if not entity:
                warnings.append(f"empty entity: role {role!r}")
                continue
            if cfg.is_placeholder(entity):
                continue
            try:
                pairs.append(intern_pair(role, entity))
            except ValueError as exc:
                warnings.append(f"invalid argument pair: role {role!r}: {exc}")
        return ""

    leftover = _ROLE_SPAN_RE.sub(read_span, text)  # the text outside every read span
    for tag in _TAG_RE.findall(leftover):
        warnings.append(f"unmatched tag: {tag}")
    return pairs, warnings
