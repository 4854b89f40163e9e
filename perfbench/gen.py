"""Seeded benchmark inputs: corpora, backend scripts and a run config.

The files follow the formats evex documents, written without importing
evex, so that a change to `evex.synthetic` cannot move the workloads:

  * corpora: JSON lines in the README corpus schema;
  * backend script: the `toy` backend's JSON map from prompt to
    `[[hypothesis, score], ...]`, with prompts and targets in the wire
    format of the `evex.codec` docstring.

Context classes (zero, one or two events) are assigned by exact count and
then shuffled, so the requested empty and two-event rates hold at every
corpus size; contexts are redrawn within their class until unique.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

TRIGGER_PREFIX = "TriggerEvent: "
ARGUMENT_PREFIX = "Arguments: "
TRIGGER_MARKER = "<Trigger>"
AND_TOKEN = "[and]"
NONE_TOKEN = "[None]"
EMPTY_TOKEN = "[none]"

PEOPLE = [
    "the soldier", "the reporter", "a farmer", "the minister", "the rebels",
    "the convoy", "a diplomat", "the militia", "the workers", "an officer",
    "the governor", "a teacher", "the police", "the senator", "two brothers",
    "the envoy", "a merchant", "the guards", "the pilot", "the mayor",
    "the students", "a courier", "the judge", "the engineers", "a nurse",
    "the refugees", "the committee", "the general", "a contractor", "the board",
]
PLACES = [
    "Baghdad", "the village", "Mosul", "the capital", "the border",
    "home", "the airport", "the compound", "Basra", "the market",
    "the harbor", "Kirkuk", "the stadium", "the embassy", "the camp",
    "the highway", "Tikrit", "the clinic", "the square", "the old bridge",
    "Najaf", "the port", "the mountains", "the courthouse", "Falluja",
]
OBJECTS = [
    "the supplies", "a truck", "the equipment", "the documents",
    "the prisoners", "food aid", "the weapons", "the ballots", "medicine",
    "the generators", "spare parts", "the archives", "fuel", "the mail",
]
MONEY = [
    "$ 5 million", "$ 20,000", "two million dinars", "$ 300", "a large sum",
    "$ 1.2 billion", "50,000 euros", "the ransom", "$ 75,000", "back wages",
]
POSITIONS = [
    "president", "chairman", "mayor", "speaker", "treasurer", "governor",
    "prime minister", "deputy", "ambassador", "chief justice",
]
PREFIXES = [
    "", "", "", "on Monday ,", "late last night ,", "according to officials ,",
    "earlier this week ,", "witnesses said", "in a surprise move ,",
    "despite the curfew ,", "for the second time ,", "shortly after dawn ,",
]
FILLERS = [
    "the weather near {place} stayed calm {when} .",
    "markets in {place} were quiet {when} .",
    "{who} said nothing new about {place} {when} .",
    "life in {place} continued as usual {when} .",
    "{who} stayed at {place} {when} .",
    "traffic around {place} was light {when} .",
    "{who} declined to comment {when} .",
    "prices in {place} rose slightly {when} .",
    "{who} spoke about the harvest near {place} {when} .",
    "schools in {place} reopened {when} .",
]
WHEN = [
    "on Sunday", "all week", "this morning", "yesterday", "last month",
    "over the weekend", "on Friday", "for days", "at noon", "this year",
]

# event type -> (trigger words, context template, role -> entity pool)
EVENT_TYPES = {
    "Movement_Transport": (
        ["went", "traveled", "moved", "departed", "returned", "shipped"],
        "{Agent} {word} {Artifact} to {Destination}",
        {"Agent": PEOPLE, "Artifact": OBJECTS, "Destination": PLACES},
    ),
    "Life_Die": (
        ["killed", "executed", "assassinated", "shot", "murdered"],
        "{Agent} {word} {Victim} at {Place}",
        {"Agent": PEOPLE, "Victim": PEOPLE, "Place": PLACES},
    ),
    "Conflict_Attack": (
        ["attacked", "bombed", "raided", "ambushed", "stormed"],
        "{Attacker} {word} {Target} near {Place}",
        {"Attacker": PEOPLE, "Target": PEOPLE, "Place": PLACES},
    ),
    "Contact_Meet": (
        ["met", "talked", "conferred", "negotiated"],
        "{Entity} {word} with {Participant} in {Place}",
        {"Entity": PEOPLE, "Participant": PEOPLE, "Place": PLACES},
    ),
    "Justice_Arrest-Jail": (
        ["arrested", "detained", "jailed", "apprehended"],
        "{Agent} {word} {Person} in {Place}",
        {"Agent": PEOPLE, "Person": PEOPLE, "Place": PLACES},
    ),
    "Transaction_Transfer-Money": (
        ["paid", "donated", "transferred", "lent", "wired"],
        "{Giver} {word} {Money} to {Recipient}",
        {"Giver": PEOPLE, "Money": MONEY, "Recipient": PEOPLE},
    ),
    "Personnel_Elect": (
        ["elected", "chose", "appointed", "installed"],
        "{Entity} {word} {Person} as {Position}",
        {"Entity": PEOPLE, "Person": PEOPLE, "Position": POSITIONS},
    ),
}
TYPES = sorted(EVENT_TYPES)

# requested shares of zero- and two-event contexts in every split
EMPTY_RATE = 0.2
TWO_EVENT_RATE = 0.3
# share of event contexts where a distractor outranks every gold target
NOISE_RATE = 0.5

# never gold anywhere; the scripted beams promote these
DISTRACTOR_WORDS = [
    "meeting", "statement", "report", "agreement", "ceremony", "speech",
    "interview", "announcement", "visit", "decision", "warning", "plan",
]


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_dev: int
    n_test: int
    beams: str = "noisy"  # "noisy" or "wide"


def _frame(rng: random.Random, event_type: str, used_words: set[str]) -> tuple[str, dict]:
    words, template, role_pools = EVENT_TYPES[event_type]
    word = rng.choice([w for w in words if w not in used_words])
    fills = {role: rng.choice(pool) for role, pool in role_pools.items()}
    clause = template.format(word=word, **fills)
    args = [{"role": role, "entity": fills[role]} for role in role_pools]
    # a slice of frames carries fewer arguments, so encoded targets exercise
    # the unfilled-slot placeholders
    if rng.random() < 0.25:
        args = args[: rng.randrange(len(args))]
    return clause, {"trigger": {"word": word, "type": event_type}, "arguments": args}


def _context(rng: random.Random, n_events: int) -> tuple[str, list[dict]]:
    if n_events == 0:
        text = rng.choice(FILLERS).format(
            place=rng.choice(PLACES), who=rng.choice(PEOPLE), when=rng.choice(WHEN)
        )
        return text, []
    used: set[str] = set()
    clauses, events = [], []
    for _ in range(n_events):
        clause, event = _frame(rng, rng.choice(TYPES), used)
        used.add(event["trigger"]["word"])
        clauses.append(clause)
        events.append(event)
    prefix = rng.choice(PREFIXES)
    text = " and ".join(clauses) + " ."
    return (f"{prefix} {text}" if prefix else text), events


def make_split(rng: random.Random, split: str, n: int, seen: set[str]) -> list[dict]:
    n_empty = round(EMPTY_RATE * n)
    n_two = round(TWO_EVENT_RATE * n)
    classes = [0] * n_empty + [2] * n_two + [1] * (n - n_empty - n_two)
    rng.shuffle(classes)
    docs = []
    for i, n_events in enumerate(classes):
        for _ in range(1000):
            context, events = _context(rng, n_events)
            if context not in seen:
                break
        else:
            raise RuntimeError(f"could not draw a unique {n_events}-event context")
        seen.add(context)
        docs.append({"doc_id": f"{split}-{i:05d}", "context": context, "events": events})
    return docs


def realised_rates(docs: list[dict]) -> dict[str, float]:
    n = len(docs)
    return {
        "empty_rate": sum(1 for d in docs if not d["events"]) / n,
        "two_event_rate": sum(1 for d in docs if len(d["events"]) == 2) / n,
    }


def check_rates(docs: list[dict]) -> dict[str, float]:
    """Realised rates of a split; raises when they drift from the requested
    ones by more than rounding to whole documents allows."""
    rates = realised_rates(docs)
    tolerance = 0.5 / len(docs) + 1e-12
    for key, requested in (("empty_rate", EMPTY_RATE), ("two_event_rate", TWO_EVENT_RATE)):
        if abs(rates[key] - requested) > tolerance:
            raise ValueError(f"realised {key} {rates[key]:.4f} drifts from requested {requested}")
    return rates


def trigger_prompt(context: str) -> str:
    return TRIGGER_PREFIX + " ".join(context.split())


def argument_prompt(context: str, word: str) -> str:
    return f"{ARGUMENT_PREFIX}{' '.join(context.split())} {TRIGGER_MARKER} {word}"


def trigger_target(event: dict) -> str:
    return f"{event['trigger']['word']} [{event['trigger']['type']}]"


def argument_target(event: dict) -> str:
    event_type = event["trigger"]["type"]
    slots = []
    for role in EVENT_TYPES[event_type][2]:
        entities = [a["entity"] for a in event["arguments"] if a["role"] == role]
        fill = f" {AND_TOKEN} ".join(entities) if entities else NONE_TOKEN
        slots.append(f"<{role}> {fill} </{role}>")
    return " ".join(slots)


def _junk(rng: random.Random, scores: list[float]) -> list[list]:
    words = rng.sample(DISTRACTOR_WORDS, len(scores))
    return [[f"{w} [{rng.choice(TYPES)}]", s] for w, s in zip(words, scores)]


def noisy_beams(rng: random.Random, doc: dict) -> list[list]:
    """Gold targets always present; a distractor outranks them in a
    NOISE_RATE share of event contexts."""
    if not doc["events"]:
        return [[EMPTY_TOKEN, -0.1]] + _junk(rng, [-1.4, -2.0])
    beams = [[trigger_target(e), -0.3 - 0.2 * i] for i, e in enumerate(doc["events"])]
    top = -0.1 if rng.random() < NOISE_RATE else -0.9
    return beams + _junk(rng, [top, -1.2, -2.0])


def wide_beams(rng: random.Random, doc: dict) -> list[list]:
    """Up to ten hypotheses: joint [and] targets, whitespace duplicates that
    dedup merges, wrong-type variants, distractors and a malformed string."""
    events = doc["events"]
    jitter = lambda: rng.uniform(-0.05, 0.05)  # noqa: E731
    if not events:
        beams = [[EMPTY_TOKEN, -0.1 + jitter()], ["[ none ]", -0.6 + jitter()]]
        beams += _junk(rng, [-1.0 + jitter(), -1.5 + jitter(), -2.2 + jitter()])
        beams.append([rng.choice(DISTRACTOR_WORDS), -2.6])  # unparseable: no type
        return beams
    beams = []
    for i, event in enumerate(events):
        word, etype = event["trigger"]["word"], event["trigger"]["type"]
        beams.append([trigger_target(event), -0.3 - 0.2 * i + jitter()])
        beams.append([f"{word}   [ {etype} ]", -0.45 - 0.2 * i + jitter()])
        wrong = rng.choice([t for t in TYPES if t != etype])
        beams.append([f"{word} [{wrong}]", -1.1 - 0.2 * i + jitter()])
    if len(events) == 2:
        joint = f" {AND_TOKEN} ".join(trigger_target(e) for e in events)
        beams.append([joint, -0.25 + jitter()])
    top = -0.1 if rng.random() < NOISE_RATE else -0.9
    beams += _junk(rng, [top + jitter(), -1.6 + jitter()])
    malformed = rng.choice([
        f"{events[0]['trigger']['word']} [{events[0]['trigger']['type'].replace('_', ' ')}]",
        f"{AND_TOKEN} {trigger_target(events[0])}",
        events[0]["trigger"]["word"],
    ])
    beams.append([malformed, -2.4 + jitter()])
    beams.append([EMPTY_TOKEN, -2.8 + jitter()])
    return beams[:10]


def _argument_output(rng: random.Random, event: dict, malformed_rate: float) -> str:
    text = argument_target(event)
    if rng.random() < malformed_rate:
        # drop the last closing tag: the slot is skipped with a warning
        text = text[: text.rfind("</")].rstrip()
    return text


def make_script(rng: random.Random, docs: list[dict], sizes: Sizes) -> dict[str, list[list]]:
    beams = wide_beams if sizes.beams == "wide" else noisy_beams
    malformed_rate = 0.05 if sizes.beams == "wide" else 0.0
    script = {}
    for doc in docs:
        script[trigger_prompt(doc["context"])] = beams(rng, doc)
        for event in doc["events"]:
            output = _argument_output(rng, event, malformed_rate)
            script[argument_prompt(doc["context"], event["trigger"]["word"])] = [[output, -0.05]]
    return script


def run_config(splits: list[str], selection: str | dict) -> dict:
    """Run config read from an inputs directory; the backend script path is
    relative to the run directory, which is a sibling of the inputs."""
    return {
        "corpus": {s: f"corpus.{s}.jsonl" for s in splits},
        "backend": {"id": "toy", "script": "../inputs/script.json"},
        "selector_train": {"epochs": 12, "seed": 0},
        "selection": selection,
    }


def write_inputs(out_dir: Path, sizes: Sizes, seed: int, selection: str | dict) -> dict:
    """Write corpora, script and config.json into out_dir; returns the
    realised rates per split. Same seed and sizes give the same bytes."""
    rng = random.Random(seed)
    seen: set[str] = set()
    splits = {
        name: make_split(rng, name, n, seen)
        for name, n in (("train", sizes.n_train), ("dev", sizes.n_dev), ("test", sizes.n_test))
        if n > 0
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    rates = {}
    for name, docs in splits.items():
        rates[name] = check_rates(docs)
        with (out_dir / f"corpus.{name}.jsonl").open("w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(doc, ensure_ascii=False) + "\n")
    all_docs = [d for docs in splits.values() for d in docs]
    script = make_script(rng, all_docs, sizes)
    (out_dir / "script.json").write_text(
        json.dumps(script, sort_keys=True, ensure_ascii=False), encoding="utf-8"
    )
    config = run_config(list(splits), selection)
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return rates
