"""Output checks that do not trust evex: the four F1s recomputed from
`predictions.jsonl` and the gold corpus with an independent multiset
matcher, compared against `report.json`.
"""

from __future__ import annotations

import json
from collections import Counter

SUBTASKS = ("trig_i", "trig_c", "arg_i", "arg_c")


def _norm(text: str) -> str:
    return " ".join(text.split())


def _keys(events: list[dict], subtask: str) -> Counter:
    keys: Counter = Counter()
    for event in events:
        word, etype = _norm(event["trigger"]["word"]), event["trigger"]["type"].strip()
        if subtask == "trig_i":
            keys[(word,)] += 1
        elif subtask == "trig_c":
            keys[(word, etype)] += 1
        else:
            # a frame holds each (role, entity) pair once
            pairs = dict.fromkeys((_norm(a["role"]), _norm(a["entity"])) for a in event.get("arguments", []))
            for role, entity in pairs:
                keys[(entity, etype) if subtask == "arg_i" else (entity, role, etype)] += 1
    return keys


def f1_table(predicted: dict[str, list[dict]], gold: list[dict]) -> dict[str, dict]:
    """Micro-averaged counts and F1 per subtask over the gold documents."""
    table = {}
    for subtask in SUBTASKS:
        n_correct = n_pred = n_gold = 0
        for doc in gold:
            pred_keys = _keys(predicted.get(doc["doc_id"], []), subtask)
            gold_keys = _keys(doc.get("events", []), subtask)
            n_correct += sum(min(n, gold_keys[k]) for k, n in pred_keys.items())
            n_pred += sum(pred_keys.values())
            n_gold += sum(gold_keys.values())
        precision = n_correct / n_pred if n_pred else 0.0
        recall = n_correct / n_gold if n_gold else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        table[subtask] = {"n_correct": n_correct, "n_pred": n_pred, "n_gold": n_gold, "f1": f1}
    return table


def read_predictions(text: str) -> dict[str, list[dict]]:
    predicted: dict[str, list[dict]] = {}
    for line in text.splitlines():
        row = json.loads(line) if line.strip() else {}
        if "doc_id" in row:
            predicted.setdefault(row["doc_id"], []).extend(row["events"])
    return predicted


def disagreements(predictions_text: str, report: dict, gold: list[dict]) -> list[str]:
    """Where report.json disagrees with the recomputed table; empty if none."""
    table = f1_table(read_predictions(predictions_text), gold)
    problems = []
    for subtask, ours in table.items():
        theirs = report.get(subtask, {})
        for key in ("n_correct", "n_pred", "n_gold"):
            if theirs.get(key) != ours[key]:
                problems.append(f"{subtask}.{key}: report {theirs.get(key)} != recomputed {ours[key]}")
        if abs(theirs.get("f1", -1.0) - ours["f1"]) > 1e-9:
            problems.append(f"{subtask}.f1: report {theirs.get('f1')} != recomputed {ours['f1']}")
    return problems
