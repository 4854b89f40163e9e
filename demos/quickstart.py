"""Walk through the core library on a toy two-event example.

Shows the text formats the pipeline speaks: trigger prompts and targets,
argument prompts and role-tagged targets, candidate parsing, fused-score
selection, and the four evaluation metrics.
"""

from evex.codec import (
    CodecConfig,
    build_argument_prompt,
    build_trigger_prompt,
    encode_argument_target,
    encode_trigger_target,
)
from evex.events import ArgumentPair, ContextInstance, EventFrame, Trigger, ontology_from_corpus
from evex.generation import (
    GenerationConfig,
    ScriptedBackend,
    attach_argument_cache,
    frames_from_cache,
    generate_trigger_candidates,
)
from evex.metrics import evaluate_corpus
from evex.selector import HashedNgramScorer, SelectionConfig, fuse_and_select, score_candidates

cfg = CodecConfig()

# One sentence, two gold events.
instance = ContextInstance(
    doc_id="demo-1",
    context="the militia attacked the convoy near Basra and a guard perished at the border .",
    gold_frames=(
        EventFrame(
            Trigger("attacked", "Conflict_Attack"),
            (ArgumentPair("Attacker", "the militia"), ArgumentPair("Target", "the convoy"),
             ArgumentPair("Place", "Basra")),
        ),
        EventFrame(
            Trigger("perished", "Life_Die"),
            (ArgumentPair("Victim", "a guard"), ArgumentPair("Place", "the border")),
        ),
    ),
)
ontology = ontology_from_corpus([instance])

print("== linearized formats ==")
print("trigger prompt: ", build_trigger_prompt(instance.context, cfg))
print("trigger target: ", encode_trigger_target(list(instance.gold_frames), cfg))
for frame in instance.gold_frames:
    print("argument prompt:", build_argument_prompt(instance.context, frame.trigger.word, cfg))
    print("argument target:", encode_argument_target(frame, ontology, cfg))

# A scripted backend stands in for a trained seq2seq model. Beam hypotheses
# carry log-scale scores; note the junk hypothesis in the middle of the beam.
backend = ScriptedBackend(
    {
        build_trigger_prompt(instance.context, cfg): [
            ("attacked [Conflict_Attack]", -0.2),
            ("meeting [Conflict_Attack]", -0.9),
            ("perished [Life_Die]", -1.0),
            ("gibberish hypothesis", -3.0),
        ],
        build_argument_prompt(instance.context, "attacked", cfg): [
            ("<Attacker> the militia </Attacker> <Target> the convoy </Target> <Place> Basra </Place>", -0.1)
        ],
        build_argument_prompt(instance.context, "perished", cfg): [
            ("<Agent> [None] </Agent> <Victim> a guard </Victim> <Place> the border </Place>", -0.1)
        ],
    }
)

print("\n== candidate generation ==")
candidates, warnings = generate_trigger_candidates(backend, instance, GenerationConfig(), cfg)
candidates, _ = attach_argument_cache(backend, candidates, cfg)
for c in candidates.candidates:
    print(f"  beam {c.beam_score:+.2f}  {c.raw_text!r}  -> {[t.word for t in c.triggers]}")
print("  parse warnings:", [f"doc {instance.doc_id}: {w}" for w in warnings])

# An untrained scorer is neutral; selection then follows beam scores alone.
# Train it for real with train_selector (see reranking_ablation.py).
scorer = HashedNgramScorer()
scorer.train_step(
    [(instance.context, "perished [Life_Die]", ["meeting [Conflict_Attack]"])],
    margin=0.5,
    learning_rate=0.05,
)
scored = score_candidates(candidates, scorer)

print("\n== selection ==")
selection = SelectionConfig(alpha=0.4, theta=0.2)
triggers = fuse_and_select(scored, scorer=None, cfg=selection)
print("selected triggers:", [(t.word, t.event_type) for t in triggers])

frames = frames_from_cache(scored, triggers)
report = evaluate_corpus([(instance.doc_id, frames)], [instance])
print("\n== evaluation ==")
print(report.summary())
