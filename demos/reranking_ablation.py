"""Why re-rank at all: beam-only selection vs fused selection under noise.

Builds a synthetic corpus with a noisy scripted backend (the correct
trigger is always somewhere in the beam, but a distractor outranks it in
half of the contexts), trains the contrastive scorer, and compares:

  * the beam-only baseline: alpha = 0, threshold tuned on dev;
  * fully tuned fusion: (alpha, theta) grid-searched on dev.

Also prints the threshold sweep at the default weight, which rises and
then falls: very low thresholds admit junk candidates, very high ones
drop correct triggers in multi-event contexts.
"""

from evex.codec import CodecConfig
from evex.events import ontology_from_corpus
from evex.generation import GenerationConfig, ScriptedBackend, attach_argument_cache, generate_trigger_candidates
from evex.selector import HashedNgramScorer, SelectionConfig, SelectorTrainConfig, score_candidates, train_selector
from evex.synthetic import make_synthetic_corpus, noisy_script
from evex.tuning import evaluate_selection, grid_search

SEED = 7
codec_cfg = CodecConfig()
gen_cfg = GenerationConfig()

data = make_synthetic_corpus(seed=SEED)
ontology = ontology_from_corpus(data.all_instances())
backend = ScriptedBackend(noisy_script(data.all_instances(), ontology, seed=SEED, noise_rate=0.5))


def candidates_for(instances):
    out = []
    for instance in instances:
        cl, _ = generate_trigger_candidates(backend, instance, gen_cfg, codec_cfg)
        cl, _ = attach_argument_cache(backend, cl, codec_cfg)
        out.append((instance, cl))
    return out


train_rows = candidates_for(data.train)
scorer = HashedNgramScorer()
result = train_selector(
    scorer,
    [(inst.context, [f.trigger for f in inst.gold_frames], cl) for inst, cl in train_rows],
    SelectorTrainConfig(epochs=12, seed=SEED),
    codec_cfg,
)
print(f"selector trained on {result.n_trained} contexts "
      f"(loss {result.loss_per_epoch[0]:.2f} -> {result.loss_per_epoch[-1]:.2f})")

dev = [(inst, score_candidates(cl, scorer)) for inst, cl in candidates_for(data.dev)]
test = [(inst, score_candidates(cl, scorer)) for inst, cl in candidates_for(data.test)]

tuned = grid_search(dev)
beam_only = grid_search(dev, alpha_grid=[0.0])

print(f"\ntuned on dev:     alpha={tuned.alpha:<4} theta={tuned.theta}")
print(f"beam-only on dev: alpha={beam_only.alpha:<4} theta={beam_only.theta}")

tuned_report = evaluate_selection(test, SelectionConfig(tuned.alpha, tuned.theta))
beam_report = evaluate_selection(test, SelectionConfig(beam_only.alpha, beam_only.theta))
print(f"\ntest Trig-C F1, fused:     {tuned_report.trig_c.f1:.3f}")
print(f"test Trig-C F1, beam-only: {beam_report.trig_c.f1:.3f}")
print(f"re-ranking gain:           {tuned_report.trig_c.f1 - beam_report.trig_c.f1:+.3f}")

print("\nthreshold sweep at the default weight (test split):")
for theta in [round(0.05 * i, 2) for i in range(1, 20, 2)]:
    f1 = evaluate_selection(test, SelectionConfig(alpha=0.4, theta=theta)).trig_c.f1
    print(f"  theta={theta:<5} Trig-C F1={f1:.3f} {'#' * int(40 * f1)}")
