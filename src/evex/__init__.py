"""Event extraction by generation and contrastive candidate selection.

The pipeline generates trigger candidates with a sequence-to-sequence
backend, re-ranks them with a contrastively trained scorer, selects triggers
by thresholding fused softmax scores, and finally generates and parses
role-tagged argument frames. Inference needs nothing but the input context:
no event-type templates, no schema, no trigger hints.
"""
