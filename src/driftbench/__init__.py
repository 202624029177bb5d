"""Covariate-shift scoring and leave-one-domain-out benchmarking.

Pipeline: pack clip features (dataset), cluster them (clustering), score
per-group shift as mean-plus-scaled-spread over prototype distances
(shift_metric), carve hold-one-domain-out splits (splits), train a small
two-layer one-vs-all classifier (mlp, training), and correlate shift
scores with per-domain accuracy (analysis). synth provides seeded
desk-scale datasets with injectable covariate offsets.
"""

__version__ = "0.1.0"
