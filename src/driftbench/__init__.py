"""Covariate-shift scoring and leave-one-domain-out benchmarking.

Pipeline: pack clip features (dataset), cluster them (clustering), score
per-group shift as mean-plus-scaled-spread over prototype distances
(shift_metric), carve hold-one-domain-out splits (splits), train a small
two-layer one-vs-all classifier (mlp, training), and correlate shift
scores with per-domain accuracy (analysis). synth provides seeded
desk-scale datasets with injectable covariate offsets.

Importing the package keeps the BLAS library on one thread: the modules
split their own work across the CPUs (see parallel), and BLAS threads of
their own would compete with those parts and with train-all's workers.
A value the caller has set wins, and a process that imported NumPy
before this package keeps the threads its BLAS started with.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"
