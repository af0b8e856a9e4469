"""Source-free domain adaptation toolkit for RF indoor localization.

Trains a small convolutional localizer on received-power fingerprints and
adapts it to a shifted deployment with mean-teacher self-distillation
(optionally with confidence-gated pseudo-label correction), or with the
DANN / SHOT-style baselines, without touching source data where the method
forbids it.

The Python API is the submodules (rfloc.localizer, rfloc.meanteacher,
rfloc.cli, ...); importing rfloc itself only pins BLAS and loads no numpy.
"""

import os

# Bit-reproducible training relies on single-threaded BLAS reductions.
# Must run before numpy is imported anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
