"""Polysomnography processing: hypnodensity estimation and narcolepsy scoring."""

import os
import sys

# pool.one_blas_thread holds BLAS at one thread while the pool and diagnosis
# run.  A command's other BLAS calls run one thread too unless the user set
# OPENBLAS_NUM_THREADS: OpenBLAS reads it when numpy loads, and then starts no
# second thread to spin between calls (night_cc used 14% more CPU without it,
# in the same wall time).  A host program that loaded numpy first keeps its
# own setting, and its environment is left as it was.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import HypnopipeError

__all__ = ["HypnopipeError", "__version__"]
