"""Polysomnography processing: hypnodensity estimation and narcolepsy scoring."""

import os
import sys

# The ensemble's members share the cores through pool.thread_map, so BLAS runs
# one thread unless the user set OPENBLAS_NUM_THREADS.  OpenBLAS reads it when
# numpy loads; a host program that loaded numpy first keeps its own setting,
# and its environment is left as it was.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import HypnopipeError

__all__ = ["HypnopipeError", "__version__"]
