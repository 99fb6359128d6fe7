"""Polysomnography processing: hypnodensity estimation and narcolepsy scoring."""

from . import pool  # noqa: F401  first: it sets the BLAS default before numpy loads
from .errors import HypnopipeError

__version__ = "0.1.0"
__all__ = ["HypnopipeError", "__version__"]
