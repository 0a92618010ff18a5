"""A desk-scale laboratory for computable reducibility.

Importing the package registers every program combinator and every
shipped reduction, so ``celab.reductions.REDUCTIONS`` is fully
populated after ``import celab``.
"""

from . import descriptors  # noqa: F401
from .reductions import basic, below, benchmark, structures  # noqa: F401

__version__ = "0.1.0"
