"""Quantum-circuit solvers for small constraint and routing problems,
backed by a dense statevector simulator."""

import os
import sys

# qsolve makes no BLAS call, so OpenBLAS need not start a thread per core
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# each solver module is imported by the first problem that names it
from . import cli

__version__ = "0.1.0"
