"""Quantum-circuit solvers for small constraint and routing problems,
backed by a dense statevector simulator."""

import os
import sys

# qsolve makes no BLAS call, so OpenBLAS need not start a thread per core
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the CLI and the problem model import no numpy; each solver module is
# imported by the first problem that names it
from . import cli

__version__ = "0.1.0"

_LAZY_SUBMODULES = frozenset({"circuit", "grover_sat", "qpe_tsp", "statevector"})


def __getattr__(name):
    """Import a numpy-backed submodule on first attribute access (PEP 562).

    ``__import__``, unlike ``importlib.import_module``, is logged by
    ``python -X importtime``."""
    if name not in _LAZY_SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{name}")
    return globals()[name]
