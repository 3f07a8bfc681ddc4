"""Quantum-circuit solvers for small constraint and routing problems,
backed by a dense statevector simulator."""

from . import circuit, cli, errors, grover_sat, qpe_tsp, statevector

__version__ = "0.1.0"
