"""Travelling-salesman solving by per-cycle phase readout.

Each Hamiltonian cycle over nodes 1..n is encoded as a successor table on
n * ceil(log2 n) qubits.  A diagonal operator advances every basis state by
a phase proportional to the total weight of the edges its successor blocks
point along, scaled by a power of two strictly larger than any possible
tour length.  Phase estimation on that eigenstate therefore reads the tour
length back exactly, and the shortest cycle is picked classically.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

# qsolve's modules first, so an uncached compile's memory is freed before numpy loads
from .circuit import Circuit, QubitRegister, apply_ops, build_qft, h_layer, inverse
from .problems import (  # phase_scale and validate_instance are reached from here too
    DEFAULT_QUBIT_CAP,
    MAX_NODES,
    MIN_NODES,
    TspInstance,
    phase_scale,
    precision_plan,
    request_error,
    validate_instance,
)
from .statevector import outcome_cdf, probabilities, rotate, sorted_draws, uniform

import numpy as np

Tour = tuple[int, ...]


def enumerate_cycles(n_nodes: int) -> list[Tour]:
    """All (n-1)!/2 rotation- and reversal-unique Hamiltonian cycles in
    canonical form (start at node 1, second node smaller than last), in
    lexicographic order."""
    if not MIN_NODES <= n_nodes <= MAX_NODES:
        raise ValueError(
            f"node count {n_nodes} outside the supported range {MIN_NODES}..{MAX_NODES}"
        )
    tours: list[Tour] = []
    for rest in itertools.permutations(range(2, n_nodes + 1)):
        if rest[0] < rest[-1]:
            tours.append((1, *rest))
    return tours


def display_tour(tour: Sequence[int]) -> Tour:
    """The same cycle walked in the opposite direction, still from node 1."""
    return (tour[0], *reversed(tuple(tour[1:])))


def tour_length(instance: TspInstance, tour: Sequence[int]) -> int:
    closed = (*tour, tour[0])
    return sum(instance.weight(a, b) for a, b in zip(closed, closed[1:]))


def bits_per_node(n_nodes: int) -> int:
    return (n_nodes - 1).bit_length()  # ceil(log2 n) for n >= 2


def encode_eigenstate(tour: Sequence[int], n_nodes: int) -> int:
    """Basis index of a cycle's successor table.

    Node i's block of bits_per_node qubits holds successor(i) - 1, MSB
    first; node 1's block sits at qubit 0 (the leftmost bits).
    """
    if sorted(tour) != list(range(1, n_nodes + 1)):
        raise ValueError(f"tour {tuple(tour)} is not a permutation of 1..{n_nodes}")
    b = bits_per_node(n_nodes)
    successor = {tour[i]: tour[(i + 1) % n_nodes] for i in range(n_nodes)}
    index = 0
    for node in range(1, n_nodes + 1):
        index = (index << b) | (successor[node] - 1)
    return index


def decode_successors(index: int, n_nodes: int) -> list[int]:
    """Per-node successor claims of a basis index (1-based, possibly > n)."""
    b = bits_per_node(n_nodes)
    mask = (1 << b) - 1
    claims = []
    for node in range(n_nodes, 0, -1):
        claims.append((index & mask) + 1)
        index >>= b
    return claims[::-1]


class WeightPhaseDiagonal(NamedTuple):
    """Diagonal operator on the successor register.

    Basis state x picks up exp(2*pi*i * E(x) / scale) where E(x) sums the
    weight of every edge a successor block points along (self-loops and
    out-of-range claims contribute nothing).  Encoded cycles are eigenstates
    whose phase is tour_length / scale.
    """

    weights: tuple[tuple[int, ...], ...]
    scale: int

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def exponent(self, index: int) -> int:
        total = 0
        for node, claim in enumerate(decode_successors(index, self.n_nodes), start=1):
            if claim <= self.n_nodes and claim != node:
                total += self.weights[node - 1][claim - 1]
        return total


def build_phase_unitary(instance: TspInstance, scale: int) -> WeightPhaseDiagonal:
    return WeightPhaseDiagonal(instance.weights, scale)


# --- phase estimation ---------------------------------------------------------


class PhaseEstimate(NamedTuple):
    raw: int
    precision_bits: int
    phase: float
    probability: float


def kickback_angles(exponent: int, scale: int, precision_bits: int) -> list[float]:
    """Phase-gate angle on each precision qubit for an eigenstate of the
    given exponent.  The operator is diagonal, so a controlled U**(2**k) on
    the fixed eigenstate collapses to a phase on its own control qubit;
    qubit j carries the 2**(m-1-j) power so the readout is MSB-first, and
    the phase is reduced mod 1 before scaling by 2*pi."""
    theta = (exponent % scale) / scale
    powers = range(precision_bits - 1, -1, -1)
    return [2.0 * math.pi * math.fmod(theta * (1 << k), 1.0) for k in powers]


def qpe_circuit(unitary: WeightPhaseDiagonal, eigenstate: int, precision_bits: int) -> Circuit:
    """Phase-estimation circuit over the precision register alone: an H layer,
    the phases of :func:`kickback_angles`, and the inverse Fourier transform
    as the structural inverse of :func:`build_qft`."""
    m = precision_bits
    circ = Circuit(m, registers=(QubitRegister("precision", 0, m),)).extend(h_layer(m))
    for j, angle in enumerate(kickback_angles(unitary.exponent(eigenstate), unitary.scale, m)):
        circ.phase_on(angle, j)
    circ.extend(inverse(build_qft(m)))
    return circ


def estimate_phases(
    exponents: Sequence[int], scale: int, precision_bits: int, shots: int, seed: int
) -> list[PhaseEstimate]:
    """:func:`qpe_circuit` for one eigenstate of each exponent, as rows of one
    batch run through a single pass of the ops.  Each row reads out its modal
    bitstring over ``shots`` draws at ``seed`` (count ties broken by
    bitstring)."""
    m = precision_bits
    batch = uniform((len(exponents), 1 << m))
    # the kickback, with the phase kernel's np.exp and rotate, so rows match bit for bit
    amps = batch.reshape((-1,) + (2,) * m)
    factors = np.exp(1j * np.array([kickback_angles(e, scale, m) for e in exponents]))
    for j in range(m):
        rotate(amps[(slice(None),) * (j + 1) + (1,)], factors[:, j].reshape((-1,) + (1,) * (m - 1)))
    apply_ops(batch, inverse(build_qft(m)).ops)
    draws = sorted_draws(shots, seed)
    estimates = []
    for row in batch:
        # the draws below each CDF step, differenced, count each outcome's draws
        # (as sample would assign them); argmax takes the first maximum,
        # so count ties go to the lowest bitstring
        raw = int(np.diff(draws.searchsorted(outcome_cdf(probabilities(row))), prepend=0).argmax())
        estimates.append(PhaseEstimate(raw, m, raw / (1 << m), float(probabilities(row[raw]))))
    return estimates


def decode_phase(estimate: PhaseEstimate, scale: int) -> int:
    """Map a phase estimate back to an integer weight: round(phase * scale)."""
    return round(estimate.phase * scale)


# --- solver -------------------------------------------------------------------


class TspReport(NamedTuple):
    best_tour: Tour
    best_length: int
    tours: list[Tour]  # every canonical cycle, in enumerate_cycles order
    lengths: list[int]
    estimates: list[PhaseEstimate]  # cycles of one exponent share one estimate
    precision_bits: int
    scale: int


def solve(
    instance: TspInstance,
    *,
    shots: int = 4096,
    seed: int = 0,
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> TspReport:
    """Estimate every canonical cycle's length through the phase register,
    one phase estimation of ``shots`` draws per distinct exponent, and
    return the minimum (ties broken by lexicographic tour)."""
    fault = request_error(shots, seed, max_qubits)
    if fault:
        raise ValueError(fault)
    scale, m, chunk = precision_plan(instance, max_qubits)
    tours = enumerate_cycles(instance.n_nodes)
    # each cycle's closed walk, summed in a plain loop: no numpy table of the
    # cycles, and no generator per tour
    rows = [(), *((0, *row) for row in instance.weights)]  # rows[a][b]: edge a-b, 1-based
    exponents = []
    for tour in tours:
        a, length = tour[-1], 0
        for b in tour:
            length += rows[a][b]
            a = b
        exponents.append(length)
    # a cycle's seeded readout depends only on its exponent: estimate and decode
    # each distinct exponent once, in batches of as many rows as the budget holds
    distinct = list(dict.fromkeys(exponents))
    estimates: dict[int, PhaseEstimate] = {}
    for start in range(0, len(distinct), chunk):
        rows = distinct[start : start + chunk]
        estimates.update(zip(rows, estimate_phases(rows, scale, m, shots, seed)))
    decoded = {e: decode_phase(estimate, scale) for e, estimate in estimates.items()}
    lengths = [decoded[e] for e in exponents]
    # tours are in lexicographic order, so the first minimum breaks ties
    best = lengths.index(min(lengths))
    return TspReport(
        best_tour=tours[best],
        best_length=lengths[best],
        tours=tours,
        lengths=lengths,
        estimates=[estimates[e] for e in exponents],
        precision_bits=m,
        scale=scale,
    )
