"""Circuit representation: named registers, an ordered gate list, structural
inversion, H-layer and Fourier-transform builders, execution, and export to a
line-oriented text format."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

# qsolve's modules first, so an uncached compile's memory is freed before numpy loads
from .problems import QubitRegister
from .statevector import (
    Gate,
    H,
    Histogram,
    SWAP,
    X,
    apply_unchecked,
    check_operands,
    init_zero,
    phase,
    sample,
)

import numpy as np


class CircuitOp(NamedTuple):
    """One gate application; controls are unordered, targets ordered."""

    gate: Gate
    controls: frozenset[int] = frozenset()
    targets: tuple[int, ...] = ()

    def inverse(self) -> "CircuitOp":
        return CircuitOp(self.gate.inverse(), self.controls, self.targets)


class Circuit:
    """An ordered tuple of operations on ``num_qubits`` qubits.

    An op is validated once, when it enters a circuit through ``add``;
    ``extend`` of a circuit no wider than this one, ``inverse`` and
    ``execute`` rely on that and do not check again.  The builder methods
    return ``self`` so constructions chain.
    """

    def __init__(self, num_qubits: int, registers: Iterable[QubitRegister] = ()):
        if num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {num_qubits}")
        self.num_qubits = num_qubits
        self.registers = tuple(registers)
        self.ops: tuple[CircuitOp, ...] = ()
        names = set()
        claimed: set[int] = set()
        for reg in self.registers:
            if reg.name in names:
                raise ValueError(f"duplicate register name {reg.name!r}")
            names.add(reg.name)
            for q in reg.qubits:
                if q >= num_qubits:
                    raise ValueError(f"register {reg.name!r} extends past qubit {num_qubits - 1}")
                if q in claimed:
                    raise ValueError(f"register {reg.name!r} overlaps qubit {q}")
                claimed.add(q)

    def add(
        self,
        gate: Gate,
        controls: Iterable[int] = (),
        targets: Iterable[int] = (),
    ) -> "Circuit":
        controls, targets = check_operands(self.num_qubits, gate, controls, targets)
        self.ops += (CircuitOp(gate, controls, targets),)
        return self

    def extend(self, fragment: "Circuit") -> "Circuit":
        """Append the ops of a circuit no wider than this one."""
        if fragment.num_qubits > self.num_qubits:
            raise ValueError(
                f"a {fragment.num_qubits}-qubit circuit does not fit in {self.num_qubits} qubits"
            )
        self.ops += fragment.ops
        return self

    # --- single-gate sugar -------------------------------------------------

    def h(self, qubit: int) -> "Circuit":
        return self.add(H, targets=(qubit,))

    def x(self, qubit: int) -> "Circuit":
        return self.add(X, targets=(qubit,))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add(SWAP, targets=(a, b))

    def mcx(self, controls: Iterable[int], target: int) -> "Circuit":
        return self.add(X, controls=controls, targets=(target,))

    def phase_on(
        self, lam: float, qubit: int, controls: Iterable[int] = ()
    ) -> "Circuit":
        return self.add(phase(lam), controls=controls, targets=(qubit,))


def inverse(circuit: Circuit) -> Circuit:
    """The exact inverse: each op inverted, order reversed."""
    inv = Circuit(circuit.num_qubits, circuit.registers)
    inv.ops = tuple(op.inverse() for op in reversed(circuit.ops))
    return inv


def h_layer(num_qubits: int) -> Circuit:
    """H on qubits 0..n-1: the uniform superposition from all zeros."""
    frag = Circuit(num_qubits)
    for q in range(num_qubits):
        frag.h(q)
    return frag


def build_qft(num_qubits: int) -> Circuit:
    """Fourier transform on qubits 0..m-1: basis input j maps to amplitudes
    exp(2*pi*i*j*l / 2**m) / sqrt(2**m) at index l.

    The trailing swap layer is included, so with qubit 0 as the most
    significant bit the output reads in the same order as input.
    """
    m = num_qubits
    frag = Circuit(m)
    for i in range(m):
        frag.h(i)
        for j in range(i + 1, m):
            frag.phase_on(math.pi / 2 ** (j - i), i, controls=(j,))
    for i in range(m // 2):
        frag.swap(i, m - 1 - i)
    return frag


def apply_ops(state: np.ndarray, ops: Iterable[CircuitOp]) -> None:
    """Apply ops, validated when they entered a circuit, in order and in place."""
    for op in ops:
        apply_unchecked(state, op.gate, op.controls, op.targets)


def execute(circuit: Circuit, shots: int = 0, seed: int = 0) -> tuple[np.ndarray, Histogram | None]:
    """Run the circuit from the all-zeros state.

    shots=0 skips sampling entirely (the seed is never consumed) and
    returns ``(state, None)``; otherwise the histogram covers all qubits in
    order.  To read out a subset, call ``sample`` on the returned state.
    """
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    state = init_zero(circuit.num_qubits)
    apply_ops(state, circuit.ops)
    return state, (sample(state, shots, seed) if shots else None)


# --- text export -------------------------------------------------------------


def export_text(circuit: Circuit) -> Iterator[str]:
    """Render a circuit in the v1 text format, one line at a time.

    One header line, one line per register, then one line per op in order,
    each ending in a newline. Controls are written sorted; phase angles are
    written with ``repr``, the shortest text that reads back as the
    identical float.
    """
    yield f"qsolve-circuit v1 qubits={circuit.num_qubits}\n"
    for reg in circuit.registers:
        yield f"register {reg.name} {reg.offset} {reg.width}\n"
    for op in circuit.ops:
        kind = op.gate.name
        if kind == "phase":
            kind = f"phase({op.gate.lam!r})"
        ctrl = ",".join(str(q) for q in sorted(op.controls))
        tgt = ",".join(str(q) for q in op.targets)
        yield f"{kind} controls=[{ctrl}] targets=[{tgt}]\n"
