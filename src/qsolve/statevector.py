"""Dense statevector simulation with strided-view gate kernels.

Convention used everywhere in this package: qubit 0 is the most
significant bit of a basis-state index, so the leftmost character of a
measured bitstring is qubit 0.  Equivalently, qubit q is axis q of the
amplitudes reshaped to ``(2,) * n``.  Controlled gates of any arity are
applied natively on views of that array, with each control axis fixed at
1; they are never decomposed into smaller gates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .problems import DEFAULT_QUBIT_CAP, QubitBudgetError

PROB_ZERO_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_GATE_NAMES = ("h", "x", "z", "phase", "swap")


@dataclass(frozen=True)
class Gate:
    """A primitive gate kind; ``lam`` is the rotation angle for ``phase``."""

    name: str
    lam: float = 0.0

    def __post_init__(self):
        if self.name not in _GATE_NAMES:
            raise ValueError(f"unknown gate kind {self.name!r}")
        if not math.isfinite(self.lam):
            raise ValueError("phase angle must be finite")
        if self.name != "phase" and self.lam != 0.0:
            raise ValueError(f"gate {self.name!r} takes no angle")

    @property
    def num_targets(self) -> int:
        return 2 if self.name == "swap" else 1

    def inverse(self) -> "Gate":
        if self.name == "phase":
            return Gate("phase", -self.lam)
        return self  # h, x, z and swap are their own inverses


H = Gate("h")
X = Gate("x")
Z = Gate("z")
SWAP = Gate("swap")


def phase(lam: float) -> Gate:
    return Gate("phase", float(lam))


class Histogram(NamedTuple):
    """Measurement outcome counts keyed by bitstring, keys sorted."""

    counts: dict[str, int]

    def most_common(self) -> list[tuple[str, int]]:
        """Outcomes by descending count, ties broken by bitstring."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))


def zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """``np.zeros``, refusing with a MemoryError, before allocating, an array
    whose bytes numpy cannot address (numpy raises a ValueError there)."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > sys.maxsize:
        raise MemoryError(f"an array of shape {shape} needs {nbytes} bytes, past the address space")
    return np.zeros(shape, dtype)


def _qubit_count(state: np.ndarray) -> int:
    """n for a state: ``2**n`` complex128 amplitudes, index 0 = all zeros,
    or a ``(rows, 2**n)`` batch of such states, one per row."""
    size = state.shape[-1] if state.ndim in (1, 2) else 0
    if state.dtype != np.complex128 or size < 1 or size & (size - 1):
        raise ValueError(
            "expected complex128 amplitudes of shape (2**n,) or (rows, 2**n), "
            f"got {state.dtype} of shape {state.shape}"
        )
    return size.bit_length() - 1


def init_zero(num_qubits: int) -> np.ndarray:
    """The all-zeros computational basis state.

    Refuses to allocate more than ``DEFAULT_QUBIT_CAP`` qubits: a dense
    register takes 16 * 2**n bytes, so the cap of 26 tops out at 1 GiB.
    """
    if num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits}")
    if num_qubits > DEFAULT_QUBIT_CAP:
        raise QubitBudgetError(
            f"{num_qubits} qubits requested but the simulator cap is {DEFAULT_QUBIT_CAP}"
        )
    state = zeros((1 << num_qubits,), np.complex128)
    state[0] = 1.0
    return state


def check_operands(
    num_qubits: int,
    gate: Gate,
    controls: Iterable[int],
    targets: Iterable[int],
) -> tuple[frozenset[int], tuple[int, ...]]:
    """Validate and normalize an operation's qubit operands."""
    controls = frozenset(int(q) for q in controls)
    targets = tuple(int(q) for q in targets)
    if len(targets) != gate.num_targets:
        raise ValueError(
            f"gate {gate.name!r} takes {gate.num_targets} target(s), got {len(targets)}"
        )
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits in {targets}")
    for q in (*targets, *controls):
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for a {num_qubits}-qubit register")
    overlap = controls.intersection(targets)
    if overlap:
        raise ValueError(f"controls and targets overlap on qubits {sorted(overlap)}")
    return controls, targets


def apply_gate_in_place(
    state: np.ndarray,
    gate: Gate,
    controls: Iterable[int] = (),
    targets: Iterable[int] = (),
) -> None:
    """Apply a (multi-)controlled gate, mutating ``state``; the state and the
    operands are validated first."""
    controls, targets = check_operands(_qubit_count(state), gate, controls, targets)
    apply_unchecked(state, gate, controls, targets)


def apply_unchecked(
    state: np.ndarray,
    gate: Gate,
    controls: Iterable[int],
    targets: Sequence[int],
) -> None:
    """The gate kernel behind :func:`apply_gate_in_place`, for operands that
    have already passed :func:`check_operands`.

    Axis 0 is the batch axis (a plain state is a batch of one); qubit q is
    axis q + 1.  Fixing control axes at 1 and target axes at 0 or 1, never
    the batch axis, selects views: nothing is gathered or scattered, and a
    row advances bitwise as it would alone.
    """
    n = state.shape[-1].bit_length() - 1
    amps = state.reshape((-1,) + (2,) * n)
    index: list = [slice(None)] * (n + 1)
    for q in controls:
        index[q + 1] = 1

    def view(*bits: int) -> np.ndarray:
        for q, bit in zip(targets, bits):
            index[q + 1] = bit
        return amps[tuple(index)]

    if gate.name == "swap":
        _exchange(view(1, 0), view(0, 1))
    elif gate.name in ("z", "phase"):
        # diagonal: only the control+target-all-ones slice changes
        ones = view(1)
        if gate.name == "z":
            ones *= -1.0
        else:
            rotate(ones, np.exp(1j * gate.lam))
    elif gate.name == "x":
        _exchange(view(0), view(1))
    else:  # h
        # sum, then scale: seeded output depends on these exact roundings
        a0, a1 = view(0), view(1)
        total, diff = a0 + a1, a0 - a1
        total *= _INV_SQRT2
        diff *= _INV_SQRT2
        a0[...] = total
        a1[...] = diff


def _exchange(a: np.ndarray, b: np.ndarray) -> None:
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def rotate(v: np.ndarray, f) -> None:
    """``v *= f`` for complex ``v`` and a complex ``f`` that broadcasts to it, as
    four float64 products and two sums, each its own ufunc: numpy's complex
    multiply fuses a product into a sum at some SIMD levels and not others."""
    f = np.asarray(f)
    re, im = v.real, v.imag
    out = re * f.real
    out -= im * f.imag
    im *= f.real
    im += re * f.imag
    re[...] = out


def probabilities(state: np.ndarray) -> np.ndarray:
    # squares and a sum, each its own ufunc: rounded alike at every SIMD level
    return state.real**2 + state.imag**2


def bitstring(index: int, num_qubits: int, qubits: Sequence[int] | None = None) -> str:
    """Readout of ``index`` over ``qubits`` in the given order (default: all)."""
    bits = format(index, f"0{num_qubits}b")
    return bits if qubits is None else "".join(bits[q] for q in qubits)


def sorted_draws(shots: int, seed: int) -> np.ndarray:
    """The ``shots`` uniforms ``Generator.choice`` draws at ``seed``, sorted.

    They depend on nothing else, so one draw serves every register sampled
    at that seed, and sorting them leaves every histogram as it was.
    """
    return np.sort(np.random.default_rng(seed).random(shots))


def outcome_cdf(state: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice`` samples ``state`` by.

    Probabilities below ``PROB_ZERO_TOL`` are clamped to zero before
    normalizing, so numerically-dead outcomes can never fire.
    """
    cdf = probabilities(state)
    cdf[cdf < PROB_ZERO_TOL] = 0.0
    total = cdf.sum()
    if not math.isfinite(total):
        raise ValueError("state has non-finite probabilities")
    if total <= 0.0:
        raise ValueError("state has no measurable probability mass")
    cdf /= total
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def sample(
    state: np.ndarray,
    shots: int,
    seed: int,
    qubits: Sequence[int] | None = None,
) -> Histogram:
    """Draw ``shots`` basis-state measurements of a qubit subset.

    Each draw of :func:`sorted_draws` selects, by the inverse of
    :func:`outcome_cdf`, the basis state ``choice`` would, so the same seed
    always yields the same histogram.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    n = _qubit_count(state)
    if state.ndim != 1:
        raise ValueError(f"a batch of states cannot be sampled, got shape {state.shape}")
    qs = tuple(int(q) for q in (range(n) if qubits is None else qubits))
    if not qs:
        raise ValueError("qubit subset must not be empty")
    if len(set(qs)) != len(qs):
        raise ValueError(f"duplicate qubits in subset {qs}")
    for q in qs:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for a {n}-qubit register")
    # sorted draws give sorted outcomes
    outcomes = outcome_cdf(state).searchsorted(sorted_draws(shots, seed), side="right")
    starts = np.flatnonzero(np.diff(outcomes, prepend=-1))
    freq = np.diff(starts, append=shots)
    keys = [bitstring(v, n, qs) for v in outcomes[starts].tolist()]
    counts: dict[str, int] = {}
    # distinct full-register outcomes may project onto the same subset key
    for key, c in sorted(zip(keys, freq.tolist())):
        counts[key] = counts.get(key, 0) + c
    return Histogram(counts)
