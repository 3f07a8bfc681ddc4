"""Dense statevector simulation with strided-view gate kernels.

Convention used everywhere in this package: qubit 0 is the most
significant bit of a basis-state index, so the leftmost character of a
measured bitstring is qubit 0.  Equivalently, qubit q is axis q of the
amplitudes reshaped to ``(2,) * n``.  Controlled gates of any arity are
applied natively on views of that array, with each control axis fixed at
1; they are never decomposed into smaller gates.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .problems import DEFAULT_QUBIT_CAP, QubitBudgetError

PROB_ZERO_TOL = 1e-12
# elements per imaginary-square temporary in probabilities: 512 KiB of float64
_PROB_CHUNK = 1 << 16

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_GATE_NAMES = ("h", "x", "z", "phase", "swap")


class _GateFields(NamedTuple):
    name: str
    lam: float = 0.0


class Gate(_GateFields):
    """A primitive gate kind; ``lam`` is the rotation angle for ``phase``."""

    __slots__ = ()

    def __new__(cls, name: str, lam: float = 0.0) -> "Gate":
        if name not in _GATE_NAMES:
            raise ValueError(f"unknown gate kind {name!r}")
        if not math.isfinite(lam):
            raise ValueError("phase angle must be finite")
        if name != "phase" and lam != 0.0:
            raise ValueError(f"gate {name!r} takes no angle")
        return super().__new__(cls, name, lam)

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


def uniform(shape: tuple[int, ...]) -> np.ndarray:
    """Rows of ``2**n`` complex128 amplitudes, each the state an H layer on
    qubits 0..n-1 makes of the all-zeros state, bit for bit, built by value.

    The H kernel sums an amplitude with a 0 and scales by ``_INV_SQRT2``, so
    after k layers every reached amplitude is 1 scaled k times in turn, with
    a +0 imaginary part.  Allocated through :func:`zeros`, so a shape past
    the address space is refused before any allocation.
    """
    state = zeros(shape, np.complex128)
    amp = 1.0
    for _ in range(shape[-1].bit_length() - 1):
        amp *= _INV_SQRT2
    state.real = amp
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
        # sum, then scale: seeded output depends on these exact roundings;
        # the difference is written over a1, so the sum is the one temporary
        a0, a1 = view(0), view(1)
        total = a0 + a1
        np.subtract(a0, a1, out=a1)
        total *= _INV_SQRT2
        a1 *= _INV_SQRT2
        a0[...] = total


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
    """``state.real**2 + state.imag**2``, bit for bit, for an array or a scalar.

    Squares and a sum, each its own ufunc: rounded alike at every SIMD level.
    The imaginary squares are taken ``_PROB_CHUNK`` elements at a time, so
    the result is the one array the size of ``state``.
    """
    out = np.empty(np.shape(state))  # C order, so out.reshape(-1) is a view
    np.square(state.real, out=out)
    flat, im = out.reshape(-1), np.reshape(state.imag, -1)
    for start in range(0, flat.size, _PROB_CHUNK):
        chunk = slice(start, start + _PROB_CHUNK)
        flat[chunk] += np.square(im[chunk])
    return out


def bitstring(index: int, num_qubits: int, qubits: Sequence[int] | None = None) -> str:
    """Readout of ``index`` over ``qubits`` in the given order (default: all)."""
    bits = format(index, f"0{num_qubits}b")
    return bits if qubits is None else "".join(bits[q] for q in qubits)


@functools.lru_cache(maxsize=1)
def sorted_draws(shots: int, seed: int) -> np.ndarray:
    """The ``shots`` uniforms ``Generator.choice`` draws at ``seed``, sorted:
    ``np.sort(np.random.default_rng(seed).random(shots))``, bit for bit.

    They depend on nothing else, so one draw serves every register sampled
    at that seed, and sorting them leaves every histogram as it was.  The
    last draw is kept, read-only, for the next call with the same arguments.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    draws = _pcg64_doubles(shots, seed)
    draws.sort()
    draws.flags.writeable = False
    return draws


def outcome_cdf(cdf: np.ndarray) -> np.ndarray:
    """Turn float64 outcome probabilities (:func:`probabilities`) into the
    cumulative distribution ``Generator.choice`` samples by, in place.

    Probabilities below ``PROB_ZERO_TOL`` are clamped to zero before
    normalizing, so numerically-dead outcomes can never fire.
    """
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
    """Draw ``shots`` basis-state measurements of a qubit subset: the
    operands are checked, then :func:`sample_probabilities` draws."""
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
    return sample_probabilities(probabilities(state), shots, seed, qs)


def sample_probabilities(
    probs: np.ndarray, shots: int, seed: int, qubits: Sequence[int] | None = None
) -> Histogram:
    """Draw ``shots`` measurements, over distinct in-range ``qubits``, from the
    ``2**n`` outcome probabilities ``probs``, made their CDF in place.  Each
    draw of :func:`sorted_draws` selects, by the inverse of :func:`outcome_cdf`,
    the basis state ``choice`` would, so a seed always gives one histogram."""
    n = probs.size.bit_length() - 1
    # sorted draws give sorted outcomes
    outcomes = outcome_cdf(probs).searchsorted(sorted_draws(shots, seed), side="right")
    starts = np.flatnonzero(np.diff(outcomes, prepend=-1))
    freq = np.diff(starts, append=shots)
    keys = [bitstring(v, n, qubits) for v in outcomes[starts].tolist()]
    counts: dict[str, int] = {}
    # distinct full-register outcomes may project onto the same subset key
    for key, c in sorted(zip(keys, freq.tolist())):
        counts[key] = counts.get(key, 0) + c
    return Histogram(counts)


# numpy's default_rng(seed) is PCG64 (XSL-RR 128/64; O'Neill, "PCG: A Family of
# Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905) seeded by SeedSequence(seed).  NEP 19 fixes a
# BitGenerator's stream across numpy versions.  Drawing it here keeps
# numpy.random, and the libcrypto its import loads, out of every solve.

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_LOW32, _32 = np.uint64(_M32), np.uint64(32)
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
# states advanced per pass of numpy ops: memory beyond the output is O(block)
_DRAW_BLOCK = 1 << 14


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """(state, increment) of ``PCG64(seed)`` before its first draw.

    ``SeedSequence(seed).generate_state(4, uint64)`` in 32-bit words: the
    seed's little-endian words hashed into a pool of 4, then 8 output words.
    """
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    initstate, initseq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
    inc = (initseq << 1 | 1) & _M128
    # a step from 0 gives inc; add initstate and step again
    return ((inc + initstate) * _PCG_MULT + inc) & _M128, inc


def _advance(hi: np.ndarray, lo: np.ndarray, mult: int, add: int, scratch) -> None:
    """``(hi, lo) = (hi, lo) * mult + add`` mod 2**128 in place; ``scratch`` is
    four uint64 arrays the shape of ``hi``."""
    m0, m1, m_lo, m_hi, add0, add1, add_lo, add_hi = (
        np.uint64(w) for x in (mult, add) for w in (x & _M32, x >> 32 & _M32, x & _M64, x >> 64)
    )
    a0, a1, t, u = scratch
    # the high word of lo * m_lo + add_lo, from 32-bit halves: each partial
    # sum stays below 2**64, so the low word's carry needs no comparison,
    # whose bool result numpy would cast into a uint64 array
    np.bitwise_and(lo, _LOW32, out=a0)
    np.right_shift(lo, _32, out=a1)
    np.multiply(a0, m0, out=t)
    t += add0
    t >>= _32
    np.multiply(a1, m0, out=u)
    t += u
    a0 *= m1
    np.bitwise_and(t, _LOW32, out=u)
    u += a0
    u += add1
    a1 *= m1
    t >>= _32
    a1 += t
    u >>= _32
    a1 += u
    # every other product wraps mod 2**64
    hi *= m_lo
    hi += a1
    np.multiply(lo, m_hi, out=a0)
    hi += a0
    hi += add_hi
    lo *= m_lo
    lo += add_lo


def _pcg64_doubles(shots: int, seed: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(shots)``, unsorted."""
    out = zeros((shots,), np.float64)
    state, inc = _pcg64_seed(seed)
    block = min(shots, _DRAW_BLOCK)
    hi, lo, *scratch = (zeros((block,), np.uint64) for _ in range(6))
    first = (state * _PCG_MULT + inc) & _M128  # each draw steps, then outputs
    hi[0], lo[0] = first >> 64, first & _M64
    # fill states 2 .. block by doubling: a jump of `filled` steps is
    # (mult, add), and two of them are (mult**2, (mult + 1) * add)
    mult, add, filled = _PCG_MULT, inc, 1
    while filled < block:
        k = min(filled, block - filled)
        new = slice(filled, filled + k)
        hi[new], lo[new] = hi[:k], lo[:k]
        _advance(hi[new], lo[new], mult, add, [a[:k] for a in scratch])
        filled += k
        mult, add = mult * mult & _M128, (mult + 1) * add & _M128
    for start in range(0, shots, block):
        if start:
            _advance(hi, lo, mult, add, scratch)  # a jump of `block` steps
        n = min(block, shots - start)
        h, x, rot, low = hi[:n], scratch[0][:n], scratch[1][:n], scratch[2][:n]
        # XSL-RR: (hi ^ lo) rotated right by the top 6 bits of hi; numpy
        # shifts a uint64 by 64 to 0, so a rotation by 0 keeps x
        np.bitwise_xor(h, lo[:n], out=x)
        np.right_shift(h, np.uint64(58), out=rot)
        np.right_shift(x, rot, out=low)
        np.subtract(np.uint64(64), rot, out=rot)
        x <<= rot
        x |= low
        x >>= np.uint64(11)
        draws = out[start : start + n]
        draws[...] = x.view(np.int64)  # below 2**53: exact, and faster than from uint64
        draws *= 2.0**-53
    return out
