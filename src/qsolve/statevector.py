"""Dense statevector simulation with strided-view gate kernels, and a solve's
numpy kernels: sign table, two-level sampler, phase-estimation rows, draws.

Convention used everywhere in this package: qubit 0 is the most
significant bit of a basis-state index, so the leftmost character of a
measured bitstring is qubit 0.  Equivalently, qubit q is axis q of the
amplitudes reshaped to ``(2,) * n``.  Controlled gates of any arity are
applied natively on views of that array, with each control axis fixed at
1; they are never decomposed into smaller gates.  The numpy-free half, and
a small solve's pure-Python kernels, are in :mod:`qsolve.scalar`.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

# qsolve's modules first, so an uncached compile's memory is freed before numpy
# loads; H, X, Z, SWAP, phase and Histogram are reached from here too
from .problems import DEFAULT_QUBIT_CAP, QubitBudgetError, QubitLayout
from .scalar import _INV_SQRT2, _M32, _M64, _M128, _PCG_MULT, PROB_ZERO_TOL, SWAP, Gate, H
from .scalar import Histogram, X, Z, _pcg64_seed, _tree_sum, bitstring, check_operands, phase

import numpy as np

# elements per imaginary-square temporary in probabilities: 512 KiB of float64
_PROB_CHUNK = 1 << 16
# outcomes per pass of sample_two_levels: 2 MiB of float64
_CDF_CHUNK = 1 << 18


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
    state = np.zeros((1 << num_qubits,), np.complex128)
    state[0] = 1.0
    return state


def uniform(shape: tuple[int, ...]) -> np.ndarray:
    """Rows of ``2**n`` complex128 amplitudes, each the state an H layer on
    qubits 0..n-1 makes of the all-zeros state, bit for bit, built by value.

    The H kernel sums an amplitude with a 0 and scales by ``_INV_SQRT2``, so
    after k layers every reached amplitude is 1 scaled k times in turn, with
    a +0 imaginary part.
    """
    state = np.zeros(shape, np.complex128)
    amp = 1.0
    for _ in range(shape[-1].bit_length() - 1):
        amp *= _INV_SQRT2
    state.real = amp
    return state


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
    """Draw ``shots`` basis-state measurements of a qubit subset.  Each draw
    of :func:`sorted_draws` selects, by the inverse of :func:`outcome_cdf`,
    the basis state ``choice`` would, so a seed always gives one histogram."""
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
    cdf = outcome_cdf(probabilities(state))
    return _histogram(cdf.searchsorted(sorted_draws(shots, seed), side="right"), n, qs)


def sample_two_levels(
    mask: np.ndarray, num_qubits: int, hit: float, miss: float, shots: int, seed: int
) -> Histogram:
    """Draw ``shots`` measurements of ``num_qubits`` qubits whose outcome i
    has probability ``hit`` where bit i of ``mask`` is set and ``miss``
    elsewhere: bit for bit :func:`sample` of a state with those squares.

    ``mask`` is little-endian ``uint64`` words, bit j of word w for outcome
    64w + j.  No array of ``2**num_qubits`` elements is made: three passes
    fill one buffer of ``_CDF_CHUNK`` outcomes at a time.  The first sums
    each chunk and adds the sums as a binary tree, the order of numpy's
    pairwise sum over the whole array.  The second carries the cumulative
    sum from chunk to chunk, as ``np.cumsum`` runs, to its last value.  The
    third repeats it, divides by that value, and finds the sorted draws
    that fall in the chunk.  The clamp of :func:`outcome_cdf` applies to the
    two levels themselves.
    """
    size = 1 << num_qubits
    chunk = min(size, _CDF_CHUNK)
    starts = range(0, size, chunk)
    mask_bytes = mask.view(np.uint8)
    buf = np.empty(chunk)

    def fill(start: int, marked: float, unmarked: float) -> np.ndarray:
        bits = np.unpackbits(
            mask_bytes[start >> 3 : (start + chunk + 7) >> 3], count=chunk, bitorder="little"
        )
        buf.fill(unmarked)
        np.copyto(buf, marked, where=bits.view(bool))
        return buf

    hit, miss = (0.0 if p < PROB_ZERO_TOL else p for p in (hit, miss))
    total = _tree_sum([float(fill(start, hit, miss).sum()) for start in starts])
    if not math.isfinite(total):
        raise ValueError("state has non-finite probabilities")
    if total <= 0.0:
        raise ValueError("state has no measurable probability mass")
    hit, miss = hit / total, miss / total

    def cumulative(start: int, carry: float) -> np.ndarray:
        fill(start, hit, miss)[0] += carry
        return np.cumsum(buf, out=buf)

    ends = [0.0]  # the cumulative sum before each chunk, then after the last
    for start in starts:
        ends.append(float(cumulative(start, ends[-1])[-1]))
    last = ends[-1]
    draws = sorted_draws(shots, seed)
    outcomes = np.empty(shots, np.intp)
    lo = 0
    for start, carry, end in zip(starts, ends, ends[1:]):
        hi = int(draws.searchsorted(end / last))  # the draws below this chunk's top
        if hi > lo:
            cdf = cumulative(start, carry)
            cdf /= last
            outcomes[lo:hi] = cdf.searchsorted(draws[lo:hi], side="right")
            outcomes[lo:hi] += start
            lo = hi
    return _histogram(outcomes, num_qubits)


def _histogram(
    outcomes: np.ndarray, num_qubits: int, qubits: Sequence[int] | None = None
) -> Histogram:
    """The counts of sorted basis-state ``outcomes``, read out over ``qubits``."""
    starts = np.flatnonzero(np.diff(outcomes, prepend=-1))
    freq = np.diff(starts, append=outcomes.size)
    keys = [bitstring(v, num_qubits, qubits) for v in outcomes[starts].tolist()]
    counts: dict[str, int] = {}
    # distinct full-register outcomes may project onto the same subset key
    for key, c in sorted(zip(keys, freq.tolist())):
        counts[key] = counts.get(key, 0) + c
    return Histogram(counts)


# bit j of word ``_LOW_BIT_WORDS[p]`` is bit p of j, for the index bits inside a word
_LOW_BIT_WORDS = tuple(sum(1 << j for j in range(64) if j >> p & 1) for p in range(6))
_WORD = np.dtype("<u8")  # little-endian, so a word's bytes unpack in assignment order
_ONES = np.uint64((1 << 64) - 1)


def sign_table(ops: Sequence, layout: QubitLayout) -> np.ndarray:
    """The packed sign table: bit j of little-endian ``uint64`` word w is set
    exactly when the compute block ``ops``, X gates given as checked
    ``(controls, (target,))`` pairs, sets every flag of search assignment
    64w + j (a register under 6 bits fills part of one word, the rest 0).
    The ops run bit-sliced, on ``layout.table_block`` words at a time: each
    qubit is a column of 64-bit words, bit j of word w holding its value on
    assignment 64w + j, and only the AND of the flag columns is kept."""
    s = layout.search_width
    words, block = layout.mask_words, layout.table_block
    mask = np.zeros((words,), _WORD)
    columns = [np.zeros((block,), _WORD) for _ in range(layout.num_qubits)]
    acc = np.empty_like(columns[0])
    for start in range(0, words, block):
        for q in layout.search_qubits:
            column, p = columns[q], s - 1 - q  # the index bit of qubit q: qubit 0 is the MSB
            if p < 6:
                column[...] = _LOW_BIT_WORDS[p]
            elif 1 << (p - 6) < block:
                halves = column.reshape(-1, 2, 1 << (p - 6))
                halves[:, 0] = 0
                halves[:, 1] = _ONES
            else:  # the bit is the same on every assignment of the block
                column[...] = _ONES if start >> (p - 6) & 1 else 0
        for column in columns[s:]:
            column[...] = 0
        for control_qubits, (target_qubit,) in ops:
            target = columns[target_qubit]
            controls = [columns[c] for c in control_qubits]
            if not controls:
                target ^= _ONES  # not np.invert: XOR reuses the loops the PCG64 draws run
            elif len(controls) == 1:
                target ^= controls[0]
            else:
                np.bitwise_and(controls[0], controls[1], out=acc)
                for c in controls[2:]:
                    acc &= c
                target ^= acc
        marked = mask[start : start + block]
        marked[...] = columns[layout.flag_qubits[0]]
        for f in layout.flag_qubits[1:]:
            marked &= columns[f]
    if s < 6:
        mask &= np.uint64((1 << (1 << s)) - 1)
    return mask


def count_marked(mask: np.ndarray) -> int:
    return int(np.bitwise_count(mask).sum())  # not mask.any(), a loop nothing else runs


def phase_readouts(
    angles: Sequence[Sequence[float]], ops: Sequence, shots: int, seed: int
) -> list[tuple[int, float]]:
    """One batch row of ``len(angles[0])`` precision qubits per list of
    kickback angles: uniform, turned by each angle on its qubit, then run
    through ``ops``, checked ``(gate, controls, targets)`` triples.  Each row
    reads out ``(raw, probability)``, its modal outcome over ``shots`` draws
    at ``seed`` and that outcome's probability."""
    m = len(angles[0])
    batch = uniform((len(angles), 1 << m))
    # the kickback, with the phase kernel's np.exp and rotate, so rows match bit for bit
    amps = batch.reshape((-1,) + (2,) * m)
    factors = np.exp(1j * np.array(angles))
    for j in range(m):
        rotate(amps[(slice(None),) * (j + 1) + (1,)], factors[:, j].reshape((-1,) + (1,) * (m - 1)))
    for op in ops:
        apply_unchecked(batch, *op)
    draws = sorted_draws(shots, seed)
    readouts = []
    for row in batch:
        # the draws below each CDF step, differenced, count each outcome's draws (as
        # sample would assign them); argmax takes the first maximum, the lowest bitstring
        raw = int(np.diff(draws.searchsorted(outcome_cdf(probabilities(row))), prepend=0).argmax())
        readouts.append((raw, float(probabilities(row[raw]))))
    return readouts


_LOW32, _32 = np.uint64(_M32), np.uint64(32)
# most states advanced per pass of numpy ops: memory beyond the output is O(block)
_DRAW_BLOCK = 1 << 14


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
    out = np.zeros((shots,), np.float64)
    state, inc = _pcg64_seed(seed)
    # a power of two, as the doubling fill leaves a jump of 2**k steps, and
    # about a quarter of the shots (at least 2**10), so few draws hold little scratch
    block = min(shots, _DRAW_BLOCK, 1 << max(10, (shots // 4).bit_length() - 1))
    hi, lo, *scratch = (np.zeros((block,), np.uint64) for _ in range(6))
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
