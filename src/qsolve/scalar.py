"""The simulator's numpy-free half (gates, operand checks, histograms, the
PCG64 seeding), and pure-Python kernels that compute, float for float, what
the solve kernels of :mod:`qsolve.statevector` compute.  A small solve runs
them (:func:`qsolve.problems.pick_kernels`) and never loads numpy, and the
tests check the numpy kernels against them.  A Python float operation
rounds once, as a numpy ufunc of that operation does.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import Iterable, NamedTuple, Sequence

PROB_ZERO_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_GATE_NAMES = ("h", "x", "z", "phase", "swap")


class Gate(NamedTuple("_Fields", [("name", str), ("lam", float)])):
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


def bitstring(index: int, num_qubits: int, qubits: Sequence[int] | None = None) -> str:
    """Readout of ``index`` over ``qubits`` in the given order (default: all)."""
    bits = format(index, f"0{num_qubits}b")
    return bits if qubits is None else "".join(bits[q] for q in qubits)


def _tree_sum(sums: list[float]) -> float:
    """The total of a power-of-two count of chunk sums, added as a binary
    tree: the order in which numpy's pairwise sum adds the halves of an array."""
    while len(sums) > 1:
        sums = [x + y for x, y in zip(sums[::2], sums[1::2])]
    return sums[0]


def pairwise_sum(values: list[float]) -> float:
    """``np.sum`` of ``values``, bit for bit: numpy's pairwise sum, eight
    accumulators over up to 128 elements, above that two halves split at a
    multiple of 8."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    end = n - n % 8
    total = 0.0
    if n >= 8:
        # reduce adds left to right; sum() would compensate on Python 3.12+
        r = [functools.reduce(operator.add, values[j:end:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for value in values[end:]:
        total += value
    return total


# numpy's default_rng(seed) is PCG64 (XSL-RR 128/64; O'Neill, "PCG: A Family of
# Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905) seeded by SeedSequence(seed).  NEP 19 fixes a
# BitGenerator's stream across numpy versions.  Drawing it here keeps
# numpy.random, and the libcrypto its import loads, out of every solve.

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


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


def _pcg64_doubles(shots: int, seed: int) -> list[float]:
    """``np.random.default_rng(seed).random(shots)``, unsorted: each draw
    steps the state, then takes the top 53 bits of its XSL-RR output."""
    state, inc = _pcg64_seed(seed)
    out = []
    for _ in range(shots):
        state = (state * _PCG_MULT + inc) & _M128
        hi = state >> 64
        x, rot = hi ^ state & _M64, hi >> 58
        out.append(((x >> rot | x << (64 - rot) & _M64) >> 11) * 2.0**-53)
    return out


@functools.lru_cache(maxsize=1)
def sorted_draws(shots: int, seed: int) -> tuple[float, ...]:
    """:func:`qsolve.statevector.sorted_draws` as a tuple, kept for the next call."""
    return tuple(sorted(_pcg64_doubles(shots, seed)))


def _normalized_cdf(probs: list[float]) -> list[float]:
    """:func:`qsolve.statevector.outcome_cdf` of clamped probabilities."""
    total = pairwise_sum(probs)
    if not math.isfinite(total):
        raise ValueError("state has non-finite probabilities")
    if total <= 0.0:
        raise ValueError("state has no measurable probability mass")
    cdf = list(itertools.accumulate(map(operator.truediv, probs, itertools.repeat(total))))
    return list(map(operator.truediv, cdf, itertools.repeat(cdf[-1])))


def sample_two_levels(
    mask: int, num_qubits: int, hit: float, miss: float, shots: int, seed: int
) -> Histogram:
    """:func:`qsolve.statevector.sample_two_levels` of :func:`sign_table`'s int."""
    hit, miss = (0.0 if p < PROB_ZERO_TOL else p for p in (hit, miss))
    size = 1 << num_qubits
    # the levels of 8 outcomes from one byte of the mask, lowest bit first
    octets = [[hit if byte >> j & 1 else miss for j in range(8)] for byte in range(256)]
    probs = [p for byte in mask.to_bytes((size + 7) >> 3, "little") for p in octets[byte]][:size]
    cdf = _normalized_cdf(probs)
    outcomes = itertools.groupby(bisect.bisect_right(cdf, d) for d in sorted_draws(shots, seed))
    return Histogram({bitstring(v, num_qubits): len(list(run)) for v, run in outcomes})


def sign_table(ops: Sequence, layout) -> int:
    """:func:`qsolve.statevector.sign_table` as one int, bit i for assignment
    i.  Each qubit is a column, one int whose bit i holds its value on
    assignment i; an X pair XORs the AND of its controls into its target."""
    s, size = layout.search_width, 1 << layout.search_width
    ones, columns = (1 << size) - 1, [0] * layout.num_qubits
    for q in layout.search_qubits:
        # qubit 0 is the MSB: its index bit alternates runs of `run` zeros and ones
        run = 1 << (s - 1 - q)
        column, width = ((1 << run) - 1) << run, 2 * run
        while width < size:  # doubling: shifts and ORs, never a division
            column |= column << width
            width *= 2
        columns[q] = column
    for controls, (target,) in ops:
        acc = ones
        for c in controls:
            acc &= columns[c]
        columns[target] ^= acc
    marked = ones
    for f in layout.flag_qubits:
        marked &= columns[f]
    return marked


count_marked = int.bit_count  # how many assignments sign_table's int marks


def phase_readouts(
    angles: Sequence[Sequence[float]], ops: Sequence, shots: int, seed: int
) -> list[tuple[int, float]]:
    """:func:`qsolve.statevector.phase_readouts`, a row at a time, in the
    float operations of ``rotate`` and the H kernel, in their order."""
    m = len(angles[0])
    size = 1 << m
    bit = [1 << (m - 1 - q) for q in range(m)]  # qubit 0 is the MSB

    def where(ones: int, zeros: int = 0) -> list[int]:
        return [i for i in range(size) if i & (ones | zeros) == ones]

    def turn(indices: list[int], lam: float) -> tuple:  # np.exp(1j * lam) is (cos, sin)
        return "phase", indices, (math.cos(lam), math.sin(lam))

    steps = []  # (gate, the indices it changes, the partner offset or the phase factor)
    for gate, controls, targets in ops:
        controls, t = sum(bit[q] for q in controls), bit[targets[0]]
        if gate.name == "h":
            steps.append(("h", where(controls, t), t))
        elif gate.name == "swap":
            steps.append(("swap", where(controls | t, bit[targets[1]]), bit[targets[1]] - t))
        else:
            steps.append(turn(where(controls | t), gate.lam))
    kickback = [where(b) for b in bit]
    amp = functools.reduce(operator.mul, [_INV_SQRT2] * m, 1.0)  # as uniform scales it
    draws = sorted_draws(shots, seed)
    readouts = []
    for row in angles:
        re, im = [amp] * size, [0.0] * size
        for name, indices, arg in [*map(turn, kickback, row), *steps]:
            if name == "h":
                for i in indices:
                    k = i + arg
                    r0, i0, r1, i1 = re[i], im[i], re[k], im[k]
                    re[i], im[i] = (r0 + r1) * _INV_SQRT2, (i0 + i1) * _INV_SQRT2
                    re[k], im[k] = (r0 - r1) * _INV_SQRT2, (i0 - i1) * _INV_SQRT2
            elif name == "swap":
                for i in indices:
                    k = i + arg
                    re[i], re[k], im[i], im[k] = re[k], re[i], im[k], im[i]
            else:
                fr, fi = arg
                for i in indices:
                    r, j = re[i], im[i]
                    re[i], im[i] = r * fr - j * fi, j * fr + r * fi
        probs = [r * r + j * j for r, j in zip(re, im)]
        cdf = _normalized_cdf([0.0 if p < PROB_ZERO_TOL else p for p in probs])
        # the draws below each CDF step, differenced, count each outcome's draws
        below = [bisect.bisect_left(draws, c) for c in cdf]
        counts = [b - a for a, b in zip([0, *below], below)]
        raw = counts.index(max(counts))  # count ties go to the lowest bitstring
        readouts.append((raw, probs[raw]))
    return readouts
