"""Constraint problems solved by amplitude-amplified search.

Variables are unsigned integers with fixed bit widths, laid out MSB-first
on a search register in declaration order.  Each constraint compiles to a
reversible checker that flips a dedicated flag qubit exactly on satisfying
assignments and restores every qubit it borrowed.  The oracle computes all
flags, applies a phase flip when every flag is set, then uncomputes; the
number of amplification rounds follows a growing schedule because the
solution count is unknown up front.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Iterator, NamedTuple, Sequence

# qsolve's modules first, so an uncached compile's memory is freed before numpy loads
from .circuit import Circuit, QubitRegister, h_layer, inverse
from .problems import (
    DEFAULT_QUBIT_CAP,
    EqualConst,
    NotEqual,
    ProblemValidationError,
    QubitBudgetError,
    SatProblem,
    SumEquals,
    validate_problem,
)
from .statevector import Histogram, X, Z, sample_two_levels, zeros

import numpy as np

Assignment = dict[str, int]


def classical_check(assignment: Assignment, problem: SatProblem) -> bool:
    """Plain integer evaluation of every constraint; the ground truth the
    quantum path is verified against."""
    for c in problem.constraints:
        if isinstance(c, NotEqual):
            if assignment[c.a] == assignment[c.b]:
                return False
        elif isinstance(c, EqualConst):
            if assignment[c.a] != c.value:
                return False
        else:
            if sum(assignment[n] for n in c.vars) != c.value:
                return False
    return True


# --- qubit layout ------------------------------------------------------------


class QubitLayout(NamedTuple):
    """Placement of a problem on qubits: search register first (variables in
    declaration order, each MSB-first), one flag qubit per constraint, then a
    shared sum scratch register sized for the widest sum constraint.

    ``registers`` names these blocks for the search circuit: one per
    variable, then ``flags`` and, if any sum needs it, ``scratch``, each
    prefixed with underscores until no variable has its name."""

    registers: tuple[QubitRegister, ...]
    search_width: int
    flag_qubits: tuple[int, ...]
    scratch_width: int
    num_qubits: int

    def var_qubits(self, name: str) -> range:
        for reg in self.registers:
            if reg.name == name and reg.offset < self.search_width:
                return reg.qubits
        raise KeyError(f"no variable named {name!r}")

    @property
    def search_qubits(self) -> range:
        return range(self.search_width)

    @property
    def scratch_qubits(self) -> range:
        return range(self.num_qubits - self.scratch_width, self.num_qubits)


def qubit_layout(problem: SatProblem, max_qubits: int = DEFAULT_QUBIT_CAP) -> QubitLayout:
    diags = validate_problem(problem)
    if diags:
        raise ProblemValidationError(diags)
    search_width = problem.search_width
    if search_width > max_qubits:
        # refused before the sum ranges, which take memory in proportion to bits
        raise QubitBudgetError(
            f"the search register alone needs {search_width} qubits but the cap is {max_qubits}"
        )
    if search_width - 3 >= sys.maxsize.bit_length():  # 2**search_width / 8 > sys.maxsize
        raise MemoryError(
            f"a {search_width}-bit search register has 2**{search_width} assignments, "
            f"whose packed mask needs 2**{search_width - 3} bytes, past the address space"
        )
    widths = problem.widths()
    flag_qubits = tuple(range(search_width, search_width + len(problem.constraints)))
    scratch_width = 0
    for c in problem.constraints:
        if isinstance(c, SumEquals):
            top = sum((1 << widths[n]) - 1 for n in c.vars)
            scratch_width = max(scratch_width, top.bit_length())
    num_qubits = search_width + len(flag_qubits) + scratch_width
    if num_qubits > max_qubits:
        raise QubitBudgetError(
            f"layout needs {num_qubits} qubits "
            f"({search_width} search + {len(flag_qubits)} flags + {scratch_width} scratch) "
            f"but the cap is {max_qubits}"
        )

    def fresh(name: str) -> str:
        while name in widths:
            name = "_" + name
        return name

    offsets = itertools.accumulate((v.bits for v in problem.vars), initial=0)
    registers = [QubitRegister(v.name, offset, v.bits) for v, offset in zip(problem.vars, offsets)]
    # a valid problem has at least one constraint, so always a flag
    registers.append(QubitRegister(fresh("flags"), search_width, len(flag_qubits)))
    if scratch_width:
        registers.append(QubitRegister(fresh("scratch"), num_qubits - scratch_width, scratch_width))
    return QubitLayout(tuple(registers), search_width, flag_qubits, scratch_width, num_qubits)


# --- constraint synthesis ------------------------------------------------------


def synth_not_equal(frag: Circuit, layout: QubitLayout, a: str, b: str, flag: int) -> None:
    """Append the flag flip for a != b to ``frag``.

    XORs a into b, detects the all-zeros pattern (equality) onto the flag,
    inverts the flag, then undoes the XOR.  The same variable on both sides
    appends nothing: x != x never holds, so the flag stays 0.
    """
    if a == b:
        return
    pairs = tuple(zip(layout.var_qubits(a), layout.var_qubits(b)))
    for qa, qb in pairs:
        frag.mcx((qa,), qb)
    _match_constant(frag, layout.var_qubits(b), 0, flag)
    frag.x(flag)
    for qa, qb in pairs:
        frag.mcx((qa,), qb)


def _match_constant(frag: Circuit, qubits: Sequence[int], value: int, flag: int) -> None:
    """Flip ``flag`` exactly when ``qubits`` (MSB-first) hold ``value``:
    X-conjugate the zero bits of the pattern so an all-ones detection fires
    on the constant alone."""
    k = len(qubits)
    zero_positions = [q for i, q in enumerate(qubits) if not (value >> (k - 1 - i)) & 1]
    for q in zero_positions:
        frag.x(q)
    frag.mcx(qubits, flag)
    for q in zero_positions:
        frag.x(q)


def _controlled_add_power(
    frag: Circuit, control: int, weight: int, sum_qubits: Sequence[int]
) -> None:
    """Add 2**weight into the scratch accumulator when ``control`` is set.

    ``sum_qubits`` is MSB-first.  The ripple targets high bits first so each
    carry control still reads the pre-increment value of the lower bits.
    """
    k = len(sum_qubits)
    for j in range(k - 1, weight - 1, -1):  # bit significance j, descending
        lower = tuple(sum_qubits[k - 1 - i] for i in range(weight, j))
        frag.mcx((control, *lower), sum_qubits[k - 1 - j])


def synth_sum_equals(
    frag: Circuit, layout: QubitLayout, names: Sequence[str], value: int, flag: int
) -> None:
    """Append the flag flip for sum(names) == value to ``frag``.

    Accumulates every operand bit into the shared scratch register with
    controlled ripple increments, compares the accumulator against the
    constant onto the flag, then uncomputes so scratch returns to zero.
    """
    sum_qubits = layout.scratch_qubits
    accumulate = Circuit(layout.num_qubits)
    for name in names:
        vq = tuple(layout.var_qubits(name))
        width = len(vq)
        for i, q in enumerate(vq):
            _controlled_add_power(accumulate, q, width - 1 - i, sum_qubits)
    frag.extend(accumulate)
    _match_constant(frag, sum_qubits, value, flag)
    frag.extend(inverse(accumulate))


# --- oracle, diffuser, schedule ---------------------------------------------


def _compute(problem: SatProblem, layout: QubitLayout) -> Circuit:
    """Every constraint's flag flip, in constraint order."""
    compute = Circuit(layout.num_qubits)
    for c, flag in zip(problem.constraints, layout.flag_qubits):
        if isinstance(c, NotEqual):
            synth_not_equal(compute, layout, c.a, c.b, flag)
        elif isinstance(c, EqualConst):
            _match_constant(compute, layout.var_qubits(c.a), c.value, flag)
        else:
            synth_sum_equals(compute, layout, c.vars, c.value, flag)
    return compute


def build_oracle(problem: SatProblem, layout: QubitLayout) -> Circuit:
    """Phase oracle: -1 on search states satisfying every constraint, +1
    elsewhere, with all flags and scratch restored to zero.

    Compute every flag, phase-flip on the all-flags-set subspace, uncompute.
    With a single constraint the phase flip is a plain Z on its flag.
    """
    oracle = _compute(problem, layout)
    uncompute = inverse(oracle)
    flags = layout.flag_qubits
    oracle.add(Z, controls=flags[:-1], targets=(flags[-1],))
    return oracle.extend(uncompute)


# bit j of word ``_LOW_BIT_WORDS[p]`` is bit p of j, for the index bits inside a word
_LOW_BIT_WORDS = tuple(sum(1 << j for j in range(64) if j >> p & 1) for p in range(6))
_WORD = np.dtype("<u8")  # little-endian, so a word's bytes unpack in assignment order
_ONES = np.uint64((1 << 64) - 1)
# words per column in one block of the sign table: 128 KiB each
_TABLE_BLOCK = 1 << 14


def _marked(problem: SatProblem, layout: QubitLayout) -> np.ndarray:
    """The packed sign table: bit j of little-endian ``uint64`` word w is set
    exactly when the compute block sets every flag of search assignment
    64w + j (a register under 6 bits fills part of one word, the rest 0).

    The block is X gates with any controls, which permute basis states, so
    on |x, 0> the oracle is the sign -1 exactly there and resets every
    ancilla.  Its ops run bit-sliced, on ``_TABLE_BLOCK`` words at a time:
    each qubit is a column of 64-bit words, bit j of word w holding its
    value on assignment 64w + j, and only the AND of the flag columns is kept."""
    ops = _compute(problem, layout).ops
    for op in ops:
        if op.gate != X:
            raise ValueError(f"the compute block must be X gates only, got {op.gate.name!r}")
    s = layout.search_width
    mask = zeros((max(1, 1 << s >> 6),), _WORD)
    block = min(mask.size, _TABLE_BLOCK)
    columns = [zeros((block,), _WORD) for _ in range(layout.num_qubits)]
    acc = np.empty_like(columns[0])
    for start in range(0, mask.size, block):
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
        for op in ops:
            target = columns[op.targets[0]]
            controls = [columns[c] for c in op.controls]
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


def build_diffuser(search_width: int) -> Circuit:
    """Reflection about the uniform superposition of the search register
    (up to a global phase): H X on every search qubit, a search-wide
    controlled Z, then X H back."""
    frag = h_layer(search_width)
    for q in range(search_width):
        frag.x(q)
    frag.add(Z, controls=tuple(range(search_width - 1)), targets=(search_width - 1,))
    for q in range(search_width):
        frag.x(q)
    return frag.extend(h_layer(search_width))


def iteration_schedule(search_width: int) -> list[int]:
    """Iteration counts ceil(sqrt(2)**j) for j = 0, 1, ..., deduplicated and
    ascending, capped by the single-solution optimum ceil((pi/4)*sqrt(2**n)).

    Computed in exact integer arithmetic: isqrt(2**j - 1) + 1 is the
    ceiling of sqrt(2**j) for every j >= 0.
    """
    if search_width < 1:
        raise ValueError(f"search register needs at least one qubit, got {search_width}")
    cap = math.ceil((math.pi / 4) * math.sqrt(1 << search_width))
    steps: list[int] = []
    j = 0
    while True:
        t = math.isqrt((1 << j) - 1) + 1
        if t >= cap:
            break
        if not steps or t > steps[-1]:
            steps.append(t)
        j += 1
    steps.append(cap)
    return steps


def build_search_circuit(problem: SatProblem, layout: QubitLayout, iterations: int) -> Circuit:
    """Uniform state preparation on the search register followed by
    ``iterations`` oracle + diffuser rounds."""
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    circ = Circuit(layout.num_qubits, registers=layout.registers)
    rounds = build_oracle(problem, layout).extend(build_diffuser(layout.search_width))
    # the op tuple is built once, where extending would hold the rounds twice;
    # so the width check of ``Circuit.extend`` is made here
    if rounds.num_qubits > circ.num_qubits:
        raise ValueError(
            f"a {rounds.num_qubits}-qubit round does not fit in {circ.num_qubits} qubits"
        )
    circ.ops = tuple(
        itertools.chain(h_layer(layout.search_width).ops, *itertools.repeat(rounds.ops, iterations))
    )
    return circ


def schedule_states(
    problem: SatProblem, layout: QubitLayout
) -> Iterator[tuple[int, np.ndarray, float, float]]:
    """Yield ``(t, mask, a, b)`` for each round count t of :func:`iteration_schedule`.

    ``mask`` is :func:`_marked`'s packed sign table.  After t rounds every
    assignment it sets has amplitude ``a`` and every other one ``b``: spread
    over the search register, these are within 1e-12 of the
    flags-and-scratch-0 column of ``build_search_circuit(problem, layout,
    t)``'s state, which is 0 elsewhere, and sample to the same histograms.
    This is Grover's two-dimensional subspace: a round negates ``a``, then
    inverts about the mean, as H(I - 2|0><0|)H = I - 2|u><u| maps v to
    v - 2 mean(v)."""
    s = layout.search_width
    mask = _marked(problem, layout)
    k, n = int(np.bitwise_count(mask).sum()), 1 << s
    a = b = math.sqrt(1.0 / n)
    done = 0
    for t in iteration_schedule(s):
        for _ in range(t - done):
            a = -a
            mean = (k * a + (n - k) * b) / n
            a -= 2.0 * mean
            b -= 2.0 * mean
        done = t
        yield t, mask, a, b


# --- decode / encode ---------------------------------------------------------


def decode_bitstring(bits: str, problem: SatProblem) -> Assignment:
    """Split a search-register readout into per-variable integer values."""
    if len(bits) != problem.search_width or set(bits) - {"0", "1"}:
        raise ValueError(
            f"expected a {problem.search_width}-bit readout, got {bits!r}"
        )
    assignment: Assignment = {}
    pos = 0
    for v in problem.vars:
        assignment[v.name] = int(bits[pos : pos + v.bits], 2)
        pos += v.bits
    return assignment


def encode_assignment(assignment: Assignment, problem: SatProblem) -> str:
    """Inverse of :func:`decode_bitstring`."""
    parts = []
    for v in problem.vars:
        value = assignment[v.name]
        if not 0 <= value < (1 << v.bits):
            raise ValueError(
                f"value {value} outside the range of {v.name!r} (0..{(1 << v.bits) - 1})"
            )
        parts.append(format(value, f"0{v.bits}b"))
    return "".join(parts)


# --- solver -------------------------------------------------------------------


class SolveReport(NamedTuple):
    solutions: list[Assignment]
    iterations_used: int
    shots: int
    frequency_threshold: float
    histogram: Histogram
    # one (iterations, verified solution count) pair per schedule step run
    schedule_trace: list[tuple[int, int]]

    @property
    def found(self) -> bool:
        return bool(self.solutions)


def solve(
    problem: SatProblem,
    *,
    shots: int = 4096,
    seed: int = 0,
    frequency_threshold: float | None = None,
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> SolveReport:
    """Search with a growing iteration schedule.

    One walk is carried along the schedule (see :func:`schedule_states`)
    and sampled with the same seed at every step whose levels changed;
    measured bitstrings at or
    above the frequency threshold are decoded and kept only if they pass
    :func:`classical_check`.  The first step that yields any verified
    assignment wins.  An exhausted schedule returns an empty solution list:
    "no solution found" is a result, not an error.  A ``frequency_threshold``
    of None means the unknown-solution-count default, 2 / 2**search_width.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    layout = qubit_layout(problem, max_qubits)
    threshold = frequency_threshold
    if threshold is None:
        threshold = 2.0 / (1 << layout.search_width)
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"frequency threshold must be in (0, 1], got {threshold}")
    trace: list[tuple[int, int]] = []
    sampled = marked = None
    for iterations, mask, a, b in schedule_states(problem, layout):
        if marked is None:
            # the popcount schedule_states takes; ``mask.any()`` would page in
            # a numpy reduction loop that nothing else in a solve runs
            marked = bool(np.bitwise_count(mask).sum())
        # a histogram is a function of the levels the sampler reads: a step
        # whose levels are those of the last one keeps its histogram and
        # verified list; with nothing marked, a round maps b to exactly -b
        levels = (a * a if marked else None, b * b)
        if levels != sampled:
            sampled = levels
            histogram = sample_two_levels(mask, layout.search_width, a * a, b * b, shots, seed)
            verified: list[tuple[int, str, Assignment]] = []
            for bits, count in histogram.counts.items():
                if count / shots < threshold:
                    continue
                assignment = decode_bitstring(bits, problem)
                if classical_check(assignment, problem):
                    verified.append((count, bits, assignment))
        trace.append((iterations, len(verified)))
        if verified:
            break
    verified.sort(key=lambda item: (-item[0], item[1]))
    return SolveReport(
        solutions=[a for _, _, a in verified],
        iterations_used=iterations,
        shots=shots,
        frequency_threshold=threshold,
        histogram=histogram,
        schedule_trace=trace,
    )
