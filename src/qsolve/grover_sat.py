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

import functools
import itertools
import math
from typing import Iterator, NamedTuple, Sequence

from .problems import (  # qubit_layout and iteration_schedule are reached from here too
    DEFAULT_QUBIT_CAP,
    EqualConst,
    NotEqual,
    QubitLayout,
    SatProblem,
    iteration_schedule,
    pick_kernels,
    qubit_layout,
    request_error,
)
from .scalar import Histogram, X, Z, check_operands

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


# --- constraint synthesis ------------------------------------------------------


def synth_not_equal(ops: list, layout: QubitLayout, a: str, b: str, flag: int) -> None:
    """Append the flag flip for a != b to ``ops``, as X gates: unchecked
    ``(controls, target)`` pairs, like every synthesis function here.

    XORs a into b, detects the all-zeros pattern (equality) onto the flag,
    inverts the flag, then undoes the XOR.  The same variable on both sides
    appends nothing: x != x never holds, so the flag stays 0.
    """
    if a == b:
        return
    xors = [((qa,), qb) for qa, qb in zip(layout.var_qubits(a), layout.var_qubits(b))]
    ops += xors
    _match_constant(ops, layout.var_qubits(b), 0, flag)
    ops.append(((), flag))
    ops += xors


def _match_constant(ops: list, qubits: Sequence[int], value: int, flag: int) -> None:
    """Flip ``flag`` exactly when ``qubits`` (MSB-first) hold ``value``:
    X-conjugate the zero bits of the pattern so an all-ones detection fires
    on the constant alone."""
    k = len(qubits)
    flips = [((), q) for i, q in enumerate(qubits) if not (value >> (k - 1 - i)) & 1]
    ops += flips
    ops.append((tuple(qubits), flag))
    ops += flips


def _controlled_add_power(
    ops: list, control: int, weight: int, sum_qubits: Sequence[int]
) -> None:
    """Add 2**weight into the scratch accumulator when ``control`` is set.

    ``sum_qubits`` is MSB-first.  The ripple targets high bits first so each
    carry control still reads the pre-increment value of the lower bits.
    """
    k = len(sum_qubits)
    for j in range(k - 1, weight - 1, -1):  # bit significance j, descending
        lower = tuple(sum_qubits[k - 1 - i] for i in range(weight, j))
        ops.append(((control, *lower), sum_qubits[k - 1 - j]))


def synth_sum_equals(
    ops: list, layout: QubitLayout, names: Sequence[str], value: int, flag: int
) -> None:
    """Append the flag flip for sum(names) == value to ``ops``.

    Accumulates every operand bit into the shared scratch register with
    controlled ripple increments, compares the accumulator against the
    constant onto the flag, then uncomputes so scratch returns to zero: the
    increments in reverse order, as each X is its own inverse.
    """
    sum_qubits = layout.scratch_qubits
    start = len(ops)
    for name in names:
        vq = tuple(layout.var_qubits(name))
        width = len(vq)
        for i, q in enumerate(vq):
            _controlled_add_power(ops, q, width - 1 - i, sum_qubits)
    accumulate = reversed(ops[start:])
    _match_constant(ops, sum_qubits, value, flag)
    ops += accumulate


# --- oracle, diffuser, schedule ---------------------------------------------


@functools.lru_cache(maxsize=1)
def _compute(problem: SatProblem, layout: QubitLayout) -> tuple[tuple, ...]:
    """Every constraint's flag flip, in constraint order: the compute block's
    X gates as ``(controls, targets)`` pairs, each distinct pair checked once
    by :func:`qsolve.scalar.check_operands` (an uncompute repeats pairs), and
    kept for the next call: a dump and its solve synthesize the block once."""
    ops: list = []
    for c, flag in zip(problem.constraints, layout.flag_qubits):
        if isinstance(c, NotEqual):
            synth_not_equal(ops, layout, c.a, c.b, flag)
        elif isinstance(c, EqualConst):
            _match_constant(ops, layout.var_qubits(c.a), c.value, flag)
        else:
            synth_sum_equals(ops, layout, c.vars, c.value, flag)
    n = layout.num_qubits
    checked = {(c, t): check_operands(n, X, c, (t,)) for c, t in dict.fromkeys(ops)}
    return tuple(checked[pair] for pair in ops)


def build_oracle(problem: SatProblem, layout: QubitLayout) -> "Circuit":
    """Phase oracle: -1 on search states satisfying every constraint, +1
    elsewhere, with all flags and scratch restored to zero.

    Compute every flag, phase-flip on the all-flags-set subspace, run the
    compute block backwards.  With one constraint the flip is a plain Z.
    """
    from .circuit import Circuit, CircuitOp
    flags = layout.flag_qubits
    oracle = Circuit(layout.num_qubits).add(Z, controls=flags[:-1], targets=(flags[-1],))
    # _compute checked every pair, so they enter without ``add``
    compute = [CircuitOp(X, *pair) for pair in _compute(problem, layout)]
    oracle.ops = (*compute, *oracle.ops, *reversed(compute))
    return oracle


def build_diffuser(search_width: int) -> "Circuit":
    """Reflection about the uniform superposition of the search register
    (up to a global phase): H X on every search qubit, a search-wide
    controlled Z, then X H back."""
    from .circuit import h_layer
    frag = h_layer(search_width)
    for q in range(search_width):
        frag.x(q)
    frag.add(Z, controls=tuple(range(search_width - 1)), targets=(search_width - 1,))
    for q in range(search_width):
        frag.x(q)
    return frag.extend(h_layer(search_width))


def build_search_circuit(problem: SatProblem, layout: QubitLayout, iterations: int) -> "Circuit":
    """Uniform state preparation on the search register followed by
    ``iterations`` oracle + diffuser rounds."""
    from .circuit import Circuit, h_layer
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    circ = Circuit(layout.num_qubits, registers=layout.registers)
    rounds = build_oracle(problem, layout).extend(build_diffuser(layout.search_width))
    # the op tuple is built once, where extending would hold the rounds twice
    circ.ops = tuple(
        itertools.chain(h_layer(layout.search_width).ops, *itertools.repeat(rounds.ops, iterations))
    )
    return circ


def schedule_states(problem: SatProblem, layout: QubitLayout, kernels) -> Iterator[tuple]:
    """Yield ``(t, mask, a, b)`` for each round count t of :func:`iteration_schedule`.

    ``mask`` is the sign table of ``kernels``, :mod:`qsolve.statevector` or
    :mod:`qsolve.scalar`, read from the pairs of :func:`_compute`.  The
    compute block is X gates, which permute basis states, so on |x, 0> the
    oracle is the sign -1 exactly where it sets every flag, and resets every
    ancilla.  After t rounds
    every assignment the mask sets has amplitude ``a`` and every other one ``b``: spread
    over the search register, these are within 1e-12 of the
    flags-and-scratch-0 column of ``build_search_circuit(problem, layout,
    t)``'s state, which is 0 elsewhere, and sample to the same histograms.
    This is Grover's two-dimensional subspace: a round negates ``a``, then
    inverts about the mean, as H(I - 2|0><0|)H = I - 2|u><u| maps v to
    v - 2 mean(v)."""
    s = layout.search_width
    mask = kernels.sign_table(_compute(problem, layout), layout)
    k, n = kernels.count_marked(mask), 1 << s
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
    layout: QubitLayout | None = None,
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
    ``layout`` is the :func:`qubit_layout` the caller made, if any;
    :func:`pick_kernels` of the schedule picks the kernels.
    """
    fault = request_error(shots, seed, max_qubits, frequency_threshold)
    if fault:
        raise ValueError(fault)
    layout = layout or qubit_layout(problem, max_qubits)
    s = layout.search_width
    kernels = pick_kernels(8 * len(iteration_schedule(s)) << s, shots)
    threshold = 2.0 / (1 << s) if frequency_threshold is None else frequency_threshold
    trace: list[tuple[int, int]] = []
    sampled = marked = None
    for iterations, mask, a, b in schedule_states(problem, layout, kernels):
        if marked is None:
            marked = kernels.count_marked(mask) > 0
        # a histogram is a function of the levels the sampler reads: a step
        # whose levels are those of the last one keeps its histogram and
        # verified list; with nothing marked, a round maps b to exactly -b
        levels = (a * a if marked else None, b * b)
        if levels != sampled:
            sampled = levels
            histogram = kernels.sample_two_levels(mask, s, a * a, b * b, shots, seed)
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
