"""The problem model: constraint problems and tour instances, their semantic
validation, the size plan a request is held to before anything is built,
the rule that picks a solve's kernels, and the errors the package raises.

This module imports only the standard library, so a problem file can be
read, validated or refused without loading numpy or the simulator.  The
types are named tuples: immutable, compared field by field, and cheap to
define at import.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple, Sequence, Union

# a dense register takes 16 * 2**n bytes, so 26 qubits top out at 1 GiB
DEFAULT_QUBIT_CAP = 26
# the widest cap whose state numpy can address: 2**62 bytes on a 64-bit build
MAX_QUBIT_CAP = sys.maxsize.bit_length() - 5
# words per column in one block of the sign table: 128 KiB each
TABLE_BLOCK = 1 << 14
# the most work, in amplitude updates, a solve runs on qsolve.scalar's kernels:
# in paired children, one at the bound still ends before one that imports numpy
SCALAR_WORK = 1 << 20

MIN_NODES = 3
MAX_NODES = 8


class QsolveError(Exception):
    """Base class for all errors raised by this package."""


class QubitBudgetError(QsolveError):
    """A register, or what a solve holds, would exceed the configured qubit cap."""


class ProblemValidationError(QsolveError):
    """A structurally well-formed problem violates semantic rules.

    ``diagnostics`` lists every violation found, not just the first.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class ProblemFileError(QsolveError):
    """A problem file could not be read or parsed; message carries location."""


class AlgorithmMismatchError(QsolveError):
    """The requested algorithm cannot solve the given problem type."""


def request_error(
    shots: int,
    seed: int,
    max_qubits: int = DEFAULT_QUBIT_CAP,
    threshold: float | None = None,
) -> str | None:
    """The first refusal of a request's ``--shots``, ``--max-qubits``,
    ``--seed`` and ``--threshold``, or None, by the CLI and both solvers.
    Draws take 8 bytes a shot, held to :func:`state_budget`."""
    if shots < 1:
        return f"--shots must be positive, got {shots}"
    try:
        budget = state_budget(max_qubits)
    except QubitBudgetError as exc:
        return str(exc)
    if 8 * shots > budget:
        return f"--shots {shots} needs more memory than a {max_qubits}-qubit state"
    if seed < 0:
        return f"--seed must be non-negative, got {seed}"
    if threshold is not None and not 0.0 < threshold <= 1.0:
        return f"--threshold must be in (0, 1], got {threshold}"
    return None


# --- constraint problems -------------------------------------------------------


class VarDecl(NamedTuple):
    name: str
    bits: int


class NotEqual(NamedTuple):
    """a != b; both operands must have the same width."""

    a: str
    b: str


class EqualConst(NamedTuple):
    """a == value for a constant in the variable's range."""

    a: str
    value: int


class SumEquals(NamedTuple):
    """sum(vars) == value; repeated names count multiply."""

    vars: tuple[str, ...]
    value: int


Constraint = Union[NotEqual, EqualConst, SumEquals]


class SatProblem(NamedTuple):
    vars: tuple[VarDecl, ...]
    constraints: tuple[Constraint, ...]

    def widths(self) -> dict[str, int]:
        return {v.name: v.bits for v in self.vars}

    @property
    def search_width(self) -> int:
        return sum(v.bits for v in self.vars)


def validate_problem(problem: SatProblem) -> list[str]:
    """Every semantic violation as a readable diagnostic; empty means valid."""
    diags: list[str] = []
    if not problem.vars:
        diags.append("problem declares no variables")
    if not problem.constraints:
        diags.append("problem declares no constraints")
    widths: dict[str, int] = {}
    for i, v in enumerate(problem.vars):
        where = f"variables[{i}]"
        if not v.name.isidentifier():
            diags.append(f"{where}: name {v.name!r} is not an identifier")
        if v.name in widths:
            diags.append(f"{where}: duplicate variable name {v.name!r}")
        if v.bits < 1:
            diags.append(f"{where}: width must be at least 1, got {v.bits}")
        widths[v.name] = v.bits
    for i, c in enumerate(problem.constraints):
        where = f"constraints[{i}]"
        if isinstance(c, NotEqual):
            missing = [n for n in (c.a, c.b) if n not in widths]
            for n in missing:
                diags.append(f"{where}: undeclared variable {n!r}")
            if not missing and widths[c.a] != widths[c.b]:
                diags.append(
                    f"{where}: not_equal needs equal widths, "
                    f"{c.a!r} has {widths[c.a]} bits and {c.b!r} has {widths[c.b]}"
                )
        elif isinstance(c, EqualConst):
            if c.a not in widths:
                diags.append(f"{where}: undeclared variable {c.a!r}")
            elif widths[c.a] >= 1 and (c.value < 0 or c.value.bit_length() > widths[c.a]):
                diags.append(
                    f"{where}: value {c.value} outside the range of {c.a!r} "
                    f"(0..{_sum_top([widths[c.a]])})"
                )
        elif isinstance(c, SumEquals):
            if not c.vars:
                diags.append(f"{where}: sum_equals needs at least one variable")
            missing = [n for n in c.vars if n not in widths]
            for n in missing:
                diags.append(f"{where}: undeclared variable {n!r}")
            ws = [widths[n] for n in c.vars if n in widths]
            # the range is computed only for a value wider than every operand
            if ws and not missing and min(ws) >= 1 and (
                c.value < 0
                or (c.value.bit_length() > max(ws) and c.value > sum((1 << w) - 1 for w in ws))
            ):
                top = _sum_top(ws)
                diags.append(
                    f"{where}: value {c.value} outside the achievable sum range (0..{top})"
                )
        else:
            diags.append(f"{where}: unknown constraint type {type(c).__name__}")
    return diags


def _sum_top(widths: Sequence[int]) -> str:
    """sum(2**w - 1 for w in widths), whose widths are all at least 1 (a
    smaller one has its own diagnostic): in decimal up to 64 bits, and
    beyond as ``2**w+...-k``, so a wide bound is never built."""
    if max(widths) <= 64:
        return str(sum((1 << w) - 1 for w in widths))
    return "+".join(f"2**{w}" for w in widths) + f"-{len(widths)}"


# --- tour instances ------------------------------------------------------------


class TspInstance(NamedTuple):
    """A complete undirected graph given by a symmetric integer weight matrix
    with a zero diagonal; nodes are labelled 1..n."""

    weights: tuple[tuple[int, ...], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.weights)


def validate_instance(instance: TspInstance) -> list[str]:
    """Every semantic violation as a readable diagnostic; empty means valid."""
    diags: list[str] = []
    n = instance.n_nodes
    if not MIN_NODES <= n <= MAX_NODES:
        diags.append(f"node count {n} outside the supported range {MIN_NODES}..{MAX_NODES}")
    for i, row in enumerate(instance.weights):
        if len(row) != n:
            diags.append(f"adjacency[{i}]: expected {n} entries, got {len(row)}")
    if any(len(row) != n for row in instance.weights):
        return diags  # shape is broken; element checks would misfire
    for i in range(n):
        if instance.weights[i][i] != 0:
            diags.append(f"adjacency[{i}][{i}]: diagonal must be 0, got {instance.weights[i][i]}")
        for j in range(n):
            w = instance.weights[i][j]
            if w < 0:
                diags.append(f"adjacency[{i}][{j}]: weights must be non-negative, got {w}")
            if j > i and w != instance.weights[j][i]:
                diags.append(
                    f"adjacency[{i}][{j}]: matrix must be symmetric, "
                    f"got {w} vs adjacency[{j}][{i}] = {instance.weights[j][i]}"
                )
    return diags


def phase_scale(instance: TspInstance) -> tuple[int, int]:
    """(scale, precision_bits): the smallest power of two strictly greater
    than the sum of the n largest edge weights.

    Any Hamiltonian cycle uses n distinct edges, so every tour length is
    strictly below the scale and maps to a distinct exact m-bit phase.
    """
    n, w = instance.n_nodes, instance.weights
    edges = sorted((w[i][j] for i in range(n) for j in range(i + 1, n)), reverse=True)
    bound = sum(edges[:n])
    m = max(1, bound.bit_length())
    return 1 << m, m


# --- the size plan: the cap counts the register a solve samples ---------------------


def state_budget(max_qubits: int) -> int:
    """The most bytes a solve holds: one complex128 state at the cap, 16 *
    2**max_qubits.  A cap outside 1..MAX_QUBIT_CAP is refused, so a huge cap
    builds no huge number and every planned array is one numpy can address."""
    if not 1 <= max_qubits <= MAX_QUBIT_CAP:
        raise QubitBudgetError(f"--max-qubits must be in 1..{MAX_QUBIT_CAP}, got {max_qubits}")
    return 16 << max_qubits


def pick_kernels(work: int, shots: int):
    """:mod:`qsolve.scalar` for a solve of at most ``SCALAR_WORK``, else :mod:`qsolve.statevector`,
    with the same report: a search's work is 8 per outcome of each schedule
    step, a tour's its batch rows times 2**m * m**2, and each draw adds 20."""
    if work + 20 * shots <= SCALAR_WORK:
        from . import scalar as kernels
    else:
        from . import statevector as kernels
    return kernels


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


def precision_plan(instance: TspInstance, max_qubits: int) -> tuple[int, int, int]:
    """``(scale, m, rows)``: :func:`phase_scale` of a valid instance whose
    precision register fits the cap, and how many of its complex128 batch
    rows, 16 * 2**m bytes each, the budget holds at once.  An invalid
    instance raises :class:`ProblemValidationError` with every diagnostic."""
    budget = state_budget(max_qubits)
    diags = validate_instance(instance)
    if diags:
        raise ProblemValidationError(diags)
    scale, m = phase_scale(instance)
    if m > max_qubits:
        raise QubitBudgetError(f"{m} precision qubits requested but the cap is {max_qubits}")
    return scale, m, budget // (16 << m)


class QubitRegister(NamedTuple("_Fields", [("name", str), ("offset", int), ("width", int)])):
    """A named contiguous block of qubits."""

    __slots__ = ()

    def __new__(cls, name: str, offset: int, width: int) -> "QubitRegister":
        if not name.isidentifier():
            raise ValueError(f"register name {name!r} is not an identifier")
        if offset < 0 or width < 1:
            raise ValueError(f"bad register extent: offset={offset} width={width}")
        return super().__new__(cls, name, offset, width)

    @property
    def qubits(self) -> range:
        return range(self.offset, self.offset + self.width)


class QubitLayout(NamedTuple):
    """Placement of a problem on qubits: search register first (variables in
    declaration order, each MSB-first), one flag qubit per constraint, then a
    shared sum scratch register sized for the widest sum constraint.

    ``registers`` names these blocks for the search circuit: one per
    variable, then ``flags`` and, if any sum needs it, ``scratch``, each
    prefixed with underscores until no variable has its name.  The sign table
    is ``mask_words`` words, one bit per assignment, built ``table_block`` at a time."""

    registers: tuple[QubitRegister, ...]
    search_width: int
    flag_qubits: tuple[int, ...]
    scratch_width: int
    num_qubits: int
    mask_words: int
    table_block: int

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
    """The layout of a valid problem whose search register fits the cap and whose
    sign table, its mask and one block of a column per qubit and one more, fits the budget.
    An invalid problem raises :class:`ProblemValidationError` with every diagnostic."""
    budget = state_budget(max_qubits)
    diags = validate_problem(problem)
    if diags:
        raise ProblemValidationError(diags)
    search_width = problem.search_width
    if search_width > max_qubits:
        # refused before the sum ranges, which take memory in proportion to bits
        raise QubitBudgetError(
            f"the search register alone needs {search_width} qubits but the cap is {max_qubits}"
        )
    widths = problem.widths()
    flag_qubits = tuple(range(search_width, search_width + len(problem.constraints)))
    scratch_width = 0
    for c in problem.constraints:
        if isinstance(c, SumEquals):
            top = sum((1 << widths[n]) - 1 for n in c.vars)
            scratch_width = max(scratch_width, top.bit_length())
    num_qubits = search_width + len(flag_qubits) + scratch_width
    words = max(1, 1 << search_width >> 6)
    block = min(words, TABLE_BLOCK)
    held = 8 * words + (num_qubits + 1) * 8 * block
    if held > budget:
        raise QubitBudgetError(
            f"the sign table needs {held} bytes (a mask of {8 * words} and {num_qubits + 1} "
            f"columns of {8 * block}) but a {max_qubits}-qubit cap allows {budget}"
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
    return QubitLayout(
        tuple(registers), search_width, flag_qubits, scratch_width, num_qubits, words, block
    )
