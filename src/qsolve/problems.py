"""The problem model: constraint problems and tour instances, their semantic
validation, the limits a request is held to before anything is built, and
the errors the package raises.

This module imports only the standard library, so a problem file can be
read, validated or refused without loading numpy or the simulator.  The
types are named tuples: immutable, compared field by field, and cheap to
define at import.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

# a dense register takes 16 * 2**n bytes, so 26 qubits top out at 1 GiB
DEFAULT_QUBIT_CAP = 26

MIN_NODES = 3
MAX_NODES = 8


class QsolveError(Exception):
    """Base class for all errors raised by this package."""


class QubitBudgetError(QsolveError):
    """A register or layout would exceed the configured qubit cap."""


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
    dump_path: str | None = None,
) -> str | None:
    """The first refusal of a request's ``--shots``, ``--max-qubits``,
    ``--seed``, ``--threshold`` and ``--dump-circuit``, or None.  Draws take
    8 bytes a shot, a state 16 * 2**max_qubits; the bit-length test keeps a
    cap wider than the shot count from building 2**max_qubits.  An empty dump
    path would write nothing without a word, so it is refused too."""
    if shots < 1:
        return f"--shots must be positive, got {shots}"
    if max_qubits < 1:
        return f"--max-qubits must be positive, got {max_qubits}"
    if max_qubits < shots.bit_length() and 8 * shots > 16 << max_qubits:
        return f"--shots {shots} needs more memory than a {max_qubits}-qubit state"
    if seed < 0:
        return f"--seed must be non-negative, got {seed}"
    if threshold is not None and not 0.0 < threshold <= 1.0:
        return f"--threshold must be in (0, 1], got {threshold}"
    if dump_path == "":
        return "--dump-circuit needs a file path"
    return None


def solver_option_error(algorithm: str, threshold: float | None) -> str | None:
    """The refusal of an option that ``algorithm``, the solver chosen for the
    problem, would ignore, or None: ``--threshold`` tunes the search alone."""
    if threshold is not None and algorithm != "grover":
        return f"--threshold applies to the grover solver only, not to {algorithm}"
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

    def weight(self, a: int, b: int) -> int:
        return self.weights[a - 1][b - 1]


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
