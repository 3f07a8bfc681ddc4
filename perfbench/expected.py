"""Expected `qsolve solve` text output, computed by brute force.

Nothing here imports qsolve: the answers come from plain enumeration of
the problem file's search space, so a solver defect cannot hide behind a
reference that shares its code.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Expected:
    """What one `qsolve solve` request must print and return.

    ``blocks`` holds one text block per solution. With several solutions the
    CLI orders them by sampled frequency, so they are compared as a set.
    """

    exit_code: int
    blocks: tuple[str, ...]

    def text(self) -> str:
        return "\n\n".join(self.blocks) + "\n"

    def matches(self, exit_code: int, stdout: bytes) -> bool:
        if exit_code != self.exit_code:
            return False
        if len(self.blocks) == 1:
            return stdout == self.text().encode()
        try:
            text = stdout.decode()
        except UnicodeDecodeError:
            return False
        if not text.endswith("\n"):
            return False
        got = text[:-1].split("\n\n")
        return len(got) == len(set(got)) and set(got) == set(self.blocks)


def _holds(constraint: dict, values: dict[str, int]) -> bool:
    kind, args = constraint["kind"], constraint["args"]
    if kind == "not_equal":
        return values[args[0]] != values[args[1]]
    if kind == "equal_const":
        return values[args[0]] == constraint["value"]
    if kind == "sum_equals":
        return sum(values[a] for a in args) == constraint["value"]
    raise ValueError(f"unknown constraint kind {kind!r}")


def sat_solutions(problem: dict) -> list[dict[str, int]]:
    """Every assignment that satisfies all constraints, in enumeration order."""
    names = [v["name"] for v in problem["variables"]]
    ranges = [range(1 << v["bits"]) for v in problem["variables"]]
    solutions = []
    for combo in itertools.product(*ranges):
        values = dict(zip(names, combo))
        if all(_holds(c, values) for c in problem["constraints"]):
            solutions.append(values)
    return solutions


def canonical_tours(n: int) -> list[tuple[int, ...]]:
    """Rotation- and reversal-unique cycles: start at 1, second node below last."""
    return [(1, *rest) for rest in itertools.permutations(range(2, n + 1)) if rest[0] < rest[-1]]


def tour_length(weights: list[list[int]], tour: tuple[int, ...]) -> int:
    return sum(weights[a - 1][b - 1] for a, b in zip(tour, (*tour[1:], tour[0])))


def tsp_best(weights: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """The shortest canonical tour, ties broken by the lexicographically
    smallest tour, as the CLI breaks them."""
    best = min(canonical_tours(len(weights)), key=lambda t: (tour_length(weights, t), t))
    return best, tour_length(weights, best)


def expected_for(problem: dict) -> Expected:
    if problem["type"] == "sat":
        solutions = sat_solutions(problem)
        if not solutions:
            return Expected(1, ("no solution found",))
        names = [v["name"] for v in problem["variables"]]
        return Expected(
            0, tuple("\n".join(f"{n} = {s[n]}" for n in names) for s in solutions)
        )
    if problem["type"] == "tsp":
        tour, length = tsp_best(problem["adjacency"])
        # the CLI prints the cycle walked the other way round from node 1
        display = [tour[0], *reversed(tour[1:])]
        return Expected(0, (f"{display} length {length}",))
    raise ValueError(f"unknown problem type {problem['type']!r}")


def expected_for_file(path: Path) -> Expected:
    return expected_for(json.loads(Path(path).read_text()))
