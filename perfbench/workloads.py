"""The benchmark's workloads: one problem file each, made from the workload seed.

`sat_kakuro` is the checked-in cross-sums puzzle. `sat_unsat` and `tsp_n8`
are generated here; each generator checks the invariants its workload was
chosen for, so a seed can never silently produce a different kind of load.
The invariant checks read the program's own public layout functions, which
is why callers must have the package's `src/` on `sys.path`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from expected import sat_solutions

WORKLOADS = ("sat_kakuro", "sat_unsat", "tsp_n8")

KAKURO = Path("problems") / "kakuro_cross_sums.json"
# solved once per run, untimed, as a determinism check
CHECKED_IN = tuple(
    Path("problems") / f"{name}.json"
    for name in ("kakuro_unit_sums", "tsp_four_cities", "unsat_pair")
)

UNSAT_NAMES = ("a", "b", "c", "d")
UNSAT_BITS = 3
# each has exactly one zero bit, so every choice synthesizes the same op count
UNSAT_CONSTANTS = (3, 5, 6)
UNSAT_QUBITS = 15
UNSAT_STEPS = 12
UNSAT_ROUNDS = 204

TSP_NODES = 8
TSP_MAX_WEIGHT = 15
TSP_PRECISION_BITS = 7


class WorkloadError(Exception):
    """A generated problem does not have the shape its workload promises."""


def sat_unsat_problem(seed: int) -> dict:
    """Four 3-bit variables, `not_equal` on a seeded pair, and two distinct
    `equal_const` constraints on one seeded variable: never satisfiable."""
    rng = random.Random(seed)
    a, b = rng.sample(UNSAT_NAMES, 2)
    pinned = rng.choice(UNSAT_NAMES)
    first, second = rng.sample(UNSAT_CONSTANTS, 2)
    return {
        "type": "sat",
        "variables": [{"name": n, "bits": UNSAT_BITS} for n in UNSAT_NAMES],
        "constraints": [
            {"kind": "not_equal", "args": [a, b]},
            {"kind": "equal_const", "args": [pinned], "value": first},
            {"kind": "equal_const", "args": [pinned], "value": second},
        ],
    }


def tsp_n8_problem(seed: int) -> dict:
    """A complete 8-node graph with weights drawn uniformly from 1..15."""
    rng = random.Random(seed)
    weights = [[0] * TSP_NODES for _ in range(TSP_NODES)]
    for i in range(TSP_NODES):
        for j in range(i + 1, TSP_NODES):
            weights[i][j] = weights[j][i] = rng.randint(1, TSP_MAX_WEIGHT)
    return {"type": "tsp", "adjacency": weights}


def _check_sat_unsat(path: Path) -> None:
    from qsolve import cli, grover_sat

    problem = json.loads(path.read_text())
    if sat_solutions(problem):
        raise WorkloadError(f"{path}: sat_unsat problem is satisfiable")
    sat = cli.parse_problem(path).sat
    layout = grover_sat.qubit_layout(sat)
    schedule = grover_sat.iteration_schedule(layout.search_width)
    shape = (layout.num_qubits, layout.scratch_width, len(schedule), sum(schedule))
    if shape != (UNSAT_QUBITS, 0, UNSAT_STEPS, UNSAT_ROUNDS):
        raise WorkloadError(
            f"{path}: (qubits, scratch, steps, rounds) = {shape}, expected "
            f"({UNSAT_QUBITS}, 0, {UNSAT_STEPS}, {UNSAT_ROUNDS})"
        )


def _check_tsp_n8(path: Path) -> None:
    from qsolve import cli, qpe_tsp

    _, bits = qpe_tsp.phase_scale(cli.parse_problem(path).tsp)
    if bits != TSP_PRECISION_BITS:
        raise WorkloadError(
            f"{path}: precision register has {bits} qubits, expected {TSP_PRECISION_BITS}"
        )


def _write(problem: dict, workdir: Path, name: str) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(problem, indent=1) + "\n")
    return path


def problem_file(workload: str, seed: int, root: Path, workdir: Path) -> Path:
    """The problem file one workload's requests read."""
    if workload == "sat_kakuro":
        return root / KAKURO
    if workload == "sat_unsat":
        path = _write(sat_unsat_problem(seed), workdir, workload)
        _check_sat_unsat(path)
        return path
    if workload == "tsp_n8":
        path = _write(tsp_n8_problem(seed), workdir, workload)
        _check_tsp_n8(path)
        return path
    raise WorkloadError(f"unknown workload {workload!r}")

