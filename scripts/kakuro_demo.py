#!/usr/bin/env python3
"""Solve the bundled Kakuro-style riddles and show how the measured solution
frequencies evolve along the iteration schedule.  Exits 0, or 2 on a bad
option or when stdout cannot take the report (closed, or on a full disk)."""

import sys
from pathlib import Path

import qsolve.scalar
from qsolve.cli import HelpParser, parse_problem, report_to_stdout
from qsolve.grover_sat import (
    classical_check,
    decode_bitstring,
    encode_assignment,
    qubit_layout,
    schedule_states,
    solve,
)
from qsolve.problems import QsolveError, request_error

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def amplification_table(problem, layout):
    """Exact probability of each satisfying assignment after every scheduled
    iteration count, straight from the walk's two amplitudes."""
    n = layout.search_width
    satisfying = [
        index
        for index in range(1 << n)
        if classical_check(decode_bitstring(format(index, f"0{n}b"), problem), problem)
    ]
    print(f"  search qubits: {n}, total qubits: {layout.num_qubits}, "
          f"satisfying assignments: {len(satisfying)}")
    print(f"  {'iterations':>10}  {'p(all solutions)':>16}  {'p(best single)':>15}")
    for iterations, mask, a, b in schedule_states(problem, layout, qsolve.scalar):
        per_solution = [a * a if mask >> i & 1 else b * b for i in satisfying]
        total = sum(per_solution)
        best = max(per_solution, default=0.0)
        print(f"  {iterations:>10}  {total:>16.6f}  {best:>15.6f}")


def report_solutions(problem, layout, shots, seed):
    report = solve(problem, shots=shots, seed=seed, layout=layout)
    if not report.found:
        print("  no solution found")
        return
    print(f"  stopped after {report.iterations_used} iteration(s), "
          f"{report.shots} shots, threshold {report.frequency_threshold:.6f}")
    for assignment in report.solutions:
        bits = encode_assignment(assignment, problem)
        count = report.histogram.counts[bits]
        pairs = ", ".join(f"{name} = {assignment[name]}" for name in assignment)
        print(f"  {bits}  ({count:>5} shots)  {pairs}")


def main():
    parser = HelpParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    fault = request_error(args.shots, args.seed)
    if fault:
        parser.error(fault)

    try:
        with report_to_stdout():
            for name in ("kakuro_unit_sums.json", "kakuro_cross_sums.json"):
                problem = parse_problem(PROBLEMS / name).sat
                layout = qubit_layout(problem)
                print(f"== {name} ==")
                amplification_table(problem, layout)
                report_solutions(problem, layout, args.shots, args.seed)
                print()
    except (QsolveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
