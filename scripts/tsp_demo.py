#!/usr/bin/env python3
"""Estimate every tour length of a travelling-salesman instance through the
phase register and cross-check the minimum against direct enumeration.
Exits 0 when the two minima agree, 1 when they differ, and 2 on a bad option
or problem file, or when stdout cannot take the report (closed, or on a full
disk)."""

import itertools
import sys
from pathlib import Path

from qsolve.cli import HelpParser, parse_problem, plan_problem, report_to_stdout
from qsolve.problems import DEFAULT_QUBIT_CAP, ProblemFileError, QsolveError, request_error
from qsolve.qpe_tsp import display_tour, encode_eigenstate, solve, tour_length

DEFAULT_INPUT = Path(__file__).resolve().parents[1] / "problems" / "tsp_four_cities.json"


def brute_force_best(instance):
    n = instance.n_nodes
    best = None
    for rest in itertools.permutations(range(2, n + 1)):
        tour = (1, *rest)
        length = tour_length(instance, tour)
        if best is None or length < best[1]:
            best = (tour, length)
    return best


def print_report(instance, report):
    """Print every cycle's estimate and the cross-check; True if the minima agree."""
    print(f"{instance.n_nodes} nodes, phase scale {report.scale}, "
          f"{report.precision_bits} precision qubits")
    print(f"{'cycle':<22} {'eigenstate':>10} {'raw':>4} {'phase':>8} {'length':>7}")
    for tour, length, estimate in zip(report.tours, report.lengths, report.estimates):
        enc = encode_eigenstate(tour, instance.n_nodes)
        print(f"{str(list(tour)):<22} {enc:>10} {estimate.raw:>4} "
              f"{estimate.phase:>8.4f} {length:>7}")

    print(f"\nshortest tour: {list(display_tour(report.best_tour))} "
          f"length {report.best_length}")
    _, brute_length = brute_force_best(instance)
    agrees = brute_length == report.best_length
    print(f"direct enumeration minimum: {brute_length} ({'agrees' if agrees else 'DISAGREES'})")
    return agrees


def main():
    parser = HelpParser(description=__doc__)
    parser.add_argument("--input", type=Path, default=DEFAULT_INPUT)
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    fault = request_error(args.shots, args.seed)
    if fault:
        parser.error(fault)

    try:
        parsed = parse_problem(args.input)
        if parsed.kind != "tsp":
            raise ProblemFileError(f"{args.input}: a {parsed.kind!r} problem, not a tour problem")
        plan = plan_problem(parsed, args.input, DEFAULT_QUBIT_CAP)
        report = solve(parsed.tsp, shots=args.shots, seed=args.seed, plan=plan)
        with report_to_stdout():
            agrees = print_report(parsed.tsp, report)
    except (QsolveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if agrees else 1


if __name__ == "__main__":
    sys.exit(main())
