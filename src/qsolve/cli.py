"""Command-line frontend: JSON problem files in, solutions out.

Exit codes: 0 = solved, 1 = search exhausted with no verified solution,
2 = anything wrong with the invocation or the problem file, or a report
that cannot be written.  Errors are reported as one-line diagnostics on
stderr, never as tracebacks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

# parsing and the size plan need only the numpy-free problem model; a child imports
# the solver its problem names, and with it numpy and the simulator, in its branch
from .problems import (
    DEFAULT_QUBIT_CAP,
    AlgorithmMismatchError,
    EqualConst,
    NotEqual,
    ProblemFileError,
    QsolveError,
    SatProblem,
    SumEquals,
    TspInstance,
    VarDecl,
    precision_plan,
    qubit_layout,
    request_error,
    solver_option_error,
    validate_instance,
    validate_problem,
)


# --- problem file parsing ------------------------------------------------------


class ParsedProblem(NamedTuple):
    kind: str  # "sat" or "tsp"
    sat: SatProblem | None = None
    tsp: TspInstance | None = None


_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _expect(value, kind: type, where: str):
    """``value`` if it is a ``kind`` (a bool, an int subclass, is not an
    integer); otherwise a diagnostic naming the JSON type wanted at ``where``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ProblemFileError(f"{where}: expected {_KINDS[kind]}, got {type(value).__name__}")
    return value


def _field(obj: dict, key: str, kind: type, where: str):
    """``obj[key]`` checked by :func:`_expect` at ``where.key``."""
    if key not in obj:
        raise ProblemFileError(f"{where}: missing required field {key!r}")
    return _expect(obj[key], kind, f"{where}.{key}")


def _parse_constraint(raw, where: str):
    obj = _expect(raw, dict, where)
    kind = _field(obj, "kind", str, where)
    raw_args = _field(obj, "args", list, where)
    args = [_expect(a, str, f"{where}.args[{k}]") for k, a in enumerate(raw_args)]
    if kind == "not_equal":
        if len(args) != 2:
            raise ProblemFileError(f"{where}: not_equal takes exactly 2 args, got {len(args)}")
        if "value" in obj:
            raise ProblemFileError(f"{where}: not_equal takes no 'value' field")
        return NotEqual(args[0], args[1])
    if kind == "equal_const":
        if len(args) != 1:
            raise ProblemFileError(f"{where}: equal_const takes exactly 1 arg, got {len(args)}")
        return EqualConst(args[0], _field(obj, "value", int, where))
    if kind == "sum_equals":
        if not args:
            raise ProblemFileError(f"{where}: sum_equals needs at least 1 arg")
        return SumEquals(tuple(args), _field(obj, "value", int, where))
    raise ProblemFileError(
        f"{where}: unknown constraint kind {kind!r} "
        "(expected not_equal, equal_const or sum_equals)"
    )


def parse_problem(path) -> ParsedProblem:
    """Read and validate a problem file; any defect raises ProblemFileError
    with a message locating the offending element."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer past the int-to-str digit limit, or nesting too deep
        raise ProblemFileError(f"{path}: unreadable JSON: {str(exc).partition(';')[0]}") from exc
    where = str(path)
    obj = _expect(data, dict, where)
    kind = _field(obj, "type", str, where)

    if kind == "sat":
        decls = []
        for i, raw in enumerate(_field(obj, "variables", list, where)):
            vwhere = f"{where}.variables[{i}]"
            vobj = _expect(raw, dict, vwhere)
            decls.append(
                VarDecl(_field(vobj, "name", str, vwhere), _field(vobj, "bits", int, vwhere))
            )
        constraints = tuple(
            _parse_constraint(raw, f"{where}.constraints[{i}]")
            for i, raw in enumerate(_field(obj, "constraints", list, where))
        )
        parsed = ParsedProblem("sat", sat=SatProblem(tuple(decls), constraints))
        diags = validate_problem(parsed.sat)
    elif kind == "tsp":
        rows = []
        for i, raw in enumerate(_field(obj, "adjacency", list, where)):
            rwhere = f"{where}.adjacency[{i}]"
            row = _expect(raw, list, rwhere)
            rows.append(tuple(_expect(x, int, f"{rwhere}[{k}]") for k, x in enumerate(row)))
        parsed = ParsedProblem("tsp", tsp=TspInstance(tuple(rows)))
        diags = validate_instance(parsed.tsp)
    else:
        raise ProblemFileError(
            f"{where}.type: unknown problem type {kind!r} (expected 'sat' or 'tsp')"
        )
    if diags:
        raise ProblemFileError("\n".join(f"{where}: {d}" for d in diags))
    return parsed


_COMPATIBLE = {"sat": "grover", "tsp": "qpe"}


def select_algorithm(problem_kind: str, requested: str = "auto") -> str:
    compatible = _COMPATIBLE[problem_kind]
    if requested in ("auto", compatible):
        return compatible
    raise AlgorithmMismatchError(
        f"algorithm {requested!r} cannot solve a {problem_kind!r} problem; "
        f"use {compatible!r} or 'auto'"
    )


# --- report rendering ----------------------------------------------------------

def _render_sat(report, output: str, out) -> None:
    if output == "json":
        _emit_json(
            {
                "problem_type": "sat",
                "algorithm": "grover",
                "found": report.found,
                "solutions": report.solutions,
                "iterations_used": report.iterations_used,
                "shots": report.shots,
                "frequency_threshold": report.frequency_threshold,
                "schedule_trace": [[t, k] for t, k in report.schedule_trace],
                "histogram": dict(report.histogram.counts),
            },
            out,
        )
    elif not report.found:
        out.write("no solution found\n")
    else:
        blocks = [
            "\n".join(f"{name} = {value}" for name, value in assignment.items())
            for assignment in report.solutions
        ]
        out.write("\n\n".join(blocks) + "\n")


def _render_tsp(report, output: str, out) -> None:
    from .qpe_tsp import display_tour

    shown = list(display_tour(report.best_tour))
    if output == "json":
        _emit_json(
            {
                "problem_type": "tsp",
                "algorithm": "qpe",
                "best_tour": list(report.best_tour),
                "best_tour_display": shown,
                "best_length": report.best_length,
                "precision_bits": report.precision_bits,
                "scale": report.scale,
                "per_cycle": [
                    {
                        "tour": list(tour),
                        "length": length,
                        "raw": estimate.raw,
                        "phase": estimate.phase,
                        "probability": estimate.probability,
                    }
                    for tour, length, estimate in zip(report.tours, report.lengths, report.estimates)
                ],
            },
            out,
        )
    else:
        out.write(f"{shown} length {report.best_length}\n")


def _emit_json(payload: dict, out) -> None:
    # one write: json.dump with indent sends thousands of chunks to ``out``
    out.write(json.dumps(payload, indent=2) + "\n")


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = HelpParser(
        prog="qsolve",
        description="Solve constraint and travelling-salesman problems "
        "on a built-in statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("solve", help="solve a JSON problem file")
    cmd.add_argument("--input", required=True, help="path to the problem file")
    cmd.add_argument("--algorithm", choices=("auto", "grover", "qpe"), default="auto")
    cmd.add_argument("--shots", type=int, default=4096, help="measurement shots per run")
    cmd.add_argument("--seed", type=int, default=0, help="sampling seed")
    cmd.add_argument(
        "--threshold",
        type=float,
        help="candidate frequency threshold for the search solver (default 2/2^n)",
    )
    cmd.add_argument("--output", choices=("text", "json"), default="text")
    cmd.add_argument(
        "--dump-circuit",
        metavar="PATH",
        help="also write the final circuit in text form to PATH",
    )
    cmd.add_argument("--max-qubits", type=int, default=DEFAULT_QUBIT_CAP)
    return parser


def _stdout():
    """``sys.stdout``, which is None in a process started with stdout closed."""
    if sys.stdout is None:
        raise QsolveError("stdout is closed, so no report can be written")
    return sys.stdout


@contextlib.contextmanager
def report_to_stdout():
    """Yield stdout for a report and flush it when the block ends.

    If stdout cannot take the report (a closed pipe, a full disk), what it
    still holds goes to os.devnull, or the flush at exit fails again and the
    process exits 120, and the OSError propagates to the caller's ``error:``
    line.  A closed stdout is refused on entry with a QsolveError.
    """
    out = _stdout()
    try:
        yield out
        out.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        raise


class HelpParser(argparse.ArgumentParser):
    """An ArgumentParser (its subparsers too) whose ``--help`` text is written
    as a report is, through :func:`report_to_stdout`: help that stdout cannot
    take exits 2 with one ``error:`` line, where argparse would leave it in
    the buffer for the exit-time flush to fail (exit 120)."""

    def print_help(self, file=None):
        if file is not None:
            return super().print_help(file)
        try:
            with report_to_stdout() as out:
                out.write(self.format_help())
        except (QsolveError, OSError) as exc:
            self.exit(2, f"error: {exc}\n")


def _run_solve(args) -> int:
    _stdout()  # refused before any work
    fault = request_error(
        args.shots, args.seed, args.max_qubits, args.threshold, args.dump_circuit
    )
    if fault:
        raise QsolveError(fault)
    if args.dump_circuit:
        # a dump into a missing directory is refused before the solve, with
        # the error ``open`` would raise; ``open`` still refuses what gets past
        try:
            os.stat(os.path.dirname(args.dump_circuit) or ".")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, args.dump_circuit) from None
    parsed = parse_problem(args.input)
    algorithm = select_algorithm(parsed.kind, args.algorithm)
    fault = solver_option_error(algorithm, args.threshold)
    if fault:
        raise QsolveError(fault)
    common = {"shots": args.shots, "seed": args.seed, "max_qubits": args.max_qubits}

    if algorithm == "grover":
        layout = qubit_layout(parsed.sat, args.max_qubits)
        from . import grover_sat

        report = grover_sat.solve(parsed.sat, frequency_threshold=args.threshold, **common)
        if args.dump_circuit:
            circuit = grover_sat.build_search_circuit(parsed.sat, layout, report.iterations_used)
        render, code = _render_sat, 0 if report.found else 1
    else:
        precision_plan(parsed.tsp, args.max_qubits)
        from . import qpe_tsp

        report = qpe_tsp.solve(parsed.tsp, **common)
        if args.dump_circuit:
            unitary = qpe_tsp.build_phase_unitary(parsed.tsp, report.scale)
            eigenstate = qpe_tsp.encode_eigenstate(report.best_tour, parsed.tsp.n_nodes)
            circuit = qpe_tsp.qpe_circuit(unitary, eigenstate, report.precision_bits)
        render, code = _render_tsp, 0

    # the dump goes first: a dump that cannot be written leaves stdout empty
    if args.dump_circuit:
        from .circuit import export_text

        with open(args.dump_circuit, "w", encoding="utf-8") as dump:
            dump.writelines(export_text(circuit))
    with report_to_stdout() as out:
        render(report, args.output, out)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if isinstance(sys.stdout, io.TextIOWrapper):
        # reports are UTF-8 whatever the locale, like problem files and dumps
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        return _run_solve(args)
    except (QsolveError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def process_main() -> int:
    """The entry point of a ``qsolve`` process, the installed script and
    ``python -m qsolve``: :func:`main`'s exit code, with every object then
    alive frozen out of the collector, so the collections at interpreter
    exit skip the ~22k objects numpy and a solve leave.  ``main`` itself
    leaves the collector alone for callers that keep running."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
