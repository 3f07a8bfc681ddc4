"""Child process of the benchmark's traced run.

Modes (positional arguments):

    request PROBLEM SEED OUT REQUEST_ID
        Solve PROBLEM the way `qsolve solve --input PROBLEM --seed SEED` does,
        composed from the package's public functions, with a span around
        each call. Prints the same text the CLI prints and exits with the
        CLI's code. Spans and counts are written to OUT when the solve is done.
    replay PROBLEM SEED OUT
        The same pipeline, but each circuit is run op by op through
        `apply_gate_in_place`, timed per (gate, control count). Also writes
        the computed counters (op mix, amplitudes touched, state size, ...).
    kernels OUT
        The kernel grid: one gate application per (gate, controls, qubits).

Spans are recorded in memory as (name, start_ns, end_ns, parent index)
on the system-wide monotonic clock, so the parent can nest them under its
own span for the whole process.
"""

# Everything else is imported inside spans, so that the child's start-up
# before its first span is the interpreter's own.
import sys
import time


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder; ``with tracer("name"):`` times one call."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._open = []

    def __call__(self, name):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, now(), 0, parent])
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spans[self._open.pop()][2] = now()


def minimal_amps(num_qubits: int, gate: str, controls: int) -> int:
    """Amplitudes a gate must read or write at the least: X and H pair up
    every amplitude with its controls set; a diagonal gate or a swap
    changes half of those."""
    free = num_qubits - controls
    return 1 << (free if gate in ("x", "h") else free - 1)


def solve_sat(qs, args, sat, tr, run, counts):
    grover_sat, statevector = qs.grover_sat, qs.statevector
    with tr("grover_sat.layout"):
        layout = grover_sat.qubit_layout(sat, args.max_qubits)
        schedule = grover_sat.iteration_schedule(layout.search_width)
    threshold = (
        args.threshold if args.threshold is not None else 2.0 / (1 << layout.search_width)
    )
    solutions = []
    for iterations in schedule:
        with tr("grover_sat.build"):
            circ = grover_sat.build_search_circuit(sat, layout, iterations)
        state = run(circ)
        with tr("statevector.sample"):
            hist = statevector.sample(state, args.shots, args.seed, layout.search_qubits)
        with tr("grover_sat.verify"):
            verified = []
            for bits, count in hist.counts.items():
                if count / args.shots < threshold:
                    continue
                counts["grover_sat.candidates"] += 1
                assignment = grover_sat.decode_bitstring(bits, sat)
                if grover_sat.classical_check(assignment, sat):
                    verified.append((count, bits, assignment))
        counts["grover_sat.steps"] += 1
        counts["grover_sat.rounds"] += iterations
        counts["grover_sat.rounds_max"] = iterations
        counts["grover_sat.verified"] += len(verified)
        if verified:
            verified.sort(key=lambda item: (-item[0], item[1]))
            solutions = [a for _, _, a in verified]
            break
    if not solutions:
        return "no solution found\n", 1, layout
    blocks = ["\n".join(f"{v.name} = {a[v.name]}" for v in sat.vars) for a in solutions]
    return "\n\n".join(blocks) + "\n", 0, layout


def solve_tsp(qs, args, inst, tr, run, counts):
    qpe_tsp, statevector = qs.qpe_tsp, qs.statevector
    n = inst.n_nodes
    with tr("qpe_tsp.enumerate"):
        diags = qpe_tsp.validate_instance(inst)
        if diags:
            raise ValueError(diags)
        scale, m = qpe_tsp.phase_scale(inst)
        unitary = qpe_tsp.build_phase_unitary(inst, scale)
        tours = qpe_tsp.enumerate_cycles(n)
        eigenstates = [qpe_tsp.encode_eigenstate(t, n) for t in tours]
    results = []
    for tour, eigenstate in zip(tours, eigenstates):
        with tr("qpe_tsp.build"):
            circ = qpe_tsp.qpe_circuit(unitary, eigenstate, m)
        state = run(circ)
        with tr("statevector.sample"):
            hist = statevector.sample(state, args.shots, args.seed)
        with tr("qpe_tsp.readout"):
            raw = int(hist.most_common()[0][0], 2)
            estimate = qpe_tsp.PhaseEstimate(
                raw=raw,
                precision_bits=m,
                phase=raw / (1 << m),
                probability=float(statevector.probabilities(state)[raw]),
            )
            results.append((qpe_tsp.decode_phase(estimate, scale), tour))
    counts["qpe_tsp.cycles"] = len(tours)
    counts["qpe_tsp.precision_bits"] = m
    best_length, best_tour = min(results)
    text = f"{list(qpe_tsp.display_tour(best_tour))} length {best_length}\n"
    return text, 0, (unitary, eigenstates)


def solve(qs, tr, problem_path, seed, run, counts):
    """The CLI's `solve` path for text output, stage by stage."""
    with tr("cli.parse"):
        args = qs.cli.build_parser().parse_args(
            ["solve", "--input", problem_path, "--seed", seed]
        )
        parsed = qs.cli.parse_problem(args.input)
        algorithm = qs.cli.select_algorithm(parsed.kind, args.algorithm)
    if algorithm == "grover":
        return (*solve_sat(qs, args, parsed.sat, tr, run, counts), parsed)
    return (*solve_tsp(qs, args, parsed.tsp, tr, run, counts), parsed)


def _write(out_path, record):
    import json

    with open(out_path, "w") as fh:
        fh.write(json.dumps(record) + "\n")
        fh.flush()
        # the parent turns this into a span for writing the trace itself
        fh.write(json.dumps({"write_end_ns": now()}) + "\n")


def request_mode(problem_path, seed, out_path, request_id):
    tr = Tracer()
    with tr("child"):
        import resource
        from collections import Counter

        with tr("cli.import"):
            import qsolve as qs
        faults = [0]

        def run(circ):
            with tr("circuit.execute"):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                state, _ = qs.circuit.execute(circ, shots=0)
                faults[0] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            return state

        counts = Counter()
        text, code, *_ = solve(qs, tr, problem_path, seed, run, counts)
        sys.stdout.write(text)
        sys.stdout.flush()
    record = {
        "request_id": request_id,
        "spans": tr.spans,
        "minor_faults": faults[0],
        "counts": counts,
    }
    _write(out_path, record)
    return code


def replay_mode(problem_path, seed, out_path):
    from collections import Counter

    import qsolve as qs

    tr = Tracer()
    counts, apply_ns, apply_calls = Counter(), Counter(), Counter()
    widest = [0]

    def run(circ):
        n = circ.num_qubits
        widest[0] = max(widest[0], n)
        state = qs.statevector.init_zero(n)
        apply = qs.statevector.apply_gate_in_place
        for op in circ.ops:
            start = now()
            apply(state, op.gate, op.controls, op.targets)
            elapsed = now() - start
            key = f"{op.gate.name}.c{len(op.controls)}"
            apply_ns[key] += elapsed
            apply_calls[key] += 1
            counts["statevector.amps_touched"] += minimal_amps(n, op.gate.name, len(op.controls))
        counts["circuit.ops"] += len(circ.ops)
        return state

    text, code, shape, parsed = solve(qs, tr, problem_path, seed, run, counts)
    counts["statevector.state_bytes"] = 16 << widest[0]
    if parsed.kind == "sat":
        counts["grover_sat.oracle_ops"] = len(qs.grover_sat.build_oracle(parsed.sat, shape).ops)
    else:
        unitary, eigenstates = shape
        counts["qpe_tsp.distinct_exponents"] = len({unitary.exponent(e) for e in eigenstates})
    sys.stdout.write(text)
    sys.stdout.flush()
    record = {
        "counts": counts,
        "apply_ns": apply_ns,
        "apply_calls": apply_calls,
    }
    _write(out_path, record)
    return code


# (gate, number of controls); None means every qubit but the target
KERNEL_GRID = (("h", 0), ("x", 0), ("x", 1), ("x", 3), ("z", None), ("phase", 1), ("swap", 0))
KERNEL_QUBITS = (16, 20, 24)
KERNEL_REPS = {16: 15, 20: 5, 24: 3}


def kernel_name(gate, controls, n):
    k = n - 1 if controls is None else controls
    return f"statevector.kernel_ms.{gate}.c{k}.q{n}"


def kernels_mode(out_path):
    """Median time of one kernel call on an n-qubit state. Controls are the
    leading qubits, targets the trailing one (two for swap)."""
    import json
    import statistics

    from qsolve import statevector

    gates = {"h": statevector.H, "x": statevector.X, "z": statevector.Z,
             "phase": statevector.phase(0.5), "swap": statevector.SWAP}
    result = {}
    for n in KERNEL_QUBITS:
        state = statevector.init_zero(n)
        for name, controls in KERNEL_GRID:
            gate = gates[name]
            targets = tuple(range(n - gate.num_targets, n))
            ctrl = tuple(range(n - 1 if controls is None else controls))
            statevector.apply_gate_in_place(state, gate, ctrl, targets)  # warm-up
            times = []
            for _ in range(KERNEL_REPS[n]):
                start = now()
                statevector.apply_gate_in_place(state, gate, ctrl, targets)
                times.append(now() - start)
            result[kernel_name(name, controls, n)] = statistics.median(times) / 1e6
        del state
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "request":
        return request_mode(argv[1], argv[2], argv[3], int(argv[4]))
    if mode == "replay":
        return replay_mode(argv[1], argv[2], argv[3])
    if mode == "kernels":
        return kernels_mode(argv[1])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
