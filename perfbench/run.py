"""The qsolve benchmark: `qsolve solve` as users run it, one fresh process
per request.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`. The load is a closed loop with one client: exactly one child is
outstanding at a time, and each child's exit code and rusage come from
`os.wait4`. The workload seed drives both the generated problem file and
`--seed`; the program sees only the file. Every run also solves the three
other checked-in problems once, untimed, as a determinism check. Every
output is compared with the brute-force answer in `expected.py`, and any
mismatch counts as a failed request.

--trace 0 reports the end-to-end metrics (medians over the run's requests):
  wall_s        spawn to exit of one `qsolve solve` child
  cpu_s         user + system CPU time of that child
  peak_rss_mib  ru_maxrss of that child
  setup_s       fresh interpreter that imports qsolve.cli and parses the
                problem file, without solving (median of SETUP_REPS,
                one before each of the first requests)

--trace 1 reports the per-layer metrics. Requests alternate between the CLI
(untraced) and `traced.py request`, which composes the same pipeline from
the package's public functions and records a span around each call. Self
time is a span's duration minus its child spans; per-layer times are the
median over traced requests of each layer's summed self time. One
`traced.py replay` child supplies per-(gate, controls) kernel times and the
computed counters, and one `traced.py kernels` child the kernel grid. The
replica's output must equal the expected bytes (the drift guard); if it
does not, the traced numbers are reported as invalid, not as numbers.

BENCHMARK.json lists sat_kakuro and tsp_n8. sat_unsat (the full 12-step
schedule on an unsatisfiable 15-qubit problem) runs the same way by hand,
but it is left out of the gate: each request faults in 0.2-1.1 M pages,
depending on the heap layout its histograms leave, and on a 2-core VM the
median of its ~8 requests per 30 s run spread by 0.17 (IQR over median,
ten runs), too wide for the gate's bounds.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from expected import Expected, expected_for_file
from workloads import CHECKED_IN, KAKURO, WORKLOADS, problem_file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 11
SETUP_CODE = "import sys\nfrom qsolve import cli\ncli.parse_problem(sys.argv[1])\n"

# (gate, control count) groups that the sat_kakuro and tsp_n8 circuits use;
# any other group is reported under "other"
APPLY_GROUPS = (
    "h.c0", "x.c0", "x.c1", "x.c2", "x.c3", "z.c7", "phase.c0", "phase.c1", "swap.c0",
)
# span name -> per-layer metric; "child" and "trace.write" are benchmark glue
LAYER_SPANS = {
    "process": "process.start_exit_s",
    "cli.import": "cli.import_s",
    "cli.parse": "cli.parse_s",
    "grover_sat.layout": "grover_sat.layout_s",
    "grover_sat.build": "grover_sat.build_s",
    "grover_sat.verify": "grover_sat.verify_s",
    "qpe_tsp.enumerate": "qpe_tsp.enumerate_s",
    "qpe_tsp.build": "qpe_tsp.build_s",
    "qpe_tsp.readout": "qpe_tsp.readout_s",
    "circuit.execute": "circuit.execute_s",
    "statevector.sample": "statevector.sample_s",
}
GLUE_SPANS = ("child", "trace.write")
LAYERS = ("cli", "grover_sat", "qpe_tsp", "circuit", "statevector", "process", "trace")
# counters of the replay (a traced run's first request), reported as counts
COUNTS = (
    "grover_sat.steps", "grover_sat.rounds", "grover_sat.oracle_ops",
    "grover_sat.candidates", "grover_sat.verified", "qpe_tsp.cycles",
    "qpe_tsp.distinct_exponents", "qpe_tsp.precision_bits", "circuit.ops",
    "statevector.amps_touched",
)
# counters the traced requests and the replay must agree on
SHARED_COUNTS = (
    "grover_sat.steps", "grover_sat.rounds", "grover_sat.candidates",
    "grover_sat.verified", "qpe_tsp.cycles", "qpe_tsp.precision_bits",
)


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    start_ns: int
    end_ns: int
    cpu_s: float
    maxrss_kib: int
    exit_code: int
    stdout: bytes
    stderr: str

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Runner:
    """Spawns one child at a time from the checkout root and reaps it with
    `os.wait4`, so its rusage covers that child alone."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv: list[str]) -> Child:
        err_path = self.workdir / "stderr"
        with open(err_path, "wb") as err:
            start = now()
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=self.env
            )
            with proc.stdout:
                try:
                    stdout = proc.stdout.read()
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
            end = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            proc.returncode, stdout, err_path.read_text(errors="replace"),
        )


class Requests:
    """The inputs one client sends, one request after another.

    Each request gets its own seed, drawn from the workload seed, which
    picks both its problem file and its `--seed`. How often a solve faults
    pages in depends on the heap layout its sampled histograms leave, so
    a single instance would let one layout decide a whole run's median.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.workdir = workload, workdir
        self._rng = random.Random(seed)

    def next(self) -> tuple[Path, int, Expected]:
        return self.input(self._rng.randrange(2**31))

    def input(self, seed: int) -> tuple[Path, int, Expected]:
        path = problem_file(self.workload, seed, ROOT, self.workdir)
        return path, seed, expected_for_file(path)


def cli_argv(problem: Path, seed: int) -> list[str]:
    return [sys.executable, "-m", "qsolve", "solve", "--input", str(problem), "--seed", str(seed)]


def traced_argv(*args) -> list[str]:
    return [sys.executable, str(HERE / "traced.py"), *map(str, args)]


class Tally:
    """Attempted and failed requests; a failure is a wrong exit code or stdout."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, child: Child, expected, what: str) -> bool:
        self.attempted += 1
        if expected.matches(child.exit_code, child.stdout):
            return True
        self.failed += 1
        print(
            f"MISMATCH {what}: exit {child.exit_code}, stdout {child.stdout!r}, "
            f"expected exit {expected.exit_code}, {expected.text()!r}\n{child.stderr}",
            file=sys.stderr,
        )
        return False


def determinism_checks(runner: Runner, tally: Tally, seed: int) -> None:
    for path in CHECKED_IN:
        child = runner.run(cli_argv(ROOT / path, seed))
        tally.check(child, expected_for_file(ROOT / path), str(path))


def closed_loop(seconds: float, request) -> None:
    """Call ``request()`` back to back until ``seconds`` have passed (at least once)."""
    deadline = now() + int(seconds * 1e9)
    while True:
        request()
        if now() >= deadline:
            return


def median(values) -> float:
    return float(statistics.median(values))


def timed_run(runner, tally, requests, seconds) -> tuple[dict, int]:
    setup, children = [], []

    def measure_setup(problem):
        child = runner.run([sys.executable, "-c", SETUP_CODE, str(problem)])
        if child.exit_code != 0:
            raise RuntimeError(f"set-up child failed:\n{child.stderr}")
        setup.append(child.wall_s)

    def request():
        problem, seed, expected = requests.next()
        # set-up samples are spread over the run, so that one burst of load
        # on the host cannot decide their median
        if len(setup) < SETUP_REPS:
            measure_setup(problem)
        child = runner.run(cli_argv(problem, seed))
        tally.check(child, expected, "request")
        children.append(child)

    closed_loop(seconds, request)
    while len(setup) < SETUP_REPS:
        measure_setup(requests.next()[0])
    return {
        "wall_s": (median(c.wall_s for c in children), "s"),
        "cpu_s": (median(c.cpu_s for c in children), "s"),
        "peak_rss_mib": (median(c.maxrss_kib / 1024 for c in children), "MiB"),
        "setup_s": (median(setup), "s"),
    }, len(children)


# --- traced run ----------------------------------------------------------------


class InvalidTrace(Exception):
    """The traced numbers do not describe the program the CLI runs."""


def self_times(child: Child, record: dict, write_end_ns: int) -> dict[str, int]:
    """Self time in ns per span name for one traced request.

    The tree is rooted at "process" (the parent's spawn-to-exit interval);
    the child's root span and the trailing "trace.write" span hang under it.
    Children must lie inside their parent and must not overlap, so the self
    times add up to the process wall time exactly.
    """
    spans = [["process", child.start_ns, child.end_ns, None]]
    spans += [[n, s, e, 0 if p < 0 else p + 1] for n, s, e, p in record["spans"]]
    child_root = spans[1]
    spans.append(["trace.write", child_root[2], write_end_ns, 0])
    kids: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            kids.setdefault(parent, []).append(i)
    totals: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, cursor = 0, start
        for k in sorted(kids.get(i, ()), key=lambda k: spans[k][1]):
            _, ks, ke, _ = spans[k]
            if ks < cursor or ke > end or ke < ks:
                raise InvalidTrace(f"span {spans[k][0]!r} is not nested inside {name!r}")
            covered += ke - ks
            cursor = ke
        totals[name] = totals.get(name, 0) + (end - start - covered)
    if sum(totals.values()) != child.end_ns - child.start_ns:
        raise InvalidTrace("self times do not add up to the request's wall time")
    return totals


def read_record(path: Path) -> tuple[dict, int]:
    lines = path.read_text().splitlines()
    return json.loads(lines[0]), json.loads(lines[1])["write_end_ns"]


def traced_run(runner, tally, requests, seconds) -> tuple[dict, int]:
    untraced, traced, selves, faults = [], [], [], []
    record_path = runner.workdir / "trace.json"
    seeds, request_counts = [], []

    def pair():
        problem, seed, expected = requests.next()
        child = runner.run(cli_argv(problem, seed))
        tally.check(child, expected, "request")
        untraced.append(child.wall_s)
        request_id = len(traced) + 1
        child = runner.run(traced_argv("request", problem, seed, record_path, request_id))
        if not tally.check(child, expected, "traced request"):
            raise InvalidTrace("traced replica output differs from the expected output")
        record, write_end = read_record(record_path)
        if record["request_id"] != request_id:
            raise InvalidTrace("trace record belongs to another request")
        traced.append(child.wall_s)
        selves.append(self_times(child, record, write_end))
        faults.append(record["minor_faults"])
        seeds.append(seed)
        request_counts.append(record["counts"])

    closed_loop(seconds, pair)

    # the computed counters describe the run's first request
    problem, seed, expected = requests.input(seeds[0])
    child = runner.run(traced_argv("replay", problem, seed, record_path))
    if not tally.check(child, expected, "replay"):
        raise InvalidTrace("replay output differs from the expected output")
    replay, _ = read_record(record_path)
    counts = replay["counts"]
    got = request_counts[0]
    if any(got.get(k, 0) != counts.get(k, 0) for k in SHARED_COUNTS):
        raise InvalidTrace(f"traced request counts {got} differ from the replay's {counts}")

    child = runner.run(traced_argv("kernels", record_path))
    if child.exit_code != 0:
        raise RuntimeError(f"kernel grid child failed:\n{child.stderr}")
    kernels = json.loads(record_path.read_text())

    return layer_metrics(untraced, traced, selves, faults, counts, replay, kernels), len(untraced)


def layer_metrics(untraced, traced, selves, faults, counts, replay, kernels) -> dict:
    def layer_s(span):
        return median(s.get(span, 0) for s in selves) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m = {metric: (layer_s(span), "s") for span, metric in LAYER_SPANS.items()}
    m["trace.glue_s"] = (median(sum(s.get(g, 0) for g in GLUE_SPANS) for s in selves) / 1e9, "s")
    m["trace.wall_s"] = (median(traced), "s")
    m["trace.overhead_ratio"] = (median(traced) / median(untraced), "ratio")

    c = {k: counts.get(k, 0) for k in (*COUNTS, "grover_sat.rounds_max", "statevector.state_bytes")}
    for name in COUNTS:
        m[name] = (c[name], "count")
    m["grover_sat.rounds_max_over_sum"] = (
        ratio(c["grover_sat.rounds_max"], c["grover_sat.rounds"]), "ratio")
    m["grover_sat.verified_ratio"] = (
        ratio(c["grover_sat.verified"], c["grover_sat.candidates"]), "ratio")
    m["qpe_tsp.distinct_ratio"] = (
        ratio(c["qpe_tsp.distinct_exponents"], c["qpe_tsp.cycles"]), "ratio")
    m["statevector.state_mib"] = (c["statevector.state_bytes"] / 2**20, "MiB")
    execute_s = m["circuit.execute_s"][0]
    m["circuit.ops_per_s"] = (ratio(c["circuit.ops"], execute_s), "1/s")
    m["statevector.amps_per_s"] = (ratio(c["statevector.amps_touched"], execute_s), "1/s")
    m["statevector.minor_faults"] = (median(faults), "count")

    apply_ns, apply_calls = replay["apply_ns"], replay["apply_calls"]
    other = [g for g in apply_calls if g not in APPLY_GROUPS]
    for group in APPLY_GROUPS:
        m[f"statevector.apply_s.{group}"] = (apply_ns.get(group, 0) / 1e9, "s")
        m[f"statevector.apply_calls.{group}"] = (apply_calls.get(group, 0), "count")
    m["statevector.apply_s.other"] = (sum(apply_ns[g] for g in other) / 1e9, "s")
    m["statevector.apply_calls.other"] = (sum(apply_calls[g] for g in other), "count")
    for name, value in kernels.items():
        m[name] = (value, "ms")
    return dict(sorted(m.items(), key=lambda kv: LAYERS.index(kv[0].split(".")[0])))


# metrics that are exact counts of the program's work, not measurements
COMPUTED = {
    *COUNTS, "grover_sat.rounds_max_over_sum", "grover_sat.verified_ratio",
    "qpe_tsp.distinct_ratio", "statevector.state_mib",
}


def report(workload, seed, trace, metrics, requests, tally, correct, note="") -> None:
    kind = "traced" if trace else "timed"
    print(f"{workload} seed {seed} ({kind}): {requests} requests, "
          f"{tally.attempted} attempted incl. checks, {tally.failed} failed"
          f" (failed_ratio {tally.failed / max(tally.attempted, 1):.4f}){note}")
    for name, (value, unit) in metrics.items():
        computed = name in COMPUTED or name.startswith("statevector.apply_calls.")
        label = "computed" if computed else "measured"
        print(f"  {name:40s} {value:>16.6g} {unit:6s} [{label}]")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsolve" / "cli.py").is_file() or not (ROOT / KAKURO).is_file():
        print(f"error: {ROOT} is not a qsolve checkout (no src/qsolve or problems/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # unwind on SIGTERM too, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner, tally = Runner(workdir), Tally()
        requests = Requests(args.workload, args.seed, workdir)
        determinism_checks(runner, tally, args.seed)
        if args.trace:
            try:
                metrics, count = traced_run(runner, tally, requests, args.seconds)
            except InvalidTrace as exc:
                report(args.workload, args.seed, 1, {}, 0, tally, False,
                       f"; traced numbers invalid: {exc}")
                return 1
        else:
            metrics, count = timed_run(runner, tally, requests, args.seconds)
        correct = tally.failed == 0
        report(args.workload, args.seed, args.trace, metrics, count, tally, correct)
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
