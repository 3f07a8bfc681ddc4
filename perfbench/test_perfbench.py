"""Tests of the benchmark itself; run with

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from expected import Expected, expected_for, expected_for_file, sat_solutions

ROOT = Path(__file__).resolve().parents[1]


def test_checked_in_expectations():
    problems = ROOT / "problems"
    assert expected_for_file(problems / "kakuro_cross_sums.json").text() == (
        "a = 3\nb = 1\nc = 2\nd = 3\n"
    )
    unsat = expected_for_file(problems / "unsat_pair.json")
    assert (unsat.exit_code, unsat.text()) == (1, "no solution found\n")
    assert expected_for_file(problems / "tsp_four_cities.json").text() == (
        "[1, 4, 2, 3] length 7\n"
    )
    assert len(expected_for_file(problems / "kakuro_unit_sums.json").blocks) == 2


def test_several_solutions_compare_as_a_set():
    expected = Expected(0, ("a = 0", "a = 1"))
    assert expected.matches(0, b"a = 1\n\na = 0\n")
    assert expected.matches(0, b"a = 0\n\na = 1\n")
    assert not expected.matches(0, b"a = 0\n")
    assert not expected.matches(0, b"a = 0\n\na = 0\n")
    assert not expected.matches(1, b"a = 0\n\na = 1\n")
    assert not expected.matches(0, b"a = 0\n\na = 1")


def test_tsp_tie_break_takes_the_smallest_tour():
    # every tour has length 4 on a uniform graph, so the first canonical
    # tour (1, 2, 3, 4) wins and prints walked the other way round
    uniform = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    assert expected_for({"type": "tsp", "adjacency": uniform}).text() == (
        "[1, 4, 3, 2] length 4\n"
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_generators_are_seeded_and_keep_their_invariants(seed, tmp_path):
    for name in ("sat_unsat", "tsp_n8"):
        first = workloads.problem_file(name, seed, ROOT, tmp_path).read_text()
        again = workloads.problem_file(name, seed, ROOT, tmp_path).read_text()
        assert first == again
    unsat = workloads.sat_unsat_problem(seed)
    assert sat_solutions(unsat) == []


def test_generator_rejects_a_problem_of_the_wrong_shape(tmp_path):
    path = tmp_path / "p.json"
    problem = workloads.sat_unsat_problem(0)
    problem["constraints"] = problem["constraints"][:1]
    path.write_text(json.dumps(problem))
    with pytest.raises(workloads.WorkloadError, match="satisfiable"):
        workloads._check_sat_unsat(path)


def fake_child(start, end):
    return run.Child(start, end, 0.0, 0, 0, b"", "")


def test_self_times_add_up_to_the_request_wall_time():
    record = {"spans": [
        ["child", 10, 90, -1],
        ["cli.import", 12, 30, 0],
        ["circuit.execute", 30, 80, 0],
        ["statevector.sample", 40, 50, 2],
    ]}
    totals = run.self_times(fake_child(0, 100), record, write_end_ns=95)
    assert totals == {
        "process": 10 + 5,
        "child": 2 + 10,
        "cli.import": 18,
        "circuit.execute": 40,
        "statevector.sample": 10,
        "trace.write": 5,
    }
    assert sum(totals.values()) == 100


def test_overlapping_spans_invalidate_the_trace():
    record = {"spans": [["child", 10, 90, -1], ["a", 12, 40, 0], ["b", 30, 50, 0]]}
    with pytest.raises(run.InvalidTrace):
        run.self_times(fake_child(0, 100), record, write_end_ns=95)


@pytest.mark.parametrize("name", ["kakuro_unit_sums", "tsp_four_cities", "unsat_pair"])
def test_traced_replica_matches_the_expected_output(name, tmp_path):
    problem = ROOT / "problems" / f"{name}.json"
    runner = run.Runner(tmp_path)
    child = runner.run(run.traced_argv("request", problem, 3, tmp_path / "t.json", 7))
    assert expected_for_file(problem).matches(child.exit_code, child.stdout), child.stderr
    record, write_end = run.read_record(tmp_path / "t.json")
    assert record["request_id"] == 7
    totals = run.self_times(child, record, write_end)
    assert set(totals) >= {"process", "child", "cli.import", "cli.parse", "circuit.execute"}


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sat_kakuro",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def declared(section):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    import traced

    kernels = {
        traced.kernel_name(g, c, n): 1.0
        for n in traced.KERNEL_QUBITS for g, c in traced.KERNEL_GRID
    }
    replay = {"apply_ns": {"x.c9": 5}, "apply_calls": {"x.c9": 1}}
    metrics = run.layer_metrics([1.0], [1.0], [{"process": 1}], [1], {}, replay, kernels)
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert metrics["statevector.apply_calls.other"] == (1, "count")


def test_timed_run_reports_exactly_the_declared_end_to_end_metrics():
    class FakeRunner:
        def run(self, argv):
            return run.Child(0, 10**9, 1.5, 2048, 0, b"a = 1\n", "")

    class FakeRequests:
        def next(self):
            return Path("p.json"), 1, Expected(0, ("a = 1",))

    tally = run.Tally()
    metrics, count = run.timed_run(FakeRunner(), tally, FakeRequests(), seconds=0)
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert metrics["peak_rss_mib"] == (2.0, "MiB")
    assert (count, tally.attempted, tally.failed) == (1, 1, 0)
