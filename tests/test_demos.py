"""The demo scripts' stdout, byte for byte, against reports pinned in
tests/golden/, natively and with numpy's SIMD loops held to the x86-64
baseline, and their refusal of bad input; and the benchmark's op-by-op
replay against the CLI's golden reports."""

import hashlib
import json
import os
import runpy
import sys

import pytest

from checkout import GOLDEN, PROBLEMS, ROOT, python
from qsolve import problems
from test_goldens import BASELINE_DISPATCH, CASES, needs_baseline_dispatch
from test_refusals import ASYMMETRIC

# tsp_demo.py on the 8-node golden problem prints 2,520 rows (146 KB)
TSP_N8_DEMO_SHA256 = "098f4639de3df51c21abfd1036234c51f79d9e5a0d8b27619cd26a601b1d29b3"


def demo_process(script, *args, **kwargs):
    return python(str(ROOT / "scripts" / script), *args, **kwargs)


def run_demo(script, *args, env=()) -> bytes:
    result = demo_process(script, *args, env=env)
    assert (result.returncode, result.stderr) == (0, b"")
    return result.stdout


@pytest.mark.parametrize("script", ["tsp_demo.py", "kakuro_demo.py"])
def test_demo_prints_its_golden_report(script):
    golden = GOLDEN / script.replace(".py", ".out")
    assert run_demo(script) == golden.read_bytes()


# runs a script with ``import numpy`` raising ImportError
NO_NUMPY = (
    'import runpy, sys; sys.modules["numpy"] = None; sys.argv = sys.argv[1:]; '
    'runpy.run_path(sys.argv[0], run_name="__main__")'
)


def test_kakuro_demo_prints_its_golden_report_without_numpy():
    """The walk's sign table is qsolve.scalar's int, so the demo loads no numpy."""
    result = python("-c", NO_NUMPY, str(ROOT / "scripts" / "kakuro_demo.py"))
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (GOLDEN / "kakuro_demo.out").read_bytes()


def test_kakuro_demo_plans_each_riddle_once(monkeypatch, capsys):
    """The layout the demo prints from is the one its solve runs on: each
    riddle is validated and laid out once."""
    validated = []
    real_validate = problems.validate_problem

    def counting_validate(problem):
        validated.append(problem)
        return real_validate(problem)

    monkeypatch.setattr(problems, "validate_problem", counting_validate)
    monkeypatch.setattr(sys, "argv", ["kakuro_demo.py"])
    demo = runpy.run_path(str(ROOT / "scripts" / "kakuro_demo.py"))
    assert demo["main"]() == 0
    assert capsys.readouterr().out == (GOLDEN / "kakuro_demo.out").read_text(encoding="utf-8")
    assert len(validated) == 2


@needs_baseline_dispatch
def test_demo_goldens_hold_at_the_baseline_simd_level():
    """The same seed prints the same bytes whichever SIMD loops numpy runs."""
    for script in ("tsp_demo.py", "kakuro_demo.py"):
        golden = GOLDEN / script.replace(".py", ".out")
        assert run_demo(script, env=BASELINE_DISPATCH) == golden.read_bytes()


def test_tsp_demo_on_eight_nodes_prints_its_pinned_report():
    out = run_demo("tsp_demo.py", "--input", str(GOLDEN / "tsp_n8_seed0.json"))
    assert hashlib.sha256(out).hexdigest() == TSP_N8_DEMO_SHA256


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("tsp_demo.py", ["--seed", "-1"], "--seed must be non-negative, got -1"),
        ("tsp_demo.py", ["--shots", "0"], "--shots must be positive, got 0"),
        ("tsp_demo.py", ["--shots", "-5"], "--shots must be positive, got -5"),
        ("kakuro_demo.py", ["--seed", "-1"], "--seed must be non-negative, got -1"),
        ("kakuro_demo.py", ["--shots", "0"], "--shots must be positive, got 0"),
        ("kakuro_demo.py", ["--shots", "-5"], "--shots must be positive, got -5"),
        (
            "tsp_demo.py",
            ["--input", str(PROBLEMS / "kakuro_unit_sums.json")],
            "a 'sat' problem, not a tour problem",
        ),
        ("tsp_demo.py", ["--input", str(PROBLEMS / "missing.json")], "missing.json"),
        # the plan's diagnostics, each prefixed with the file's path as the CLI's are
        (
            "tsp_demo.py",
            ["--input", ASYMMETRIC],
            "error: {problem}: adjacency[0][2]: matrix must be symmetric",
        ),
        # 8 TB of draws, past a state at the default cap
        ("tsp_demo.py", ["--shots", str(10**12)], "needs more memory than a 26-qubit state"),
        ("kakuro_demo.py", ["--shots", str(10**12)], "needs more memory than a 26-qubit state"),
        # a bad --shots is refused before a bad --seed
        ("tsp_demo.py", ["--shots", "0", "--seed", "-1"], "--shots must be positive, got 0"),
        ("kakuro_demo.py", ["--shots", "0", "--seed", "-1"], "--shots must be positive, got 0"),
        (
            "tsp_demo.py",
            ["--shots", str(10**12), "--seed", "-1"],
            "needs more memory than a 26-qubit state",
        ),
        (
            "kakuro_demo.py",
            ["--shots", str(10**12), "--seed", "-1"],
            "needs more memory than a 26-qubit state",
        ),
    ],
    ids=[
        "tsp_seed_-1", "tsp_shots_0", "tsp_shots_-5",
        "kakuro_seed_-1", "kakuro_shots_0", "kakuro_shots_-5",
        "tsp_sat_file", "tsp_missing_file", "tsp_asymmetric_file",
        "tsp_shots_1e12", "kakuro_shots_1e12",
        "tsp_shots_0_seed_-1", "kakuro_shots_0_seed_-1",
        "tsp_shots_1e12_seed_-1", "kakuro_shots_1e12_seed_-1",
    ],
)
def test_demo_refuses_bad_input_before_any_output(tmp_path, script, args, message):
    # a payload in ``args`` is written to a problem file that stands in its place
    problem = tmp_path / "problem.json"
    for arg in args:
        if isinstance(arg, dict):
            problem.write_text(json.dumps(arg))
    args = [str(problem) if isinstance(arg, dict) else arg for arg in args]
    message = message.replace("{problem}", str(problem))
    result = demo_process(script, *args)
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    last = result.stderr.decode().splitlines()[-1]
    assert "error: " in last and message in last


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize(
    "script, args",
    [
        ("kakuro_demo.py", []),
        ("tsp_demo.py", []),
        # 146 KB: the write fails mid-report, not at the last flush
        ("tsp_demo.py", ["--input", str(GOLDEN / "tsp_n8_seed0.json")]),
    ],
    ids=["kakuro", "tsp", "tsp_n8"],
)
def test_demo_on_a_full_disk_exits_two(script, args):
    # buffered, the report reaches the disk only when stdout is flushed
    with open("/dev/full", "w") as full:
        result = demo_process(script, *args, stdout=full, drop=("PYTHONUNBUFFERED",), text=True)
    assert result.returncode == 2
    assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [
        "error: [Errno 28] No space left on device"
    ]
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("script", ["kakuro_demo.py", "tsp_demo.py"])
def test_demo_help_on_a_full_disk_exits_two(script):
    # buffered, argparse's help would reach the disk only at the exit-time flush
    with open("/dev/full", "w") as full:
        result = demo_process(script, "--help", stdout=full, drop=("PYTHONUNBUFFERED",), text=True)
    assert result.returncode == 2
    assert result.stderr.splitlines() == ["error: [Errno 28] No space left on device"]


@pytest.mark.parametrize("script", ["kakuro_demo.py", "tsp_demo.py"])
def test_demo_help_prints_its_usage_and_exits_zero(script):
    result = demo_process(script, "--help")
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.startswith(f"usage: {script} [-h]".encode())
    assert b"--shots SHOTS" in result.stdout


@pytest.mark.parametrize("name", ["kakuro_unit_sums", "tsp_four_cities", "unsat_pair"])
def test_benchmark_replay_prints_the_golden_report(tmp_path, name):
    """`perfbench/traced.py replay` runs each circuit op by op through
    `apply_gate_in_place`; it must print the CLI's report and exit code."""
    out = tmp_path / "record.jsonl"
    traced, problem = ROOT / "perfbench" / "traced.py", PROBLEMS / f"{name}.json"
    result = python(str(traced), "replay", str(problem), "0", str(out))
    case = next(case for case in CASES if case.output == f"{name}.text.out")
    assert (result.returncode, result.stdout, result.stderr) == (
        case.code, (GOLDEN / case.output).read_bytes(), b""
    )
    assert json.loads(out.read_text().splitlines()[0])["counts"]["circuit.ops"] > 0
