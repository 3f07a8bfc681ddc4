"""The demo scripts' stdout, byte for byte, against reports pinned in
tests/golden/, and their refusal of bad input."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# tsp_demo.py on the 8-node golden problem prints 2,520 rows (146 KB)
TSP_N8_DEMO_SHA256 = "098f4639de3df51c21abfd1036234c51f79d9e5a0d8b27619cd26a601b1d29b3"


def demo_process(script, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, env=env,
    )


def run_demo(script, *args) -> bytes:
    result = demo_process(script, *args)
    assert (result.returncode, result.stderr) == (0, b"")
    return result.stdout


@pytest.mark.parametrize("script", ["tsp_demo.py", "kakuro_demo.py"])
def test_demo_prints_its_golden_report(script):
    golden = GOLDEN / script.replace(".py", ".out")
    assert run_demo(script) == golden.read_bytes()


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
            ["--input", str(ROOT / "problems" / "kakuro_unit_sums.json")],
            "a 'sat' problem, not a tour problem",
        ),
        ("tsp_demo.py", ["--input", str(ROOT / "problems" / "missing.json")], "missing.json"),
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
        "tsp_sat_file", "tsp_missing_file",
        "tsp_shots_1e12", "kakuro_shots_1e12",
        "tsp_shots_0_seed_-1", "kakuro_shots_0_seed_-1",
        "tsp_shots_1e12_seed_-1", "kakuro_shots_1e12_seed_-1",
    ],
)
def test_demo_refuses_bad_input_before_any_output(script, args, message):
    result = demo_process(script, *args)
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    last = result.stderr.decode().splitlines()[-1]
    assert "error: " in last and message in last
