"""The demo scripts' stdout, byte for byte, against reports pinned in
tests/golden/."""

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


def run_demo(script, *args) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, env=env,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    return result.stdout


@pytest.mark.parametrize("script", ["tsp_demo.py", "kakuro_demo.py"])
def test_demo_prints_its_golden_report(script):
    golden = GOLDEN / script.replace(".py", ".out")
    assert run_demo(script) == golden.read_bytes()


def test_tsp_demo_on_eight_nodes_prints_its_pinned_report():
    out = run_demo("tsp_demo.py", "--input", str(GOLDEN / "tsp_n8_seed0.json"))
    assert hashlib.sha256(out).hexdigest() == TSP_N8_DEMO_SHA256
