"""This checkout's problem files; one way for a test to start a fresh
interpreter on it, with ``src/`` and ``tests/`` first on the child's
PYTHONPATH, ahead of any installed ``qsolve``; and the traced peak of a
call. This module imports neither numpy nor qsolve, so a child that must
show it loads no numpy can import it."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
GOLDEN = ROOT / "tests" / "golden"

UNIT_KAKURO = PROBLEMS / "kakuro_unit_sums.json"
CROSS_SUMS = PROBLEMS / "kakuro_cross_sums.json"
UNSAT = PROBLEMS / "unsat_pair.json"
TSP = PROBLEMS / "tsp_four_cities.json"
# the benchmark's tsp_n8 problem at workload seed 0: 2,520 cycles sharing 64
# exponents, so its output pins which batch row each cycle reads. It lives
# in tests/golden/, not in problems/, so the benchmark's list of checked-in
# problems keeps its files.
EIGHT_CITIES = GOLDEN / "tsp_n8_seed0.json"


def python(*args, env=(), drop=(), wrap=(), **kwargs) -> subprocess.CompletedProcess:
    """``sys.executable *args``, run to its exit in this process's
    environment, less the variables named in ``drop`` and with those of
    ``env`` set. ``wrap`` is a command the interpreter's argv is appended
    to, and ``kwargs`` go to ``subprocess.run``; stdout and stderr are
    captured unless ``kwargs`` send them elsewhere."""
    child_env = {k: v for k, v in os.environ.items() if k not in drop}
    child_env.update(env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), str(ROOT / "tests"), child_env.get("PYTHONPATH")))
    )
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([*wrap, sys.executable, *args], env=child_env, **kwargs)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
