"""Fixtures that pick which kernels a solve runs."""

import importlib

import pytest

from qsolve import problems


@pytest.fixture(params=["scalar", "statevector"])
def kernels(request, monkeypatch):
    """The kernels module the solves of a test run: ``qsolve.scalar``, which
    a small solve runs as planned, or ``qsolve.statevector``, forced by
    holding the bound of ``problems.pick_kernels`` at 0."""
    if request.param == "statevector":
        monkeypatch.setattr(problems, "SCALAR_WORK", 0)
    return importlib.import_module(f"qsolve.{request.param}")


@pytest.fixture
def numpy_kernels(monkeypatch):
    """Every solve of the test runs the numpy kernels, however small."""
    monkeypatch.setattr(problems, "SCALAR_WORK", 0)
