"""Hypothesis draws the same examples on every run: tests that set their own
``max_examples`` keep it, and no example depends on the clock.

The ``certified`` fixture records the chi of every ``certify_gamma`` call,
from a cold lambda_{E/F} cache.  The run ends with the package's source
line count, the figure ``wc -l src/asailocal/*.py`` gives."""

import glob
import os

import pytest
from hypothesis import settings

import asailocal.asai as asai_mod
import asailocal.cli as cli_mod
import asailocal.tate as tate_mod

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def certified(monkeypatch):
    calls = []
    certify = tate_mod.certify_gamma

    def counting(fac, chi, psi):
        calls.append(chi)
        certify(fac, chi, psi)

    # every module that calls certify_gamma binds it by name
    for mod in (tate_mod, asai_mod, cli_mod):
        monkeypatch.setattr(mod, "certify_gamma", counting)
    tate_mod.langlands_constant.cache_clear()
    yield calls
    tate_mod.langlands_constant.cache_clear()


def pytest_terminal_summary(terminalreporter):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lines = 0
    for path in glob.glob(os.path.join(root, "src", "asailocal", "*.py")):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    terminalreporter.write_line(f"src/asailocal: {lines} lines")
