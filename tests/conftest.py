"""Hypothesis draws the same examples on every run: tests that set their own
``max_examples`` keep it, and no example depends on the clock.

The ``certified`` fixture records the chi of every ``certify_gamma`` call,
from a cold lambda_{E/F} cache.  The run ends with the package's source
line count, the figure ``wc -l src/asailocal/*.py`` gives, split by an
``ast`` count into code, docstring, comment and blank lines."""

import ast
import glob
import os
from collections import Counter

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


def _line_kinds(text: str) -> Counter:
    """Each line of a module's source as code, docstring (every line of a
    module, class or function docstring), comment or blank."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    kinds = Counter()
    for i, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        kind = "code" if s else "blank"
        if i in doc:
            kind = "docstring"
        elif s.startswith("#"):
            kind = "comment"
        kinds[kind] += 1
    return kinds


def pytest_terminal_summary(terminalreporter):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lines, kinds = 0, Counter()
    for path in glob.glob(os.path.join(root, "src", "asailocal", "*.py")):
        with open(path, "rb") as fh:
            raw = fh.read()
        lines += raw.count(b"\n")
        kinds += _line_kinds(raw.decode())
    split = ", ".join(f"{kinds[k]} {k}" for k in ("code", "docstring", "comment", "blank"))
    terminalreporter.write_line(f"src/asailocal: {lines} lines ({split})")
