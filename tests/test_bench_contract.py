"""The benchmark harness under ``bench/`` patches and imports asailocal by
name; these tests fail when a rename or a move in ``src/`` would break it.

``bench/tracer.py`` wraps each of its targets the way ``Tracer.install`` does:
a "Class.method" target must be a function in the class's own ``__dict__``
(an inherited method would be patched on the wrong class), any other target a
module attribute.

Each kind of ``factor-requests`` runs once per extension through the
benchmark's own ``run_factor_request``, so a renamed function or keyword
that it calls fails here, not only in the benchmark.

The README examples (``bench/workloads.py``'s ``CLI_EXAMPLES``) run as
their own interpreters: their stdout must equal ``bench/golden/`` byte for
byte, and none of them loads numpy, the archimedean ``arch-zeta`` included;
nor does ``verify``, whose archimedean quadrature is pure Python.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(BENCH_DIR, "tracer.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACER = _load_tracer()


@pytest.mark.parametrize(
    "name,mod_name,attr",
    TRACER.TARGETS + TRACER.SUITE_TARGETS,
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_tracer_target_resolves(name, mod_name, attr):
    mod = importlib.import_module(f"asailocal.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        assert meth in cls.__dict__, f"{attr} is not defined on {cls_name} itself"
        assert callable(cls.__dict__[meth])
    else:
        assert callable(getattr(mod, attr))


def test_workloads_imports_exist():
    with open(os.path.join(BENCH_DIR, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("asailocal")
        for alias in node.names
    ]
    assert imported, "bench/workloads.py imports nothing from asailocal"
    for module, name in imported:
        mod = importlib.import_module(module)
        is_submodule = hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}")
        assert hasattr(mod, name) or is_submodule, f"{module}.{name} is gone"


def _load_workloads():
    # workloads.py imports its sibling ``speed`` by name
    sys.path.insert(0, BENCH_DIR)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", os.path.join(BENCH_DIR, "workloads.py")
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.remove(BENCH_DIR)


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("kind", WORKLOADS.KINDS)
@pytest.mark.parametrize("ext", WORKLOADS.EXTENSIONS)
def test_factor_request_runs(kind, ext):
    # the benchmark's own calls into asailocal, keywords included, at the
    # cheapest cell of each kind
    ok, why = WORKLOADS.run_factor_request({"kind": kind, "p": 3, "ext": ext, "level": 1, "seed": 1})
    assert ok, why


def _run_python(args):
    return subprocess.run(
        [sys.executable, *args], cwd=WORKLOADS.ROOT, env=WORKLOADS.child_env(), capture_output=True
    )


def test_cli_import_leaves_numpy_unloaded_and_the_tracer_installs():
    # every module the tracer wraps is registered by ``import asailocal.cli``
    code = f"""
import importlib.util, sys
import asailocal.cli
assert "numpy" not in sys.modules, "import asailocal.cli loaded numpy"
spec = importlib.util.spec_from_file_location("bench_tracer", {os.path.join(BENCH_DIR, "tracer.py")!r})
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
mod.Tracer().install()
"""
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("name,loads_numpy", [("tate-p5", False), ("arch-zeta", False)])
def test_only_archimedean_examples_load_numpy(name, loads_numpy):
    argv = dict(WORKLOADS.CLI_EXAMPLES)[name]
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['asailocal', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('asailocal', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode().splitlines()[-1] == str(loads_numpy)


def test_verify_and_every_readme_example_leave_numpy_unloaded():
    # the archimedean oracle is pure Python, so no command loads numpy:
    # `asailocal verify` (every suite) and the README examples, in one
    # interpreter, each exiting 0
    runs = [["verify"], *(argv for _, argv in WORKLOADS.CLI_EXAMPLES)]
    code = (
        "import contextlib, io, runpy, sys\n"
        f"for argv in {runs!r}:\n"
        "    sys.argv = ['asailocal', *argv]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            runpy.run_module('asailocal', run_name='__main__', alter_sys=True)\n"
        "        except SystemExit as exc:\n"
        "            assert exc.code == 0, (argv, exc.code)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["False"]


@pytest.mark.parametrize("name,argv", WORKLOADS.CLI_EXAMPLES, ids=lambda v: v if isinstance(v, str) else None)
def test_readme_example_matches_its_golden(name, argv):
    proc = _run_python(["-m", "asailocal", *argv])
    assert proc.returncode == 0, proc.stderr.decode()
    with open(WORKLOADS.golden_path(name), "rb") as fh:
        assert proc.stdout == fh.read()
