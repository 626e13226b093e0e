"""The benchmark harness under ``bench/`` patches and imports asailocal by
name; these tests fail when a rename or a move in ``src/`` would break it.

``bench/tracer.py`` wraps each of its targets the way ``Tracer.install`` does:
a "Class.method" target must be a function in the class's own ``__dict__``
(an inherited method would be patched on the wrong class), any other target a
module attribute.
"""

import ast
import importlib
import importlib.util
import os

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
