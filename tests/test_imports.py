"""What the package imports: the cold start of the CLI, checked in a fresh
interpreter, and the dependency rule, checked on the source text of every
module so that it also covers imports only one subcommand reaches."""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "asailocal")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))

# the layer modules bench/tracer.py's Tracer.install looks up in sys.modules
TRACED = (
    "padic", "unitgroups", "characters", "cyclotomic", "factors",
    "tate", "asai", "whittaker", "arch", "verify",
)


def test_cli_import_is_cold_start_light_and_loads_every_traced_layer():
    code = (
        "import sys\n"
        "import asailocal.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = set(proc.stdout.decode().split())
    heavy = loaded & {"dataclasses", "inspect", "numpy"}
    assert not heavy, f"import asailocal.cli loaded {sorted(heavy)}"
    missing = {f"asailocal.{name}" for name in TRACED} - loaded
    assert not missing, f"import asailocal.cli did not load {sorted(missing)}"


def _imports(tree):
    """(top-level package or None for a relative import, in a function?) of
    every import statement in the module."""
    out = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                out.extend((alias.name.split(".")[0], in_function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                top = None if child.level else child.module.split(".")[0]
                out.append((top, in_function))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_stdlib_the_package_or_numpy_inside_functions(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        tree = ast.parse(fh.read(), module)
    for top, in_function in _imports(tree):
        assert top != "dataclasses", f"{module} imports dataclasses"
        if top is None or top == "asailocal" or top in sys.stdlib_module_names:
            continue
        assert top == "numpy", f"{module} imports {top}, which is neither stdlib nor numpy"
        assert in_function, f"{module} imports numpy at module level"
