"""Outside-in layer tracing for the asailocal benchmark.

The tracer wraps public functions and methods of the asailocal modules from
the benchmark's own code; nothing under ``src/`` is edited.  Every call of a
wrapped function records a span (name, start, end, parent) in flat arrays
held in memory; the arrays are written out once, when the traced pass ends.
A span's self time is its duration minus the durations of its direct child
spans.

Wrapping rebinds every reference to the original object: the attribute on
its class, and every ``asailocal`` module global that imported it by name
(``from .unitgroups import unit_group`` makes a second reference that a
patch of ``unitgroups.unit_group`` alone would miss).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (span name, module, attribute) — "Class.method" patches the class.
# Several targets may share one span name; their calls and self time pool.
TARGETS = [
    ("padic.shell", "padic", "PAdicGround.shell"),
    ("padic.shell", "padic", "QuadExtension.shell"),
    ("unitgroups.unit_group", "unitgroups", "unit_group"),
    ("unitgroups.dlog", "unitgroups", "FUnitGroup.dlog"),
    ("unitgroups.dlog", "unitgroups", "EUnramUnitGroup.dlog"),
    ("unitgroups.dlog", "unitgroups", "ERamUnitGroup.dlog"),
    ("characters.addchar_angle", "characters", "AddChar.angle"),
    ("characters.multchar_eval", "characters", "MultChar.value"),
    ("characters.multchar_eval", "characters", "MultChar.cyc"),
    ("characters.multchar_eval", "characters", "MultChar.angle_at"),
    ("characters.ops", "characters", "restrict_to_F"),
    ("characters.ops", "characters", "sigma_conjugate"),
    ("characters.ops", "characters", "extend_from_F"),
    ("characters.ops", "characters", "compose_with_norm"),
    ("characters.ops", "characters", "MultChar.mul"),
    ("characters.ops", "characters", "MultChar.reduced"),
    ("cyclotomic.is_zero", "cyclotomic", "Cyc.is_zero"),
    ("factors.eval", "factors", "NonArchFactor.eval"),
    ("factors.eval", "factors", "ArchFactor.eval"),
    ("tate.gauss_sum", "tate", "gauss_sum"),
    ("tate.fe_ratio", "tate", "fe_ratio"),
    ("tate.tate_gamma", "tate", "tate_gamma"),
    ("asai.gamma_rs", "asai", "gamma_rs"),
    ("asai.gamma_psr", "asai", "gamma_psr"),
    ("asai.eps_gal_comparison", "asai", "eps_gal_comparison"),
    ("asai.dichotomy_sign", "asai", "dichotomy_sign"),
    ("whittaker.whittaker_value", "whittaker", "whittaker_value"),
    ("whittaker.bigcell_integral", "whittaker", "bigcell_integral"),
    ("whittaker.w_averaged_lower", "whittaker", "w_averaged_lower"),
    ("whittaker.spherical_gamma_oracle", "whittaker", "spherical_gamma_oracle"),
    ("arch.quad_gl", "arch", "quad_gl"),
    ("arch.quad_real_line", "arch", "quad_real_line"),
]

# One root span per verify suite, so the counts can be split by suite.
SUITE_TARGETS = [
    (f"verify.{name}", "verify", name)
    for name in (
        "suite_gauss_modulus",
        "suite_phi_independence",
        "suite_theorem_a_unramified",
        "suite_whittaker_closed_forms",
        "suite_closed_vs_quadrature",
        "suite_arch_cases",
        "suite_combinatorial",
    )
]

# Gauss-Legendre nodes evaluated per quad_gl call: the G15 and G30 panels.
NODES_PER_QUAD_GL = 15 + 30


class Tracer:
    """Span recorder.  One instance per traced process; not thread-safe."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.shell_sizes: list[tuple[int, int]] = []  # (span, elements)
        self._lru = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        counts_shell = name == "padic.shell"

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counts_shell:
                self.shell_sizes.append((i, len(result)))
            return result

        return functools.update_wrapper(traced, fn)

    # -- patching -------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target and rebind every reference to it: class
        attributes (aliases such as ``MultChar.__call__ = value`` included),
        module globals, and values of module-level dicts (``verify.SUITES``)."""
        modules = [m for n, m in sys.modules.items() if n.startswith("asailocal") and m]
        self._lru = sys.modules["asailocal.unitgroups"].unit_group
        self._lru_at_install = self._lru.cache_info()
        for name, mod_name, attr in TARGETS + SUITE_TARGETS:
            mod = sys.modules[f"asailocal.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(mod, cls_name)]
                orig = owners[0].__dict__[meth]
            else:
                orig = getattr(mod, attr)
                owners = modules
            wrapped = self.wrap(name, orig)
            for owner in owners:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, key, wrapped)
                    elif isinstance(val, dict) and not isinstance(owner, type):
                        for k, v in val.items():
                            if v is orig:
                                val[k] = wrapped

    # -- results --------------------------------------------------------------
    def spans(self) -> dict:
        """The recorded spans as numpy arrays (times in seconds)."""
        import numpy as np

        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the shell elements and
        the lru hits and misses of ``unit_group`` since ``install``."""
        import numpy as np

        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        n_names = len(self.names)
        calls = np.bincount(sp["name_id"], minlength=n_names)
        own = np.bincount(sp["name_id"], weights=dur - child, minlength=n_names)
        out = {
            f"{name}.calls": int(calls[i]) for i, name in enumerate(self.names)
        }
        out.update({f"{name}.self_s": float(own[i]) for i, name in enumerate(self.names)})
        out["padic.shell.elements"] = sum(n for _, n in self.shell_sizes)
        out["trace.spans"] = len(dur)
        if self._lru is not None:
            info, info0 = self._lru.cache_info(), self._lru_at_install
            out["unit_group.hits"] = info.hits - info0.hits
            out["unit_group.misses"] = info.misses - info0.misses
        return out

    def counts_by_suite(self) -> dict:
        """Calls per span name (and shell elements) under each verify-suite
        root span, e.g. ``{"verify.suite_gauss_modulus": {...}}``."""
        sp = self.spans()
        suite_ids = {i for i, n in enumerate(self.names) if n.startswith("verify.")}
        name_id, parent = sp["name_id"].tolist(), sp["parent"].tolist()
        root = [-1] * len(name_id)
        out: dict = {}
        for i, (nid, par) in enumerate(zip(name_id, parent)):
            root[i] = i if nid in suite_ids else (root[par] if par >= 0 else -1)
            if root[i] >= 0:
                tally = out.setdefault(self.names[name_id[root[i]]], {})
                key = f"{self.names[nid]}.calls"
                tally[key] = tally.get(key, 0) + 1
        for i, n in self.shell_sizes:
            if root[i] >= 0:
                tally = out[self.names[name_id[root[i]]]]
                tally["padic.shell.elements"] = tally.get("padic.shell.elements", 0) + n
        return out

    def write(self, path: str) -> None:
        """Write the spans and their name table as one .npz file."""
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.spans())


def merge(summaries: list[dict]) -> dict:
    """Sum per-process summaries (counts and seconds both add)."""
    out: dict = {}
    for s in summaries:
        for k, v in s.items():
            out[k] = out.get(k, 0) + v
    return out


def layer_metrics(summary: dict) -> dict:
    """The summary plus the derived per-layer metrics of BENCHMARK.json."""
    out = dict(summary)
    hits, misses = summary.get("unit_group.hits", 0), summary.get("unit_group.misses", 0)
    out["unitgroups.unit_group.builds"] = misses
    out["unitgroups.unit_group.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    quad, lines = summary.get("arch.quad_gl.calls", 0), summary.get("arch.quad_real_line.calls", 0)
    out["arch.integrand_evals"] = NODES_PER_QUAD_GL * quad
    out["arch.panels_per_quadrature"] = quad / lines if lines else 0.0
    return out
