"""Out-of-program layer tracing for the irkit benchmark.

The tracer wraps public entry points of irkit's modules from outside the
package.  Modules that import a function by name (``from .sparsela import
combine``) hold their own binding, so every binding of the original object
in every ``irkit`` module is replaced, and restored afterwards.  Spans
``(name, start, end, parent)`` are kept in memory; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) of each traced entry point; a dotted attribute names a
# method patched on its class.  The span name is ``module.attribute``.
ENTRY_POINTS = (
    ("sparsela", "combine"),
    ("sparsela", "gmres"),
    ("sparsela", "BandedLU.factor"),
    ("sparsela", "BandedLU.solve"),
    ("densela", "lu_factor"),
    ("densela", "lu_solve_factored"),
    ("densela", "real_schur"),
    ("tableau", "prepare_stages"),
    ("irk_core", "solve_transformed_system"),
    ("irk_core", "apply_block2x2"),
    ("irk_core", "make_block2x2_preconditioner"),
    ("irk_core", "field_of_values_bound"),
    ("nonlinear", "stage_residual"),
    ("nonlinear", "build_variant_jacobian"),
    ("dae", "solve_dae_block4x4"),
    ("dae", "dae_stage_residual"),
    ("problems", "make_problem"),
)


class Tracer:
    """Installs span-recording wrappers and derives per-span self times."""

    def __init__(self, package):
        self.spans = []  # (name, start, end, parent index or -1)
        self.krylov_reports = []  # KrylovReport of every traced gmres call
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [
            mod for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        for mod_name, attr in ENTRY_POINTS:
            module = getattr(package, mod_name)
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch_method(name, cls, meth)
            else:
                self._patch_function(name, getattr(module, attr), modules)

    def _patch_function(self, name, original, modules):
        on_return = self.krylov_reports.append if name == "sparsela.gmres" else None
        wrapper = self.wrap(name, original, on_return)
        for mod in modules:
            for attr, value in vars(mod).items():
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    def _patch_method(self, name, cls, meth):
        original = cls.__dict__[meth]
        if isinstance(original, classmethod):
            wrapper = classmethod(self.wrap(name, original.__func__))
        else:
            wrapper = self.wrap(name, original)
        self._patches.append((cls, meth, original, wrapper))

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(out[1])
            return out

        return traced

    def wrap_system(self, system):
        """Copy of an ``OdeSystem``/``DaeSystem`` whose callables record spans.

        ``problems.rhs`` covers the residual functions (``rhs``, and
        ``constraint`` on DAEs); ``problems.linearize`` covers ``linearize``
        or the DAE ``blocks``.
        """
        if hasattr(system, "linearize"):
            return dataclasses.replace(
                system,
                rhs=self.wrap("problems.rhs", system.rhs),
                linearize=self.wrap("problems.linearize", system.linearize),
            )
        return dataclasses.replace(
            system,
            rhs=self.wrap("problems.rhs", system.rhs),
            constraint=self.wrap("problems.rhs", system.constraint),
            blocks=self.wrap("problems.linearize", system.blocks),
        )

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def bindings_restored(self):
        """True when every patched binding holds its original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original, _ in self._patches)

    def clear(self):
        self.spans.clear()
        self.krylov_reports.clear()

    def summary(self):
        """``{name: [self seconds, inclusive seconds, calls]}`` of the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, start, end, _), children in zip(self.spans, child_time):
            agg = out[name]
            agg[0] += end - start - children
            agg[1] += end - start
            agg[2] += 1
        return dict(out)
