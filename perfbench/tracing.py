"""Span tracing of the paneitz layers, installed from outside the package.

Each traced function is replaced, in every ``paneitz`` module namespace that
binds it (``sweep``, ``cli`` and ``solver`` all bind ``newton_solve`` by
name), by a wrapper that records a span ``(name, start, end, parent, task,
failed)``.  Spans stay in memory until the run ends.  Functions of the
closed-form layers (``constants``, ``geometry``) cost microseconds, so they
are only counted.  ``uninstall`` restores every original binding, so
untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# (module, attribute path) of each function that gets a span
SPANNED = (
    ("cli", "main"),
    ("sweep", "run_sweep"),
    ("sweep", "branch_continuation"),
    ("sweep", "emit"),
    ("solver", "newton_solve"),
    ("solver", "continuation_init"),
    ("solver", "minimize_quotient"),
    ("solver", "rescale_to_solution"),
    ("field", "save_field"),
    ("field", "load_field"),
    ("field", "norms"),
    ("field", "localized_mass"),
    ("field", "PeriodicField.fine_values"),
    ("diagnostics", "concentration_ratios"),
    ("diagnostics", "quantization_check"),
    ("diagnostics", "multi_bubble_energy"),
    ("quadrature", "panel_rule"),
    ("bubble", "pde_residual"),
    ("bubble", "bubble_energy"),
    ("bubble", "pohozaev_identity_residual"),
)

# modules whose public functions are counted, without spans
COUNTED = ("constants", "geometry")

PACKAGE = "paneitz"


def _path_arg(args, kwargs, position, keyword):
    return kwargs[keyword] if keyword in kwargs else args[position]


def _newton(args, kwargs, sol):
    return (("iters", sol.newton_iters, "sum"), ("modes_max", sol.modes, "max"))


def _quotient(args, kwargs, qm):
    return (("iters", qm.iterations, "sum"),)


def _panel_rule(args, kwargs, rule):
    return (("nodes", rule[0].size, "sum"),)


def _save_field(args, kwargs, _):
    return (("bytes", os.path.getsize(_path_arg(args, kwargs, 1, "path")), "sum"),)


def _load_field(args, kwargs, _):
    return (("bytes", os.path.getsize(_path_arg(args, kwargs, 0, "path")), "sum"),)


# quantities taken from a traced call's arguments and result:
# span name -> function returning (stat, value, "sum" or "max") triples
EXTRACTORS = {
    "solver.newton_solve": _newton,
    "solver.minimize_quotient": _quotient,
    "quadrature.panel_rule": _panel_rule,
    "field.save_field": _save_field,
    "field.load_field": _load_field,
}


class Tracer:
    """Records spans and per-function quantities while installed."""

    def __init__(self):
        self.spans: list = []
        self.stats: dict[str, float] = {}
        self.task = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.paused = False

    # --- installation -------------------------------------------------

    @staticmethod
    def _modules():
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _bind_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` in every package namespace."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path in SPANNED:
            mod = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{path}"
            owner_path, _, attr = path.rpartition(".")
            if owner_path:  # a method: patch the class once
                owner = getattr(mod, owner_path)
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._span_wrapper(name, original))
            else:
                original = getattr(mod, attr)
                self._bind_everywhere(original, self._span_wrapper(name, original))
        for module_name in COUNTED:
            mod = sys.modules[f"{PACKAGE}.{module_name}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type):
                    self._bind_everywhere(fn, self._count_wrapper(f"{module_name}.calls", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- wrappers -----------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.task, failed)
            if extract is not None:
                for stat, value, combine in extract(args, kwargs, result):
                    tracer._add(f"{name}.{stat}", value, combine)
            return result

        return traced

    def _count_wrapper(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.paused:
                tracer.stats[key] = tracer.stats.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _add(self, key, value, combine):
        if combine == "max":
            self.stats[key] = max(self.stats.get(key, value), value)
        else:
            self.stats[key] = self.stats.get(key, 0) + value

    # --- results ------------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: forget spans and quantities recorded so far."""
        self.spans = []
        self.stats = {}

    def summary(self) -> dict[str, float]:
        """Per-function calls, busy_s (inclusive, outermost spans only), self_s
        (busy minus the time covered by child spans) and fail, plus the
        collected quantities and ``sweep.continuation.solves``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, parent, _, failed) in enumerate(spans):
            duration = end - start
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.fail"] = out.get(f"{name}.fail", 0) + int(failed)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + duration - child_time[i]
            ancestors = list(self._ancestors(i))
            if all(spans[a][0] != name for a in ancestors):
                out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + duration
            if name == "solver.newton_solve" and any(
                spans[a][0] == "sweep.branch_continuation" for a in ancestors
            ):
                out["sweep.continuation.solves"] = out.get("sweep.continuation.solves", 0) + 1
        out.update(self.stats)
        return out

    def _ancestors(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]


def write_spans(path, origin: float, passes) -> None:
    """Write the spans of each traced pass as JSON lines, times in seconds
    from ``origin``; ``parent`` indexes spans of the same pass."""
    with open(path, "w", encoding="ascii") as fh:
        for number, spans in enumerate(passes):
            for i, (name, start, end, parent, task, failed) in enumerate(spans):
                record = {
                    "pass": number,
                    "id": i,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "task": task,
                    "failed": failed,
                }
                fh.write(json.dumps(record) + "\n")
