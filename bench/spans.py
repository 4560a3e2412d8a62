"""In-memory span recorder that wraps the riskshare layers from outside.

The package has no tracing hooks of its own, so the recorder replaces each
public function of a layer module with a wrapper that records a span (id,
parent id, name, start, end, outcome). Functions imported by value into
other modules (``from .risk_measures import rho``) are replaced in every
namespace that holds them, otherwise calls through those names would escape
the trace. ``ProbSpace.rv`` and ``ProbSpace.density`` record as
``prob_core.validate``, and each click command's callback as
``cli.command``. ``uninstall`` restores every original binding.

Spans of one operation stay in memory until ``drain`` folds them into
per-name totals (calls, failures, self time), so memory stays bounded by the
largest single operation.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# Layer modules, in dependency order. ``oracle`` is test-only, not a layer.
LAYERS = ("prob_core", "risk_measures", "agent_space", "opt_kernel",
          "infimal_convolution", "pareto", "cli")

# Span names that differ from "<module>.<function>".
_RENAMED = {
    "prob_core.ProbSpace.rv": "prob_core.validate",
    "prob_core.ProbSpace.density": "prob_core.validate",
}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    error: str | None  # exception type name when the call raised


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus the part of its
    interval that its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = union_length(children.get(s.sid, ()), s.start, s.end)
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """Return a wrapper of fn recording one span per call.

        on_call(args, kwargs) and on_result(result) may add to
        ``self.counters``; they run inside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                if on_call is not None:
                    on_call(args, kwargs)
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, error))

        return traced

    def drain(self):
        """Fold the recorded spans into the per-name totals and drop them."""
        for name, dt in self_times(self.spans).items():
            self.self_s[name] += dt
        for s in self.spans:
            self.calls[s.name] += 1
            if s.error is not None:
                self.failed[s.name] += 1
        self.spans = []
        self._stack = []

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "riskshare"):
        """Wrap every public function of each layer module and rebind the
        wrapper wherever the original is reachable by name."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package or name.startswith(package + "."))}
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                on_call, on_result = self._hooks(name)
                replacements[id(obj)] = (obj, self.wrap(_RENAMED.get(name, name), obj,
                                                        on_call, on_result))
        prob_core = modules[f"{package}.prob_core"]
        for meth in ("rv", "density"):
            fn = vars(prob_core.ProbSpace)[meth]
            self._set(prob_core.ProbSpace, meth,
                      self.wrap(_RENAMED[f"prob_core.ProbSpace.{meth}"], fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        cli = modules[f"{package}.cli"]
        for cmd in cli.main.commands.values():
            self._set(cmd, "callback", self.wrap("cli.command", cmd.callback))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _hooks(self, name):
        if name == "opt_kernel.lp_solve":
            def on_call(args, kwargs):
                problem = args[0] if args else kwargs["problem"]
                m_ub = problem.b_ub.size
                m = m_ub + problem.b_eq.size
                cols = problem.n_vars + m_ub + m  # originals, slacks, artificials
                self.counters["opt_kernel.lp_solve.cells"] += m * (cols + 1)

            def on_result(sol):
                if sol.status == "optimal":
                    self.counters["opt_kernel.lp_solve.optimal"] += 1
            return on_call, on_result
        if name == "opt_kernel.maximize_over_densities":
            def on_call(args, kwargs):
                objective = args[1] if len(args) > 1 else kwargs["objective"]
                if objective.kl_weight > 0.0:
                    self.counters["opt_kernel.maximize_over_densities.kl_calls"] += 1
            return on_call, None
        return None, None
