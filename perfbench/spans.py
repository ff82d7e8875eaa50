"""Span recorder for the traced benchmark run.

Inside ``with Recorder() as rec:`` each function named in ``TRACED`` is
wrapped in every conelab module namespace that binds it, so internal calls
(``barker_gap`` calling ``max_tensor_polytope``, ``separable_decompose``
calling ``block_positive_min``) are recorded too.  ``Polytope`` is traced
through its ``__post_init__``, which holds the vertex de-duplication, so
the class itself stays untouched.  Each call becomes one span: name,
start, end, parent span and request index.  Wrappers return exactly what
the wrapped function returns, and leaving the block puts the originals
back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import conelab

# Functions traced, keyed by the module whose name prefixes the span.
TRACED = {
    "cones": (
        "is_block_positive",
        "block_positive_min",
        "separable_decompose",
        "least_squares",
        "nnls",
    ),
    "maps": ("is_positive_map",),
    "kappa": ("cb_norm_estimate",),
    "polytopes": (
        "max_tensor_polytope",
        "barker_gap",
        "double_description",
        "positive_ray_generators",
        "relative_bound",
        "min_tensor",
        "linprog",
    ),
}

# Counts read from a span's return value, summed per span name.
PROBES = {
    "cones.least_squares": ("nfev", lambda res: int(res.nfev)),
    "cones.separable_decompose": ("in", lambda verdict: int(verdict.is_in)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int


class Recorder:
    """Spans in memory, in call order; ``stack`` holds the open span indices."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.request = -1
        self._replaced: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.request)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if probe is not None:
                self.counts[name][probe[0]] += probe[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Recorder":
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "conelab" or key.startswith("conelab."))]
        for home, names in TRACED.items():
            for name in names:
                original = getattr(sys.modules[f"conelab.{home}"], name)
                wrapper = self.wrap(f"{home}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._replaced.append((mod, name, original))
                        setattr(mod, name, wrapper)
        polytope = conelab.polytopes.Polytope
        self._replaced.append((polytope, "__post_init__", polytope.__post_init__))
        polytope.__post_init__ = self.wrap("polytopes.Polytope", polytope.__post_init__)
        return self

    def __exit__(self, *exc) -> None:
        while self._replaced:
            owner, name, original = self._replaced.pop()
            setattr(owner, name, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (inclusive) and self_s (busy time
        not covered by direct child spans), plus any probed counts."""
        out: dict[str, dict[str, float]] = {}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        for i, s in enumerate(self.spans):
            row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child_time[i]
        for name, counts in self.counts.items():
            out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}).update(counts)
        return out
