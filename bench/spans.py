"""Spans and work counters for the traced benchmark run.

Spans are recorded from the benchmark's own files around each call into a
layer of gaussgeo; nothing inside the package is edited. A span has a name,
start and end (``time.perf_counter`` seconds), the index of its parent span
and the op it belongs to. Spans stay in memory and are written out once,
when the run ends.

Work counters wrap ``scipy.integrate.solve_ivp`` (adds each solution's
``nfev``) and ``scipy.integrate.quad`` (counts integrand calls, nested
quadratures included). Both the ``scipy.integrate`` attributes and the
names ``gaussgeo.oracle`` bound at import are wrapped, so the counts hold
whether the oracle imports scipy eagerly or lazily. The wrappers are only
installed while tracing.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

COUNTED = ("solve_ivp", "quad")


class Tracer:
    """In-memory span recorder with per-span work counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "op": op, "counts": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n
        for i in self._stack:
            c = self.spans[i]["counts"]
            c[name] = c.get(name, 0) + n

    # -- counters ------------------------------------------------------------

    def install_counters(self) -> None:
        """Wrap solve_ivp and quad in scipy.integrate and gaussgeo.oracle."""
        import scipy.integrate as si

        orig_ivp, orig_quad = si.solve_ivp, si.quad

        def solve_ivp(*args, **kwargs):
            sol = orig_ivp(*args, **kwargs)
            self.count("solve_ivp_nfev", int(sol.nfev))
            return sol

        def quad(func, *args, **kwargs):
            def counted(*x):
                self.count("quad_neval", 1)
                return func(*x)
            return orig_quad(counted, *args, **kwargs)

        wrappers = {"solve_ivp": (orig_ivp, solve_ivp), "quad": (orig_quad, quad)}
        for mod in (si, sys.modules.get("gaussgeo.oracle")):
            for name, (orig, wrapped) in wrappers.items():
                if mod is not None and getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapped)
                    self._saved.append((mod, name, orig))

    def remove_counters(self) -> None:
        while self._saved:
            mod, name, orig = self._saved.pop()
            setattr(mod, name, orig)

    # -- output --------------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None and rec["end"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, list[float]] = {}
        for rec, kids in zip(self.spans, child):
            if rec["end"] is None:
                continue
            total = rec["end"] - rec["start"]
            agg = out.setdefault(rec["name"], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += total
            agg[2] += total - kids
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "self_times": self.self_times()}, fh)


class NullTracer:
    """Stand-in with the Tracer's span interface that records nothing."""

    def span(self, name: str, op: int | None = None):
        return contextlib.nullcontext()


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output.

    Lines read ``import time: <self us> | <cumulative us> | <indent><name>``.
    """
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        out.setdefault(parts[2].strip(), cumulative / 1e6)
    return out
