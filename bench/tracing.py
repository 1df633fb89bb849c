"""In-memory span tracing around calls into wmscatter's public functions.

A traced run replaces selected module attributes with wrappers that record a
span per call: name, start, end, parent span and operation id.  Because the
package calls its own layers through module attributes (``spectra.X``,
``analysis.X``), the wrappers also see calls made by ``cli.main``.  Nothing in
``src/`` is modified; the original functions are restored on exit.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

# (module name, function name) pairs wrapped in a traced run.  Each becomes a
# layer named "<module>.<function>"; scenario_record is split by case.
TRACED_FUNCTIONS = (
    ("spectra", "simulate_spectrum"),
    ("spectra", "poisson_sample"),
    ("spectra", "write_spectrum_csv"),
    ("analysis", "ingest_spectrum"),
    ("analysis", "reduce_spectrum"),
    ("analysis", "centroid_ke"),
    ("analysis", "fit_roto_recoil"),
    ("analysis", "calibration_audit"),
    ("weakval", "scenario_record"),
    ("weakval", "deficit_sweep"),
    ("weakval", "weak_value_mixed"),
    ("svgplot", "ribbon_svg"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None
    failed: bool = False


class NullTracer:
    """Stand-in used by untraced runs: every hook is a no-op."""

    def span(self, name):
        return contextlib.nullcontext()

    def set_op(self, op_id):
        pass


class Tracer:
    """Collects spans in memory; analysis happens after the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id: int | None = None

    def set_op(self, op_id):
        self._op_id = op_id

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self._op_id)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            name = layer
            if layer == "weakval.scenario_record":
                name = f"{layer}_{str(args[0]).upper()}"
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, package):
        """Wrap TRACED_FUNCTIONS of the imported ``package`` while active."""
        saved = []
        try:
            for mod_name, fn_name in TRACED_FUNCTIONS:
                mod = getattr(package, mod_name)
                fn = getattr(mod, fn_name)
                saved.append((mod, fn_name, fn))
                setattr(mod, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))
            yield self
        finally:
            for mod, fn_name, fn in saved:
                setattr(mod, fn_name, fn)

    def self_times(self):
        """Per-span self time: duration minus the time of direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_stats(self):
        """{name: (durations list, self-time total, failures)} over all spans."""
        out = {}
        for s, own in zip(self.spans, self.self_times()):
            durs, tot, fails = out.get(s.name, ([], 0.0, 0))
            durs.append(s.end - s.start)
            out[s.name] = (durs, tot + own, fails + int(s.failed))
        return out
