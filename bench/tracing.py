"""In-memory spans for the traced run.

Spans are opened by the benchmark's own files: around the stage calls its
pipelines make, and around reyex module attributes wrapped for the length of
one traced pass.  Nothing under src/ is changed.  A span's layer is the part
of its name before the first dot, which is the reyex module it times (or
"bench" for the harness itself).
"""

import json
import time
from contextlib import contextmanager, nullcontext

import reyex.control
import reyex.expansion
import reyex.timepoly

# (owner, attribute, span name, count): the calls one pass makes inside
# reyex that the trace splits out of the stage that made them.  count, where
# given, reads a work count off each call's result.
PATCH_POINTS = (
    (reyex.expansion, "convolution_coefficient", "fields.convolution", None),
    (reyex.expansion, "project_mode", "fields.project", None),
    (reyex.expansion, "bilinear_P", "fields.bilinear_P", None),
    (reyex.expansion, "heat_apply", "fields.heat_apply", None),
    (reyex.expansion, "propagate_coefficient", "symmetry.propagate", None),
    (reyex.expansion, "orbit_partition", "symmetry.orbit_partition", None),
    (reyex.timepoly.TimePoly, "heat_convolve", "timepoly.heat_convolve", None),
    (reyex.control, "build_estimator_set", "estimators.assembly", None),
    (reyex.control, "solve_control", "control.solve", lambda traj: traj.diagnostics["num_steps"]),
)

BILINEAR_SPANS = ("fields.convolution", "fields.project", "fields.bilinear_P")


class NullTracer:
    """Stand-in for the timed runs: spans cost one nullcontext each."""

    def span(self, name):
        return nullcontext()


class Tracer:
    """Records spans as [name, start, end, parent index] in call order,
    and per-name work counts read off wrapped calls' results."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def wrap(self, name, fn, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if count is not None:
                counts[name] = counts.get(name, 0) + count(result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every PATCH_POINTS attribute; restore them on exit."""
        saved = []
        try:
            for owner, attr, name, count in PATCH_POINTS:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, count))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- analysis ---------------------------------------------------------

    def remap(self, clock):
        """Move every span's start and end through clock, a monotone map of
        perf_counter readings (speed.Timeline)."""
        for rec in self.spans:
            rec[1], rec[2] = clock(rec[1]), clock(rec[2])

    def self_times(self, root):
        """Self time per layer over the subtree of span index root."""
        inside = {root}
        child_time = {}
        for i in range(root + 1, len(self.spans)):
            name, start, end, parent = self.spans[i]
            if parent not in inside:
                continue
            inside.add(i)
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for i in inside:
            name, start, end, _ = self.spans[i]
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time.get(i, 0.0)
        return out

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, *names):
        return sum(end - start for n, start, end, _ in self.spans if n in names)

    def dump(self, path):
        """Write the spans out as JSON: one [name, start, end, parent] each."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
