"""In-memory spans around wrapped functions, and the tail rule the benchmark reports.

Nothing here knows about qolcr: `layers.py` says which functions to wrap.
A span holds its name, start and end (perf_counter nanoseconds), the index
of its parent span, the run id that was current when it began, and any
counts taken from the wrapped function's arguments and result. Spans stay
in the tracer's list until the benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Records one span per call of every function it wraps."""

    def __init__(self):
        self.spans = []
        self.run = None          # run id stamped on each new span
        self._stack = []

    def wrap(self, name, fn, counter=None):
        """Return fn wrapped in a span; counter(args, kwargs, result) -> dict of counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0, "end": 0, "run": self.run,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def extend(self, spans, run):
        """Append spans recorded by another process, re-basing parent indices."""
        base = len(self.spans)
        for span in spans:
            span = dict(span, run=run)
            if span["parent"] is not None:
                span["parent"] += base
            self.spans.append(span)


def install(tracer, targets, modules):
    """Wrap each target function everywhere a module's globals refer to it.

    targets: (module, attribute, span name, counter or None). Callers look a
    function up through their own module's globals, so replacing only the
    defining module's attribute would miss them. Returns a callable that
    puts every original back.
    """
    patches = []
    for owner, attr, name, counter in targets:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore():
        for module, key, original in reversed(patches):
            setattr(module, key, original)

    return restore


def self_times(spans):
    """Each span's duration minus the part its direct children cover (ns).

    Spans come from one thread, so children nest inside their parent and
    never overlap one another.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_run(spans, runs):
    """Self time (ns) and counts summed by span name, for each run id in runs."""
    own = self_times(spans)
    times = {run: {} for run in runs}
    counts = {run: {} for run in runs}
    for span, ns in zip(spans, own):
        if span["run"] not in times:
            continue
        t = times[span["run"]]
        t[span["name"]] = t.get(span["name"], 0) + ns
        c = counts[span["run"]]
        for key, value in span.get("counts", {}).items():
            c[key] = c.get(key, 0) + value
    return times, counts


def tail(values):
    """(value, percentile) of the highest percentile with at least 10 runs beyond it.

    A tail must also sit above the median, which takes at least 21 runs;
    with fewer the maximum is returned, with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def max_prime_factor(n):
    """Largest prime factor of n >= 2 (FFT cost grows with it)."""
    if n < 2:
        raise ValueError("max_prime_factor needs n >= 2")
    largest = 1
    p = 2
    while p * p <= n:
        while n % p == 0:
            largest = p
            n //= p
        p += 1 if p == 2 else 2
    return max(largest, n) if n > 1 else largest
