"""In-memory span recorder for the traced benchmark run.

Spans are opened and closed by the benchmark's own code around its calls
into hdcnav's public functions; nothing inside the package is
instrumented. Each span has a name, a start and an end (perf_counter_ns),
the id of the span that was open when it began (-1 for none) and the id
of the run. Spans stay in memory until the run writes them out.
"""

import gzip
import time

import numpy as np


class Tracer:
    """Records properly nested spans of one single-threaded run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []

    def begin(self, name):
        span_id = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(span_id)
        self.starts.append(time.perf_counter_ns())

    def end(self):
        now = time.perf_counter_ns()
        self.ends[self._open.pop()] = now

    def depth(self):
        return len(self._open)

    def unwind(self, depth):
        """Close every span opened above ``depth`` (after an exception)."""
        while len(self._open) > depth:
            self.end()

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def self_times_ns(self):
        """Each span's duration minus the time its child spans cover.

        Spans of one thread nest without overlap, so the covered time is
        the sum of the children's durations.
        """
        duration = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros(len(duration), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        return duration - covered

    def self_times_by_name(self):
        self_ns = self.self_times_ns()
        names = np.asarray(self.names)
        return {name: self_ns[names == name] for name in dict.fromkeys(self.names)}

    def summary(self):
        """Per span name: count, total and median self time."""
        return {name: {"count": int(len(ns)),
                       "self_total_ms": float(ns.sum()) / 1e6,
                       "self_p50_us": float(np.median(ns)) / 1e3}
                for name, ns in self.self_times_by_name().items()}

    def write(self, path):
        """Write all spans as gzipped CSV, times relative to the first span."""
        self_ns = self.self_times_ns()
        t0 = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns,self_ns\n")
            for span_id, (name, start, end, parent, own) in enumerate(zip(
                    self.names, self.starts, self.ends, self.parents, self_ns.tolist())):
                fh.write(f"{self.run_id},{span_id},{parent},{name},"
                         f"{start - t0},{end - t0},{own}\n")
