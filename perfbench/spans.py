"""Outside-in span recorder for the benchmark's traced runs.

The solver carries no instrumentation of its own, so a traced run replaces
the public functions of each module with timing wrappers, from outside the
program, before the run starts.  Functions are wrapped at the name their
caller looks up (``timestep.mg_solve``, ``multigrid.v_cycle``, ...) and
methods at class level (``SymToeplitz.matvec``), so recursive and
cross-module calls are caught.

Each call appends one span: the span-name id, the index of the enclosing
span (-1 at the top), a size key (the mesh cell count, where the call has
one) and start and end times.  Spans live in flat ``array`` buffers and are
turned into metrics, and optionally written to disk, after the run.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr, name, size=None, on_result=None):
        """Replace ``owner.attr`` by a wrapper that records one span a call.

        ``size(*args)`` gives the span's size key; ``on_result(result)``
        sees each return value (used to read residual histories).
        """
        fn = getattr(owner, attr)
        nid = self._intern(name)
        name_ids, parents, sizes = self.name_id, self.parent, self.size
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            sizes.append(size(*args) if size is not None else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def wrap_peak_memory(self, owner, attr, sink):
        """Replace ``owner.attr`` by a wrapper that appends each call's
        tracemalloc peak, in MB, to ``sink``."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        setattr(owner, attr, measured)
        self._undo.append((owner, attr, fn))

    def unwrap(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def arrays(self):
        """Spans as numpy arrays: (name_id, parent, size, start, end)."""
        return (np.array(self.name_id, dtype=np.intc),
                np.array(self.parent, dtype=np.intc),
                np.array(self.size, dtype=np.intc),
                np.array(self.start, dtype=float),
                np.array(self.end, dtype=float))

    def save(self, path):
        name_id, parent, size, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, size=size, start=start, end=end)


class SpanTable:
    """Per-span durations, self times and names, for aggregation."""

    def __init__(self, tracer: Tracer):
        name_id, parent, size, start, end = tracer.arrays()
        self.size = size
        self.duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=self.duration[child],
                              minlength=self.duration.size)
        self.self_time = self.duration - covered
        self.name = np.array(tracer.names)[name_id]
        self.parent_name = np.where(child, self.name[parent], "<root>")

    def of(self, name, parent=None):
        mask = self.name == name
        if parent is not None:
            mask &= np.isin(self.parent_name, parent)
        return mask
