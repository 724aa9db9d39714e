"""Spans around calls into the program's public functions.

`Tracer.install` replaces every public function of the traced modules at
every module attribute that binds it, re-exports and `from .ops import
conv2d` style imports included, with a wrapper that records one span:
name, start, end and the index of the enclosing span.  `uninstall` puts the
original functions back, so untraced runs execute the program's own code.

Spans live in flat arrays in memory and are written once, by `save`.  Self
time is a span's duration minus the durations of its direct children.
Per-call counters (flops, bytes, forward evaluations) are summed by span
name at the boundary where the work happens.
"""

import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "mgdfis"
# modules whose public functions get spans; the rest (rng, tensor, config,
# flops, errors, bench, cli) hold helpers the layers call too often to time
TRACED = ("ops", "ftssa", "gdim", "dpam", "pipeline", "params", "mgdt",
          "gradcheck", "checks")


class Tracer:
    def __init__(self, counters=None):
        """counters maps a span name to fn(counts, name, args, result) that
        adds to the `counts` dict once the call has returned."""
        self.counter_fns = counters or {}
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)
        self._stack = [-1]
        self._patched = []

    def _wrap(self, fn, name):
        nid = self._ids.setdefault(name, len(self._ids))
        counter = self.counter_fns.get(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if counter is not None:
                counter(self.counts, name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap each public function defined in a traced module, at every
        attribute of every loaded module of the package that binds it."""
        prefix = PACKAGE + "."
        owners = {prefix + m for m in TRACED}
        mods = [m for n, m in sorted(sys.modules.items())
                if n == PACKAGE or n.startswith(prefix)]
        wrappers = {}
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if (not isinstance(fn, types.FunctionType)
                        or fn.__name__.startswith("_")
                        or fn.__module__ not in owners):
                    continue
                if fn not in wrappers:
                    short = fn.__module__[len(prefix):]
                    wrappers[fn] = self._wrap(fn, f"{short}.{fn.__name__}")
                setattr(mod, attr, wrappers[fn])
                self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def spans(self):
        """(names, name_id, parent, duration, self_time) as arrays."""
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested],
                                 minlength=len(dur))
        return list(self._ids), nid, parent, dur, dur - child_time

    def descendants_of(self, ancestor, name):
        """Number of `name` spans with an `ancestor` span above them."""
        names, nid, parent, _, _ = self.spans()
        if ancestor not in names or name not in names:
            return 0
        a, b = names.index(ancestor), names.index(name)
        up = parent[nid == b]
        found = np.zeros(len(up), dtype=bool)
        while np.any(up >= 0):          # climb one level per pass
            live = up >= 0
            found[live] |= nid[up[live]] == a
            up[live] = parent[up[live]]
        return int(np.count_nonzero(found))

    def totals(self):
        """name -> (calls, total seconds, self seconds)."""
        names, nid, _, dur, self_t = self.spans()
        k = len(names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_t, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(names)}

    def save(self, path):
        names, nid, parent, _, _ = self.spans()
        np.savez(path, names=np.array(names), name_id=nid, parent=parent,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
