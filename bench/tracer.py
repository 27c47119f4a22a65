"""Spans around the library's public functions, recorded from outside.

install() wraps every public function defined in the measured modules
and puts the wrapper in every maxplus module namespace that holds the
original (the modules import each other's functions by name), so calls
between modules are traced too; uninstall() puts the originals back.
The library source is not touched.  Scalar functions (extreal) are not
wrapped: a span per scalar operation would cost more than the operation.

Each span is six integers in one array: span id, name id, start and
end (perf_counter_ns), parent span id (-1 at the top) and operation id.
Spans are appended when they end, so a parent comes after its children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

MEASURED = ("tropical_linalg", "hilbert_metric", "halfspace", "semimodule",
            "solvers", "cli")
# moved_frac: calls whose result differs from the point passed in
MOVES = "halfspace.project_canonical"


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.stack = [-1]
        self.next_id = 0
        self.op = -1
        self.moved = 0
        self._undo = []

    def _wrap(self, f, name):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self
        moves = name == MOVES

        @functools.wraps(f)
        def span(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                res = f(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, nid, t0, t1, parent, tracer.op))
            if moves and res != args[1]:
                tracer.moved += 1
            return res
        return span

    def install(self):
        wrappers = {}
        for m in MEASURED:
            mod = sys.modules[f"maxplus.{m}"]
            for name, f in vars(mod).items():
                if (inspect.isfunction(f) and f.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(f)] = (f, self._wrap(f, f"{m}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "maxplus" and not modname.startswith("maxplus."):
                continue
            for name, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, name, hit[1])
                    self._undo.append((mod, name, val))

    def uninstall(self):
        for mod, name, val in reversed(self._undo):
            setattr(mod, name, val)
        self._undo.clear()

    def records(self):
        s = self.spans
        for j in range(0, len(s), 6):
            yield s[j], s[j + 1], s[j + 2], s[j + 3], s[j + 4], s[j + 5]

    def summarize(self):
        """Per span name: calls, total time and self time (ns), where self
        time is the span's time minus the time of its direct children;
        plus, per feasibility call, project_canonical calls divided by
        the rows it prepared (canonicalize calls) -- its sweep count.
        Spans outside an operation (op -1: the checks) are left out."""
        calls, total, self_ns = Counter(), Counter(), Counter()
        child_ns = {}
        kids = {}
        pc = self.names.index(MOVES) if MOVES in self.names else -1
        canon = self.names.index("halfspace.canonicalize") if pc >= 0 else -1
        feas = self.names.index("solvers.feasibility") if pc >= 0 else -1
        feas_sweeps = []
        for sid, nid, t0, t1, parent, op in self.records():
            if op < 0:
                continue
            d = t1 - t0
            calls[nid] += 1
            total[nid] += d
            self_ns[nid] += d - child_ns.pop(sid, 0)
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + d
                if nid == pc or nid == canon:
                    k = kids.setdefault(parent, [0, 0])
                    k[nid == canon] += 1
            if nid == feas:
                n_pc, n_rows = kids.pop(sid, (0, 0))
                feas_sweeps.append(n_pc / n_rows if n_rows else 0.0)
            else:
                kids.pop(sid, None)
        by_name = {self.names[nid]: (calls[nid], total[nid], self_ns[nid])
                   for nid in calls}
        return by_name, feas_sweeps

    def write(self, path):
        """The spans as gzip'd CSV, one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span,name,start_ns,end_ns,parent,op\n")
            names = self.names
            for sid, nid, t0, t1, parent, op in self.records():
                f.write(f"{sid},{names[nid]},{t0},{t1},{parent},{op}\n")
