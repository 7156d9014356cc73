"""Outside-in layer tracing: spans recorded around buildctl's public functions.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds every
module-level name in the ``buildctl`` package that refers to it, so callers
that imported the function by name (``recognizer`` binds ``cell_link``,
``geodesics`` binds ``vertex_link``, ...) go through the wrapper too.
``uninstall`` restores the originals.  Spans are kept in memory as parallel
lists: name, start, end, parent span and operation id.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, span name); "Class.method" patches the class attribute
LAYERS = [
    ("angles", "rationalize", "angles.rationalize"),
    ("complexes", "vertex_link", "complexes.vertex_link"),
    ("complexes", "cell_link", "complexes.cell_link"),
    ("complexes", "loads", "complexes.loads"),
    ("metric_graph", "MetricGraph.diameter", "metric_graph.diameter"),
    ("metric_graph", "MetricGraph.cat1", "metric_graph.cat1"),
    ("metric_graph", "MetricGraph.suppress_degree2", "metric_graph.suppress_degree2"),
    ("metric_graph", "MetricGraph.antipode_set", "metric_graph.antipode_set"),
    ("recognizer", "recognize_dim1", "recognizer.recognize_dim1"),
    ("recognizer", "enumerate_apartments_dim1", "recognizer.enumerate_apartments_dim1"),
    ("recognizer", "check_spherical", "recognizer.check_spherical"),
    ("recognizer", "check_euclidean", "recognizer.check_euclidean"),
    ("geodesics", "propagate_all", "geodesics.propagate_all"),
    ("coxeter", "coxeter_complex", "coxeter.coxeter_complex"),
    ("coxeter", "classify", "coxeter.classify"),
    ("homotopy", "simple_connectivity", "homotopy.simple_connectivity"),
    ("decompose", "find_suspension_poles", "decompose.find_suspension_poles"),
    ("decompose", "join_decompose", "decompose.join_decompose"),
    ("cli", "main", "cli.main"),
]
# counted but not timed: a span here would only split its caller's self time
COUNTED = [("metric_graph", "MetricGraph.from_complex", "metric_graph.from_complex")]


def link_signature(c) -> tuple:
    """Vertex, edge and top-cell counts plus the sorted edge lengths.  Reads
    only plain attributes, so it fills none of the link's cached properties."""
    return (len(c.vertices), len(c.lengths), len(c.top_cells),
            tuple(sorted(str(a) for a in c.lengths.values())))


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.link_seen: set = set()
        self._patches: list[tuple] = []

    # -- operations ------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.link_seen = set()

    # -- observers: counts taken where the work happens ----------------------------

    def _observe(self, name: str, result) -> None:
        c = self.counts
        if name == "angles.rationalize":
            c["angles.rationalize.promoted"] += result is not None
        elif name in ("complexes.vertex_link", "complexes.cell_link"):
            c["complexes.link.calls"] += 1
            sig = link_signature(result)
            if sig in self.link_seen:
                c["complexes.link.repeats"] += 1
            self.link_seen.add(sig)
        elif name == "recognizer.enumerate_apartments_dim1":
            c["recognizer.apartments_out"] += len(result[0])
        elif name == "geodesics.propagate_all":
            c["geodesics.surfaces_out"] += len(result[0])
        elif name == "recognizer.check_spherical":
            if getattr(result, "dimension", None) == 2 and hasattr(result, "apartments"):
                c["geodesics.surfaces_kept"] += len(result.apartments)

    # -- wrapping ----------------------------------------------------------------

    def _span(self, name: str, fn):
        t = self
        observe = self._observe
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(t.name)
            t.name.append(name)
            t.parent.append(t.stack[-1] if t.stack else -1)
            t.op.append(t.op_id)
            t.start.append(0.0)
            t.end.append(0.0)
            t.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                t.stack.pop()
                t.start[idx] = t0
                t.end[idx] = t1
                t.counts[name + ".calls"] += 1
            observe(name, result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name in LAYERS:
            self._patch(mod_name, attr, lambda fn, n=name: self._span(n, fn))
        for mod_name, attr, name in COUNTED:
            self._patch(mod_name, attr, lambda fn, n=name: self._counted(n, fn))

    def _patch(self, mod_name: str, attr: str, make) -> None:
        module = sys.modules["buildctl." + mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = make(fn)
            setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
            self._patches.append((cls, meth, raw))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "buildctl" or name.startswith("buildctl."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------------

    def span_self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += own[i]
        return [d - c for d, c in zip(own, child)]

    def dump(self, path) -> None:
        """Write every span as one CSV line: name,start,end,parent,op."""
        import gzip
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)
