"""Outside-in tracer: spans around the calls into each layer of ``repro``.

The program is not edited. While a ``Tracer`` is installed it rebinds
each layer's public functions in every loaded ``repro.*`` module (the
modules bind them with ``from ... import``, so patching the defining
module alone would miss most call sites) and wraps the Spark actions of
``pyspark.sql.classic.dataframe.DataFrame``, the class pyspark 4.1
dispatches to. ``restore`` puts every original back.

Each span records name, layer, start, end, parent and query id, and is
kept in memory until ``to_json``. Spark jobs are counted per action
span: the action runs under its own job group, and after the query the
group's job ids are read from the status tracker (the listener bus is
drained first, since job events arrive asynchronously). Jobs outside
any wrapped action land in the query's own group and still count in
``spark.jobs``.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import uuid

from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

# (layer, module, function names); None = every public function the module defines
LAYERS = (
    ("enum", "repro.patterns.instances",
     ("pattern_instances", "pattern_degrees", "count_pattern", "instances_long")),
    ("enum", "repro.cliques.enumerate", None),
    ("collect", "repro.cores.clique_core", ("collect_instances",)),
    ("peel", "repro.cores.clique_core", ("peel_decompose",)),
    ("kcore", "repro.cores.kcore", None),
    ("coreapp", "repro.cores.coreapp", ("kmax_core_coreapp",)),
    ("emcore", "repro.cores.emcore", ("kmax_core_emcore",)),
    ("network", "repro.densest.network", ("build_network", "group_instances")),
    ("lemma8", "repro.densest.network", ("lemma8_keep_mask",)),
    ("mincut", "repro.densest.network", ("min_cut_vertices",)),
    ("graph", "repro.graph.ops", None),
)
ACTIONS = ("collect", "count", "toPandas", "take", "head", "first", "isEmpty",
           "localCheckpoint", "checkpoint", "toLocalIterator", "show")

# per-query layer metrics, in report order, with units
METRICS = (
    ("query.s", "s"),
    ("enum.s", "s"), ("enum.self_s", "s"), ("enum.calls", "count"),
    ("enum.spark_jobs", "count"),
    ("spark.action_s", "s"), ("spark.jobs", "count"), ("spark.rows_to_driver", "count"),
    ("collect.s", "s"), ("collect.spark_jobs", "count"), ("collect.rows", "count"),
    ("collect.bytes", "bytes"),
    ("peel.s", "s"), ("peel.calls", "count"), ("peel.instances_in", "count"),
    ("kcore.s", "s"), ("kcore.calls", "count"),
    ("coreapp.rounds", "count"), ("coreapp.final_w_frac", "frac"), ("emcore.rounds", "count"),
    ("network.s", "s"), ("network.builds", "count"), ("network.nodes", "count"),
    ("network.arcs", "count"),
    ("lemma8.s", "s"), ("lemma8.pruned_frac", "frac"),
    ("mincut.s", "s"), ("mincut.calls", "count"),
    ("graph.s", "s"), ("driver.other_s", "s"),
)


class Span:
    __slots__ = ("id", "name", "layer", "parent", "query", "start", "end", "attrs")

    def __init__(self, sid, name, layer, parent, query):
        self.id, self.name, self.layer = sid, name, layer
        self.parent, self.query = parent, query
        self.start, self.end = time.perf_counter(), None
        self.attrs: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


def _child_seconds(spans) -> dict:
    """span id -> summed duration of its direct children (they never overlap)."""
    out: dict = {}
    for s in spans:
        if s.parent is not None:
            out[s.parent] = out.get(s.parent, 0.0) + s.dur
    return out


def _rows(out) -> int:
    """Rows an action brought to the driver (0 for scalars and checkpoints)."""
    if isinstance(out, list):
        return len(out)
    if hasattr(out, "shape") and hasattr(out, "columns"):
        return int(out.shape[0])
    return 0


def _counters(layer: str, args, out) -> dict:
    """Counts read from a layer call's arguments and result."""
    if layer == "collect":
        return {"rows": int(out.shape[0]), "bytes": int(out.nbytes)}
    if layer == "peel":
        return {"instances_in": int(args[0].shape[0])}
    if layer == "network" and isinstance(out, tuple) and len(out) == 5:
        return {"nodes": int(out[4]), "arcs": len(out[0].to) // 2}
    if layer == "lemma8":
        return {"instances": int(out.size), "pruned": int((~out).sum())}
    if layer == "coreapp":
        info = out[2]
        return {"rounds": int(info["rounds"]), "final_w_frac": info["final_w"] / max(1, info["n"])}
    if layer == "emcore":
        return {"rounds": int(out[2]["rounds"])}
    return {}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: list = []
        self.stack: list = []
        self.query: str | None = None
        self.patched: list = []  # (owner, attribute, original, owner had it in __dict__)
        # job groups outlive a tracer in the status tracker; keep this one's names apart
        self.group = f"dsdbench-{uuid.uuid4().hex[:12]}"

    # -- installing and restoring ---------------------------------------------
    def _targets(self) -> list:
        out = []
        for layer, modname, names in LAYERS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if names is None:
                names = [n for n, f in vars(mod).items()
                         if inspect.isfunction(f) and f.__module__ == modname
                         and not n.startswith("_")]
            out += [(layer, f"{modname}.{n}", getattr(mod, n)) for n in names if hasattr(mod, n)]
        return out

    def _patch(self, owner, attr: str, new) -> None:
        self.patched.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        wrappers = {id(fn): (fn, self._wrap(layer, name, fn)) for layer, name, fn in self._targets()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        for name in ACTIONS:
            if hasattr(ClassicDataFrame, name):
                self._patch(ClassicDataFrame, name, self._wrap_action(name, getattr(ClassicDataFrame, name)))
        return self

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self.patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans ----------------------------------------------------------------
    def _open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, layer, parent, self.query)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.query is None:
                return fn(*args, **kwargs)
            span = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
                span.attrs.update(_counters(layer, args, out))
                return out
            finally:
                self._close(span)

        return traced

    def _wrap_action(self, name: str, fn):
        @functools.wraps(fn)
        def traced(df, *args, **kwargs):
            if self.query is None or (self.stack and self.stack[-1].layer == "spark"):
                return fn(df, *args, **kwargs)
            span = self._open(f"DataFrame.{name}", "spark")
            span.attrs["group"] = f"{self.group}-{span.id}"
            self.sc.setJobGroup(span.attrs["group"], name)
            try:
                out = fn(df, *args, **kwargs)
                span.attrs["rows"] = _rows(out)
                return out
            finally:
                self.sc.setJobGroup(f"{self.group}-q-{self.query}", "query")
                self._close(span)

        return traced

    def run_query(self, query_id: str, fn):
        """Run ``fn()`` as one traced query; returns its result."""
        self.query = query_id
        self.sc.setJobGroup(f"{self.group}-q-{query_id}", "query")
        root = self._open(query_id, "query")
        try:
            return fn()
        finally:
            self._close(root)
            self.query = None
            self._resolve_jobs(root)
            self.sc._jsc.clearJobGroup()

    def _resolve_jobs(self, root: Span) -> None:
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        root.attrs["jobs"] = len(tracker.getJobIdsForGroup(f"{self.group}-q-{root.name}"))
        for span in self.spans[root.id:]:
            if "group" in span.attrs:
                span.attrs["jobs"] = len(tracker.getJobIdsForGroup(span.attrs.pop("group")))

    # -- reporting -----------------------------------------------------------
    def query_metrics(self, query_id: str) -> dict:
        """The METRICS of one traced query."""
        spans = [s for s in self.spans if s.query == query_id]
        by_id = {s.id: s for s in spans}
        child_s = _child_seconds(spans)

        def inside(s, layer):  # s lies under a span of ``layer``
            p = by_id.get(s.parent)
            while p is not None and p.layer != layer:
                p = by_id.get(p.parent)
            return p is not None

        def outer(layer):  # spans of ``layer`` not nested in the same layer
            return [s for s in spans if s.layer == layer and not inside(s, layer)]

        def total(layer, key=None):
            return sum((s.attrs.get(key, 0) if key else s.dur) for s in outer(layer))

        def jobs_in(layer):
            return sum(s.attrs.get("jobs", 0) for s in actions if inside(s, layer))

        root = next(s for s in spans if s.layer == "query")
        actions = [s for s in spans if s.layer == "spark"]
        l8_inst = total("lemma8", "instances")
        coreapp = outer("coreapp")
        return {
            "query.s": root.dur,
            "enum.s": total("enum"),
            "enum.self_s": sum(s.dur - child_s.get(s.id, 0.0) for s in spans if s.layer == "enum"),
            "enum.calls": len(outer("enum")),
            "enum.spark_jobs": jobs_in("enum"),
            "spark.action_s": sum(s.dur for s in actions),
            "spark.jobs": root.attrs.get("jobs", 0) + sum(s.attrs.get("jobs", 0) for s in actions),
            "spark.rows_to_driver": sum(s.attrs.get("rows", 0) for s in actions),
            "collect.s": total("collect"),
            "collect.spark_jobs": jobs_in("collect"),
            "collect.rows": total("collect", "rows"),
            "collect.bytes": total("collect", "bytes"),
            "peel.s": total("peel"),
            "peel.calls": len(outer("peel")),
            "peel.instances_in": total("peel", "instances_in"),
            "kcore.s": total("kcore"),
            "kcore.calls": len(outer("kcore")),
            "coreapp.rounds": total("coreapp", "rounds"),
            "coreapp.final_w_frac": (statistics.fmean(s.attrs["final_w_frac"] for s in coreapp)
                                     if coreapp else 0.0),
            "emcore.rounds": total("emcore", "rounds"),
            "network.s": total("network"),
            "network.builds": len(outer("network")),
            "network.nodes": total("network", "nodes"),
            "network.arcs": total("network", "arcs"),
            "lemma8.s": total("lemma8"),
            "lemma8.pruned_frac": total("lemma8", "pruned") / l8_inst if l8_inst else 0.0,
            "mincut.s": total("mincut"),
            "mincut.calls": len(outer("mincut")),
            "graph.s": total("graph"),
            "driver.other_s": root.dur - child_s.get(root.id, 0.0),
        }

    def to_json(self) -> list:
        child_s = _child_seconds(self.spans)
        return [{"id": s.id, "name": s.name, "layer": s.layer, "parent": s.parent,
                 "query": s.query, "start": s.start, "end": s.end,
                 "self_s": s.dur - child_s.get(s.id, 0.0), **s.attrs} for s in self.spans]
