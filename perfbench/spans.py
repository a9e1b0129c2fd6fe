"""Spans around calls into coda_atlas, kept in memory until the run ends.

A span is one call into a public function of a package module, recorded by
the benchmark at the call site (the package itself is not instrumented).
Its name is ``<layer>.<function>``, where the layer is the module name
without a leading underscore. Spans of one operation share an operation
id, and a span's parent is the span that was open when it started, so a
layer's self time is its spans' durations minus their children's.

This module imports only the standard library, so the CLI probe can load
it before it starts timing the package import.
"""

from __future__ import annotations

import functools
import inspect
import os
import time


def _bytes_out(args, kwargs, manifest):
    directory = args[1] if len(args) > 1 else kwargs["directory"]
    size = os.path.getsize(os.path.join(directory, "manifest.json"))
    return {"bytes_out": size + sum(entry["bytes"] for entry in manifest["files"])}


def _distance_bytes(args, kwargs, dist):
    clr = args[0] if args else kwargs["clr"]
    return {"distance_bytes": clr.n * clr.n * clr.D * 8}


#: span name -> function(args, kwargs, result) giving counts to attach
ATTRS = {
    "ingest.parse_table": lambda a, k, r: {"bytes_in": len(a[0])},
    "ingest.write_reports": _bytes_out,
    "cluster.distance_matrix": _distance_bytes,
    "cluster.hierarchical_cluster": lambda a, k, r: {
        "merges": len(r.merge_history),
        "linkage": r.linkage,
    },
    "biplot.make_link": lambda a, k, r: {"links_attempted": 1},
    "biplot.rank_along_link": lambda a, k, r: {"links_ranked": 1},
    "render.render_biplot": lambda a, k, r: {"svg_bytes": len(r.encode("utf-8"))},
}


def layer_of(module_name: str) -> str:
    """``coda_atlas._fmt`` -> ``fmt``; ``coda_atlas.cluster`` -> ``cluster``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Records spans as [name, start, end, parent, op, attrs] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._open: list[int] = []

    def record(self, name, start, end, parent=None, attrs=None) -> int:
        """Add a span measured elsewhere, e.g. in a child process."""
        self.spans.append([name, start, end, parent, self.op, attrs or {}])
        return len(self.spans) - 1

    def call(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent, self.op, {}]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        hook = ATTRS.get(name)
        if hook is not None:
            span[5] = hook(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def patch_imports(self, module) -> None:
        """Trace every package function that ``module`` imported by name."""
        own = module.__name__
        package = own.split(".")[0] + "."
        for name, obj in list(vars(module).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith(package)
                and obj.__module__ != own
            ):
                setattr(module, name, self.wrap(f"{layer_of(obj.__module__)}.{name}", obj))


class NullTracer:
    """Stands in for Tracer on untraced operations: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
