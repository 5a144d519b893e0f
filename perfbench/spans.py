"""In-memory span recorder that wraps the public functions of ``repro``.

The benchmark attributes time to layers without touching the program:
:meth:`Tracer.install` replaces each target function (module-level
functions and class methods) with a wrapper that records a span, in
every ``repro`` module that holds a reference to it, and
:meth:`Tracer.uninstall` puts the originals back.  Spans are ``(name, start, end, parent)``
tuples kept in a list; a layer's self time is its span's duration minus
the part its child spans cover.

Pool workers cannot report spans back, so traced runs take the serial
paths of the program.
"""

from __future__ import annotations

import gzip
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: span name -> [(module, attribute path)].  ``Class.method`` paths wrap
#: the class attribute; plain names are rebound in every ``repro``
#: module that imported the function by name.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "frontend.preprocess": [("repro.frontend.preprocessor", "preprocess")],
    "frontend.parse": [("repro.frontend.parser", "Parser.parse_translation_unit")],
    "analysis.fused_scan": [("repro.analysis.fused", "fused_scan")],
    "analysis.effects": [
        ("repro.analysis.effects", "InterproceduralAnalysis.__init__"),
    ],
    "analysis.validity": [
        ("repro.analysis.validity", "ValidityAnalysis.__init__"),
        ("repro.analysis.validity", "ValidityAnalysis.run"),
    ],
    "analysis.placement": [
        ("repro.analysis.placement", "PlacementAnalysis.__init__"),
        ("repro.analysis.placement", "PlacementAnalysis.place_all"),
    ],
    "cfg.build": [("repro.cfg.astcfg", "build_astcfgs")],
    "core.plan": [("repro.core.planner", "plan_function")],
    "rewrite.emit": [("repro.rewrite.emit", "emit_plans")],
    "runtime.codegen.emit": [("repro.runtime.codegen", "emit_rows")],
    "runtime.codegen.compile": [("repro.runtime.codegen", "compiled_kernel")],
    "runtime.vectorize.compile": [
        ("repro.runtime.vectorize", "compile_kernel_candidates"),
    ],
    "runtime.launch": [
        ("repro.runtime.launch", "KernelLaunchPlan.enter"),
        ("repro.runtime.launch", "KernelLaunchPlan.exit"),
    ],
    "runtime.device": [
        ("repro.runtime.device", "DeviceDataEnvironment.map_enter"),
        ("repro.runtime.device", "DeviceDataEnvironment.map_exit"),
        ("repro.runtime.device", "DeviceDataEnvironment.update_to"),
        ("repro.runtime.device", "DeviceDataEnvironment.update_from"),
    ],
    "runtime.interp.host": [("repro.runtime.interp", "run_simulation")],
    "pipeline.cache.lookup": [("repro.pipeline.cache", "ArtifactCache.lookup")],
    "pipeline.cache.put": [("repro.pipeline.cache", "ArtifactCache.put")],
    "service.dispatch": [("repro.service.core", "dispatch_map")],
}

#: Span wrapped around each kernel candidate runner at compile time.
KERNEL_SPAN = "runtime.kernel"


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._clock = time.perf_counter

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        spans = self.spans
        stack = self._stack
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append((name, 0.0, 0.0, parent))
        stack.append(index)
        start = self._clock()
        try:
            return fn(*args, **kw)
        finally:
            end = self._clock()
            stack.pop()
            spans[index] = (name, start, end, parent)

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (duration minus child spans)."""
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def root_seconds(self) -> float:
        """Seconds covered by spans no other span encloses."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def dump(self, path: str) -> None:
        """Write every span as gzip'd JSON lines (name, start, end, parent)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    owner: Any = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Installs span wrappers into the loaded ``repro`` modules."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _rebind(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            return
        # A module function: rebind it wherever ``from x import f`` copied it.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _wrap(self, span_name: str, original: Callable[..., Any],
              before: Callable[[], None] | None = None,
              after: Callable[[Any], None] | None = None) -> Callable[..., Any]:
        span = self.rec.span

        def wrapper(*args: Any, **kw: Any) -> Any:
            if before is not None:
                before()
            result = span(span_name, original, *args, **kw)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def install(self, names: "list[str] | None" = None) -> None:
        """Wrap every layer in :data:`LAYERS` (or only ``names``).

        Every ``repro`` module is imported first, so no module can copy
        a wrapper by ``from x import f`` after install and keep it past
        :meth:`uninstall`.
        """
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)

        import repro.core.directives as directives
        import repro.frontend.ast_nodes as ast_nodes
        import repro.pipeline.cache as cache
        import repro.runtime.profiler as profiler

        counts = self.rec.counts

        def after_preprocess(result: Any) -> None:
            counts["frontend.preprocess.tokens"] += len(result[0])

        node_counter = ast_nodes._node_ids
        parse_marks: list[int] = []

        def next_node_id() -> int:
            # repr() reads itertools.count without consuming an id.
            return int(repr(node_counter)[6:-1])

        def before_parse() -> None:
            parse_marks.append(next_node_id())

        def after_parse(_result: Any) -> None:
            counts["frontend.parse.nodes"] += next_node_id() - parse_marks.pop()

        def after_plan(result: Any) -> None:
            if result.plan is not None:
                counts["core.plan.constructs"] += directives.count_constructs(
                    [result.plan]
                )

        def after_emit_rows(rows: Any) -> None:
            counts["runtime.codegen.emit.rows"] += len(rows)
            counts["runtime.codegen.emit.declined"] += sum(
                1 for row in rows.values() if row["reason"] is not None
            )

        def after_lookup(result: Any) -> None:
            key = "hits" if result[0] is not cache.MISS else "misses"
            counts[f"pipeline.cache.{key}"] += 1

        def after_candidates(result: Any) -> None:
            for cand in result[0]:
                cand.runner = self._kernel_runner(cand.runner)

        before = {"frontend.parse": before_parse}
        after = {
            "frontend.preprocess": after_preprocess,
            "frontend.parse": after_parse,
            "core.plan": after_plan,
            "runtime.codegen.emit": after_emit_rows,
            "pipeline.cache.lookup": after_lookup,
            "runtime.vectorize.compile": after_candidates,
        }
        for span_name, targets in LAYERS.items():
            if names is not None and span_name not in names:
                continue
            for module, path in targets:
                owner, attr, original = _resolve(module, path)
                wrapper = self._wrap(
                    span_name, original, before.get(span_name), after.get(span_name)
                )
                self._rebind(owner, attr, original, wrapper)

        if names is None:
            original_memcpy = profiler.Profiler.record_memcpy

            def record_memcpy(prof: Any, direction: str, nbytes: int,
                              cause: str = "") -> None:
                if nbytes > 0:
                    counts["runtime.device.memcpy_calls"] += 1
                    counts["runtime.device.memcpy_bytes"] += nbytes
                original_memcpy(prof, direction, nbytes, cause)

            self._rebind(profiler.Profiler, "record_memcpy", original_memcpy,
                         record_memcpy)

    def _kernel_runner(self, runner: Callable[[Any], bool]) -> Callable[[Any], bool]:
        span = self.rec.span
        counts = self.rec.counts

        def traced_runner(machine: Any) -> bool:
            accepted = span(KERNEL_SPAN, runner, machine)
            if not accepted:
                counts["runtime.kernel.declines"] += 1
            return accepted

        return traced_runner

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

