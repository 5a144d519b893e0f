"""Every metric the benchmark prints: name, unit, direction and purpose.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks the two
agree.  End-to-end metrics are printed by every workload (untraced
run); per-layer metrics by every workload's traced run, where a layer a
workload does not exercise reads 0.  Per-layer times and counts are per
workload iteration.
"""

from __future__ import annotations

#: Seconds one run measures (in three chunks; see run.py).
RUN_SECONDS = 20

WORKLOADS: dict[str, str] = {
    "suite": (
        "warm verified rounds of the paper's evaluation (9 ports x 3 variants, "
        "transform + simulate + verify): the simulator and Table-V tool time"
    ),
    "batch-serial": (
        "serial in-memory transform_batch over a seeded synth corpus (35% "
        "duplicates, fresh cache per pass): frontend and dataflow compute plus dedup"
    ),
    "batch-store": (
        "transform_batch(jobs=2): fill a fresh cache_dir, re-read it warm, run with no "
        "cache; on a 2-core Xeon VM the hit pass (79 files/s) lost to the bypass (115 files/s)"
    ),
}

#: name -> (unit, better, bound, meaning)
END_TO_END: dict[str, tuple[str, str, float, str]] = {
    "setup_s": ("s", "lower", 0.25,
                "fresh interpreter to end of imports plus the first cold iteration "
                "(median of 3 fresh interpreters, interleaved with the window)"),
    "round_s": ("s", "lower", 0.25,
                "median wall time of one iteration: a verified 27-variant round "
                "(suite), one corpus pass (batch-serial), fill+hit+bypass (batch-store)"),
    "files_per_s": ("1/s", "higher", 0.25,
                    "median per-iteration rate of inputs completed "
                    "(suite: 27 variant programs per round)"),
    "unique_files_per_s": ("1/s", "higher", 0.25,
                           "median per-iteration rate of distinct contents "
                           "computed (dedup fan-out excluded)"),
    "tool_p50_ms": ("ms", "lower", 0.25,
                    "median per-translation-unit tool latency, each of the 9 ports "
                    "weighing the same (suite: OMPDart.run, Table V; batch: per "
                    "computed input)"),
    "tool_p90_ms": ("ms", "lower", 0.25,
                    "90th percentile of the same samples (>= 100 samples)"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "peak resident memory of the benchmark process plus its live children "
                    "during the window"),
    "sim_speedup_x": ("x", "higher", 0.01,
                      "geomean modelled OMPDart speedup over unoptimized (Fig. 5), "
                      "from the set-up oracle round"),
    "sim_transfer_reduction_x": ("x", "higher", 0.01,
                                 "geomean transferred-byte reduction over "
                                 "unoptimized (Fig. 3)"),
    "native_matches": ("count", "higher", 0.01,
                       "variants (of 27) whose simulated stdout equals the "
                       "gcc -fopenmp native stdout"),
}

STRATEGIES = ("interpreter", "wavefront", "masked", "collapse", "ufunc",
              "straight", "codegen")

#: name -> (unit, better, e2e metric [workload] it should move)
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "frontend.preprocess.calls": ("count", "lower", "unique_files_per_s [batch-serial]"),
    "frontend.preprocess.self_s": ("s", "lower", "unique_files_per_s [batch-serial]"),
    "frontend.preprocess.tokens_per_s": ("1/s", "higher", "unique_files_per_s [batch-serial]"),
    "frontend.parse.calls": ("count", "lower", "unique_files_per_s [batch-serial]"),
    "frontend.parse.self_s": ("s", "lower", "unique_files_per_s [batch-serial]"),
    "frontend.parse.nodes_per_s": ("1/s", "higher", "unique_files_per_s [batch-serial]"),
    "analysis.fused_scan.self_s": ("s", "lower", "unique_files_per_s [batch-serial], tool_p90_ms [suite]"),
    "analysis.effects.self_s": ("s", "lower", "unique_files_per_s [batch-serial], tool_p90_ms [suite]"),
    "analysis.validity.self_s": ("s", "lower", "unique_files_per_s [batch-serial], tool_p90_ms [suite]"),
    "analysis.placement.self_s": ("s", "lower", "unique_files_per_s [batch-serial], tool_p90_ms [suite]"),
    "cfg.build.self_s": ("s", "lower", "unique_files_per_s [batch-serial], tool_p90_ms [suite]"),
    "core.plan.self_s": ("s", "lower", "unique_files_per_s [batch-serial], tool_p90_ms [suite]"),
    "core.plan.constructs": ("count", "lower", "exact count; sim_* [suite] through the plan"),
    "rewrite.emit.self_s": ("s", "lower", "unique_files_per_s [batch-serial], tool_p90_ms [suite]"),
    "runtime.codegen.emit.self_s": ("s", "lower", "files_per_s [batch-serial, batch-store], tool_p50_ms [suite]"),
    "runtime.codegen.emit.declined_ratio": ("ratio", "lower", "round_s [suite]"),
    "runtime.vectorize.compile.self_s": ("s", "lower", "setup_s, round_s [suite]"),
    "runtime.codegen.compile.self_s": ("s", "lower", "setup_s, round_s [suite]"),
    "runtime.kernel.calls": ("count", "lower", "round_s [suite]"),
    "runtime.kernel.self_s": ("s", "lower", "round_s [suite]"),
    "runtime.kernel.decline_ratio": ("ratio", "lower", "round_s [suite]"),
    "runtime.launch.self_s": ("s", "lower", "round_s [suite]"),
    "runtime.device.self_s": ("s", "lower", "round_s [suite]"),
    "runtime.device.memcpy_calls": ("count", "lower", "sim_speedup_x [suite]"),
    "runtime.device.memcpy_bytes": ("B", "lower", "sim_transfer_reduction_x [suite]"),
    "runtime.interp.host.self_s": ("s", "lower", "round_s [suite]"),
    **{
        f"runtime.strategy.{name}.launches": (
            "count", "lower" if name == "interpreter" else "higher", "round_s [suite]"
        )
        for name in STRATEGIES
    },
    "runtime.interpreted_launch_ratio": ("ratio", "lower", "round_s [suite]"),
    "pipeline.cache.lookup.self_s": ("s", "lower", "files_per_s [batch-store] (hit phase)"),
    "pipeline.cache.put.self_s": ("s", "lower", "files_per_s [batch-store] (fill phase)"),
    "pipeline.cache.hit_ratio": ("ratio", "higher", "files_per_s [batch-store] (hit phase)"),
    "pipeline.batch.dedup_ratio": ("ratio", "higher", "files_per_s vs unique_files_per_s [batch-serial]"),
    "pipeline.store.spill_files": ("count", "lower", "files_per_s [batch-store] (fill phase)"),
    "pipeline.store.spill_bytes": ("B", "lower", "files_per_s [batch-store] (fill phase)"),
    "pipeline.store.fill_files_per_s": ("1/s", "higher", "files_per_s [batch-store]"),
    "pipeline.store.hit_files_per_s": ("1/s", "higher", "files_per_s [batch-store]; must beat bypass"),
    "pipeline.store.bypass_files_per_s": ("1/s", "higher", "files_per_s [batch-store] (control)"),
    "service.dispatch.wall_s": ("s", "lower", "files_per_s [batch-store]"),
    "service.dispatch.overhead_s": ("s", "lower", "files_per_s [batch-store]"),
    "setup.import_s": ("s", "lower", "setup_s [all]"),
    "setup.first_iter_s": ("s", "lower", "setup_s [all]"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced wall / untraced wall, same path"),
    "trace.unattributed_s": ("s", "lower", "none: iteration time outside every wrapped layer"),
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these tables define."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b, _) in PER_LAYER.items()
        ],
    }

