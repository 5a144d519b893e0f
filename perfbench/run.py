"""The repo benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (it imports ``src/repro``).  With
``--trace 0`` it measures the workload's end-to-end metrics with
tracing off; with ``--trace 1`` it runs the workload's span-visible path
twice, untraced then traced, and reports per-layer self times and
counts.  Either way it first runs the set-up oracle (a verified suite
round checked against ``gcc -fopenmp``) and times three fresh
interpreters for ``setup_s``.  Outputs are checked against the digests
pinned in ``digests.json``; any failure makes ``correct`` false and the
exit code 1.  The last stdout line is the JSON result.

Scratch files (spill directories, native builds, span dumps) go to
``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PINS = HERE / "digests.json"
SETUP_REPEATS = 3
#: Most error lines echoed to stderr.
MAX_ERRORS = 20


def _import_program() -> None:
    """The imports every workload's first iteration needs (``setup.import_s``)."""
    import repro.pipeline.batch  # noqa: F401
    import repro.pipeline.store  # noqa: F401
    import repro.suite  # noqa: F401
    import repro.suite.synth  # noqa: F401


def _child(args: list[str]) -> dict:
    """Run ``run.py`` in a fresh interpreter and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


# -- helpers -----------------------------------------------------------------


def program_quantile(samples: list[tuple[str, float]], q: float) -> float:
    """Quantile of ``(program, value)`` samples, every program weighing the same.

    Batch corpora mix the 9 ports in seed-dependent proportions; equal
    weights keep a tail quantile inside the same port's cluster for
    every seed instead of jumping between clusters.
    """
    counts = Counter(program for program, _ in samples)
    points = sorted((value, 1.0 / counts[program]) for program, value in samples)
    target = q * sum(weight for _, weight in points)
    acc = 0.0
    for value, weight in points:
        acc += weight
        if acc >= target:
            return value
    return points[-1][0]


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    out: list[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        try:
            with open(f"/proc/{parent}/task/{parent}/children") as fh:
                kids = [int(x) for x in fh.read().split()]
        except OSError:
            kids = []
        out.extend(kids)
        stack.extend(kids)
    return out


class RssSampler:
    """Peak RSS of this process plus its live descendants, sampled."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        pid = os.getpid()
        total = _rss_kb(pid) + sum(_rss_kb(c) for c in _descendants(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def window(workload, seconds: float, first: int = 0):
    """Closed-loop iterations until ``seconds`` have elapsed (at least one)."""
    iterations = []
    start = time.perf_counter()
    k = first
    while True:
        iterations.append(workload.iteration(k))
        k += 1
        if time.perf_counter() - start >= seconds:
            return iterations, k


def _shutdown_variant_pool() -> None:
    """Stop the suite's persistent variant pool and wait for its workers."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.suite import runner

    pool = runner._VARIANT_POOL
    if isinstance(pool, ProcessPoolExecutor):
        pool.shutdown(wait=True)
        runner._VARIANT_POOL = None


def _stop_processes() -> None:
    """Stop every helper process the program started, and wait for each.

    Besides the variant pool, the artifact store's shared memory starts
    multiprocessing's resource tracker, which would otherwise outlive
    this process briefly.
    """
    from multiprocessing import resource_tracker

    _shutdown_variant_pool()
    resource_tracker._resource_tracker._stop()


# -- modes -------------------------------------------------------------------


def oracle_main() -> None:
    from oracle import run_oracle

    result = run_oracle(WORK)
    _shutdown_variant_pool()
    print(json.dumps(result))


def probe_main(workload_name: str, seed: int) -> None:
    """One cold start: imports, then the workload's first iteration."""
    _import_program()
    import_end = time.time()
    import workloads

    work = WORK / f"probe-{os.getpid()}"
    wl = workloads.make(workload_name, seed, work,
                        {"suite": {"transformed": "", "ledger": ""}}, None)
    if hasattr(wl, "corpus"):
        wl.corpus(0)  # inputs, not set-up
    it = wl.iteration(0)
    _stop_processes()
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"import_end": import_end, "first_iter_s": it.wall_s}))


def setup_sample(workload_name: str, seed: int) -> tuple[float, float]:
    """(import_s, first_iter_s) of a fresh interpreter."""
    spawned = time.time()
    row = _child(["--setup-probe", "--workload", workload_name, "--seed", str(seed)])
    return row["import_end"] - spawned, row["first_iter_s"]


class Report:
    """Collects metrics, the human-readable table and failures."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def put(self, name: str, value: float, unit: str, samples: int | str = 1,
            json_metric: bool = True) -> None:
        if json_metric:
            self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:<38s} {value:>14.6g} {unit:<6s} (n={samples})")

    def note(self, text: str) -> None:
        self.lines.append(text)

    def count(self, iterations) -> None:
        for it in iterations:
            self.attempted += it.attempted
            self.failed += it.failed
            self.errors.extend(it.errors)

    def fail(self, message: str, attempted: int = 1) -> None:
        self.attempted += attempted
        self.failed += attempted
        self.errors.append(message)

    def emit(self) -> int:
        correct = self.failed == 0 and self.attempted > 0
        for line in self.lines:
            print(line)
        for err in self.errors[:MAX_ERRORS]:
            print(f"error: {err}", file=sys.stderr)
        print(json.dumps({
            "correct": correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": self.metrics,
        }))
        return 0 if correct else 1


def check_oracle(report: Report, oracle: dict, pins: dict) -> None:
    """The set-up round's digests must equal the pinned ones."""
    from oracle import sha256

    for key in ("transformed", "ledger"):
        if oracle["digests"][key] != pins["suite"][key]:
            report.fail(f"oracle: suite {key} digest {oracle['digests'][key][:12]} "
                        f"!= pinned {pins['suite'][key][:12]}")
    canon = sha256(json.dumps(oracle["canonical_ports"], sort_keys=True))
    if canon != pins["canonical_ports"]:
        report.fail(f"oracle: canonical port digest {canon[:12]} != pinned")


def oracle_metrics(report: Report, oracle: dict) -> None:
    """Model metrics, model honesty and the native check (from set-up)."""
    from oracle import PAPER_SPEEDUP_X, PAPER_TRANSFER_TIME_X

    report.put("sim_speedup_x", oracle["sim_speedup_x"], "x", "9 ports, modelled")
    report.put("sim_transfer_reduction_x", oracle["sim_transfer_reduction_x"], "x",
               "9 ports, modelled")
    speed, xfer = oracle["sim_speedup_x"], oracle["sim_transfer_time_x"]
    report.note(
        "  model (cost model NOT validated against hardware): "
        f"speedup {speed:.2f}x vs paper {PAPER_SPEEDUP_X}x "
        f"({(speed - PAPER_SPEEDUP_X) / PAPER_SPEEDUP_X:+.0%}); transfer time "
        f"{xfer:.2f}x vs paper {PAPER_TRANSFER_TIME_X}x "
        f"({(xfer - PAPER_TRANSFER_TIME_X) / PAPER_TRANSFER_TIME_X:+.0%})"
    )
    mismatches = oracle["native_mismatches"]
    if mismatches is None:
        report.note("  native oracle: gcc not found; native_matches omitted")
        return
    report.put("native_matches", oracle["variants"] - len(mismatches), "count",
               f"{oracle['variants']} variants, {oracle['gcc']}")
    report.put("native_mismatches", len(mismatches), "count",
               ", ".join(mismatches) or "none", json_metric=False)


def e2e_main(report: Report, wl, seconds: float, probe) -> list:
    """The untraced window, in chunks with a set-up probe after each.

    Interleaving spreads the timed work over the whole run, so a slow
    spell on a shared host weighs on one chunk instead of the window.
    Returns the probes' set-up samples.
    """
    # Warm-up (pools forked, kernels compiled, caches filled): checked, not timed.
    report.count([wl.iteration(0)])
    iterations, samples, peak_kb, k = [], [], 0, 1
    for _ in range(SETUP_REPEATS):
        with RssSampler() as rss:
            chunk, k = window(wl, seconds / SETUP_REPEATS, first=k)
        iterations += chunk
        peak_kb = max(peak_kb, rss.peak_kb)
        samples.append(probe())
    _shutdown_variant_pool()
    report.count(iterations)
    n = len(iterations)
    tool = [ms for it in iterations for ms in it.tool_ms]
    report.note(f"workload {report.workload} seed {report.seed}: {n} iterations, "
                f"{sum(it.wall_s for it in iterations):.2f} s measured")
    report.put("round_s", statistics.median(it.wall_s for it in iterations), "s", n)
    report.put("files_per_s", statistics.median(it.files / it.wall_s for it in iterations),
               "1/s", n)
    report.put("unique_files_per_s",
               statistics.median(it.unique / it.wall_s for it in iterations), "1/s", n)
    report.put("tool_p50_ms", program_quantile(tool, 0.5), "ms", len(tool))
    report.put("tool_p90_ms", program_quantile(tool, 0.9), "ms", len(tool))
    report.put("peak_rss_mb", peak_kb / 1024, "MB", "sampled every 0.1 s")
    if report.workload == "batch-store":
        for phase in wl.PHASES:
            report.put(f"{phase}_files_per_s", statistics.median(
                it.extra["files"] / it.extra["phase_wall"][phase] for it in iterations
            ), "1/s", n, json_metric=False)
    return samples


def traced_main(report: Report, wl_factory, seconds: float) -> dict[str, float]:
    """Untraced then traced windows on the traced path; per-layer values."""
    import metrics
    import workloads
    from spans import KERNEL_SPAN, LAYERS, Recorder, Tracer

    plain = wl_factory(True)
    report.count([plain.iteration(0)])
    untraced, k = window(plain, seconds / 2, first=1)
    rec = Recorder()
    tracer = Tracer(rec)
    tracer.install()
    try:
        traced, k = window(plain, seconds / 2, first=k)
    finally:
        tracer.uninstall()
    report.count(untraced)
    report.count(traced)
    rec.dump(str(WORK / f"spans-{report.workload}-{report.seed}.jsonl.gz"))

    n = len(traced)
    self_s = rec.self_times()
    calls = rec.calls()
    counts = rec.counts
    values: dict[str, float] = {name: 0.0 for name in metrics.PER_LAYER}
    for layer in [*LAYERS, KERNEL_SPAN]:
        if f"{layer}.self_s" in values:
            values[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
        if f"{layer}.calls" in values:
            values[f"{layer}.calls"] = calls.get(layer, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["frontend.preprocess.tokens_per_s"] = ratio(
        counts["frontend.preprocess.tokens"], self_s.get("frontend.preprocess", 0))
    values["frontend.parse.nodes_per_s"] = ratio(
        counts["frontend.parse.nodes"], self_s.get("frontend.parse", 0))
    values["core.plan.constructs"] = counts["core.plan.constructs"] / n
    values["runtime.codegen.emit.declined_ratio"] = ratio(
        counts["runtime.codegen.emit.declined"], counts["runtime.codegen.emit.rows"])
    values["runtime.kernel.decline_ratio"] = ratio(
        counts["runtime.kernel.declines"], calls.get(KERNEL_SPAN, 0))
    values["runtime.device.memcpy_calls"] = counts["runtime.device.memcpy_calls"] / n
    values["runtime.device.memcpy_bytes"] = counts["runtime.device.memcpy_bytes"] / n
    ledger_calls = sum(it.extra.get("memcpy_calls", 0) for it in traced)
    if ledger_calls != counts["runtime.device.memcpy_calls"]:
        report.fail(f"trace: {counts['runtime.device.memcpy_calls']:.0f} memcpy calls "
                    f"counted, the simulated ledger has {ledger_calls}")
    launches: dict[str, int] = {}
    for it in traced:
        for strategy, c in it.extra.get("strategy_launches", {}).items():
            launches[strategy] = launches.get(strategy, 0) + c
    for strategy in metrics.STRATEGIES:
        values[f"runtime.strategy.{strategy}.launches"] = launches.get(strategy, 0) / n
    values["runtime.interpreted_launch_ratio"] = ratio(
        launches.get("interpreter", 0), sum(launches.values()))
    values["pipeline.cache.hit_ratio"] = ratio(
        counts["pipeline.cache.hits"],
        counts["pipeline.cache.hits"] + counts["pipeline.cache.misses"])
    if isinstance(plain, workloads._Batch):
        files = sum(it.files for it in traced)
        values["pipeline.batch.dedup_ratio"] = ratio(
            files - sum(it.unique for it in traced), files)
    if isinstance(plain, workloads.BatchStore):
        values["pipeline.store.spill_files"] = statistics.mean(
            it.extra["spill_files"] for it in traced)
        values["pipeline.store.spill_bytes"] = statistics.mean(
            it.extra["spill_bytes"] for it in traced)
        _dispatch_metrics(report, wl_factory(False), values, k)
    walls = [it.wall_s for it in traced]
    values["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(
        [it.wall_s for it in untraced])
    values["trace.unattributed_s"] = (sum(walls) - rec.root_seconds()) / n
    if isinstance(plain, workloads.Suite) and len(plain.digests) != 1:
        report.fail("trace: traced and untraced rounds produced different digests")
    report.note(f"workload {report.workload} seed {report.seed} traced: {n} traced "
                f"and {len(untraced)} untraced iterations (values per iteration)")
    return values


def _dispatch_metrics(report: Report, wl, values: dict, k: int) -> None:
    """One jobs=2 iteration with only ``dispatch_map`` wrapped."""
    from spans import Recorder, Tracer

    rec = Recorder()
    tracer = Tracer(rec)
    tracer.install(names=["service.dispatch"])
    try:
        it = wl.iteration(k)
    finally:
        tracer.uninstall()
    report.count([it])
    wall = rec.self_times().get("service.dispatch", 0.0)
    values["service.dispatch.wall_s"] = wall
    values["service.dispatch.overhead_s"] = wall - it.extra["worker_s"] / wl.jobs
    for phase in wl.PHASES:
        values[f"pipeline.store.{phase}_files_per_s"] = (
            it.extra["files"] / it.extra["phase_wall"][phase])


def main() -> int:
    import metrics

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = None  # re-read TMPDIR: every scratch file stays in the checkout

    if args.oracle:
        oracle_main()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        probe_main(args.workload, args.seed)
        return 0

    pins = json.loads(PINS.read_text())
    report = Report(args.workload, args.seed)
    try:
        oracle = _child(["--oracle"])
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        report.fail(f"oracle: {exc}")
        return report.emit()

    _import_program()
    import workloads

    def factory(traced_path: bool):
        return workloads.make(args.workload, args.seed, WORK, pins, oracle,
                              traced_path=traced_path)

    def probe() -> tuple[float, float]:
        return setup_sample(args.workload, args.seed)

    check_oracle(report, oracle, pins)
    try:
        if args.trace:
            values = traced_main(report, factory, args.seconds)
            samples = [probe() for _ in range(SETUP_REPEATS)]
        else:
            oracle_metrics(report, oracle)
            samples = e2e_main(report, factory(False), args.seconds, probe)
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        report.fail(f"{type(exc).__name__}: {exc}")
        return report.emit()
    finally:
        _stop_processes()

    if args.trace:
        values["setup.import_s"] = statistics.median(s[0] for s in samples)
        values["setup.first_iter_s"] = statistics.median(s[1] for s in samples)
        for name, (unit, _better, moves) in metrics.PER_LAYER.items():
            report.put(name, values[name], unit, f"per iteration; moves {moves}")
    else:
        report.put("setup_s", statistics.median(a + b for a, b in samples), "s",
                   len(samples))
        report.put("error_ratio", report.failed / max(1, report.attempted), "ratio",
                   report.attempted, json_metric=False)
    return report.emit()


if __name__ == "__main__":
    sys.exit(main())
