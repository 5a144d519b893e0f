"""The three workloads: inputs from a seed, one timed iteration, checks.

Every workload is closed-loop: one driving process issues one call at a
time and waits for it.  An iteration returns an :class:`Iteration`
with its wall time, the work it did, the tool-latency samples and any
failures; output checks run after the timed section.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracle import canonical, sha256, suite_digests, variant_results

JOBS = 2
SERIAL_CORPUS = (8, 60)  # (corpora per run, files per corpus)
STORE_CORPUS = (5, 80)


@dataclass
class Iteration:
    wall_s: float
    files: int
    unique: int
    #: (program, milliseconds): tool latency samples, keyed by the port
    #: each input derives from so every port can weigh the same
    tool_ms: list[tuple[str, float]]
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: workload-specific extras (phase walls, spill census, dispatch, ...)
    extra: dict = field(default_factory=dict)


def corpus_seed(seed: int, k: int) -> int:
    return seed * 100 + k


class Suite:
    """Warm verified rounds of ``run_all`` over the 9 ports (27 variants).

    The seed permutes the port order of each round; outputs do not
    depend on it.  ``serial`` selects ``concurrent_variants=False`` (the
    traced path: pool workers cannot report spans).
    """

    name = "suite"

    def __init__(self, seed: int, pins: dict, serial: bool = False):
        from repro.suite import BENCHMARK_ORDER

        self.rng = random.Random(seed)
        self.order = list(BENCHMARK_ORDER)
        self.pins = pins["suite"]
        self.serial = serial
        self.digests: set[tuple[str, str]] = set()

    def iteration(self, k: int) -> Iteration:
        from repro.suite import run_all

        names = list(self.order)
        self.rng.shuffle(names)
        start = time.perf_counter()
        try:
            runs = run_all(verify=True, names=names,
                           concurrent_variants=not self.serial)
        except Exception as exc:  # noqa: BLE001 - a failed round is counted
            wall = time.perf_counter() - start
            return Iteration(wall, 27, 27, [], 27, 27, [f"round {k}: {exc!r}"[:300]])
        wall = time.perf_counter() - start
        it = Iteration(wall, 27, 27,
                       [(n, runs[n].transform.elapsed_seconds * 1e3) for n in names], 27)
        digests = suite_digests(runs)
        self.digests.add((digests["transformed"], digests["ledger"]))
        for key in ("transformed", "ledger"):
            if digests[key] != self.pins[key]:
                it.failed = 27
                it.errors.append(f"round {k}: {key} digest {digests[key][:12]} != "
                                 f"pinned {self.pins[key][:12]}")
        results = variant_results(runs).values()
        strategies: dict[str, int] = {}
        for result in results:
            for strategy, n in result.strategy_launches.items():
                strategies[strategy] = strategies.get(strategy, 0) + n
        it.extra["strategy_launches"] = strategies
        it.extra["memcpy_calls"] = sum(r.stats.total_calls for r in results)
        return it


class _Batch:
    """Shared corpus handling and output checks of the batch workloads."""

    name: str
    shape: tuple[int, int]

    def __init__(self, seed: int, work: Path, pins: dict, canonical_ports: dict):
        from repro.suite.synth import generate_corpus

        self.seed = seed
        self.work = work
        self._generate = generate_corpus
        self._corpora: dict[int, list[tuple[str, str]]] = {}
        self.pinned = pins.get(self.name, {}).get(str(seed))
        # canonical input -> (base port, canonical expected output)
        self.ports = {src: (name, out) for name, (src, out) in canonical_ports.items()}
        self.corpus_digests: dict[int, str] = {}
        self._ports_of: dict[int, list[tuple[str, str] | None]] = {}

    def corpus(self, k: int) -> list[tuple[str, str]]:
        """``(source, filename)`` items of corpus ``k mod count`` (made once)."""
        count, size = self.shape
        index = k % count
        if index not in self._corpora:
            self._corpora[index] = [
                (source, filename) for filename, source in
                self._generate(size, corpus_seed(self.seed, index))
            ]
        return self._corpora[index]

    def ports_of(self, k: int) -> list[tuple[str, str] | None]:
        """(port, canonical transformed port) each input of corpus ``k`` derives from."""
        index = k % self.shape[0]
        if index not in self._ports_of:
            self._ports_of[index] = [
                self.ports.get(canonical(source)) for source, _ in self.corpus(k)
            ]
        return self._ports_of[index]

    def check(self, k: int, outcomes, it: Iteration, phase: str = "") -> None:
        """Every outcome ok and equal (up to renaming) to its port's transform.

        Also records the tool latency of each input that ran (dedup
        fan-outs excluded), keyed by its port.
        """
        items = self.corpus(k)
        parts = []
        for (_, filename), port, out in zip(items, self.ports_of(k), outcomes):
            parts.append(f"{filename}\0{out.output_source}")
            if out.deduped_from is None:
                it.tool_ms.append((port[0] if port else "?", out.elapsed_seconds * 1e3))
            if not out.ok:
                it.failed += 1
                it.errors.append(f"{phase}{filename}: {out.error}"[:300])
                continue
            if port is None or canonical(out.output_source) != port[1]:
                it.failed += 1
                it.errors.append(f"{phase}{filename}: output differs from its port's")
        digest = sha256("\n".join(parts))
        index = k % self.shape[0]
        first = self.corpus_digests.setdefault(index, digest)
        if digest != first:
            it.failed += 1
            it.errors.append(f"{phase}corpus {index}: digest changed between passes")
        if self.pinned is not None and digest != self.pinned[index]:
            it.failed += 1
            it.errors.append(f"{phase}corpus {index}: digest {digest[:12]} != pinned "
                             f"{self.pinned[index][:12]}")


class BatchSerial(_Batch):
    """Serial in-memory ``transform_batch``; a fresh cache per pass."""

    name = "batch-serial"
    shape = SERIAL_CORPUS

    def iteration(self, k: int) -> Iteration:
        from repro.pipeline.batch import BatchRunStats, transform_batch

        items = self.corpus(k)
        stats = BatchRunStats()
        start = time.perf_counter()
        outcomes = transform_batch(items, run_stats=stats)
        wall = time.perf_counter() - start
        it = Iteration(wall, len(items), stats.unique_inputs, [], len(items))
        self.check(k, outcomes, it)
        return it


class BatchStore(_Batch):
    """``transform_batch(jobs=2)``: fill a fresh cache_dir, re-read, bypass.

    ``jobs=1`` (the traced path) keeps every cache call in the driving
    process so its spans are recorded.
    """

    name = "batch-store"
    shape = STORE_CORPUS
    PHASES = ("fill", "hit", "bypass")

    def __init__(self, *args, jobs: int = JOBS, **kw):
        super().__init__(*args, **kw)
        self.jobs = jobs

    def iteration(self, k: int) -> Iteration:
        from repro.pipeline.batch import BatchRunStats, transform_batch
        from repro.pipeline.store import spill_stats

        items = self.corpus(k)
        cache_dir = self.work / f"store-{os.getpid()}-{k}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        walls: dict[str, float] = {}
        results = {}
        unique = 0
        for phase in self.PHASES:
            stats = BatchRunStats()
            start = time.perf_counter()
            results[phase] = transform_batch(
                items, jobs=self.jobs, run_stats=stats,
                cache_dir=None if phase == "bypass" else str(cache_dir),
            )
            walls[phase] = time.perf_counter() - start
            unique += stats.unique_inputs
        census = spill_stats(cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        it = Iteration(sum(walls.values()), 3 * len(items), unique, [], 3 * len(items))
        it.extra.update(phase_wall=walls, files=len(items),
                        spill_files=census["files"], spill_bytes=census["bytes"],
                        worker_s=sum(o.elapsed_seconds for phase in self.PHASES
                                     for o in results[phase] if o.deduped_from is None))
        for phase in self.PHASES:
            self.check(k, results[phase], it, f"{phase}: ")
        return it


def make(name: str, seed: int, work: Path, pins: dict, oracle: dict | None,
         traced_path: bool = False):
    """The workload ``name``; ``traced_path`` picks its span-visible path."""
    if name == "suite":
        return Suite(seed, pins, serial=traced_path)
    ports = oracle["canonical_ports"] if oracle else {}
    if name == "batch-serial":
        return BatchSerial(seed, work, pins, ports)
    if name == "batch-store":
        return BatchStore(seed, work, pins, ports, jobs=1 if traced_path else JOBS)
    raise KeyError(name)
