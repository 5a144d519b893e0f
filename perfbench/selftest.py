"""Self-test of the benchmark (takes a few minutes).

    python3 perfbench/selftest.py

Checks that

* ``BENCHMARK.json`` is exactly what ``metrics.py`` defines;
* every workload prints exactly the ``BENCHMARK.json`` names: the
  end-to-end metrics untraced, the per-layer metrics traced;
* exact counts (``core.plan.constructs``, memcpy counts, strategy
  launches) repeat exactly across two runs, and so do the native
  mismatches of two oracles that each compile and run every variant
  afresh (the native cache is emptied first);
* a held-out seed, outside the pinned range, runs clean.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

NATIVE_CACHE = ROOT / ".perfbench-work" / "native"
HELD_OUT_SEED = 4242
SECONDS = "4"
EXACT = [
    "core.plan.constructs",
    "runtime.device.memcpy_calls",
    "runtime.device.memcpy_bytes",
    *[f"runtime.strategy.{s}.launches" for s in metrics.STRATEGIES],
]


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload} seed {seed} trace {trace} failed:\n"
                             f"{proc.stderr[-2000:]}")
    return result


def cold_native_mismatches() -> list[str] | None:
    """Native mismatches from an oracle that compiles and runs every variant.

    The benchmark caches native stdout across runs; emptying the cache
    first makes each call build and run all 27 binaries again, so a
    wrong or nondeterministic native result cannot repeat from the cache.
    """
    shutil.rmtree(NATIVE_CACHE, ignore_errors=True)
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--oracle"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"oracle failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["native_mismatches"]


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(spec == metrics.benchmark_json(), "BENCHMARK.json matches metrics.py")
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}

    plains = {}
    for workload in metrics.WORKLOADS:
        plain = plains[workload] = bench(workload, HELD_OUT_SEED, 0)
        check(set(plain["metrics"]) == e2e,
              f"{workload}: held-out seed {HELD_OUT_SEED} clean, e2e names match")
        check(all(v["value"] != 0 for v in plain["metrics"].values()),
              f"{workload}: no end-to-end metric reads 0")
        traced = bench(workload, HELD_OUT_SEED, 1)
        check(set(traced["metrics"]) == layers, f"{workload}: per-layer names match")

    first = bench("suite", 1, 1)["metrics"]
    second = bench("suite", 2, 1)["metrics"]
    for name in EXACT:
        check(first[name]["value"] == second[name]["value"],
              f"suite: {name} repeats exactly ({first[name]['value']})")
    natives = [cold_native_mismatches() for _ in range(2)]
    check(natives[0] == natives[1], f"native mismatches repeat exactly ({natives[0]})")
    cached = plains["suite"]["metrics"].get("native_matches", {}).get("value")
    check(natives[0] is not None and cached == 27 - len(natives[0]),
          f"cached native_matches ({cached}) equals a fresh native run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
