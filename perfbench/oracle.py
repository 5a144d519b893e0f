"""Set-up oracle: one verified suite round checked against gcc -fopenmp.

Runs in its own interpreter (``run.py --oracle``) at benchmark set-up,
outside timing and outside ``setup_s``.  It simulates the 27 variant
programs, compiles and runs each variant source natively with
``gcc -fopenmp`` (host fallback, one thread), and compares stdout.  It
also returns the modelled Fig. 3/5/6 geomeans, the pinned output
digests and the canonical transformed ports the batch workloads check
their outputs against.

Native results are cached under the work directory keyed by the gcc
version, flags and source, so only the first run in a checkout pays for
compilation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

GCC_FLAGS = ["-fopenmp", "-O1", "-w"]
#: Paper's real-hardware geomeans quoted in ``report/figures.py``.
PAPER_SPEEDUP_X = 2.8
PAPER_TRANSFER_TIME_X = 5.1

_SUFFIX = re.compile(r"_s[0-9a-f]{5}\b")
_CLAUSE = re.compile(r"\(([^()]*)\)")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(source: str) -> str:
    """A synth file with its rename suffix stripped and clause lists sorted.

    Synthetic corpus files are identifier-renamed ports; renaming can
    reorder the (name-sorted) items of a ``map``/``firstprivate`` list,
    so items inside pragma parentheses are sorted too.
    """
    out = []
    for line in _SUFFIX.sub("", source).splitlines():
        if line.lstrip().startswith("#pragma"):
            line = _CLAUSE.sub(_sorted_items, line)
        out.append(line)
    return "\n".join(out)


def _sorted_items(match: re.Match) -> str:
    prefix, sep, body = match.group(1).rpartition(":")
    items = sorted(item.strip() for item in body.split(","))
    return "(" + prefix + sep + ", ".join(items) + ")"


def ledger_row(result) -> dict:
    stats = result.stats
    return {
        "h2d_calls": stats.h2d_calls,
        "d2h_calls": stats.d2h_calls,
        "h2d_bytes": stats.h2d_bytes,
        "d2h_bytes": stats.d2h_bytes,
        "kernel_launches": stats.kernel_launches,
        "strategy_launches": dict(sorted(result.strategy_launches.items())),
    }


def variant_results(runs) -> dict:
    """variant name -> simulation result, for a ``run_all`` dict."""
    out = {}
    for name, run in runs.items():
        out[f"{name}_unoptimized"] = run.unoptimized
        out[f"{name}_ompdart"] = run.ompdart
        out[f"{name}_expert"] = run.expert
    return out


def suite_digests(runs) -> dict[str, str]:
    """Digests of the transformed sources and of the simulated ledger."""
    transformed = {name: sha256(run.transform.output_source) for name, run in runs.items()}
    ledger = {v: ledger_row(r) for v, r in variant_results(runs).items()}
    return {
        "transformed": sha256(json.dumps(transformed, sort_keys=True)),
        "ledger": sha256(json.dumps(ledger, sort_keys=True)),
    }


def gcc_version() -> str | None:
    if shutil.which("gcc") is None:
        return None
    try:
        proc = subprocess.run(["gcc", "--version"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.splitlines()[0] if proc.returncode == 0 else None


def native_stdout(source: str, name: str, cache_dir: Path, version: str) -> str:
    """stdout of ``source`` built with gcc -fopenmp (cached by content)."""
    key = sha256("\0".join([version, *GCC_FLAGS, source]))
    cached = cache_dir / f"{key}.json"
    if cached.exists():
        return json.loads(cached.read_text())["stdout"]
    # Two variants can share a source (and key): build in a private dir.
    build = Path(tempfile.mkdtemp(prefix="build-", dir=cache_dir))
    src = build / f"{name}.c"
    exe = build / name
    src.write_text(source)
    env = dict(os.environ, TMPDIR=str(build), OMP_NUM_THREADS="1")
    subprocess.run(["gcc", *GCC_FLAGS, "-o", str(exe), str(src), "-lm"],
                   check=True, capture_output=True, timeout=120, env=env)
    proc = subprocess.run([str(exe)], capture_output=True, text=True, timeout=120,
                          env=env, check=True)
    (build / "result.json").write_text(json.dumps({"name": name, "stdout": proc.stdout}))
    (build / "result.json").replace(cached)  # atomic: readers never see half a file
    shutil.rmtree(build, ignore_errors=True)
    return proc.stdout


def run_oracle(work_dir: Path) -> dict:
    from repro.suite import geometric_mean, get_benchmark, run_all

    runs = run_all(verify=True)
    results = variant_results(runs)
    sources = {}
    for name, run in runs.items():
        bench = get_benchmark(name)
        sources[f"{name}_unoptimized"] = bench.unoptimized_source()
        sources[f"{name}_ompdart"] = run.transform.output_source
        sources[f"{name}_expert"] = bench.expert_source()

    version = gcc_version()
    mismatches: list[str] | None = None
    if version is not None:
        cache_dir = work_dir / "native"
        cache_dir.mkdir(parents=True, exist_ok=True)
        with ThreadPoolExecutor(max_workers=max(1, min(2, os.cpu_count() or 1))) as pool:
            native = dict(zip(sources, pool.map(
                lambda item: native_stdout(item[1], item[0], cache_dir, version),
                sources.items(),
            )))
        mismatches = sorted(v for v in sources if native[v] != results[v].output)

    return {
        "gcc": version,
        "native_mismatches": mismatches,
        "variants": len(sources),
        "sim_speedup_x": geometric_mean([r.speedup_x for r in runs.values()]),
        "sim_transfer_reduction_x": geometric_mean(
            [r.transfer_reduction_x for r in runs.values()]),
        "sim_transfer_time_x": geometric_mean(
            [r.transfer_time_improvement_x for r in runs.values()]),
        "digests": suite_digests(runs),
        # canonical unoptimized port -> canonical transformed port
        "canonical_ports": {
            name: [canonical(sources[f"{name}_unoptimized"]),
                   canonical(run.transform.output_source)]
            for name, run in runs.items()
        },
    }
