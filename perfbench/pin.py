"""Regenerate ``digests.json``, the output digests the benchmark checks.

    python3 perfbench/pin.py

Pins, from the current program: the suite's transformed-source and
simulated-ledger digests, the canonical transformed ports the batch
outputs are compared with, and for batch seeds ``0 .. PINNED_SEEDS-1``
the digest of every corpus each batch workload transforms.  Seeds outside the
pinned range are still checked against the canonical ports.  Re-pin
only for a change that is meant to alter program outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import sha256  # noqa: E402

#: Batch seeds whose corpus digests are pinned: 0 .. PINNED_SEEDS-1.
PINNED_SEEDS = 32


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)

    oracle = run._child(["--oracle"])
    pins: dict = {
        "suite": oracle["digests"],
        "canonical_ports": sha256(json.dumps(oracle["canonical_ports"], sort_keys=True)),
    }
    from repro.pipeline.batch import transform_batch

    for cls in (workloads.BatchSerial, workloads.BatchStore):
        pins[cls.name] = {}
        for seed in range(PINNED_SEEDS):
            wl = cls(seed, run.WORK, {}, oracle["canonical_ports"])
            count = cls.shape[0]
            for k in range(count):
                it = workloads.Iteration(0.0, 0, 0, [], 0)
                wl.check(k, transform_batch(wl.corpus(k)), it)
                if it.failed:
                    print("\n".join(it.errors), file=sys.stderr)
                    return 1
            pins[cls.name][str(seed)] = [wl.corpus_digests[k] for k in range(count)]
            print(f"{cls.name} seed {seed}: pinned {count} corpora", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
