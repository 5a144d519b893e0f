"""Golden plan digests: the analysis pipeline's output, pinned.

Every corpus variant (9 benchmarks x unoptimized / tool-transformed /
expert) plus a slice of the seeded synthetic corpus runs through the
pass manager.  Per input the test records the SHA-256 of the rewritten
source and of the rendered constraint diagnostics (and of every
diagnostic the run produced); a rejected input records its error
string instead.  The committed digests were taken with the historical
multi-walk constraints/effects passes, so any drift of the single-walk
fused scan shows up here.  Nothing in a digest depends on hash
randomisation: rewrites and rendered diagnostics are pure text.

Regenerate (only for an intended output change) with::

    PYTHONPATH=src python tests/test_analysis_golden.py
"""

import hashlib
import json
import os

from repro.diagnostics import ToolError
from repro.pipeline.manager import PassManager
from repro.suite.registry import BENCHMARK_ORDER, get_benchmark
from repro.suite.synth import generate_corpus

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "analysis_digests.json")

#: The synthetic slice: ``generate_corpus(SYNTH_COUNT, SYNTH_SEED)``.
SYNTH_COUNT = 60
SYNTH_SEED = 7


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def digest(source: str, filename: str) -> dict[str, str]:
    """The pinned facts of one input's trip through the pipeline."""
    try:
        ctx = PassManager(cache=None).run(source, filename)
    except ToolError as exc:
        rendered = "\n".join(d.render() for d in exc.diagnostics)
        return {"error": f"{exc}\n{rendered}"}
    return {
        "output": _sha(ctx.artifact("rewrite")),
        "constraints": _sha(
            "\n".join(d.render() for d in ctx.artifact("constraints"))
        ),
        "diagnostics": _sha("\n".join(d.render() for d in ctx.diagnostics)),
    }


def inputs() -> list[tuple[str, str, str]]:
    """(key, source, filename) of every pinned input, in golden order."""
    out = []
    for name in BENCHMARK_ORDER:
        bench = get_benchmark(name)
        unopt = bench.unoptimized_source()
        transformed = PassManager(cache=None).run(unopt, name + ".c").artifact(
            "rewrite"
        )
        for variant, source in (
            ("unoptimized", unopt),
            ("transformed", transformed),
            ("expert", bench.expert_source()),
        ):
            key = f"{name}/{variant}"
            out.append((key, source, key + ".c"))
    for filename, source in generate_corpus(SYNTH_COUNT, SYNTH_SEED):
        out.append((f"synth/{filename}", source, filename))
    return out


def compute() -> dict[str, dict[str, str]]:
    return {key: digest(source, filename) for key, source, filename in inputs()}


def test_plans_match_golden_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    actual = compute()
    assert len(golden) == 27 + SYNTH_COUNT
    assert sorted(actual) == sorted(golden)
    mismatches = {
        key: (golden[key], actual[key])
        for key in golden
        if golden[key] != actual[key]
    }
    assert not mismatches, mismatches
    # The pins cover both outcomes: plannable inputs and inputs the
    # constraints pass rejects (experts carry data-mapping directives).
    assert any("output" in d for d in golden.values())
    assert any("error" in d for d in golden.values())


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
