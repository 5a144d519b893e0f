"""Lazy source locations: resolution, pickling, and the token codec.

``SourceBuffer.location`` stores only the offset and a buffer
reference; ``line``/``column`` resolve on first use.  Resolution must
agree with ``SourceBuffer.line_col`` for every token of every corpus
variant, and pickles must carry the resolved values — never the buffer
— so spills and artifacts stay as small as the eager form.
"""

import pickle

import pytest

from repro.frontend import SourceBuffer, SourceLocation, parse_source, preprocess
from repro.pipeline.artifacts import decode_spill, encode_spill
from repro.pipeline.manager import PassManager
from repro.suite.registry import BENCHMARK_ORDER, get_benchmark

#: Pickled bytes per token; the eager slot-state form took ~64.
_BYTES_PER_TOKEN = 56


def _variants():
    out = []
    for name in BENCHMARK_ORDER:
        bench = get_benchmark(name)
        unopt = bench.unoptimized_source()
        out += [
            (f"{name}_unoptimized.c", unopt),
            (
                f"{name}_ompdart.c",
                PassManager(cache=None).run(unopt, name + ".c").artifact("rewrite"),
            ),
            (f"{name}_expert.c", bench.expert_source()),
        ]
    return out


_VARIANTS = _variants()


def _row(tok):
    loc = tok.location
    return (
        tok.kind, tok.text, loc.offset, loc.line, loc.column, loc.filename,
        tok.value, tok.expanded_from,
    )


def test_all_27_variants_present():
    assert len(_VARIANTS) == 27


@pytest.mark.parametrize("filename, source", _VARIANTS, ids=[v[0] for v in _VARIANTS])
def test_lazy_line_column_match_line_col(filename, source):
    tokens, buffer = preprocess(source, filename)
    reference = SourceBuffer(source, filename)
    assert all(tok.location.filename == filename for tok in tokens)
    # Resolve in reverse so no answer leans on the buffer's line hint.
    for tok in reversed(tokens):
        loc = tok.location
        assert (loc.line, loc.column) == reference.line_col(loc.offset), tok


@pytest.mark.parametrize("filename, source", _VARIANTS, ids=[v[0] for v in _VARIANTS])
def test_pickled_tokens_never_carry_the_buffer(filename, source):
    tokens, buffer = preprocess(source, filename)
    text = source.encode()
    payload = pickle.dumps(tokens, protocol=5)
    assert payload.count(text) == 0
    assert len(payload) <= _BYTES_PER_TOKEN * len(tokens)
    assert pickle.dumps((tokens, buffer), protocol=5).count(text) == 1
    restored = pickle.loads(payload)
    assert [_row(t) for t in restored] == [_row(t) for t in tokens]
    assert all(t.location._buffer is None for t in restored)


@pytest.mark.parametrize("filename, source", _VARIANTS, ids=[v[0] for v in _VARIANTS])
def test_preprocess_codec_round_trips(filename, source):
    tokens, buffer = preprocess(source, filename)
    decoded_tokens, decoded_buffer = decode_spill(
        encode_spill("preprocess", (tokens, buffer)), "preprocess"
    )
    assert decoded_buffer.text == buffer.text
    assert decoded_buffer.filename == buffer.filename
    assert [_row(t) for t in decoded_tokens] == [_row(t) for t in tokens]


def test_pickled_translation_unit_omits_source_text():
    source = get_benchmark("lulesh").unoptimized_source()
    tu = parse_source(source, "lulesh.c")
    payload = pickle.dumps(tu, protocol=5)
    assert source.encode() not in payload
    restored = pickle.loads(payload)
    fn = restored.lookup_function("main")
    assert (fn.range.begin.line, fn.range.begin.column) == SourceBuffer(
        source
    ).line_col(fn.begin_offset)


def test_explicit_location_keeps_given_position():
    loc = SourceLocation(5, 2, 3, "f.c")
    assert (loc.offset, loc.line, loc.column, loc.filename) == (5, 2, 3, "f.c")
    assert pickle.loads(pickle.dumps(loc)).line == 2
    assert str(SourceBuffer("ab\ncdef", "g.c").location(5)) == "g.c:2:3"
