"""Differential test: bit-vector validity dataflow vs the dict lattice.

The planner's fixpoint runs on ``(host_mask, dev_mask)`` integers.  The
oracle below is the straightforward per-variable formulation it
replaced — a worklist over ``{var: VarState}`` dicts with an explicit
transfer function that records a need whenever a read observes a stale
copy.  Both must agree on every need (key, triggering access and
kernel), every aggregate fact, and the decoded state entering and
leaving every CFG node, over all 27 corpus variants and a seeded slice
of the synthetic corpus.
"""

from collections import deque

import pytest

from repro.analysis import (
    InterproceduralAnalysis,
    ValidityAnalysis,
    variables_of_interest,
)
from repro.analysis.validity import (
    ENTRY,
    TOP,
    Direction,
    Space,
    TransferNeed,
    VarFacts,
    VarState,
)
from repro.cfg import ASTCFG
from repro.cfg.graph import EdgeLabel
from repro.frontend import parse_source
from repro.pipeline.manager import PassManager
from repro.suite.registry import BENCHMARK_ORDER, get_benchmark
from repro.suite.synth import generate_corpus


# ---------------------------------------------------------------------------
# Oracle: the dict-of-VarState fixpoint
# ---------------------------------------------------------------------------


def _oracle_apply(analysis, node, state, needs, facts):
    accesses = analysis.accesses_of(node)
    if not accesses:
        return state
    space = Space.DEVICE if node.offloaded else Space.HOST
    out = dict(state)
    for acc in accesses:
        var = acc.name
        vs = out.get(var, ENTRY)
        reads = acc.kind.reads
        if acc.kind.writes and not reads and analysis._write_is_guarded(node, acc):
            reads = True
        if facts is not None:
            fact = facts.setdefault(var, VarFacts(var, acc.decl))
            if fact.decl is None:
                fact.decl = acc.decl
            fact.note(space, acc.kind, node.kernel)
        if reads and not vs.valid_in(space):
            direction = Direction.HTOD if space is Space.DEVICE else Direction.DTOH
            need = TransferNeed(var, direction, node, acc, node.kernel)
            needs.setdefault(need.key, need)
            vs = (
                VarState(True, vs.valid_dev) if space is Space.HOST
                else VarState(vs.valid_host, True)
            )
        if acc.kind.writes:
            vs = vs.after_write(space)
        out[var] = vs
    return out


def _oracle_meet(tracked, states):
    incoming = None
    for st in states:
        if st is None:
            continue
        if incoming is None:
            incoming = dict(st)
        else:
            for var in tracked:
                incoming[var] = incoming.get(var, TOP).meet(st.get(var, TOP))
    if incoming is None:
        return {v: TOP for v in tracked}
    return incoming


def _oracle_run(analysis):
    cfg, tracked = analysis.cfg, analysis.tracked
    heads = analysis._must_execute_heads
    state_out, state_in, state_out_false = {}, {}, {}
    scratch = {}

    def pred_out_for(edge):
        src = edge.src
        if (
            src.node_id in heads
            and edge.label is EdgeLabel.FALSE
            and not edge.is_back_edge
        ):
            return state_out_false.get(src)
        return state_out.get(src)

    worklist = deque(cfg.topological_order())
    in_worklist = {n.node_id for n in worklist}
    while worklist:
        node = worklist.popleft()
        in_worklist.discard(node.node_id)
        if node is cfg.entry:
            incoming = {v: ENTRY for v in tracked}
        else:
            incoming = _oracle_meet(
                tracked, [pred_out_for(e) for e in node.predecessors]
            )
        state_in[node] = incoming
        new_out = _oracle_apply(analysis, node, incoming, scratch, None)
        changed = state_out.get(node) != new_out
        state_out[node] = new_out
        if node.node_id in heads:
            back_in = _oracle_meet(
                tracked,
                [state_out.get(e.src) for e in node.predecessors if e.is_back_edge],
            )
            new_false = _oracle_apply(analysis, node, back_in, scratch, None)
            if state_out_false.get(node) != new_false:
                state_out_false[node] = new_false
                changed = True
        if changed:
            for edge in node.successors:
                if edge.dst.node_id not in in_worklist:
                    worklist.append(edge.dst)
                    in_worklist.add(edge.dst.node_id)

    facts, needs = {}, {}
    for node in cfg.nodes:
        if node in state_in:
            _oracle_apply(analysis, node, state_in[node], needs, facts)
    ordered = sorted(
        needs.values(),
        key=lambda n: (n.node.ast.begin_offset if n.node.ast is not None else 0, n.var),
    )
    return ordered, facts, state_in, state_out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _variant_sources():
    sources = []
    for name in BENCHMARK_ORDER:
        bench = get_benchmark(name)
        unopt = bench.unoptimized_source()
        transformed = PassManager(cache=None).run(unopt, name + ".c").artifact(
            "rewrite"
        )
        sources += [
            (f"{name}_unoptimized.c", unopt),
            (f"{name}_ompdart.c", transformed),
            (f"{name}_expert.c", bench.expert_source()),
        ]
    return sources


def _analyses(source, filename):
    tu = parse_source(source, filename)
    effects = InterproceduralAnalysis(tu)
    for fn in tu.function_definitions():
        astcfg = ASTCFG(fn)
        if not astcfg.kernel_directives():
            continue
        tracked = variables_of_interest(astcfg, effects)
        yield ValidityAnalysis(astcfg, effects, tracked)


def _assert_identical(source, filename):
    checked = 0
    for analysis in _analyses(source, filename):
        result = analysis.run()
        needs, facts, state_in, state_out = _oracle_run(analysis)
        assert len(result.needs) == len(needs), filename
        for got, want in zip(result.needs, needs):
            assert got.key == want.key, filename
            assert got.access is want.access, (filename, got.key)
            assert got.kernel is want.kernel, (filename, got.key)
        assert list(result.facts.items()) == list(facts.items()), filename
        for new, old in ((result.state_in, state_in), (result.state_out, state_out)):
            assert set(new) == set(old), filename
            for node, states in old.items():
                assert new[node] == states, (filename, node)
        assert result.state_at_exit(analysis.cfg.exit) == state_in.get(
            analysis.cfg.exit, {}
        )
        checked += 1
    return checked


def test_corpus_variants_match_dict_lattice():
    sources = _variant_sources()
    assert len(sources) == 27
    assert sum(_assert_identical(src, name) for name, src in sources) >= 27


@pytest.mark.parametrize("chunk", range(4))
def test_synthetic_slice_matches_dict_lattice(chunk):
    corpus = generate_corpus(60, 7)[chunk::4]
    assert sum(_assert_identical(src, name) for name, src in corpus) >= len(corpus)
