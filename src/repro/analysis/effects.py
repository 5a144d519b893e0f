"""Interprocedural side-effect analysis (paper section IV-C).

Computes, for every function, how it accesses (a) data reachable
through its pointer parameters and (b) global variables — then lets
callers substitute those summaries at each call site ("the model is
augmented at each call site of the function with maximally pessimistic
assumptions about the memory accesses of the callee").

The fixpoint iterates at most ``max call depth`` passes and stops early
when a pass changes nothing, exactly as described in the paper.

Functions without a definition in the translation unit get conservative
summaries from their prototypes: pointer-to-const parameters are
read-only, all other pointer parameters and all globals are UNKNOWN.
Known libc/libm builtins get precise summaries (``memset`` writes,
``sqrt`` touches nothing, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..frontend import ast_nodes as A
from ..frontend.parser import BUILTIN_FUNCTION_NAMES
from .access import Access, AccessKind, collect_accesses

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fused import FusedPrep

#: Builtins with precise parameter effects: name -> per-arg-index kind.
#: Absent indices mean "no effect on pointed-to data".
_BUILTIN_PARAM_EFFECTS: dict[str, dict[int, AccessKind]] = {
    "printf": {},  # format/value reads are handled as scalar reads
    "fprintf": {},
    "puts": {},
    "memset": {0: AccessKind.WRITE},
    "memcpy": {0: AccessKind.WRITE, 1: AccessKind.READ},
    "free": {},
    "sprintf": {0: AccessKind.WRITE},
}


@dataclass
class FunctionSummary:
    """Side effects of one function, independent of call context."""

    name: str
    #: parameter index -> effect on the data the pointer points to.
    param_effects: dict[int, AccessKind] = field(default_factory=dict)
    #: global variable name -> effect.
    global_effects: dict[str, AccessKind] = field(default_factory=dict)
    #: True when the summary came from a prototype, not a definition.
    conservative: bool = False

    def join_param(self, index: int, kind: AccessKind) -> bool:
        old = self.param_effects.get(index, AccessKind.NONE)
        new = old.join(kind)
        self.param_effects[index] = new
        return new is not old

    def join_global(self, name: str, kind: AccessKind) -> bool:
        old = self.global_effects.get(name, AccessKind.NONE)
        new = old.join(kind)
        self.global_effects[name] = new
        return new is not old


class InterproceduralAnalysis:
    """Whole-TU side-effect summaries with call-site resolution.

    The definition table, per-function statement lists and call lists
    come from the fused single-walk scan — ``prepared`` when the
    pipeline's constraints pass already ran it, else
    :func:`repro.analysis.fused.fused_scan` here.  Per-statement raw
    facts (collected accesses, owned calls) are memoized across
    fixpoint passes, and fully-resolved access lists are memoized once
    the fixpoint converges — the planner re-resolves the same
    statements many times.  None of the scan or memo state is pickled.
    """

    def __init__(
        self, tu: A.TranslationUnit, prepared: "FusedPrep | None" = None
    ):
        self.tu = tu
        self.summaries: dict[str, FunctionSummary] = {}
        self.global_names: set[str] = {v.name for v in tu.global_vars()}
        if prepared is None:
            from .fused import fused_scan

            prepared = fused_scan(tu)
        self._definitions = dict(prepared.definitions)
        self.passes_run = 0
        self._prepared = prepared
        self._stmt_accesses: dict[int, list[Access]] = {}
        self._stmt_calls: dict[int, list[A.CallExpr]] = {}
        self._resolved_memo: dict[int, list[Access]] = {}
        self._frozen = False
        self._run()
        self._frozen = True

    def __getstate__(self):
        # The converged facts only: the fused prep and the memo tables
        # are rebuilt (or unneeded) after a spill round trip.
        return {
            "tu": self.tu,
            "summaries": self.summaries,
            "global_names": self.global_names,
            "_definitions": self._definitions,
            "passes_run": self.passes_run,
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._prepared = None
        self._stmt_accesses = {}
        self._stmt_calls = {}
        self._resolved_memo = {}
        self._frozen = True  # unpickled analyses have converged

    # -- fixpoint ----------------------------------------------------------

    def _run(self) -> None:
        for fn in self._definitions.values():
            self.summaries[fn.name] = FunctionSummary(fn.name)
        max_depth = max(1, self._max_call_depth())
        for _ in range(max_depth):
            self.passes_run += 1
            changed = False
            for fn in self._definitions.values():
                changed |= self._update_summary(fn)
            if not changed:
                break

    def _max_call_depth(self) -> int:
        """Longest acyclic chain in the call graph, bounding the fixpoint."""
        graph: dict[str, set[str]] = {name: set() for name in self._definitions}
        for name in self._definitions:
            for call in self._prepared.calls.get(name, []):
                callee = call.callee_name
                if callee in self._definitions:
                    graph[name].add(callee)
        depth_memo: dict[str, int] = {}
        visiting: set[str] = set()

        def depth(name: str) -> int:
            if name in depth_memo:
                return depth_memo[name]
            if name in visiting:  # recursion cycle: bounded by #functions
                return len(self._definitions)
            visiting.add(name)
            d = 1 + max((depth(c) for c in graph[name]), default=0)
            visiting.discard(name)
            depth_memo[name] = d
            return d

        return max((depth(n) for n in graph), default=1)

    def _update_summary(self, fn: A.FunctionDecl) -> bool:
        summary = self.summaries[fn.name]
        param_decls = {p.name: p for p in fn.params}
        changed = False
        for stmt in self._statements(fn):
            # Resolved accesses include callee effects (param writes
            # mapped back onto arguments, plus callee global effects),
            # which is what makes the summaries transitive.
            for acc in self.resolve_node_accesses(stmt):
                changed |= self._apply_access(summary, param_decls, acc)
        return changed

    def _statements(self, fn: A.FunctionDecl) -> list[A.Stmt]:
        return self._prepared.statements.get(fn.name, [])

    def _raw_accesses(self, stmt: A.Stmt) -> list[Access]:
        """``collect_accesses(stmt)``, memoized — it is pure per stmt."""
        memo = self._stmt_accesses
        cached = memo.get(stmt.node_id)
        if cached is None:
            cached = memo[stmt.node_id] = collect_accesses(stmt)
        return cached

    def _owned_calls(self, stmt: A.Stmt) -> list[A.CallExpr]:
        """CallExprs evaluated by this CFG node itself, memoized."""
        memo = self._stmt_calls
        cached = memo.get(stmt.node_id)
        if cached is None:
            cached = []
            for expr in owned_exprs(stmt):
                cached.extend(expr.walk_instances(A.CallExpr))
            memo[stmt.node_id] = cached
        return cached

    def _apply_access(
        self,
        summary: FunctionSummary,
        param_decls: dict[str, A.ParmVarDecl],
        acc: Access,
    ) -> bool:
        # Accesses arrive pre-resolved (call placeholders sharpened and
        # callee global effects appended) — use the kind as-is.
        kind = acc.kind
        if kind is AccessKind.NONE:
            return False
        if acc.name in param_decls:
            param = param_decls[acc.name]
            if param.qual_type.is_pointer:
                # Only dereferencing accesses (subscript / via callee)
                # touch the pointed-to data.  Reading the pointer value
                # itself is not a side effect visible to the caller.
                if acc.subscript is not None or acc.via_call is not None:
                    return summary.join_param(param.index, kind)
                if kind.writes or kind is AccessKind.UNKNOWN:
                    return summary.join_param(param.index, kind)
            return False
        if acc.name in self.global_names:
            return summary.join_global(acc.name, kind)
        return False

    # -- call-site resolution ------------------------------------------------

    def summary_for(self, name: str) -> FunctionSummary:
        """Summary for ``name``, synthesizing a conservative one if needed."""
        if name in self.summaries:
            return self.summaries[name]
        summary = FunctionSummary(name, conservative=True)
        if name in _BUILTIN_PARAM_EFFECTS:
            summary.param_effects = dict(_BUILTIN_PARAM_EFFECTS[name])
            self.summaries[name] = summary
            return summary
        if name in BUILTIN_FUNCTION_NAMES:
            # Pure math / allocation builtins: no pointed-to effects.
            self.summaries[name] = summary
            return summary
        proto = self.tu.lookup_function(name)
        if proto is not None:
            for p in proto.params:
                if p.qual_type.is_pointer:
                    kind = (
                        AccessKind.READ
                        if p.qual_type.points_to_const()
                        else AccessKind.UNKNOWN
                    )
                    summary.param_effects[p.index] = kind
        else:
            # Completely unknown external function: worst case on globals.
            for g in self.global_names:
                summary.global_effects[g] = AccessKind.UNKNOWN
        self.summaries[name] = summary
        return summary

    def _callee_effect(self, acc: Access) -> AccessKind:
        """Sharpen an UNKNOWN call-argument access using the callee summary."""
        call = acc.via_call
        assert call is not None
        name = call.callee_name
        if name is None:
            return AccessKind.UNKNOWN
        summary = self.summary_for(name)
        for index, arg in enumerate(call.args):
            if self._arg_names_var(arg, acc.name):
                kind = summary.param_effects.get(index, AccessKind.NONE)
                if acc.kind is AccessKind.READ:
                    # pointer-to-const argument: cannot exceed READ
                    return AccessKind.READ if kind is not AccessKind.NONE else AccessKind.NONE
                return kind
        return AccessKind.NONE

    @staticmethod
    def _arg_names_var(arg: A.Expr, name: str) -> bool:
        node: A.Expr = arg
        while True:
            if isinstance(node, A.ParenExpr):
                node = node.inner
            elif isinstance(node, A.CStyleCastExpr):
                node = node.operand
            elif isinstance(node, A.UnaryOperator) and node.op in ("&", "*"):
                node = node.operand
            elif isinstance(node, (A.ArraySubscriptExpr, A.MemberExpr)):
                node = node.base
            elif isinstance(node, A.DeclRefExpr):
                return node.name == name
            else:
                return False

    def resolve_node_accesses(self, stmt: A.Stmt) -> list[Access]:
        """Accesses of ``stmt`` with call placeholders sharpened.

        This is the "augment each call site with callee effects" step:
        the returned list contains the direct accesses plus the resolved
        effects of every call in the statement (including effects on
        globals the caller never names).
        """
        if self._frozen:
            memo = self._resolved_memo.get(stmt.node_id)
            if memo is not None:
                return list(memo)
        out: list[Access] = []
        seen_calls: set[int] = set()
        for acc in self._raw_accesses(stmt):
            if acc.via_call is not None:
                kind = self._callee_effect(acc)
                if kind is not AccessKind.NONE:
                    out.append(
                        Access(acc.name, acc.decl, kind, acc.ref, acc.subscript, acc.via_call)
                    )
            else:
                out.append(acc)
        for call in self._owned_calls(stmt):
            if call.node_id in seen_calls:
                continue
            seen_calls.add(call.node_id)
            name = call.callee_name
            if name is None:
                continue
            summary = self.summary_for(name)
            for gname, kind in summary.global_effects.items():
                if kind is not AccessKind.NONE:
                    out.append(Access(gname, None, kind, None, None, via_call=call))
        if self._frozen:
            # Summaries only grow monotonically after convergence (lazy
            # conservative synthesis), so a post-fixpoint resolution is
            # stable and safe to memoize.
            self._resolved_memo[stmt.node_id] = out
            return list(out)
        return out


def owned_exprs(stmt: A.Stmt) -> list[A.Expr]:
    """The expressions evaluated *by this CFG node itself*.

    Bodies of compound statements live in their own CFG nodes, so only
    the header expressions belong to a PRED node, only the initializers
    to a DECL node, and so on.
    """
    if isinstance(stmt, A.ExprStmt):
        return [stmt.expr]
    if isinstance(stmt, A.DeclStmt):
        return [d.init for d in stmt.decls if isinstance(d, A.VarDecl) and d.init]
    if isinstance(stmt, A.ReturnStmt):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, (A.IfStmt, A.WhileStmt, A.DoStmt, A.SwitchStmt)):
        return [stmt.cond]
    if isinstance(stmt, A.ForStmt):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, A.CaseStmt) and stmt.value is not None:
        return [stmt.value]
    return []
