"""Forward validity dataflow over the AST-CFG (paper section IV-D).

"We define data to be valid in a memory space if the data was last
written to in said memory space and invalid or stale if the data was
last written to in any other memory space.  While traversing the CFG,
we track whether a memory space has a valid, up-to-date copy of each
variable at each node."

Lattice: per variable, two booleans (valid-on-host, valid-on-device);
TOP is (True, True), meet is conjunction — a copy is valid at a join
only if it is valid on every incoming path.  A read that observes a
stale copy is a true RAW dependency across memory spaces (anti and
output dependencies need no communication) and records a
:class:`TransferNeed`; the analysis then *assumes the transfer
happens*, so downstream state reflects the mapping the tool will insert.

The fixpoint runs as gen/kill bit-vector dataflow: tracked variables
are numbered, a state is a ``(host_mask, dev_mask)`` pair and meet is
``&``.  Any access leaves its own space valid (reads through the
assumed transfer) and any write leaves the other space stale, so a
host node maps ``(h, d)`` to ``(h | touched, d & ~written)`` and a
device node is the mirror image.  Loop back edges are ordinary edges,
which realizes the paper's loop rule: if data must be valid at the top
of a loop body, it must still be valid when the back edge is taken,
otherwise the meet exposes a loop-carried dependency.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..cfg.astcfg import ASTCFG
from ..cfg.graph import CFGNode, EdgeLabel, NodeKind
from ..frontend import ast_nodes as A
from .access import Access, AccessKind
from .effects import InterproceduralAnalysis


class Space(enum.Enum):
    HOST = "host"
    DEVICE = "device"


class Direction(enum.Enum):
    """Transfer direction, named like the profiler counters."""

    HTOD = "HtoD"
    DTOH = "DtoH"

    @property
    def source(self) -> Space:
        return Space.HOST if self is Direction.HTOD else Space.DEVICE

    @property
    def dest(self) -> Space:
        return Space.DEVICE if self is Direction.HTOD else Space.HOST


@dataclass(frozen=True, eq=False)
class VarState:
    """Validity of one variable's copies, decoded from the bit masks.

    There are only four possible states; :class:`ValidityResult` hands
    back the module-level instances (:data:`_INTERNED`).  Equality is
    structural with an identity fast path, so externally-constructed
    instances still compare by value.
    """

    valid_host: bool = True
    valid_dev: bool = False

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, VarState):
            return NotImplemented
        return (
            self.valid_host == other.valid_host
            and self.valid_dev == other.valid_dev
        )

    def __hash__(self) -> int:
        return hash((self.valid_host, self.valid_dev))

    def meet(self, other: "VarState") -> "VarState":
        return _INTERNED[
            self.valid_host and other.valid_host,
            self.valid_dev and other.valid_dev,
        ]

    def valid_in(self, space: Space) -> bool:
        return self.valid_host if space is Space.HOST else self.valid_dev

    def after_write(self, space: Space) -> "VarState":
        """A write makes its space the only valid one."""
        return ENTRY if space is Space.HOST else _DEVICE_ONLY


#: TOP of the lattice: both copies valid (used for unvisited preds).
TOP = VarState(True, True)
#: Boundary state at function entry: host data valid, device empty.
ENTRY = VarState(True, False)
#: Device copy valid, host stale (state after a device write).
_DEVICE_ONLY = VarState(False, True)
#: Neither copy valid (bottom; reachable only through meets).
_NEITHER = VarState(False, False)
_INTERNED: dict[tuple[bool, bool], VarState] = {
    (True, True): TOP,
    (True, False): ENTRY,
    (False, True): _DEVICE_ONLY,
    (False, False): _NEITHER,
}


@dataclass(frozen=True)
class TransferNeed:
    """A true (RAW) dependency between memory spaces at one CFG node."""

    var: str
    direction: Direction
    node: CFGNode
    #: The triggering access, when a single expression caused it.
    access: Access | None = None
    #: The offload kernel the read occurs in (HtoD needs inside kernels).
    kernel: A.OMPExecutableDirective | None = None

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.var, self.direction.value, self.node.node_id)


@dataclass
class VarFacts:
    """Aggregate facts about one variable across the function."""

    name: str
    decl: A.Decl | None = None
    used_on_device: bool = False
    device_reads: bool = False
    device_writes: bool = False
    host_reads: bool = False
    host_writes: bool = False
    #: kernel directive id -> joined access kind inside that kernel.
    kernel_access: dict[int, AccessKind] = field(default_factory=dict)

    def note(self, space: Space, kind: AccessKind,
             kernel: A.OMPExecutableDirective | None) -> None:
        if space is Space.DEVICE:
            self.used_on_device = True
            self.device_reads |= kind.reads
            self.device_writes |= kind.writes
            if kernel is not None:
                old = self.kernel_access.get(kernel.node_id, AccessKind.NONE)
                self.kernel_access[kernel.node_id] = old.join(kind)
        else:
            self.host_reads |= kind.reads
            self.host_writes |= kind.writes


class _DecodedStates(Mapping):
    """``node -> {var: VarState}`` view, decoded from per-rank masks."""

    def __init__(self, rank: dict[CFGNode, int], host: list[int],
                 dev: list[int], bits: dict[str, int]):
        self._rank = rank
        self._host = host
        self._dev = dev
        self._bits = bits

    def __getitem__(self, node: CFGNode) -> dict[str, VarState]:
        r = self._rank[node]
        h, d = self._host[r], self._dev[r]
        return {
            var: _INTERNED[bool(h & bit), bool(d & bit)]
            for var, bit in self._bits.items()
        }

    def __iter__(self):
        return iter(self._rank)

    def __len__(self) -> int:
        return len(self._rank)


@dataclass
class ValidityResult:
    """Everything the planner needs from the dataflow."""

    needs: list[TransferNeed]
    facts: dict[str, VarFacts]
    #: Fixpoint state *entering* each node.
    state_in: Mapping[CFGNode, dict[str, VarState]]
    #: Fixpoint state *leaving* each node.
    state_out: Mapping[CFGNode, dict[str, VarState]]
    #: Per-node resolved accesses (cached for placement queries).
    node_accesses: dict[int, list[Access]]

    def state_at_exit(self, cfg_exit: CFGNode) -> dict[str, VarState]:
        return self.state_in.get(cfg_exit, {})


class ValidityAnalysis:
    """Bit-vector fixpoint over one function's AST-CFG."""

    def __init__(
        self,
        astcfg: ASTCFG,
        effects: InterproceduralAnalysis,
        tracked: set[str],
    ):
        self.astcfg = astcfg
        self.cfg = astcfg.cfg
        self.effects = effects
        self.tracked = tracked
        self._accesses: dict[int, list[Access]] = {}
        self._must_execute_heads = self._find_must_execute_heads()

    def _find_must_execute_heads(self) -> set[int]:
        """PRED nodes of loops with a statically known trip count >= 1.

        For such loops the exit (false) edge can only be taken after the
        body ran, so the state leaving the loop is the post-body state —
        not the meet with the never-entered pre-state.  This keeps
        device writes inside constant-trip kernels visible after the
        loop (the paper's Listing 2 reuse case) without giving up
        soundness for genuinely unknown bounds.
        """
        from .bounds import loop_bounds  # local import: avoid module cycle

        heads: set[int] = set()
        for node in self.cfg.nodes:
            if node.kind is not NodeKind.PRED or not isinstance(node.ast, A.ForStmt):
                continue
            bounds = loop_bounds(node.ast)
            if bounds is not None and bounds.trip_count is not None \
                    and bounds.trip_count >= 1:
                heads.add(node.node_id)
        return heads

    # -- access resolution (cached) ------------------------------------------

    def accesses_of(self, node: CFGNode) -> list[Access]:
        cached = self._accesses.get(node.node_id)
        if cached is not None:
            return cached
        if node.ast is None or not isinstance(node.ast, A.Stmt):
            result: list[Access] = []
        else:
            result = [
                a for a in self.effects.resolve_node_accesses(node.ast)
                if a.name in self.tracked
            ]
        self._accesses[node.node_id] = result
        return result

    def _write_is_guarded(self, node: CFGNode, acc: Access) -> bool:
        """Is this write control-dependent on a branch whose other arm
        does not also write the variable?

        A conditionally-executed write is a read-modify-write at
        whole-variable granularity: the untaken path keeps the incoming
        value, so the destination copy must be valid *before* the write
        (bfs's device-set flag is the canonical case).

        Walks the AST ancestry from the writing statement up to the
        enclosing kernel directive (device writes) or the function (host
        writes).  `if` statements whose other branch writes the same
        variable do not guard — both paths define it, which is how
        unconditional boundary-vs-interior kernels stay strong writes.
        """
        stmt = node.ast
        if stmt is None:
            return False
        current: A.Node = stmt
        for anc in stmt.ancestors():
            if isinstance(anc, A.FunctionDecl):
                break
            if A.is_offload_kernel(anc):
                break
            if isinstance(anc, A.IfStmt) and current is not anc.cond:
                other = (
                    anc.else_branch if current is anc.then_branch else anc.then_branch
                )
                if other is None or not _subtree_writes(other, acc.name):
                    return True
            if isinstance(anc, (A.SwitchStmt, A.CaseStmt, A.DefaultStmt)):
                return True
            if isinstance(anc, A.ConditionalOperator):
                return True
            if isinstance(anc, A.WhileStmt) and current is not anc.cond:
                return True  # while bodies may execute zero times
            if isinstance(anc, A.ForStmt) and current is anc.body:
                from .bounds import loop_bounds

                bounds = loop_bounds(anc)
                if bounds is None or bounds.trip_count is None or bounds.trip_count < 1:
                    return True
            current = anc
        # Conditional operators *inside* the same statement also guard.
        return _write_under_conditional(stmt, acc)

    # -- fixpoint -----------------------------------------------------------------

    def run(self) -> ValidityResult:
        cfg = self.cfg
        bits = {var: 1 << i for i, var in enumerate(sorted(self.tracked))}
        full = (1 << len(bits)) - 1

        # Dense ranks in reverse postorder; a node reached only through
        # a back edge (none in structured CFGs) joins at the end.
        order = cfg.topological_order()
        rank = {node: r for r, node in enumerate(order)}
        for node in order:
            for edge in node.successors:
                if edge.dst not in rank:
                    rank[edge.dst] = len(order)
                    order.append(edge.dst)
        n = len(order)
        heads = self._must_execute_heads

        # Per rank: device flag, gen/kill masks, predecessor slots and
        # successor ranks.  OUT slots ``r`` hold a node's OUT state and
        # ``n + r`` a must-execute head's exit-edge state; unvisited
        # slots stay TOP, the identity of the meet.
        device: list[bool] = []
        touched: list[int] = []
        written: list[int] = []
        preds: list[list[int]] = []
        back_preds: list[list[int] | None] = []
        succs: list[list[int]] = []
        for node in order:
            t = w = 0
            for acc in self.accesses_of(node):
                kind = acc.kind
                if kind.reads or kind.writes:
                    t |= bits[acc.name]
                    if kind.writes:
                        w |= bits[acc.name]
            device.append(node.offloaded)
            touched.append(t)
            written.append(w)
            preds.append([
                rank[e.src] + n if (
                    e.label is EdgeLabel.FALSE and not e.is_back_edge
                    and e.src.node_id in heads
                ) else rank[e.src]
                for e in node.predecessors if e.src in rank
            ])
            back_preds.append(
                [rank[e.src] for e in node.predecessors
                 if e.is_back_edge and e.src in rank]
                if node.node_id in heads else None
            )
            succs.append([rank[e.dst] for e in node.successors])

        in_h = [full] * n
        in_d = [full] * n
        out_h = [full] * (2 * n)
        out_d = [full] * (2 * n)
        entry = rank[cfg.entry]
        pending = [True] * n
        again = True
        while again:
            again = False
            for r in range(n):
                if not pending[r]:
                    continue
                pending[r] = False
                if r == entry:
                    h, d = full, 0
                else:
                    h = d = full
                    for p in preds[r]:
                        h &= out_h[p]
                        d &= out_d[p]
                in_h[r], in_d[r] = h, d
                t, w = touched[r], written[r]
                if device[r]:
                    h, d = h & ~w, d | t
                else:
                    h, d = h | t, d & ~w
                changed = out_h[r] != h or out_d[r] != d
                out_h[r], out_d[r] = h, d
                back = back_preds[r]
                if back is not None:
                    # The exit edge carries post-body state only: meet
                    # over back-edge predecessors, through the predicate.
                    h = d = full
                    for p in back:
                        h &= out_h[p]
                        d &= out_d[p]
                    if device[r]:
                        h, d = h & ~w, d | t
                    else:
                        h, d = h | t, d & ~w
                    if out_h[n + r] != h or out_d[n + r] != d:
                        out_h[n + r], out_d[n + r] = h, d
                        changed = True
                if changed:
                    for s in succs[r]:
                        pending[s] = True
                        if s <= r:
                            again = True

        # One sweep against the fixpoint: facts for every access, and a
        # need for the first access of each variable in a node when it
        # reads (or writes under a guard) a copy stale on entry.
        facts: dict[str, VarFacts] = {}
        needs: list[TransferNeed] = []
        for node in cfg.nodes:
            r = rank.get(node)
            if r is None:
                continue
            accesses = self._accesses[node.node_id]
            if not accesses:
                continue
            if device[r]:
                space, direction, valid = Space.DEVICE, Direction.HTOD, in_d[r]
            else:
                space, direction, valid = Space.HOST, Direction.DTOH, in_h[r]
            seen = 0
            for acc in accesses:
                var, kind = acc.name, acc.kind
                fact = facts.get(var)
                if fact is None:
                    fact = facts[var] = VarFacts(var, acc.decl)
                elif fact.decl is None:
                    fact.decl = acc.decl
                fact.note(space, kind, node.kernel)
                bit = bits[var]
                if seen & bit or not (kind.reads or kind.writes):
                    continue
                seen |= bit
                if not valid & bit and (
                    kind.reads or self._write_is_guarded(node, acc)
                ):
                    needs.append(
                        TransferNeed(var, direction, node, acc, node.kernel)
                    )

        needs.sort(
            key=lambda need: (
                need.node.ast.begin_offset if need.node.ast is not None else 0,
                need.var,
            )
        )
        return ValidityResult(
            needs,
            facts,
            _DecodedStates(rank, in_h, in_d, bits),
            _DecodedStates(rank, out_h, out_d, bits),
            dict(self._accesses),
        )


def _subtree_writes(root: A.Node, var: str) -> bool:
    """Quick syntactic check: does ``root`` assign to ``var``?"""
    for n in root.walk():
        if isinstance(n, A.BinaryOperator) and n.is_assignment:
            ref, _ = _lvalue_base(n.lhs)
            if ref is not None and ref.name == var:
                return True
        if isinstance(n, A.UnaryOperator) and n.op in ("++", "--"):
            ref, _ = _lvalue_base(n.operand)
            if ref is not None and ref.name == var:
                return True
    return False


def _lvalue_base(expr: A.Expr):
    from .access import _base_ref

    return _base_ref(expr)


def _write_under_conditional(stmt: A.Stmt, acc: Access) -> bool:
    """Is the write nested under a ConditionalOperator within its own
    statement (``x = c ? (y = 1) : 0`` style)?  Rare; checked for
    completeness."""
    if acc.ref is None:
        return False
    node: A.Node | None = acc.ref.parent
    while node is not None and node is not stmt:
        if isinstance(node, A.ConditionalOperator):
            return True
        node = node.parent
    return False


def variables_of_interest(
    astcfg: ASTCFG, effects: InterproceduralAnalysis
) -> set[str]:
    """Variables referenced inside any offloaded region of the function.

    "We trace the reads and writes to any variable referenced inside any
    offloaded region" — excluding variables declared *inside* the kernel
    (private by construction) and kernel-local loop indices.
    """
    declared_in_kernel: set[str] = set()
    referenced: set[str] = set()
    for node in astcfg.cfg.nodes:
        if not node.offloaded or node.ast is None:
            continue
        if isinstance(node.ast, A.DeclStmt):
            declared_in_kernel.update(d.name for d in node.ast.decls)
        if isinstance(node.ast, (A.ForStmt,)) and isinstance(node.ast.init, A.DeclStmt):
            declared_in_kernel.update(d.name for d in node.ast.init.decls)
        for acc in effects.resolve_node_accesses(node.ast) if isinstance(node.ast, A.Stmt) else []:
            referenced.add(acc.name)
    return referenced - declared_in_kernel
