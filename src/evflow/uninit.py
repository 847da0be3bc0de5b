"""Possibly-uninitialized variables as per-edge identity patches.

The fact domain is every declared variable, alpha-renamed so locals of
different functions never collide.  Each edge's flow function is a
`Patch` of the identity: the facts it kills and the pairs it adds.
Declarations act like JS var hoisting: a function's locals become
possibly-uninitialized on the edge leaving its start node, a
declaration with an initializer behaves like an assignment, and one
without is the identity.  Reads inside conditions, prints and call
arguments do not transform facts; they are reporting sites.  Every
name a flow function or a read site needs comes resolved from the
parser's per-statement record (`Program.access`); this module resolves
none itself.
"""

from __future__ import annotations

from .ifds import IDENTITY, FactDomain, IfdsResult, Patch, ZERO
from .lang.ast import Program, Scopes, TOP_LEVEL
from .record import record
from .supergraph import EdgeKind, NodeKind, Supergraph


class UninitProblem:
    """Flow-function factory for one program over one supergraph.

    Every patch it builds is normalized, and the relation it stands for
    is canonical: the only pairs from 0 are (0, 0) and generated facts,
    and no other fact flows into a generated one.
    """

    def __init__(self, program: Program, graph: Supergraph):
        self.program = program
        self.graph = graph
        self.scopes = program.scopes
        self.domain = FactDomain(self.scopes.all_facts())
        globals_ = frozenset(
            self.domain.index_of(n) for n in self.scopes.globals)
        self._non_globals = tuple(d for d in self.domain.indices()
                                  if d not in globals_)
        self._bypass: dict[str, Patch] = {}  # caller -> call-to-return patch

    # -- the per-edge flow function --

    def flow_for(self, edge) -> Patch:
        g = self.graph
        kind = edge.kind
        if kind is EdgeKind.CALL:
            return self._call(edge)
        if kind is EdgeKind.RETURN:
            return Patch(self._non_globals, ())
        if kind is EdgeKind.CALL_TO_RETURN:
            caller = g.proc_of(edge.src)
            if caller not in self._bypass:
                # only the caller's own names skip the callee; they are
                # never globals, and top-level, whose locals are the
                # globals, owns none
                own = () if caller == TOP_LEVEL else {
                    self.domain.index_of(n) for n in
                    self.scopes.params_by_func[caller] +
                    self.scopes.locals_by_func[caller]}
                self._bypass[caller] = Patch(
                    tuple(d for d in self.domain.indices() if d not in own),
                    ())
            return self._bypass[caller]
        src = g.nodes[edge.src]
        if src.kind is NodeKind.START:
            # hoisting: every non-param local of the function starts
            # possibly-uninitialized
            locs = sorted(self.domain.index_of(n) for n in
                          self.scopes.locals_by_func.get(src.func, ()))
            return Patch(tuple(locs), tuple((ZERO, d) for d in locs))
        if src.kind is not NodeKind.STMT:
            return IDENTITY
        writes, reads = self.program.access(src.sid)
        if writes is None:
            return IDENTITY
        # an assignment or a declaration with an initializer; `x = x + 1`
        # keeps x: its (x, x) pair is neither dropped nor added
        index_of = self.domain.index_of
        t = index_of(writes)
        sources = {index_of(v) for v in reads[0]}
        return Patch(() if t in sources else (t,),
                     tuple(sorted((v, t) for v in sources if v != t)))

    def _call(self, edge) -> Patch:
        # globals cross into the callee; parameters are bound from the
        # variables read by their actuals.  A recursive call that binds a
        # parameter to itself keeps it.  Event calls and dispatches bind
        # nothing.
        sid = self.graph.nodes[edge.src].sid
        if sid is None or sid in self.program.events:
            return Patch(self._non_globals, ())
        index_of = self.domain.index_of
        params = self.scopes.params_by_func[self.program.stmt(sid).callee]
        bound = {(index_of(v), index_of(param))
                 for param, actual in zip(params,
                                          self.program.access(sid).reads)
                 for v in actual}
        kept = {d1 for d1, d2 in bound if d1 == d2}
        return Patch(tuple(d for d in self._non_globals if d not in kept),
                     tuple(sorted(p for p in bound if p[0] != p[1])))

    # -- reporting --

    def reads_at(self, node_id: str) -> tuple[int, ...]:
        node = self.graph.nodes[node_id]
        if node.kind not in (NodeKind.STMT, NodeKind.CALL_SITE):
            return ()
        index_of = self.domain.index_of
        return tuple(dict.fromkeys(
            index_of(v) for operand in self.program.access(node.sid).reads
            for v in operand))


@record(frozen=True)
class Diagnostic:
    node: str
    var: str        # display name
    qualified: str
    line: int
    file: str


def report_uses(problem: UninitProblem, result: IfdsResult
                ) -> list[Diagnostic]:
    """One diagnostic per (read site, variable) whose fact holds at the
    reading node in `result`, which is asked at read sites only."""
    out: list[Diagnostic] = []
    graph = problem.graph
    for node_id in sorted(graph.nodes):
        for fact in problem.reads_at(node_id):
            if result.holds(node_id, fact):
                stmt = problem.program.stmt(graph.nodes[node_id].sid)
                qualified = problem.domain.name_of(fact)
                out.append(Diagnostic(node_id, Scopes.display(qualified),
                                      qualified, stmt.line, stmt.file))
    out.sort(key=lambda d: (d.file, d.line, d.var, d.node))
    return out
