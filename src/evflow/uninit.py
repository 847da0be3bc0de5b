"""Possibly-uninitialized variables as per-edge identity patches.

The fact domain is every declared variable, alpha-renamed so locals of
different functions never collide.  Each edge's flow function is a
`Patch` of the identity: the facts it kills and the pairs it adds.
Declarations act like JS var hoisting: a function's locals become
possibly-uninitialized on the edge leaving its start node, a
declaration with an initializer behaves like an assignment, and one
without is the identity.  Reads inside conditions, prints and call
arguments do not transform facts; they are reporting sites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ifds import IDENTITY, FactDomain, IfdsResult, Patch, ZERO
from .lang.ast import (
    Assign,
    Call,
    Program,
    Scopes,
    VarDecl,
    expr_vars,
)
from .lang.parser import stmt_reads
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
        self._globals = frozenset(
            self.domain.index_of(n) for n in self.scopes.globals)
        self._non_globals = tuple(d for d in self.domain.indices()
                                  if d not in self._globals)

    # -- helpers --

    def _idx(self, func: str, name: str) -> int:
        return self.domain.index_of(self.scopes.qualify(func, name))

    def _assign(self, func: str, target: str, value_expr) -> Patch:
        # `x = x + 1` keeps x: its (x, x) pair is neither dropped nor added
        t = self._idx(func, target)
        reads = {self._idx(func, v) for v in expr_vars(value_expr)}
        return Patch(() if t in reads else (t,),
                     tuple(sorted((v, t) for v in reads if v != t)))

    def _locals_of(self, func: str) -> frozenset[int]:
        sc = self.scopes
        names = sc.params_by_func.get(func, ()) + sc.locals_by_func.get(func, ())
        return frozenset(self.domain.index_of(n) for n in names)

    # -- the per-edge flow function --

    def flow_for(self, edge) -> Patch:
        g = self.graph
        kind = edge.kind
        if kind is EdgeKind.CALL:
            return self._call(edge)
        if kind is EdgeKind.RETURN:
            return Patch(self._non_globals, ())
        if kind is EdgeKind.CALL_TO_RETURN:
            caller_locals = self._locals_of(g.proc_of(edge.src))
            return Patch(tuple(d for d in self.domain.indices()
                               if d in self._globals or d not in caller_locals),
                         ())
        src = g.nodes[edge.src]
        if src.kind is NodeKind.START:
            # hoisting: every non-param local of the function starts
            # possibly-uninitialized
            locs = sorted(self.domain.index_of(n) for n in
                          self.scopes.locals_by_func.get(src.func, ()))
            return Patch(tuple(locs), tuple((ZERO, d) for d in locs))
        if src.kind is not NodeKind.STMT:
            return IDENTITY
        stmt = self.program.stmt(src.sid)
        if isinstance(stmt, VarDecl) and stmt.init is not None:
            return self._assign(src.func, stmt.name, stmt.init)
        if isinstance(stmt, Assign):
            return self._assign(src.func, stmt.name, stmt.value)
        return IDENTITY

    def _call(self, edge) -> Patch:
        # globals cross into the callee; parameters are bound from the
        # variables read by their actuals.  A recursive call that binds a
        # parameter to itself keeps it.
        stmt = None if edge.sid is None else self.program.stmt(edge.sid)
        if not isinstance(stmt, Call) or stmt.sid in self.program.events:
            return Patch(self._non_globals, ())
        callee = self.program.function(stmt.callee)
        caller = self.graph.proc_of(edge.src)
        bound = {(self._idx(caller, v), self._idx(callee.name, param))
                 for param, actual in zip(callee.params, stmt.args)
                 for v in expr_vars(actual)}
        kept = {d1 for d1, d2 in bound if d1 == d2}
        return Patch(tuple(d for d in self._non_globals if d not in kept),
                     tuple(sorted(p for p in bound if p[0] != p[1])))

    # -- reporting --

    def reads_at(self, node_id: str) -> tuple[int, ...]:
        node = self.graph.nodes[node_id]
        if node.sid is None:
            return ()
        if node.kind not in (NodeKind.STMT, NodeKind.CALL_SITE):
            return ()
        names = stmt_reads(self.program.stmt(node.sid), self.program)
        seen: list[int] = []
        for name in names:
            i = self._idx(node.func, name)
            if i not in seen:
                seen.append(i)
        return tuple(seen)


@dataclass(frozen=True)
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
                node = graph.nodes[node_id]
                qualified = problem.domain.name_of(fact)
                out.append(Diagnostic(node_id, Scopes.display(qualified),
                                      qualified, node.line or 0,
                                      problem.program.stmt(node.sid).file))
    out.sort(key=lambda d: (d.file, d.line, d.var, d.node))
    return out
