"""Possibly-uninitialized variables as per-edge representation relations.

The fact domain is every declared variable, alpha-renamed so locals of
different functions never collide.  Declarations act like JS var
hoisting: a function's locals become possibly-uninitialized on the edge
leaving its start node, a declaration with an initializer behaves like
an assignment, and one without is the identity.  Reads inside conditions, prints and call arguments
do not transform facts; they are reporting sites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ifds import FactDomain, IfdsResult, RepRelation, ZERO, identity_rel
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

    Every relation it builds is canonical by construction: the only pairs
    from 0 are (0, 0) and generated facts, and no other fact flows into a
    generated one.
    """

    def __init__(self, program: Program, graph: Supergraph):
        self.program = program
        self.graph = graph
        self.scopes = program.scopes
        self.domain = FactDomain(self.scopes.all_facts())
        self._globals = frozenset(
            self.domain.index_of(n) for n in self.scopes.globals)
        # shared by every edge they label, so the exploded supergraph
        # builds one successor table for each; gen and assign relations
        # are copies of the identity with a few pairs swapped
        self._identity = identity_rel(self.domain)
        self._globals_only = frozenset(
            {(ZERO, ZERO), *((d, d) for d in self._globals)})

    # -- helpers --

    def _idx(self, func: str, name: str) -> int:
        return self.domain.index_of(self.scopes.qualify(func, name))

    def _assign_rel(self, func: str, target: str, value_expr) -> RepRelation:
        t = self._idx(func, target)
        return self._identity.difference(((t, t),)).union(
            (self._idx(func, v), t) for v in expr_vars(value_expr))

    def _gen_rel(self, gens: frozenset[int]) -> RepRelation:
        return self._identity.difference((d, d) for d in gens).union(
            (ZERO, d) for d in gens)

    def _locals_of(self, func: str) -> frozenset[int]:
        sc = self.scopes
        names = sc.params_by_func.get(func, ()) + sc.locals_by_func.get(func, ())
        return frozenset(self.domain.index_of(n) for n in names)

    # -- the per-edge flow function --

    def flow_for(self, edge) -> RepRelation:
        g = self.graph
        kind = edge.kind
        if kind is EdgeKind.CALL:
            return self._call_rel(edge)
        if kind is EdgeKind.RETURN:
            return self._globals_only
        if kind is EdgeKind.CALL_TO_RETURN:
            caller_locals = self._locals_of(g.proc_of(edge.src))
            non_global = caller_locals - self._globals
            return frozenset({(ZERO, ZERO), *((d, d) for d in non_global)})
        src = g.nodes[edge.src]
        if src.kind is NodeKind.START:
            # hoisting: every non-param local of the function starts
            # possibly-uninitialized
            sc = self.scopes
            locs = frozenset(self.domain.index_of(n)
                             for n in sc.locals_by_func.get(src.func, ()))
            return self._gen_rel(locs)
        if src.kind is not NodeKind.STMT:
            return self._identity
        stmt = self.program.stmt(src.sid)
        if isinstance(stmt, VarDecl) and stmt.init is not None:
            return self._assign_rel(src.func, stmt.name, stmt.init)
        if isinstance(stmt, Assign):
            return self._assign_rel(src.func, stmt.name, stmt.value)
        return self._identity

    def _call_rel(self, edge) -> RepRelation:
        # globals cross into the callee; parameters are bound from the
        # variables read by their actuals.  A call that binds no
        # parameter (an emit, a dispatch, the end of top-level, a call
        # whose actuals read no variable) shares the globals-only
        # relation, and with it one successor table.
        stmt = None if edge.sid is None else self.program.stmt(edge.sid)
        if not isinstance(stmt, Call) or stmt.sid in self.program.events:
            return self._globals_only
        callee = self.program.function(stmt.callee)
        caller = self.graph.proc_of(edge.src)
        bound = {(self._idx(caller, v), self._idx(callee.name, param))
                 for param, actual in zip(callee.params, stmt.args)
                 for v in expr_vars(actual)}
        return self._globals_only.union(bound) if bound else self._globals_only

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
