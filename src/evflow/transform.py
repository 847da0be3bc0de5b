"""Assign event micro-function labels to an exploded supergraph and
project the solution back to plain fact sets.

The labeling never touches graph structure: registration, emission,
callback-style registration and dispatch edges get the matching
per-handler chain function, and only they carry a label; every other
edge carries the identity.  The projection drops any fact whose
transformer sends some handler from S to the infeasible state
(`event_lattice.feasible`); a report asks the solve for that fact's
handler-state map (`IdeResult.map_at`).
"""

from __future__ import annotations


from .event_lattice import (
    MF_EMIT,
    MF_EMIT_REGISTER,
    MF_INVOKE,
    MF_REGISTER,
    Transformer,
)
from .ide import IdeResult, LabeledExplodedSupergraph, solve_ide, solve_ifds
from .ifds import ExplodedSupergraph, IfdsResult, explode
from .lang.ast import Program
from .record import record
from .supergraph import BuildResult, EventOp, build_supergraph
from .uninit import UninitProblem

# event operation -> its chain function
_OP_TO_FN = {
    "register": MF_REGISTER,
    "emit": MF_EMIT,
    "invoke": MF_INVOKE,
    "emit_register": MF_EMIT_REGISTER,
}


def transform(xsg: ExplodedSupergraph, ops: dict[int, tuple[EventOp, ...]],
              handlers: tuple[str, ...]) -> LabeledExplodedSupergraph:
    """Label each event edge, in edge order, with the transformer of its
    operations; an edge without a label carries the identity.  No edge
    carries two operations for one handler."""
    return LabeledExplodedSupergraph(xsg, {
        edge.eid: Transformer.of(handlers, {
            op.handler: _OP_TO_FN[op.kind] for op in ops[edge.eid]})
        for edge in xsg.graph.edges if edge.eid in ops}, handlers)


def untransform(result: IdeResult) -> IfdsResult:
    """Keep a fact at a node only if its transformer is feasible; the
    kept facts are a view of `result`, asked per (node, fact)."""
    return IfdsResult(result, filtered=True)


@record
class EventAwareAnalysis:
    """Both solutions of one problem instance, for diffing.  The
    handler-state map of a fact the filter dropped is
    `ide.map_at(node, fact)`."""

    program: Program
    build: BuildResult
    problem: UninitProblem
    xsg: ExplodedSupergraph
    labeled: LabeledExplodedSupergraph
    ifds: IfdsResult
    ide: IdeResult
    filtered: IfdsResult

    @property
    def domain(self):
        return self.problem.domain

    @property
    def handlers(self) -> tuple[str, ...]:
        return self.build.handlers


def analyze_event_aware(program: Program,
                        check_descent: bool = False) -> EventAwareAnalysis:
    """Run the event-aware analysis over one program and read the plain
    result off the same solve."""
    build = build_supergraph(program)
    problem = UninitProblem(program, build.graph)
    xsg = explode(build.graph, problem.domain, problem.flow_for)
    labeled = transform(xsg, build.ops, build.handlers)
    ide_result = solve_ide(labeled, check_descent=check_descent)
    ifds_result = solve_ifds(ide_result)
    filtered = untransform(ide_result)
    return EventAwareAnalysis(program, build, problem, xsg, labeled,
                              ifds_result, ide_result, filtered)
