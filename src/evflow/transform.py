"""Assign event micro-function labels to an exploded supergraph and
project solved environments back to plain fact sets.

The labeling never touches graph structure: registration, emission,
callback-style registration and dispatch edges get the matching
per-handler chain function; every other edge keeps the identity.  The
projection drops any fact whose handler-state map sends some handler to
the infeasible state; that map stays in the solve's environments, where
a report reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .event_lattice import (
    HState,
    HandlerMicroFn,
    MF_EMIT,
    MF_EMIT_REGISTER,
    MF_INVOKE,
    MF_REGISTER,
)
from .ide import IdeResult, LabeledExplodedSupergraph, solve_ide, solve_ifds
from .ifds import ExplodedSupergraph, IfdsResult, ZERO, explode
from .lang.ast import Program
from .supergraph import BuildResult, EventOp, build_supergraph
from .uninit import UninitProblem

_OP_TO_MF = {
    "register": MF_REGISTER,
    "emit": MF_EMIT,
    "invoke": MF_INVOKE,
    "emit_register": MF_EMIT_REGISTER,
}


def transform(xsg: ExplodedSupergraph, ops: dict[int, tuple[EventOp, ...]],
              handlers: tuple[str, ...]) -> LabeledExplodedSupergraph:
    """Label every exploded edge with the event micro-function of its
    underlying supergraph edge; identity where nothing happens.  No edge
    carries two operations for one handler."""
    labels = {edge.eid: HandlerMicroFn({op.handler: _OP_TO_MF[op.kind]
                                        for op in ops.get(edge.eid, ())})
              for edge in xsg.graph.edges}
    return LabeledExplodedSupergraph(xsg, labels, handlers)


def untransform(result: IdeResult) -> IfdsResult:
    """Keep a fact at a node only if its map sends no handler to X."""
    facts: dict[str, frozenset[int]] = {}
    # the readout shares one map between many (node, fact) pairs, and
    # `result` keeps every map alive, so each is tested once by its id
    infeasible: dict[int, bool] = {}
    for node, env in result.envs.items():
        kept = set()
        for d, hsm in env.items():
            if d == ZERO:
                continue
            bad = infeasible.get(id(hsm))
            if bad is None:
                bad = infeasible[id(hsm)] = HState.X in hsm.values()
            if not bad:
                kept.add(d)
        if kept:
            facts[node] = frozenset(kept)
    return IfdsResult(facts, frozenset(result.envs))


@dataclass
class EventAwareAnalysis:
    """Both solutions of one problem instance, for diffing.  The
    handler-state map of a fact the filter dropped is
    `ide.envs[node][fact]`."""

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
    ifds_result = solve_ifds(xsg, ide_result)
    filtered = untransform(ide_result)
    return EventAwareAnalysis(program, build, problem, xsg, labeled,
                              ifds_result, ide_result, filtered)
