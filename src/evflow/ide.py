"""Two-phase solver for labeled exploded supergraphs.

Phase 1 tabulates jump functions: for each reachable exploded node
<n, d2>, the per-handler transformer composed along same-procedure paths
from <start_p, d1>, met over merging paths.  Procedure summaries carry
callee transformers back to matching return sites.  Phase 2 pushes
lattice values from the entry environment through procedure starts and
call sites, then evaluates every jump function on the start values.

The value lattice is a map from handlers to chain states.  Labels only
decide which facts to filter, never which exploded nodes are reached, so
the plain IFDS result is a readout of any solve over the same exploded
supergraph; `solve_ifds` is the identity-labelled case.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from .event_lattice import (
    HMF_ID,
    HState,
    HandlerMicroFn,
    all_s,
    hmf_apply,
    hmf_compose,
    hmf_leq,
    hmf_meet,
    hsm_meet,
)
from .ifds import ExplodedSupergraph, IfdsResult, ZERO
from .supergraph import EdgeRole


class MissingAnnotationError(Exception):
    def __init__(self, eid: int):
        self.eid = eid
        super().__init__(f"edge {eid} has no annotation entry")


@dataclass
class LabeledExplodedSupergraph:
    """Exploded supergraph plus one micro-function label per edge.

    Labels are uniform across the exploded pairs of one supergraph edge,
    which is all the event instantiation ever produces.
    """

    xsg: ExplodedSupergraph
    labels: dict[int, HandlerMicroFn]
    handlers: tuple[str, ...]

    def __post_init__(self):
        missing = [e.eid for e in self.xsg.graph.edges
                   if e.eid not in self.labels]
        if missing:
            raise MissingAnnotationError(missing[0])

    def label_of(self, eid: int) -> HandlerMicroFn:
        return self.labels[eid]

    @classmethod
    def identity(cls, xsg: ExplodedSupergraph,
                 handlers: tuple[str, ...] = ()) -> "LabeledExplodedSupergraph":
        return cls(xsg, {e.eid: HMF_ID for e in xsg.graph.edges}, handlers)


@dataclass
class IdeResult:
    """Per node, the environment: fact -> handler-state map.

    The tautological fact's row is kept under index 0; environments exist
    exactly for the nodes phase 1 reached.
    """

    envs: dict[str, dict[int, dict[str, HState]]]
    handlers: tuple[str, ...]
    stats: dict = field(default_factory=dict)
    jump_table: dict[tuple[int, str, int], HandlerMicroFn] | None = None

    def env(self, node: str) -> dict[int, dict[str, HState]]:
        return self.envs.get(node, {})

    def value(self, node: str, fact: int) -> dict[str, HState] | None:
        return self.envs.get(node, {}).get(fact)

    def reachable_facts(self, node: str) -> frozenset[int]:
        return frozenset(d for d in self.envs.get(node, {}) if d != ZERO)

    def plain(self) -> IfdsResult:
        """The plain result: the reached nodes and their non-zero facts.

        Each jump function is one path edge (d1, n, d2) of the plain
        tabulation, which steps each path edge once.
        """
        facts = {n: frozenset(d for d in env if d != ZERO)
                 for n, env in self.envs.items()}
        path_edges = self.stats["jump_functions"]
        return IfdsResult({n: ds for n, ds in facts.items() if ds},
                          frozenset(self.envs),
                          {"worklist_steps": path_edges,
                           "path_edges": path_edges})


def solve_ide(lxsg: LabeledExplodedSupergraph, entry: str | None = None,
              init: dict[int, dict[str, HState]] | None = None,
              check_descent: bool = False,
              keep_jump_table: bool = False) -> IdeResult:
    """Meet-over-valid-paths values for every reachable exploded node.

    `init` maps entry facts to their starting handler-state maps; by
    default the tautological fact starts with every handler in S.
    """
    xsg = lxsg.xsg
    g = xsg.graph
    succ = xsg.succ
    label = lxsg.labels
    entry = entry or g.entry()
    if init is None:
        init = {ZERO: all_s(lxsg.handlers)}

    # --- phase 1: jump functions ---
    jump: dict[tuple[int, str, int], HandlerMicroFn] = {}
    work: deque[tuple[int, str, int]] = deque()
    incoming: dict[tuple[str, int], set] = defaultdict(set)
    # (callee start, entry fact) -> {exit fact: summary transformer}
    summaries: dict[tuple[str, int], dict[int, HandlerMicroFn]] = \
        defaultdict(dict)
    by_target: dict[tuple[str, int], set[int]] = defaultdict(set)
    steps = 0
    max_label_entries = 0

    def propagate(d1: int, n: str, d2: int, f: HandlerMicroFn) -> None:
        nonlocal max_label_entries
        key = (d1, n, d2)
        old = jump.get(key)
        new = f if old is None else hmf_meet(old, f)
        if old is not None and new == old:
            return
        if check_descent and old is not None and not hmf_leq(new, old):
            raise AssertionError("jump function must only descend")
        jump[key] = new
        max_label_entries = max(max_label_entries, len(new))
        by_target[(n, d2)].add(d1)
        work.append(key)

    def apply_return(end_node: str, ret_site: str, d_exit: int,
                     f_summary: HandlerMicroFn, caller_node: str,
                     d_call: int, call_label: HandlerMicroFn) -> None:
        ret_edge = g.edge_between(end_node, ret_site)
        ret_label = label[ret_edge.eid]
        through = hmf_compose(ret_label, hmf_compose(f_summary, call_label))
        for d5 in succ[ret_edge.eid].get(d_exit, ()):
            for d3 in tuple(by_target[(caller_node, d_call)]):
                f_caller = jump[(d3, caller_node, d_call)]
                propagate(d3, ret_site, d5, hmf_compose(through, f_caller))

    propagate(ZERO, entry, ZERO, HMF_ID)
    for d in init:
        propagate(d, entry, d, HMF_ID)
    while work:
        key = work.popleft()
        d1, n, d2 = key
        f = jump[key]
        steps += 1
        proc = g.proc_of(n)
        if g.is_exit(n):
            start = g.start_of(proc)
            old = summaries[(start, d1)].get(d2)
            merged = f if old is None else hmf_meet(old, f)
            if old is None or merged != old:
                summaries[(start, d1)][d2] = merged
                for caller_node, d_call, ret_site, call_eid in \
                        tuple(incoming[(start, d1)]):
                    if ret_site is None:
                        continue
                    apply_return(n, ret_site, d2, merged, caller_node,
                                 d_call, label[call_eid])
        for edge in g.out_edges(n):
            if edge.role is EdgeRole.RETURN:
                continue
            if edge.role is EdgeRole.CALL:
                callee_start = edge.dst
                callee_end = g.end_of(g.proc_of(callee_start))
                for d3 in succ[edge.eid].get(d2, ()):
                    ckey = (callee_start, d3)
                    incoming[ckey].add((n, d2, edge.ret_site, edge.eid))
                    propagate(d3, callee_start, d3, HMF_ID)
                    if edge.ret_site is not None:
                        for d4, f_summary in tuple(summaries[ckey].items()):
                            apply_return(callee_end, edge.ret_site, d4,
                                         f_summary, n, d2, label[edge.eid])
            else:
                f_step = hmf_compose(label[edge.eid], f)
                for d3 in succ[edge.eid].get(d2, ()):
                    propagate(d1, edge.dst, d3, f_step)

    # --- phase 2: values at procedure starts and call sites ---
    val: dict[tuple[str, int], dict[str, HState]] = {}
    vwork: deque[tuple[str, int]] = deque()
    vsteps = 0

    def meet_value(n: str, d: int, value: dict[str, HState]) -> None:
        old = val.get((n, d))
        new = value if old is None else hsm_meet(old, value)
        if old is not None and new == old:
            return
        val[(n, d)] = new
        vwork.append((n, d))

    # jump functions from each procedure start, grouped by call site
    starts = {g.start_of(p) for p in g.funcs}
    call_sites: dict[str, list] = defaultdict(list)
    calls_in_proc: dict[str, list[str]] = defaultdict(list)
    for edge in g.edges:
        if edge.role is EdgeRole.CALL:
            if edge.src not in call_sites:
                calls_in_proc[g.proc_of(edge.src)].append(edge.src)
            call_sites[edge.src].append(edge)
    from_start: dict[tuple[int, str], dict[int, HandlerMicroFn]] = \
        defaultdict(dict)
    for (d1, n, d2), f in jump.items():
        if n in call_sites:
            from_start[(d1, n)][d2] = f

    for d, value in init.items():
        meet_value(entry, d, value)
    while vwork:
        n, d = vwork.popleft()
        vsteps += 1
        value = val[(n, d)]
        if n in starts:
            for c in calls_in_proc.get(g.proc_of(n), ()):
                for d2, f in from_start[(d, c)].items():
                    meet_value(c, d2, hmf_apply(f, value))
        if n in call_sites:
            for edge in call_sites[n]:
                edge_label = label[edge.eid]
                for d3 in succ[edge.eid].get(d, ()):
                    meet_value(edge.dst, d3, hmf_apply(edge_label, value))

    # --- final readout: every jump function applied to its start value ---
    envs: dict[str, dict[int, dict[str, HState]]] = defaultdict(dict)
    for (d1, n, d2), f in jump.items():
        start_value = val.get((g.start_of(g.proc_of(n)), d1))
        if start_value is None:
            continue
        value = hmf_apply(f, start_value)
        table = envs[n]
        table[d2] = hsm_meet(table[d2], value) if d2 in table else value

    return IdeResult(dict(envs), lxsg.handlers, {
        "phase1_steps": steps,
        "phase2_steps": vsteps,
        "jump_functions": len(jump),
        "max_label_entries": max_label_entries,
    }, jump_table=dict(jump) if keep_jump_table else None)


def solve_ifds(xsg: ExplodedSupergraph,
               ide: IdeResult | None = None) -> IfdsResult:
    """The plain IFDS result over `xsg`, read off `ide` (a solve over any
    labelling of `xsg`) or, without one, off the identity-labelled solve."""
    if ide is None:
        ide = solve_ide(LabeledExplodedSupergraph.identity(xsg))
    return ide.plain()


def format_jump_table(result: IdeResult) -> str:
    """Stable text dump of the phase-1 jump functions for debugging."""
    if result.jump_table is None:
        raise ValueError("solve with keep_jump_table=True to dump the table")
    lines = []
    for (d1, n, d2), f in sorted(result.jump_table.items(),
                                 key=lambda kv: (kv[0][1], kv[0][0], kv[0][2])):
        lines.append(f"{n}: {d1} -> {d2}  {f!r}")
    return "\n".join(lines) + "\n"
