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

Both phases run over one representative per class of interchangeable
facts (`ExplodedSupergraph.classes`).  Labels are per supergraph edge,
so swapping two facts of a class fixes every relation and every label,
and with them the solution; the readout gives each other member of a
class the map object of its representative.
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
from .supergraph import EdgeKind


@dataclass
class LabeledExplodedSupergraph:
    """Exploded supergraph plus one micro-function label per edge.

    Labels are uniform across the exploded pairs of one supergraph edge,
    which is all the event instantiation ever produces.
    """

    xsg: ExplodedSupergraph
    labels: dict[int, HandlerMicroFn]
    handlers: tuple[str, ...]

    @classmethod
    def identity(cls, xsg: ExplodedSupergraph,
                 handlers: tuple[str, ...] = ()) -> "LabeledExplodedSupergraph":
        return cls(xsg, {e.eid: HMF_ID for e in xsg.graph.edges}, handlers)


@dataclass
class IdeResult:
    """Per node, the environment: fact -> handler-state map.

    The tautological fact's row is kept under index 0; environments exist
    exactly for the nodes phase 1 reached.  Equal maps are one shared
    dict, so a caller must copy a map before changing it.
    """

    envs: dict[str, dict[int, dict[str, HState]]]
    stats: dict = field(default_factory=dict)


def solve_ide(lxsg: LabeledExplodedSupergraph,
              check_descent: bool = False) -> IdeResult:
    """Meet-over-valid-paths values for every reachable exploded node,
    from the tautological fact at the entry with every handler in S.

    Phase 1 returns callee summaries by the call-edge rule of the
    tabulation algorithm (Reps, Horwitz & Sagiv, POPL 1995): a jump
    function popped at a call site takes the callee's existing summaries
    for its own start fact only, and a new or lowered summary goes to
    every start fact filed at the call sites that reach it.

    Every transformer the solve touches is interned in a table that lives
    as long as the solve: one canonical `HandlerMicroFn` per distinct
    function, named by a dense int id.  The solver carries the ids, so
    comparing two jump functions compares two ints, and compose and meet
    run once per distinct pair of ids.  The supergraph is compiled into
    per-node tables first, so the worklist loops make no graph calls.
    Phase 2 and the readout intern handler-state maps the same way, and
    every environment value is the canonical dict of its map.
    """
    xsg = lxsg.xsg
    g = xsg.graph
    succ = xsg.rep_succ
    entry = g.entry()

    # --- the per-solve intern table and operator memos ---
    fns: list[HandlerMicroFn] = []          # id -> canonical function
    size: list[int] = []                    # id -> handlers it touches
    ids: dict[HandlerMicroFn, int] = {}     # function -> id
    compose_memo: dict[tuple[int, int], int] = {}
    meet_memo: dict[tuple[int, int], int] = {}

    def intern(f: HandlerMicroFn) -> int:
        fid = ids.get(f)
        if fid is None:
            fid = ids[f] = len(fns)
            fns.append(f)
            size.append(len(f))
        return fid

    ID = intern(HMF_ID)

    def compose(g_id: int, f_id: int) -> int:
        """g after f."""
        if f_id == ID:
            return g_id
        if g_id == ID:
            return f_id
        key = (g_id, f_id)
        h_id = compose_memo.get(key)
        if h_id is None:
            h_id = compose_memo[key] = intern(hmf_compose(fns[g_id], fns[f_id]))
        return h_id

    def meet(f_id: int, g_id: int) -> int:
        if f_id == g_id:
            return f_id
        key = (f_id, g_id) if f_id < g_id else (g_id, f_id)
        h_id = meet_memo.get(key)
        if h_id is None:
            h_id = meet_memo[key] = intern(hmf_meet(fns[f_id], fns[g_id]))
        return h_id

    label = {eid: intern(f) for eid, f in lxsg.labels.items()}

    # --- the supergraph compiled into per-node tables ---
    proc_start = {n: g.start_of(node.func) for n, node in g.nodes.items()}
    # exit node -> start of its procedure
    exit_start = {end: start for proc, (start, end) in g.funcs.items()
                  if g.proc_of(end) == proc}
    # node -> its non-return out-edges as (is_call, dst, label id,
    # successor table, return site, callee end)
    steps_from: dict[str, tuple[tuple, ...]] = {}
    # (callee end, return site) -> (label id, successor table) of the
    # return edge
    returns: dict[tuple[str, str], tuple[int, dict]] = {}
    for n in g.nodes:
        row = []
        for edge in g.out_edges(n):
            if edge.kind is EdgeKind.RETURN:
                continue
            is_call = edge.kind is EdgeKind.CALL
            callee_end = g.end_of(g.proc_of(edge.dst)) if is_call else None
            row.append((is_call, edge.dst, label[edge.eid], succ[edge.eid],
                        edge.ret_site, callee_end))
            if is_call and edge.ret_site is not None:
                ret_edge = g.edge_between(callee_end, edge.ret_site)
                returns[(callee_end, edge.ret_site)] = (
                    label[ret_edge.eid], succ[ret_edge.eid])
        steps_from[n] = tuple(row)
    # in the order of their first call edge
    call_sites = dict.fromkeys(e.src for e in g.edges
                               if e.kind is EdgeKind.CALL)

    # --- phase 1: jump functions ---
    jump: dict[tuple[int, str, int], int] = {}
    work: deque[tuple[int, str, int]] = deque()
    # Insertion-ordered dicts used as sets: iteration order, and with it
    # the step counts, must not depend on string hashing.
    # (callee start, entry fact) -> {(call node, call fact, return site):
    # call label id}, for calls that return
    incoming: dict[tuple[str, int], dict[tuple, int]] = defaultdict(dict)
    # (callee start, entry fact) -> {exit fact: summary transformer}
    summaries: dict[tuple[str, int], dict[int, int]] = defaultdict(dict)
    # (call site, call fact) -> {start fact: jump function}
    by_target: dict[tuple[str, int], dict[int, int]] = defaultdict(dict)
    steps = 0
    max_label_entries = 0

    def propagate(d1: int, n: str, d2: int, f: int) -> None:
        nonlocal max_label_entries
        key = (d1, n, d2)
        old = jump.get(key)
        if old is None:
            new = f
        else:
            new = meet(old, f)
            if new == old:
                return
            if check_descent and not hmf_leq(fns[new], fns[old]):
                raise AssertionError("jump function must only descend")
        jump[key] = new
        if size[new] > max_label_entries:
            max_label_entries = size[new]
        if n in call_sites:
            by_target[(n, d2)][d1] = new
        work.append(key)

    def apply_return(end: str, ret_site: str, d_exit: int, f_summary: int,
                     call_label: int,
                     callers: tuple[tuple[int, int], ...]) -> None:
        """Return `f_summary` to `ret_site` as `through o f` for each
        caller start fact and jump function `(d3, f)` in `callers`."""
        ret_label, ret_succ = returns[(end, ret_site)]
        through = compose(ret_label, compose(f_summary, call_label))
        for d5 in ret_succ.get(d_exit, ()):
            for d3, f_caller in callers:
                propagate(d3, ret_site, d5, compose(through, f_caller))

    propagate(ZERO, entry, ZERO, ID)
    while work:
        key = work.popleft()
        d1, n, d2 = key
        f = jump[key]
        steps += 1
        start = exit_start.get(n)
        if start is not None:
            skey = (start, d1)
            exits = summaries[skey]
            old = exits.get(d2)
            merged = f if old is None else meet(old, f)
            if merged != old:
                exits[d2] = merged
                for (caller, d_call, ret_site), call_label in \
                        incoming[skey].items():
                    # a snapshot: a dispatch returns into the event loop
                    # it was called from, so these propagations can lower
                    # `by_target` at that very site; a lowered jump
                    # function is queued, and its pop returns the summary
                    apply_return(n, ret_site, d2, merged, call_label,
                                 tuple(by_target[(caller, d_call)].items()))
        for is_call, dst, lab, targets, ret_site, callee_end in steps_from[n]:
            if is_call:
                for d3 in targets.get(d2, ()):
                    ckey = (dst, d3)
                    propagate(d3, dst, d3, ID)
                    if ret_site is not None:
                        incoming[ckey][(n, d2, ret_site)] = lab
                        for d4, f_summary in summaries[ckey].items():
                            apply_return(callee_end, ret_site, d4, f_summary,
                                         lab, ((d1, f),))
            else:
                f_step = f if lab == ID else compose(lab, f)
                for d3 in targets.get(d2, ()):
                    propagate(d1, dst, d3, f_step)

    # --- the per-solve intern table of handler-state maps ---
    # A solve meets and maps only a handful of distinct maps, so each gets
    # one canonical dict and a dense int id, and `hmf_apply` and
    # `hsm_meet` run once per distinct pair of ids.
    maps: list[dict[str, HState]] = []      # id -> canonical map
    uses: list[int] = []                    # id -> env entries holding it
    map_ids: dict[tuple, int] = {}          # item tuple -> id
    apply_memo: dict[tuple[int, int], int] = {}
    map_meet_memo: dict[tuple[int, int], int] = {}

    def intern_map(m: dict[str, HState]) -> int:
        key = tuple(m.items())
        mid = map_ids.get(key)
        if mid is None:
            mid = map_ids[key] = len(maps)
            maps.append(m)
            uses.append(0)
        return mid

    def apply(f: int, mid: int) -> int:
        if f == ID:
            return mid
        key = (f, mid)
        out = apply_memo.get(key)
        if out is None:
            out = apply_memo[key] = intern_map(hmf_apply(fns[f], maps[mid]))
        return out

    def meet_map(a: int, b: int) -> int:
        if a == b:
            return a
        key = (a, b) if a < b else (b, a)
        out = map_meet_memo.get(key)
        if out is None:
            out = map_meet_memo[key] = intern_map(
                hsm_meet(maps[key[0]], maps[key[1]]))
        return out

    # --- phase 2: values at procedure starts and call sites ---
    val: dict[tuple[str, int], int] = {}
    vwork: deque[tuple[str, int]] = deque()
    vsteps = 0

    def meet_value(n: str, d: int, value: int) -> None:
        key = (n, d)
        old = val.get(key)
        if old is not None:
            value = meet_map(old, value)
            if value == old:
                return
        val[key] = value
        vwork.append(key)

    # jump functions from each procedure start, grouped by call site
    calls_from_start: dict[str, list[str]] = defaultdict(list)
    for n in call_sites:
        calls_from_start[proc_start[n]].append(n)
    from_start: dict[tuple[int, str], dict[int, int]] = defaultdict(dict)
    for (d1, n, d2), f in jump.items():
        if n in call_sites:
            from_start[(d1, n)][d2] = f

    meet_value(entry, ZERO, intern_map(all_s(lxsg.handlers)))
    while vwork:
        n, d = key = vwork.popleft()
        vsteps += 1
        value = val[key]
        for c in calls_from_start.get(n, ()):
            for d2, f in from_start[(d, c)].items():
                meet_value(c, d2, apply(f, value))
        if n in call_sites:
            for is_call, dst, lab, targets, _, _ in steps_from[n]:
                if is_call:
                    for d3 in targets.get(d, ()):
                        meet_value(dst, d3, apply(lab, value))

    # --- final readout: every jump function applied to its start value ---
    envs: dict[str, dict[int, dict[str, HState]]] = defaultdict(dict)
    for (d1, n, d2), f in jump.items():
        start_value = val.get((proc_start[n], d1))
        if start_value is None:
            continue
        mid = start_value if f == ID else apply(f, start_value)
        table = envs[n]
        old = table.get(d2)
        if old is None:
            table[d2] = maps[mid]
            uses[mid] += 1
            continue
        old_id = map_ids[tuple(old.items())]
        new_id = meet_map(old_id, mid)
        if new_id != old_id:
            table[d2] = maps[new_id]
            uses[old_id] -= 1
            uses[new_id] += 1
    # every other fact of a class takes its representative's map object
    merged = [(rep, ds) for rep, ds in xsg.classes.items() if len(ds) > 1]
    if merged:
        for table in envs.values():
            for rep, ds in merged:
                m = table.get(rep)
                if m is not None:
                    table.update(dict.fromkeys(ds, m))

    return IdeResult(dict(envs), {
        "phase1_steps": steps,
        "phase2_steps": vsteps,
        "jump_functions": len(jump),
        "max_label_entries": max_label_entries,
        "compositions": len(compose_memo),
        "meets": len(meet_memo),
        "distinct_functions": len(fns),
        "distinct_maps": len(uses) - uses.count(0),
        "fact_classes": len(xsg.classes),
    })


def solve_ifds(xsg: ExplodedSupergraph,
               ide: IdeResult | None = None) -> IfdsResult:
    """The plain IFDS result over `xsg`: the reached nodes and their
    non-zero facts, read off `ide` (a solve over any labelling of `xsg`)
    or, without one, off the identity-labelled solve.

    Each jump function is one path edge (d1, n, d2) of the plain
    tabulation, which steps each path edge once.  The solve steps only
    the path edges between class representatives (see
    `ExplodedSupergraph`), so `worklist_steps` counts those rather than
    the path edges of every fact.
    """
    if ide is None:
        ide = solve_ide(LabeledExplodedSupergraph.identity(xsg))
    facts = {n: frozenset(d for d in env if d != ZERO)
             for n, env in ide.envs.items()}
    path_edges = ide.stats["jump_functions"]
    return IfdsResult({n: ds for n, ds in facts.items() if ds},
                      frozenset(ide.envs),
                      {"worklist_steps": path_edges, "path_edges": path_edges})
