"""Two-phase solver for labeled exploded supergraphs.

Phase 1 tabulates jump functions: for each reachable exploded node
<n, d2>, the per-handler transformer composed along same-procedure paths
from <start_p, d1>, met over merging paths.  Summary edges carry callee
transformers from each call site to its return site; they are returned
in waves, each time the worklist drains, so an edge that drops several
times while the worklist runs is sent once (see `solve_ide`).  An emit
that ends a handler only the event loop calls is a tail call: it returns
its handler to the loop instead of entering a nested one.  Phase 2
pushes the met transformer from <entry, 0> through procedure starts and
call sites.  The result (`IdeResult`) composes the jump functions at a
node after those start values only where a client asks for the node.

Straight-line code is solved per basic block.  A node is interior if its
only in-edge is intraprocedural and comes from a node with one out-edge,
and it is not a call site; a block is a head (any other node) and the
run of interior nodes after it, which may end at its procedure's exit.
No path merges inside a block, so the path from its head to each node of
the run, and on through each out-edge of the run's end but an exit's,
compiles to one edge: the composed label, which is the path function
(Kildall, POPL 1973), and the composed successor table.  Jump functions
live only at heads, and a query at an interior node steps once along its
edge from the head.

The filter reads a fact's transformer alone (`event_lattice.feasible`);
a handler-state map, the all-S entry map under a transformer, is built
only where a client reads one.  Applying a transformer distributes over
composition and over the pointwise meet, so both are exact.  Labels only
decide which facts to filter, never which exploded nodes are reached, so
the plain IFDS result is a view of any solve over the same exploded
supergraph (`solve_ifds`).

Both phases run over one representative per class of interchangeable
facts (`ExplodedSupergraph.classes`).  Labels are per supergraph edge,
so swapping two facts of a class fixes every relation and every label,
and with them the solution; a query about any member of a class reads
its representative and gets the same map object.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import cached_property
from itertools import chain

from .event_lattice import (
    HState,
    Transformer,
    entries,
    feasible,
    map_at_s,
    packed_compose,
    packed_leq,
    packed_meet,
    s_normal,
)
from .ifds import IDENTITY, ExplodedSupergraph, IfdsResult, ZERO
from .record import record
from .supergraph import EVENT_LOOP, Edge, EdgeKind


@record
class LabeledExplodedSupergraph:
    """Exploded supergraph plus micro-function labels, by edge id.

    Labels are uniform across the exploded pairs of one supergraph edge,
    which is all the event instantiation ever produces.  An edge without
    a label carries the identity, so `LabeledExplodedSupergraph(xsg, {},
    handlers)` is the identity labelling.
    """

    xsg: ExplodedSupergraph
    labels: dict[int, Transformer]
    handlers: tuple[str, ...]


class IdeResult:
    """The solution of one solve, evaluated where a client asks for it.

    A node's row, {representative: transformer id}, holds per fact the
    met transformer from <entry, 0>: at a head, each jump function there
    composed after the value phase 2 gave its start fact, then met
    (Sagiv, Reps & Horwitz, TCS 1996); at an interior node, the head's
    row stepped once along the path to it, one composed label and table:
    chain functions distribute over the meet, so that is the meet along
    the path's edges.  A row is evaluated once, and `holds`, `fact_sets`,
    `reachable` and `envs` read the same rows.  The filter tests each
    transformer id for feasibility once, and builds no map.  `map_at(node,
    fact)` applies the fact's transformer to the entry map, every handler
    in S; a map is built once per distinct normal form (`s_normal`), so
    equal maps are one dict, and a caller must copy a map before changing
    it.
    """

    def __init__(self, row_of, fns: list[bytes],
                 lxsg: LabeledExplodedSupergraph, stats: dict):
        self._nodes = lxsg.xsg.graph.nodes
        self._row = row_of          # node -> its row; {} if unreached
        self._fns = fns
        self._handlers = lxsg.handlers
        self._maps: dict[bytes, dict[str, HState]] = {}     # normal form -> map
        self._ok: dict[int, bool] = {}      # transformer id -> feasible
        self._members = {ZERO: (ZERO,), **lxsg.xsg.classes}
        self._rep_of = {d: rep for rep, ds in self._members.items()
                        for d in ds}
        self.stats = stats

    def _map_of(self, fid: int) -> dict[str, HState]:
        """The entry map under transformer `fid`, as its canonical dict."""
        key = s_normal(self._fns[fid])
        hsm = self._maps.get(key)
        if hsm is None:
            hsm = self._maps[key] = map_at_s(key, self._handlers)
        return hsm

    def map_at(self, node: str, fact: int) -> dict[str, HState] | None:
        """The met map of `fact` at `node`, or None if either is
        unreached."""
        fid = self._row(node).get(self._rep_of.get(fact))
        return None if fid is None else self._map_of(fid)

    def holds(self, node: str, fact: int, filtered: bool = False) -> bool:
        """Whether `fact` reaches `node` and, if `filtered`, whether its
        transformer is feasible; the tautological fact reaches every
        reached node."""
        fid = self._row(node).get(self._rep_of.get(fact))
        return fid is not None and (not filtered or self._feasible(fid))

    def _feasible(self, fid: int) -> bool:
        """Whether transformer `fid` is feasible, tested once per id."""
        ok = self._ok.get(fid)
        if ok is None:
            ok = self._ok[fid] = feasible(self._fns[fid])
        return ok

    @cached_property
    def fact_sets(self) -> tuple[dict[str, frozenset[int]],
                                 dict[str, frozenset[int]]]:
        """Per reached node, the non-zero facts for which `holds`, plain
        and filtered; nodes without one have no entry.  One walk over the
        rows builds both, and a node whose facts are all feasible has one
        set in both.  The sets grow with nodes times facts, so neither the
        report nor the oracle reads them; the benchmark's gate, the
        equivalence digests and tests do, through `IfdsResult.facts`."""
        is_feasible, members, row_of = self._feasible, self._members, self._row
        plain: dict[str, frozenset[int]] = {}
        kept: dict[str, frozenset[int]] = {}
        for node in self._nodes:
            facts, infeasible = [], []
            for rep, fid in row_of(node).items():
                if rep:     # not the tautological fact, 0
                    facts += members[rep]
                    if not is_feasible(fid):
                        infeasible += members[rep]
            if facts:
                held = plain[node] = frozenset(facts)
                if not infeasible:
                    kept[node] = held
                elif len(infeasible) < len(facts):
                    kept[node] = held.difference(infeasible)
        return plain, kept

    @cached_property
    def reachable(self) -> frozenset[str]:
        return frozenset(node for node in self._nodes if self._row(node))

    @cached_property
    def envs(self) -> dict[str, dict[int, dict[str, HState]]]:
        """Per reached node, the environment: fact -> handler-state map,
        with the tautological fact's row under index 0.  Built on first
        access; every member of a class shares its representative's map
        object."""
        map_of, members, row_of = self._map_of, self._members, self._row
        return {node: {d: map_of(fid) for rep, fid in row_of(node).items()
                       for d in members[rep]}
                for node in self._nodes if row_of(node)}


def _then(first: dict[int, tuple[int, ...]],
          then: dict[int, tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """The successor table of `first`'s edge followed by `then`'s: per
    source fact, its ascending successors; sources without one left out."""
    table = {}
    for d, ds in first.items():
        ds = then.get(ds[0], ()) if len(ds) == 1 else tuple(
            sorted({d3 for d2 in ds for d3 in then.get(d2, ())}))
        if ds:
            table[d] = ds
    return table


def solve_ide(lxsg: LabeledExplodedSupergraph,
              check_descent: bool = False) -> IdeResult:
    """Meet-over-valid-paths values at every reachable exploded node,
    from the tautological fact at the entry with every handler in S, as
    a result that evaluates them where it is asked.

    Phase 1 returns callees through summary edges (Reps, Horwitz & Sagiv,
    POPL 1995; for transformers, Sagiv, Reps & Horwitz, TCS 1996): per
    (call site, call fact), one transformer per (return site, return
    fact), the meet of `return label o summary o call label` over the
    callee's entry and exit facts and over the site's call edges, so all
    of the event loop's dispatches return through one edge.  A jump
    function popped at a call site is sent through each edge.  A pop at
    an exit only lists its jump function.  When the worklist is empty, a
    return wave meets each listed one into its summary, meets each
    summary that dropped into the edges of the call sites filed for its
    callee entry, and sends each edge that dropped once, at its final
    value, to every jump function filed at its call site and call fact;
    phase 1 ends when the worklist drains with nothing listed since the
    last wave.  A wave
    is exact: with the worklist empty, every jump function has been
    popped at its current value and sent every edge at its call site as
    it stood, so the only sends missing are those of the edges the wave
    lowers.  This is the outer-before-inner order of chaotic iteration
    (Bourdoncle, FMPA 1993): an edge into the event loop that would drop
    several times while the handlers settle goes to the loop's jump
    functions once.  A meet on the left distributes over composition, so
    this equals returning each summary on its own.

    An exit whose only in-edge is a straight-line edge ends its head's
    block, so a pop at the head lists the exit's jump function: the
    head's composed with the block's label, under the block's table.
    Several head facts can reach one exit fact, hence the meet into the
    summary; at an exit head it gives the listed function itself, since
    a jump function only descends.

    An emit is a tail emit if its only call edge enters the event loop
    and returns to a site whose one out-edge, unlabelled and the
    identity, enters the exit of a procedure that only the loop's
    dispatch edges enter, and if the loop's return edges carry every
    fact that reaches the loop to itself, unlabelled.  That last holds
    when every edge at the loop has one patch that only drops facts (the
    uninit problem's all drop the non-globals) and no return edge there
    has a label (the event labelling puts none there).  A pop at a tail
    emit enters nothing into the loop: it lists `call label o f`, under
    the call edge's table, as an exit of its own procedure, so the
    loop's dispatch edge for the handler carries `emit o prefix o
    invoke`, and the loop's own closure supplies the rest; phase 2 sends
    no value through that call edge.  This is exact.  The loop is one
    node that is both start and exit, its return edges are the identity
    on its facts, composition distributes over the meet, and L* o L* =
    L*, since a sequence of dispatch sequences is a dispatch sequence;
    so "run the nested loop, return, then continue the outer loop" meets
    over the same label sequences as "continue the outer loop".  Only
    the readout still needs what the nested loop returns: at a tail
    emit's return site, and at the exit that site enters, a row meets in
    the call site's row sent through the call edge, closed over the
    loop's summary edges and sent through the return edge.  A report
    reads neither node.

    Every transformer the solve touches (a `bytes`, one lane per handler;
    see `event_lattice`) is interned in a table that lives as long as the
    solve, named by a dense int id.  The solver carries the ids, so
    comparing two jump functions compares two ints, and compose and meet
    run once per distinct pair of ids.  The supergraph is compiled into
    per-node tables first, so the worklist loops make no graph calls, and
    each block into composed edges from its head, one to each of its
    interior nodes and one per out-edge of its end if that is not an
    exit (see the module docstring).  Phase 2 keeps each value in its
    normal form at S (`s_normal`), so it stops where a value would drop
    to one with the same maps.  A summary edge and a phase-2 value drop
    through one step, `lower`.  The rows carry ids through the same
    memos, and the result builds a map per distinct normal form it reads;
    `max_label_entries` is read once, over the jump functions phase 1
    stored.
    """
    xsg = lxsg.xsg
    g = xsg.graph
    succ, patch_of = xsg.rep_succ, xsg.patch_of
    entry = g.entry()

    # --- the per-solve intern table and operator memos ---
    fns: list[bytes] = []                   # id -> transformer
    ids: dict[bytes, int] = {}              # transformer -> id
    compose_memo: dict[tuple[int, int], int] = {}
    meet_memo: dict[tuple[int, int], int] = {}

    def intern(f: bytes) -> int:
        fid = ids.get(f)
        if fid is None:
            fid = ids[f] = len(fns)
            fns.append(f)
        return fid

    ID = intern(Transformer.identity(len(lxsg.handlers)))

    def compose(g_id: int, f_id: int) -> int:
        """g after f."""
        if f_id == ID:
            return g_id
        if g_id == ID:
            return f_id
        key = (g_id, f_id)
        h_id = compose_memo.get(key)
        if h_id is None:
            h_id = compose_memo[key] = intern(packed_compose(fns[g_id], fns[f_id]))
        return h_id

    def meet(f_id: int, g_id: int) -> int:
        if f_id == g_id:
            return f_id
        key = (f_id, g_id) if f_id < g_id else (g_id, f_id)
        h_id = meet_memo.get(key)
        if h_id is None:
            h_id = meet_memo[key] = intern(packed_meet(fns[f_id], fns[g_id]))
        return h_id

    def lower(table: dict, key: tuple, t: int) -> bool:
        """Meet `t` into `table[key]`; whether the entry dropped."""
        old = table.get(key)
        new = t if old is None else meet(old, t)
        if new == old:
            return False
        table[key] = new
        return True

    # edge id -> label id; an edge without a label carries the identity
    label = {eid: intern(f) for eid, f in lxsg.labels.items()}

    # --- the supergraph compiled into per-node tables ---
    # exit node -> start of its procedure
    exit_start = {end: start for start, end in g.funcs.values()}
    only_in: dict[str, Edge | None] = {}    # node -> its one in-edge
    call_sites: dict[str, None] = {}        # in order of first call edge
    returns: dict[tuple[str, str], Edge] = {}   # by (exit, return site)
    for e in g.edges:
        only_in[e.dst] = None if e.dst in only_in else e
        if e.kind is EdgeKind.CALL:
            call_sites[e.src] = None
        elif e.kind is EdgeKind.RETURN:
            returns[(e.src, e.dst)] = e
    out_edges = g.out_edges
    # nothing merges at an interior node and no phase-1 rule fires there
    interior = {n for n, e in only_in.items()
                if e is not None and e.kind is EdgeKind.INTRA
                and len(out_edges(e.src)) == 1}
    interior.difference_update(call_sites)
    proc_start = {n: g.start_of(node.func) for n, node in g.nodes.items()
                  if n not in interior}
    # node -> its intraprocedural and block out-edges as (dst, label id,
    # successor table)
    steps_from: dict[str, tuple[tuple, ...]] = {}
    # call site -> its call edges as (callee start, label id, successor
    # table, return site, (label id, successor table) of the return edge)
    calls_from: dict[str, list[tuple]] = {}
    # interior node -> (head, label id, successor table) of the path from
    # its block's head
    blocks: dict[str, tuple[str, int, dict]] = {}
    # head -> (start, label id, successor table) of what a pop there lists
    # as its procedure's exit: itself, the exit its block ends at, or the
    # loop entry of a tail emit; None for the table of the identity
    exit_of: dict[str, tuple[str, int, dict | None]] = {
        end: (start, ID, None) for end, start in exit_start.items()
        if end not in interior}
    # tail emit's return site, and exit head it flows into -> the tail
    # emits (call site, label id, call table, return table) it reads
    tails_into: dict[str, list[tuple]] = defaultdict(list)
    loop_kept = None    # read off the loop's edges at the first tail emit
    for n in proc_start:
        row = []
        for edge in out_edges(n):
            if edge.kind is EdgeKind.RETURN:
                continue
            if edge.kind is EdgeKind.CALL:
                r = edge.ret_site
                ret = r and returns[(g.end_of(g.proc_of(edge.dst)), r)]
                call = (edge.dst, label.get(edge.eid, ID), succ[edge.eid], r,
                        ret and (label.get(ret.eid, ID), succ[ret.eid]))
                if edge.dst == EVENT_LOOP and r and len(out_edges(n)) == 2:
                    # maybe a tail emit (see `solve_ide`): the site's one
                    # call returns to a site whose one out-edge,
                    # unlabelled and the identity, enters the exit of a
                    # procedure whose start only a dispatch enters (the
                    # loop has one per handler)
                    start, end = proc_start[n], g.end_of(g.proc_of(n))
                    caller = only_in.get(start)
                    tail = caller and caller.src == EVENT_LOOP and [
                        (e.dst, e.eid in label, patch_of[e.eid])
                        for e in out_edges(r)] == [(end, False, IDENTITY)]
                    if tail and loop_kept is None:
                        # the loop's return edges carry each fact that
                        # reaches the loop to itself, unlabelled, if every
                        # edge at the loop has one patch that only drops
                        # facts and no return edge there has a label
                        loop_kept = [(p.added, labelled) for p, labelled in {
                            (patch_of[e.eid], e.kind is EdgeKind.RETURN
                             and e.eid in label) for e in g.edges
                            if EVENT_LOOP in (e.src, e.dst)}] == [((), False)]
                    if tail and loop_kept:
                        _, lab, table, _, (_, ret_table) = call
                        exit_of[n] = (start, lab, table)
                        for m in (r,) if end in interior else (r, end):
                            tails_into[m].append((n, lab, table, ret_table))
                        continue
                calls_from.setdefault(n, []).append(call)
                continue
            # the paths from `n` on through the block it heads, if any, as
            # (last edge, label id, successor table); an identity patch
            # maps each fact to itself, so it leaves the path's table as is
            paths = [(edge, label.get(edge.eid, ID), succ[edge.eid])]
            for e, lab, table in paths:
                if e.dst not in interior:
                    row.append((e.dst, lab, table))
                    continue
                blocks[e.dst] = (n, lab, table)
                if e.dst in exit_start:
                    exit_of[n] = (exit_start[e.dst], lab, table)
                    continue
                for out in out_edges(e.dst):
                    paths.append((out, compose(label.get(out.eid, ID), lab),
                                  table if patch_of[out.eid] == IDENTITY
                                  else _then(table, succ[out.eid])))
        steps_from[n] = tuple(row)

    # --- phase 1: jump functions ---
    # node -> {fact: {start fact: jump function}}, at every node that
    # keeps jump functions.  Insertion-ordered dicts are used as sets
    # throughout: iteration order, and with it the step counts, must not
    # depend on string hashing.
    jump: dict[str, dict[int, dict[int, int]]] = {n: {} for n in proc_start}
    # (d1, node, d2, the row of jump that holds the jump function)
    work: deque[tuple[int, str, int, dict[int, int]]] = deque()
    # (callee start, entry fact) -> {(call site, call fact): its call
    # edge's row of calls_from}, for calls that return
    incoming: dict[tuple[str, int], dict[tuple, tuple]] = defaultdict(dict)
    # (callee start, entry fact) -> {exit fact: summary transformer}
    summaries: dict[tuple[str, int], dict[int, int]] = defaultdict(dict)
    # (call site, call fact) -> {(return site, return fact): the meet of
    # `return label o summary o call label` over its call edges}
    sedges: dict[tuple[str, int], dict[tuple[str, int], int]] = {}
    # (callee start, entry fact, the popped row of jump, label id, exit
    # facts) per pop that lists an exit (`exit_of`) since the last wave
    returning: list[tuple[str, int, dict[int, int], int, tuple]] = []
    steps = waves = 0

    def propagate(d1: int, n: str, d2: int, f: int) -> None:
        rows = jump[n]
        row = rows.get(d2)
        if row is None:
            row = rows[d2] = {}
        elif d1 in row:
            old = row[d1]
            f = meet(old, f)
            if f == old:
                return
            if check_descent and not packed_leq(fns[f], fns[old]):
                raise AssertionError("jump function must only descend")
        row[d1] = f
        work.append((d1, n, d2, row))

    propagate(ZERO, entry, ZERO, ID)
    while True:
        while work:
            d1, n, d2, row = work.popleft()
            f = row[d1]
            steps += 1
            listed = exit_of.get(n)
            if listed is not None:
                start, lab, table = listed
                exits = (d2,) if table is None else table.get(d2)
                if exits:
                    returning.append((start, d1, row, lab, exits))
            if n in calls_from:
                ckey = (n, d2)
                edges = sedges.get(ckey)
                if edges is None:
                    # the call fact's first pop: nothing here depends on d1
                    edges = sedges[ckey] = {}
                    for call in calls_from[n]:
                        callee, lab, targets, ret_site, ret = call
                        for d3 in targets.get(d2, ()):
                            propagate(d3, callee, d3, ID)
                            if ret is None:
                                continue
                            incoming[(callee, d3)][ckey] = call
                            ret_lab, ret_succ = ret
                            for d4, f_summary in summaries[(callee, d3)].items():
                                through = compose(ret_lab, compose(f_summary, lab))
                                for d5 in ret_succ.get(d4, ()):
                                    lower(edges, (ret_site, d5), through)
                for (ret_site, d5), t in edges.items():
                    propagate(d1, ret_site, d5, compose(t, f))
            for dst, lab, targets in steps_from[n]:
                f_step = f if lab == ID else compose(lab, f)
                for d3 in targets.get(d2, ()):
                    propagate(d1, dst, d3, f_step)

        # a return wave: every jump function has been popped at its value
        # and has sent every summary edge at its call site, so only the
        # edges this wave lowers are left to send.  A send lands in the
        # row it reads only through a dispatch back to the event loop,
        # with the start facts the row already has, so the row never grows
        # while it is read.
        if not returning:
            break
        waves += 1
        dropped: dict[tuple[str, int, str, int], None] = {}
        for start, d1, row, lab, exits in returning:
            f = compose(lab, row[d1])
            summary = summaries[(start, d1)]
            for d2 in exits:
                if not lower(summary, d2, f):
                    continue
                for ckey, call in incoming[(start, d1)].items():
                    _, call_lab, _, ret_site, (ret_lab, ret_succ) = call
                    edges = sedges[ckey]
                    through = compose(ret_lab, compose(f, call_lab))
                    for d5 in ret_succ.get(d2, ()):
                        if lower(edges, (ret_site, d5), through):
                            dropped[(*ckey, ret_site, d5)] = None
        returning.clear()
        for caller, d_call, ret_site, d5 in dropped:
            t = sedges[(caller, d_call)][(ret_site, d5)]
            for d3, f_caller in jump[caller][d_call].items():
                propagate(d3, ret_site, d5, compose(t, f_caller))

    # --- phase 2: values at procedure starts and call sites ---
    # (start or call site, fact) -> the id of the met transformer from
    # <entry, 0>, in its normal form: every use of a value ends at the
    # all-S entry map, and (f o v)(S) = f(v(S)), so only v(S) matters; the
    # normal forms are a chain, so their meet is one
    val: dict[tuple[str, int], int] = {}
    vwork: deque[tuple[str, int]] = deque()
    vsteps = 0

    def meet_value(n: str, d: int, value: int) -> None:
        key = (n, d)
        if lower(val, key, intern(s_normal(fns[value]))):
            vwork.append(key)

    calls_from_start: dict[str, list[str]] = defaultdict(list)
    for n in call_sites:
        if n in calls_from:
            calls_from_start[proc_start[n]].append(n)

    meet_value(entry, ZERO, ID)
    while vwork:
        n, d = key = vwork.popleft()
        vsteps += 1
        value = val[key]
        for c in calls_from_start.get(n, ()):
            for d2, fs in jump[c].items():
                if d in fs:
                    meet_value(c, d2, compose(fs[d], value))
        for callee, lab, targets, _, _ in calls_from.get(n, ()):
            for d3 in targets.get(d, ()):
                meet_value(callee, d3, compose(lab, value))

    # --- the result: per node, {fact: met fn id}, filled when asked ---
    rows: dict[str, dict[int, int]] = {}

    def values_at(n: str) -> dict[int, int]:
        """Each jump function at a head composed after the value phase 2
        gave its start fact, then met."""
        start = proc_start[n]
        row = rows[n] = {}
        for d2, fs in jump[n].items():
            met = None
            for d1, f in fs.items():
                t = compose(f, val[(start, d1)])
                met = t if met is None else meet(met, t)
            row[d2] = met
        return row

    def with_tails(n: str) -> dict[int, int]:
        """The row of a tail emit's return site, or of an exit head it
        enters: `values_at`, met with what the nested loop returns there,
        the call site's row sent through the call edge, closed over the
        loop's summary edges and sent through the return edge."""
        row = values_at(n)
        for c, lab, table, ret_table in tails_into[n]:
            at_loop: dict[int, int] = {}
            for d, t in (rows[c] if c in rows else values_at(c)).items():
                for d3 in table.get(d, ()):
                    lower(at_loop, d3, compose(lab, t))
            todo = list(at_loop)
            while todo:
                d = todo.pop()
                for (_, d4), s in sedges[(EVENT_LOOP, d)].items():
                    if lower(at_loop, d4, compose(s, at_loop[d])):
                        todo.append(d4)
            for d, t in at_loop.items():
                for d5 in ret_table.get(d, ()):
                    lower(row, d5, t)
        return row

    def step(head: str, lab: int, table: dict) -> dict[int, int]:
        """An interior node's row: its head's row, each entry composed
        with the path's label and looked up in its table, then met."""
        # not `row_of`: closures calling each other hold the solve in a cycle
        row = rows[head] if head in rows else \
            with_tails(head) if head in tails_into else values_at(head)
        out: dict[int, int] = {}
        for d, t in row.items():
            t = compose(lab, t)
            for d3 in table.get(d, ()):
                old = out.get(d3)
                out[d3] = t if old is None else meet(old, t)
        return out

    def row_of(n: str) -> dict[int, int]:
        row = rows.get(n)
        if row is None:
            if n in blocks:
                row = rows[n] = step(*blocks[n])
            elif n in tails_into:
                row = with_tails(n)
            else:
                row = values_at(n) if n in jump else {}
        return row

    return IdeResult(row_of, fns, lxsg, {
        "phase1_steps": steps,
        "phase2_steps": vsteps,
        "return_waves": waves,
        "heads": sum(map(bool, jump.values())),
        "jump_functions": sum(map(len, chain.from_iterable(
            map(dict.values, jump.values())))),
        "max_label_entries": max(map(entries, {
            fns[f] for rows in jump.values() for row in rows.values()
            for f in row.values()}), default=0),
        "summary_edges": sum(map(len, sedges.values())),
        "compositions": len(compose_memo),
        "meets": len(meet_memo),
        "distinct_functions": len(fns),
        "fact_classes": len(xsg.classes),
    })


def solve_ifds(ide: IdeResult) -> IfdsResult:
    """The plain IFDS result over the exploded supergraph `ide` solved:
    the reached nodes and their non-zero facts, as a view of `ide`, a
    solve over any labelling of it.

    Each jump function is one path edge (d1, n, d2) of the plain
    tabulation, which steps each path edge once.  The solve steps only
    the path edges between class representatives (see
    `ExplodedSupergraph`) at the nodes that keep jump functions, so
    `worklist_steps` counts those rather than the path edges of every
    fact at every node.
    """
    path_edges = ide.stats["jump_functions"]
    return IfdsResult(ide, stats={"worklist_steps": path_edges,
                                  "path_edges": path_edges})
