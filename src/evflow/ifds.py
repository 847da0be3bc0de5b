"""Distributive flow functions as representation relations, the exploded
supergraph and the fact-set result type.

Facts are small integers; index 0 is the tautological fact that holds
everywhere and seeds the analysis.  A flow function is stored as the
canonical bipartite relation over (D u {0})^2 that its client builds;
the solver only looks successors up, it never composes relations.

The exploded supergraph also partitions D into classes of
interchangeable facts, read off the relations alone (`ExplodedSupergraph`),
and the solver runs over one representative per class.

The plain result holds, per node, the facts reachable from <entry, 0>
along call/return-balanced paths, treating event-loop dispatches as calls
that return to the loop node and the end of top-level as a call into the
loop that never returns.  It is a view of the IDE solve
(`ide.solve_ifds`), which answers each (node, fact) where it is asked.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property

from .supergraph import Supergraph

ZERO = 0

RepRelation = frozenset  # of (int, int) pairs


class FactDomain:
    """Ordered finite fact set; names map to indices 1..n, 0 is reserved."""

    def __init__(self, names):
        self._names = tuple(names)
        if len(set(self._names)) != len(self._names):
            raise ValueError("facts must be unique")
        self._index = {name: i + 1 for i, name in enumerate(self._names)}

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def indices(self) -> range:
        return range(1, len(self._names) + 1)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def name_of(self, index: int) -> str:
        return self._names[index - 1]

    def names_of(self, indices) -> frozenset[str]:
        return frozenset(self._names[i - 1] for i in indices)


def identity_rel(domain: FactDomain) -> RepRelation:
    return frozenset({(ZERO, ZERO), *((d, d) for d in domain.indices())})


def _patched_table(base: dict[int, tuple[int, ...]], dropped, added
                   ) -> dict[int, tuple[int, ...]]:
    """The successor table, {source: ascending successors} with ascending
    keys, of the identity relation (whose table is `base`) without the
    pairs `(d, d)` of the facts `dropped` and with the ascending pairs
    `added`."""
    table = base.copy()
    for d in dropped:
        del table[d]
    new_key = False
    grouped: dict[int, list[int]] = {}
    for d1, d2 in added:
        grouped.setdefault(d1, []).append(d2)
    for d1, ds in grouped.items():
        if d1 in table:     # keeps its own (d1, d1) pair
            table[d1] = tuple(sorted((d1, *ds)))
        else:
            table[d1] = tuple(ds)
            new_key = True
    if new_key:
        table = {d: table[d] for d in sorted(table)}
    return table


class ExplodedSupergraph:
    """Supergraph with one canonical relation per edge; the exploded node
    and edge sets are derived views.

    The non-zero facts fall into classes of interchangeable facts, read
    off the relations alone.  A fact that some relation pairs with
    another fact, other than by a gen `(0, d)`, is a class of its own.
    Every other fact is *inert*: a relation keeps it, drops its `(d, d)`
    pair, gens it from 0, or both, and inert facts that do the same in
    every distinct relation object form one class.  Swapping two facts
    of a class leaves every relation unchanged, so they have the same
    solution everywhere (symmetry reduction, as in Ip & Dill, FMSD
    1996).  The representative of a class is its lowest fact, and the
    solver reads `rep_succ`, the successor tables over 0 and the
    representatives.
    """

    def __init__(self, graph: Supergraph, domain: FactDomain,
                 rel_of: dict[int, RepRelation]):
        self.graph = graph
        self.domain = domain
        self.rel_of = rel_of
        missing = [e.eid for e in graph.edges if e.eid not in rel_of]
        if missing:
            raise ValueError(f"edges without a flow relation: {missing}")
        # One pass over the distinct relation objects takes where each
        # differs from the identity: the facts whose `(d, d)` pair it
        # drops and the pairs it adds.  A fact's signature lists, for the
        # r-th relation, 2r if it drops `(d, d)` and 2r + 1 if it holds
        # `(0, d)`, so it is ascending by construction.
        ident = identity_rel(domain)
        diffs: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}
        signature: dict[int, list[int]] = defaultdict(list)
        own: set[int] = set()
        for rel in rel_of.values():
            if id(rel) in diffs:
                continue
            r = 2 * len(diffs)
            dropped = [d for d, _ in ident - rel]
            added = sorted(rel - ident)
            diffs[id(rel)] = (dropped, added)
            for d in dropped:
                signature[d].append(r)
            for d1, d2 in added:
                if d1 == ZERO:
                    signature[d2].append(r + 1)
                else:
                    own.add(d1)
                    own.add(d2)
        first: dict[tuple[int, ...], int] = {}
        members: dict[int, list[int]] = defaultdict(list)
        for d in domain.indices():
            rep = d if d in own else \
                first.setdefault(tuple(signature.get(d, ())), d)
            members[rep].append(d)
        # representative -> its facts, ascending
        self.classes: dict[int, tuple[int, ...]] = {
            rep: tuple(ds) for rep, ds in members.items()}

        # The tables the solver reads: edge id -> {source fact: ascending
        # successor facts} over 0 and the representatives, one table per
        # distinct relation object.  Each table is the identity's table
        # patched where the relation differs from the identity, so
        # building it costs the pairs that differ, not the domain size.  A
        # pair from a non-zero fact joins two facts of classes of their
        # own, so a table leaves out only the `(d, d)` pairs and the gens
        # of other members.
        base = {d: (d,) for d in (ZERO, *self.classes)}
        tables = {key: _patched_table(base, [d for d in dropped if d in base],
                                      [p for p in added if p[1] in base])
                  for key, (dropped, added) in diffs.items()}
        self.rep_succ: dict[int, dict[int, tuple[int, ...]]] = {
            eid: tables[id(rel)] for eid, rel in rel_of.items()}

    def iter_exploded_edges(self):
        for edge in self.graph.edges:
            for d1, d2 in sorted(self.rel_of[edge.eid]):
                yield (edge.src, d1), (edge.dst, d2)


def explode(graph: Supergraph, domain: FactDomain, flow_for) -> ExplodedSupergraph:
    """Build the exploded supergraph from a per-edge flow-function factory."""
    return ExplodedSupergraph(
        graph, domain, {e.eid: flow_for(e) for e in graph.edges})


class IfdsResult:
    """Per reached node, a set of non-zero facts: the plain result, or the
    facts the event-aware filter keeps, as a view of one solve
    (`ide.IdeResult`).

    `holds(node, fact)` asks the solve at one pair, and `keep`, when
    given, decides from the fact's handler-state map.  `facts` (nodes
    without facts have no entry) is built by the same query on first
    access and then cached, so `facts_at` reads whatever `facts` holds;
    so is the solve's `reachable`.
    """

    def __init__(self, solution, keep=None, stats: dict | None = None):
        self._solution = solution
        self._keep = keep
        self.stats = {} if stats is None else stats

    def holds(self, node: str, fact: int) -> bool:
        return self._solution.holds(node, fact, self._keep)

    @cached_property
    def facts(self) -> dict[str, frozenset[int]]:
        return self._solution.fact_sets(self._keep)

    @property
    def reachable(self) -> frozenset[str]:
        return self._solution.reachable

    def facts_at(self, node: str) -> frozenset[int]:
        return self.facts.get(node, frozenset())


# --- DOT export -------------------------------------------------------------

def exploded_dot(xsg: ExplodedSupergraph) -> str:
    """Render the exploded supergraph: one row of fact columns per
    supergraph node, edges per representation-relation pair."""
    domain = xsg.domain
    lines = ["digraph exploded {", "  node [shape=circle fontsize=9];",
             "  rankdir=TB;"]

    def xid(node: str, d: int) -> str:
        name = "0" if d == ZERO else domain.name_of(d)
        return f"{node}#{name}"

    for node in xsg.graph.nodes.values():
        ids = [xid(node.id, d) for d in (ZERO, *domain.indices())]
        lines.append("  { rank=same; " +
                     " ".join(f'"{i}";' for i in ids) + " }")
        for d in (ZERO, *domain.indices()):
            name = "0" if d == ZERO else domain.name_of(d)
            lines.append(f'  "{xid(node.id, d)}" '
                         f'[label="{name}" xlabel="{node.id}"];')
    for (m, d1), (n, d2) in xsg.iter_exploded_edges():
        lines.append(f'  "{xid(m, d1)}" -> "{xid(n, d2)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
