"""Distributive flow functions as identity patches, the exploded
supergraph and the fact-set result type.

Facts are small integers; index 0 is the tautological fact that holds
everywhere and seeds the analysis.  A flow function is the canonical
bipartite relation over (D u {0})^2 (Reps, Horwitz & Sagiv, POPL 1995),
and its client states it as a `Patch` of the identity relation: the
facts whose `(d, d)` pair it drops and the pairs it adds, the gen/kill
form of practical IFDS solvers.  The solver only looks successors up, it
never composes relations.

The exploded supergraph also partitions D into classes of
interchangeable facts, read off the patches alone (`ExplodedSupergraph`),
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
from typing import NamedTuple

from .supergraph import Supergraph

ZERO = 0


class Patch(NamedTuple):
    """A flow function as the identity relation over (D u {0})^2 without
    the pairs `(d, d)` of the facts `dropped` and with the pairs `added`,
    ascending.  It is normalized: a `(d, d)` pair that would be both
    dropped and added is neither, so `added` holds no `(d, d)` pair and
    equal relations have equal patches."""

    dropped: tuple[int, ...]
    added: tuple[tuple[int, int], ...]


IDENTITY = Patch((), ())


class FactDomain:
    """Ordered finite fact set; names map to indices 1..n, 0 is reserved."""

    def __init__(self, names):
        self._names = tuple(names)
        if len(set(self._names)) != len(self._names):
            raise ValueError("facts must be unique")
        self._index = {name: i + 1 for i, name in enumerate(self._names)}

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
    """Supergraph with one flow-function patch per edge; the exploded
    node and edge sets are derived views.

    The non-zero facts fall into classes of interchangeable facts, read
    off the patches alone.  A fact that some patch pairs with another
    fact, other than by a gen `(0, d)`, is a class of its own.  Every
    other fact is *inert*: a patch keeps it, drops its `(d, d)` pair,
    gens it from 0, or both, and inert facts that do the same in every
    distinct patch form one class.  Swapping two facts of a class leaves
    every relation unchanged, so they have the same solution everywhere
    (symmetry reduction, as in Ip & Dill, FMSD 1996).  The
    representative of a class is its lowest fact, and the solver reads
    `rep_succ`, the successor tables over 0 and the representatives.
    """

    def __init__(self, graph: Supergraph, domain: FactDomain,
                 patch_of: dict[int, Patch]):
        self.graph = graph
        self.domain = domain
        self.patch_of = patch_of
        missing = [e.eid for e in graph.edges if e.eid not in patch_of]
        if missing:
            raise ValueError(f"edges without a flow function: {missing}")
        # A fact's signature lists, for the r-th distinct patch, 2r if it
        # drops `(d, d)` and 2r + 1 if it adds `(0, d)`, so it is
        # ascending by construction.  Equal relations have equal
        # (normalized) patches, so keying by value shares one entry.
        distinct = dict.fromkeys(patch_of.values())
        signature: dict[int, list[int]] = defaultdict(list)
        own: set[int] = set()
        for r, (dropped, added) in enumerate(distinct):
            for d in dropped:
                signature[d].append(2 * r)
            for d1, d2 in added:
                if d1 == ZERO:
                    signature[d2].append(2 * r + 1)
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
        # distinct patch.  Each is the identity's table patched, so
        # building it costs the patch, not the domain size.  A pair from
        # a non-zero fact joins two facts of classes of their own, so a
        # table leaves out only the `(d, d)` pairs and the gens of other
        # members.
        base = {d: (d,) for d in (ZERO, *self.classes)}
        tables = {p: _patched_table(base, [d for d in p.dropped if d in base],
                                    [q for q in p.added if q[1] in base])
                  for p in distinct}
        self.rep_succ: dict[int, dict[int, tuple[int, ...]]] = {
            eid: tables[p] for eid, p in patch_of.items()}

    @cached_property
    def rel_of(self) -> dict[int, frozenset[tuple[int, int]]]:
        """Edge id -> the representation relation its patch stands for,
        one frozenset per distinct patch, built on first access for the
        DOT export and the test oracles; the analysis never reads it."""
        ident = frozenset({(ZERO, ZERO),
                           *((d, d) for d in self.domain.indices())})
        rels = {p: ident.difference((d, d) for d in p.dropped).union(p.added)
                for p in dict.fromkeys(self.patch_of.values())}
        return {eid: rels[p] for eid, p in self.patch_of.items()}


def explode(graph: Supergraph, domain: FactDomain, flow_for) -> ExplodedSupergraph:
    """Build the exploded supergraph from a per-edge flow-function factory."""
    return ExplodedSupergraph(
        graph, domain, {e.eid: flow_for(e) for e in graph.edges})


class IfdsResult:
    """Per reached node, a set of non-zero facts: the plain result, or,
    `filtered`, the facts the event-aware filter keeps, as a view of one
    solve (`ide.IdeResult`).

    `holds(node, fact)` asks the solve at one pair, and is all that the
    report and the oracle ask.  `facts` (nodes without facts have no
    entry) is this view's half of the solve's fact sets
    (`IdeResult.fact_sets`), which one walk builds for both views, and
    `facts_at` reads it; the benchmark's gate, the equivalence digests
    and tests read them.  `reachable` is the solve's.
    """

    def __init__(self, solution, filtered: bool = False,
                 stats: dict | None = None):
        self._solution = solution
        self._filtered = filtered
        self.stats = {} if stats is None else stats

    def holds(self, node: str, fact: int) -> bool:
        return self._solution.holds(node, fact, self._filtered)

    @property
    def facts(self) -> dict[str, frozenset[int]]:
        return self._solution.fact_sets[self._filtered]   # (plain, filtered)

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
    names = ("0", *map(domain.name_of, domain.indices()))
    lines = ["digraph exploded {", "  node [shape=circle fontsize=9];",
             "  rankdir=TB;"]
    for node in xsg.graph.nodes.values():
        lines.append("  { rank=same; " +
                     " ".join(f'"{node.id}#{name}";' for name in names) +
                     " }")
        for name in names:
            lines.append(f'  "{node.id}#{name}" '
                         f'[label="{name}" xlabel="{node.id}"];')
    rel_of = xsg.rel_of
    for edge in xsg.graph.edges:
        for d1, d2 in sorted(rel_of[edge.eid]):
            lines.append(f'  "{edge.src}#{names[d1]}" -> '
                         f'"{edge.dst}#{names[d2]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
