"""Shared pipeline helpers and independent oracles for the test suite."""

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from evflow.event_lattice import (
    MF_CLOSURE, MF_ID, HState, Transformer, mf_apply)
from evflow.ide import LabeledExplodedSupergraph, solve_ide, solve_ifds
from evflow.ifds import Patch, ZERO, explode
from evflow.lang.ast import If, While
from evflow.lang.parser import parse
from evflow.randgen import GenParams, gen_source
from evflow.supergraph import EdgeKind, Supergraph, build_supergraph
from evflow.uninit import UninitProblem

from conftest import CORPUS_NAMES, load_corpus_entry


def iter_stmts(body):
    """All statements of a body, including nested ones, in source order."""
    for s in body:
        yield s
        if isinstance(s, If):
            yield from iter_stmts(s.then_body)
            yield from iter_stmts(s.else_body)
        elif isinstance(s, While):
            yield from iter_stmts(s.body)


# The definitional lattice.  A chain function is the tuple of its images
# of E, R, S and X, written out by hand for the identity and the three
# generators; compose, meet and order are defined on those tuples, and
# the closure is derived with them.  `event_lattice`'s lane values are
# checked against it through `mf_apply`, their one view here.

STATES = tuple(HState)          # E, R, S, X: the order of an image tuple
E, R, S, X = STATES
ID_IMAGES = (E, R, S, X)
REGISTER_IMAGES = (E, R, R, X)      # S -> R
EMIT_IMAGES = (E, E, S, X)          # R -> E
INVOKE_IMAGES = (E, X, X, X)        # only E survives


def compose_def(g, f):
    """g after f, on image tuples."""
    return tuple(g[s] for s in f)


def meet_def(f, g):
    """The pointwise chain meet, on image tuples."""
    return tuple(min(a, b) for a, b in zip(f, g))


def leq_def(f, g):
    """The pointwise chain order, on image tuples."""
    return all(a <= b for a, b in zip(f, g))


def closure_def():
    """The identity and the generators closed under `compose_def` and
    `meet_def`."""
    generated = {ID_IMAGES, REGISTER_IMAGES, EMIT_IMAGES, INVOKE_IMAGES}
    while True:
        new = {op(a, b) for op in (compose_def, meet_def)
               for a in generated for b in generated}
        if new <= generated:
            return generated
        generated |= new


def image(f):
    """The images of E, R, S and X under the chain function with lane
    value `f`."""
    return tuple(mf_apply(f, s) for s in STATES)


def lane_of(images):
    """The lane value of the chain function with these images."""
    return next(f for f in MF_CLOSURE if image(f) == images)


def hstate_meet(a, b):
    """Meet on the chain X > S > R > E: the lower of the two states."""
    return min(a, b)


# The definitional transformer: a dict {handler: chain function},
# a handler without an entry mapped by the identity.  The solver's packed
# transformers are checked against it lane by lane.

def all_s(handlers):
    """The entry map: every handler in S."""
    return {h: HState.S for h in handlers}


def touched(t, handlers):
    """The non-identity lanes of a packed transformer, as a dict
    transformer."""
    return {h: f for h, f in zip(handlers, t) if f != MF_ID}


def packed(handlers, f):
    """A dict transformer as a packed one over `handlers`."""
    return Transformer.of(handlers, f)


def hmf_apply(f, m):
    """A dict transformer applied to a handler-state map."""
    return {h: mf_apply(f.get(h, MF_ID), s) for h, s in m.items()}


def hmf_compose(g, f):
    """g after f, handler by handler, identity entries dropped."""
    out = {h: lane_of(compose_def(image(g.get(h, MF_ID)),
                                  image(f.get(h, MF_ID))))
           for h in f.keys() | g.keys()}
    return {h: fn for h, fn in out.items() if fn != MF_ID}


def hmf_meet(f, g):
    """The pointwise meet, handler by handler, identity entries dropped."""
    out = {h: lane_of(meet_def(image(f.get(h, MF_ID)),
                               image(g.get(h, MF_ID))))
           for h in f.keys() | g.keys()}
    return {h: fn for h, fn in out.items() if fn != MF_ID}


def canon_rel_def(pairs):
    """The canonical form of a relation: it holds (0, 0), and no pair
    (d1, d2) with d1 != 0 whose target is already generated from 0."""
    gen = {d2 for d1, d2 in pairs if d1 == ZERO and d2 != ZERO}
    out = {(ZERO, ZERO)}
    for d1, d2 in pairs:
        if d1 == ZERO:
            if d2 != ZERO:
                out.add((ZERO, d2))
        elif d2 != ZERO and d2 not in gen:
            out.add((d1, d2))
    return frozenset(out)


def identity_rel_def(domain):
    """The identity relation over the domain and 0."""
    return frozenset({(ZERO, ZERO), *((d, d) for d in domain.indices())})


def patch_of_rel(domain, rel) -> Patch:
    """The normalized patch that `rel` is of the identity: the facts
    whose `(d, d)` pair it lacks, ascending, and the pairs the identity
    lacks, ascending."""
    ident = identity_rel_def(domain)
    return Patch(tuple(sorted(d for d, _ in ident - rel)),
                 tuple(sorted(rel - ident)))


def gen_rel_def(domain, gens):
    """The relation that generates `gens` from 0 and keeps every other
    fact, built pair by pair over the whole domain."""
    pairs = [(ZERO, ZERO)]
    pairs.extend((ZERO, d) for d in gens)
    pairs.extend((d, d) for d in domain.indices() if d not in gens)
    return frozenset(pairs)


def assign_rel_def(domain, target, reads):
    """The relation of `target = <expression reading reads>`, built pair
    by pair over the whole domain."""
    pairs = [(ZERO, ZERO)]
    pairs.extend((d, d) for d in domain.indices() if d != target)
    pairs.extend((v, target) for v in reads)
    return frozenset(pairs)


def chain_source(h, g, l, a=7, b=3, init=False):
    """The synthetic chain program: handler h_i does `l` assignments
    g[(a*i+j) % g] = g[(b*i+j) % g] + j, then an if/print on two globals,
    then registers and emits h_{i+1}; top-level registers and emits h0.
    With `init`, h_i then prints t_{i-1} and writes t_i before it
    registers h_{i+1}, the door idiom: each of the h - 1 reads of a t is
    uninitialized only if its handler runs before it is registered, so
    the filter drops it."""
    lines = []
    for i in range(h):
        lines.append(f"fn h{i}() {{")
        for j in range(l):
            lines.append(f"  g{(a * i + j) % g} = g{(b * i + j) % g} + {j};")
        p, q = (a * i + l) % g, (b * i + l) % g
        lines.append(f"  if (g{p} < g{q}) {{ print(g{p}); }}")
        if init:
            if i:
                lines.append(f"  print(t{i - 1});")
            lines.append(f"  t{i} = 1;")
        if i + 1 < h:
            lines.append(f'  register("e{i + 1}", h{i + 1});')
            lines.append(f'  emit("e{i + 1}");')
        lines.append("}")
    lines.extend(f"var g{k};" for k in range(g))
    lines.extend(f"var t{k};" for k in range(h if init else 0))
    lines += ['register("e0", h0);', 'emit("e0");']
    return "\n".join(lines) + "\n"


def pipeline(program):
    """parse-result -> (build result, uninit problem, exploded graph)."""
    build = build_supergraph(program)
    problem = UninitProblem(program, build.graph)
    xsg = explode(build.graph, problem.domain, problem.flow_for)
    return build, problem, xsg


def solve_plain(xsg):
    """The plain IFDS result over `xsg`, read off the identity-labelled
    solve."""
    return solve_ifds(solve_ide(LabeledExplodedSupergraph(xsg, {}, ())))


def sample_programs():
    """(tag, program) for the corpus, the golden sources and 200 seeded
    random programs with loops."""
    for name in CORPUS_NAMES:
        yield name, load_corpus_entry(name)[0]
    for evl in sorted((Path(__file__).parent / "golden").glob("*.evl")):
        yield evl.name, parse(evl.read_text(encoding="utf-8"))
    params = GenParams(allow_while=True)
    for i in range(200):
        yield f"tables:{i}", parse(gen_source(f"tables:{i}", params))


def facts_by_name(result, problem):
    return {n: problem.domain.names_of(ds) for n, ds in result.facts.items()}


class PathBudgetExceededError(Exception):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"path enumeration exceeded the budget of {budget}")


def apply_rel(r: frozenset, s) -> frozenset[int]:
    """Evaluate the represented function on a subset of D (union meet)."""
    out = set()
    for d1, d2 in r:
        if d2 == ZERO:
            continue
        if d1 == ZERO or d1 in s:
            out.add(d2)
    return frozenset(out)


@dataclass
class BruteResult:
    """The plain result as `mvp_bruteforce` enumerates it: per reached
    node its non-zero facts (nodes without facts have no entry)."""

    facts: dict[str, frozenset[int]]
    reachable: frozenset[str]
    stats: dict = field(default_factory=dict)

    def facts_at(self, node: str) -> frozenset[int]:
        return self.facts.get(node, frozenset())


def mvp_bruteforce(g: Supergraph, rel_of: dict[int, frozenset],
                   entry: str | None = None, max_len: int = 40,
                   path_budget: int = 100_000) -> BruteResult:
    """Definitional oracle: enumerate valid paths up to max_len, apply the
    composed flow function of each to the empty set, union per node.

    Intended for small graphs only; raises PathBudgetExceededError when
    enumeration outgrows the budget.
    """
    entry = entry or g.entry()
    facts: dict[str, set[int]] = defaultdict(set)
    reachable: set[str] = set()
    # memo avoids re-walking suffixes for identical (node, facts, stack)
    # states; the set of facts fully determines everything downstream.
    seen: set = set()

    explored = 0

    def walk(node: str, s: frozenset, stack: tuple, depth: int):
        nonlocal explored
        reachable.add(node)
        facts[node] |= s
        if depth >= max_len:
            return
        key = (node, s, stack, depth)
        if key in seen:
            return
        seen.add(key)
        for edge in g.out_edges(node):
            if edge.kind is EdgeKind.CALL:
                new_stack = stack + ((edge.dst, edge.ret_site),)
            elif edge.kind is EdgeKind.RETURN:
                frame = (g.start_of(g.proc_of(edge.src)), edge.dst)
                if not stack or stack[-1] != frame:
                    continue  # returns only to the innermost open call
                new_stack = stack[:-1]
            else:
                new_stack = stack
            explored += 1
            if explored > path_budget:
                raise PathBudgetExceededError(path_budget)
            walk(edge.dst, apply_rel(rel_of[edge.eid], s), new_stack, depth + 1)

    walk(entry, frozenset(), (), 0)
    return BruteResult({n: frozenset(ds) for n, ds in facts.items() if ds},
                       frozenset(reachable), {"paths_explored": explored})


def hsm_meet(a: dict[str, HState], b: dict[str, HState]) -> dict[str, HState]:
    """Pointwise meet of two handler-state maps over the same handlers."""
    return {h: hstate_meet(s, b[h]) for h, s in a.items()}


def brute_force_ide(graph, rel_of, labels, handlers, entry=None,
                    max_len=40, path_budget=200_000):
    """Path-enumeration oracle for the two-phase solver: walk every valid
    path, carry an environment (fact -> handler-state map, with the 0 row
    seeded all-S), and meet per node.  `labels` are packed transformers
    over `handlers`, applied as dict transformers; an edge without one
    carries the identity.  Memoizes identical continuation states, which
    leaves accumulated results unchanged."""
    entry = entry or graph.entry()
    labels = {eid: touched(t, handlers) for eid, t in labels.items()}
    values: dict[str, dict[int, dict]] = defaultdict(dict)
    explored = 0
    seen = set()

    def record(node, env):
        table = values[node]
        for d, hsm in env.items():
            table[d] = hsm_meet(table[d], hsm) if d in table else hsm

    def walk(node, env, stack, depth):
        nonlocal explored
        record(node, env)
        if depth >= max_len:
            return
        key = (node, frozenset((d, tuple(sorted(m.items())))
                               for d, m in env.items()), stack, depth)
        if key in seen:
            return
        seen.add(key)
        for edge in graph.out_edges(node):
            if edge.kind is EdgeKind.CALL:
                new_stack = stack + ((edge.dst, edge.ret_site),)
            elif edge.kind is EdgeKind.RETURN:
                frame = (graph.start_of(graph.proc_of(edge.src)), edge.dst)
                if not stack or stack[-1] != frame:
                    continue
                new_stack = stack[:-1]
            else:
                new_stack = stack
            explored += 1
            if explored > path_budget:
                raise RuntimeError("ide path oracle budget exceeded")
            label = labels.get(edge.eid, {})
            new_env: dict[int, dict] = {}
            for d1, d2 in rel_of[edge.eid]:
                if d1 not in env:
                    continue
                value = hmf_apply(label, env[d1])
                new_env[d2] = hsm_meet(new_env[d2], value) \
                    if d2 in new_env else value
            walk(edge.dst, new_env, new_stack, depth + 1)

    walk(entry, {ZERO: all_s(handlers)}, (), 0)
    return values


def filtered_by_hand(values, handlers):
    """Untransform applied to a brute-force IDE table."""
    out = {}
    for node, table in values.items():
        keep = frozenset(
            d for d, hsm in table.items()
            if d != ZERO and all(hsm[h] != HState.X for h in handlers))
        out[node] = keep
    return out
