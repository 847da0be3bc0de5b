import gc
import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from evflow.event_lattice import (
    HState,
    MF_EMIT,
    MF_REGISTER,
    Transformer,
)
from evflow import ide
from evflow.ide import LabeledExplodedSupergraph, _then, solve_ide, solve_ifds
from evflow.ifds import IDENTITY, ExplodedSupergraph, FactDomain, Patch, ZERO
from evflow.lang.parser import parse
from evflow.lang.ast import If, Print, While
from evflow.randgen import GenParams, SMALL, gen_source
from evflow.supergraph import EdgeKind, build_supergraph, node_for_sid
from evflow.transform import analyze_event_aware, transform, untransform

from conftest import CORPUS_NAMES, load_corpus_entry
from helpers import (
    brute_force_ide,
    chain_source,
    filtered_by_hand,
    iter_stmts,
    mvp_bruteforce,
    packed,
    PathBudgetExceededError,
    pipeline,
    sample_programs,
)

S, R, E, X = HState.S, HState.R, HState.E, HState.X


def ide_for(program, **kw):
    build, problem, xsg = pipeline(program)
    labeled = transform(xsg, build.ops, build.handlers)
    return build, problem, xsg, labeled, solve_ide(labeled, **kw)


def test_door_environment_maps(door):
    program, _ = door
    build, problem, xsg, labeled, result = ide_for(program,
                                                   check_descent=True)
    g = build.graph
    txt = problem.domain.index_of("txt")
    # the feasible path into hdlOpen keeps the close handler untouched
    assert result.envs[g.start_of("hdlOpen")][txt] == \
        {"hdlOpen": E, "hdlClose": S}
    # reaching hdlClose with txt still uninitialized needs an impossible
    # early invocation
    assert result.envs[g.start_of("hdlClose")][txt] == \
        {"hdlOpen": E, "hdlClose": X}


def test_door_zero_row_feasible(door):
    program, _ = door
    build, _, _, _, result = ide_for(program)
    g = build.graph
    # control reaches hdlClose feasibly, so the tautological row meets to
    # a map without X
    assert result.envs[g.start_of("hdlClose")][ZERO] == \
        {"hdlOpen": E, "hdlClose": E}


def _brute(xsg):
    return mvp_bruteforce(xsg.graph, xsg.rel_of, max_len=40,
                          path_budget=100_000)


def test_identity_labels_degenerate_to_ifds(door, dirstat, timer, server):
    for program, _ in (door, dirstat, timer, server):
        build, problem, xsg = pipeline(program)
        brute = _brute(xsg)
        labeled = LabeledExplodedSupergraph(xsg, {}, build.handlers)
        ide = solve_ide(labeled)
        plain = solve_ifds(ide)
        for node in set(brute.reachable) | set(ide.envs):
            assert plain.facts_at(node) == brute.facts_at(node), node
        assert set(ide.envs) == brute.reachable


def test_identity_degeneracy_on_random_programs():
    checked = 0
    for i in range(30):
        program = parse(gen_source(f"degen:{i}", SMALL))
        build, problem, xsg = pipeline(program)
        try:
            brute = _brute(xsg)
        except PathBudgetExceededError:
            continue
        checked += 1
        ide = solve_ide(LabeledExplodedSupergraph(xsg, {}, build.handlers))
        assert set(ide.envs) == brute.reachable
        plain = solve_ifds(ide)
        for node in brute.reachable:
            assert plain.facts_at(node) == brute.facts_at(node)
    assert checked >= 20


def _plain_readouts_agree(program):
    build, problem, xsg = pipeline(program)
    labeled = solve_ide(transform(xsg, build.ops, build.handlers))
    identity = solve_ide(LabeledExplodedSupergraph(xsg, {}, build.handlers))
    a, b = solve_ifds(labeled), solve_ifds(identity)
    return (a.facts, a.reachable, a.stats) == (b.facts, b.reachable, b.stats)


def test_labels_do_not_change_the_plain_readout():
    # the fact the single tabulation rests on: event labels decide which
    # facts to filter, never which exploded nodes are reached
    for name in CORPUS_NAMES:
        assert _plain_readouts_agree(load_corpus_entry(name)[0]), name
    params = GenParams(allow_while=True)
    for i in range(300):
        source = gen_source(f"readout:{i}", params)
        assert _plain_readouts_agree(parse(source)), source


def test_path_oracle_door(door):
    program, _ = door
    build, problem, xsg, labeled, result = ide_for(program)
    oracle = brute_force_ide(xsg.graph, xsg.rel_of, labeled.labels,
                             build.handlers, max_len=26)
    # every oracle value within the explored horizon must be above or
    # equal to the solver's meet (the solver sees all paths); where the
    # oracle already saturated, the values agree
    g = xsg.graph
    for node in (g.start_of("hdlOpen"), g.start_of("hdlClose")):
        for d, hsm in oracle[node].items():
            got = result.envs[node].get(d)
            assert got is not None
            assert all(got[h] <= hsm[h] for h in build.handlers)
    txt = problem.domain.index_of("txt")
    assert oracle[g.start_of("hdlClose")][txt] == \
        result.envs[g.start_of("hdlClose")][txt]


def test_path_oracle_equivalence_random():
    checked = 0
    for i in range(25):
        program = parse(gen_source(f"ideoracle:{i}", SMALL))
        build, problem, xsg = pipeline(program)
        labeled = transform(xsg, build.ops, build.handlers)
        result = solve_ide(labeled)
        try:
            oracle = brute_force_ide(xsg.graph, xsg.rel_of, labeled.labels,
                                     build.handlers, max_len=40,
                                     path_budget=150_000)
        except RuntimeError:
            continue
        checked += 1
        # nodes whose oracle table saturated match the solver exactly;
        # saturation is detected by re-running one step deeper
        deeper = brute_force_ide(xsg.graph, xsg.rel_of, labeled.labels,
                                 build.handlers, max_len=41,
                                 path_budget=300_000)
        for node, table in oracle.items():
            if deeper[node] != table:
                continue  # not yet saturated at this horizon
            for d, hsm in table.items():
                assert result.envs[node].get(d) == hsm, (i, node, d)
    assert checked >= 15


# `p` is entered with start facts p.a (from top-level) and p.b (from h);
# both reach the call q(c) with call fact p.c.  The top-level call has
# settled q's summary edge before h's call arrives, so only the pop of
# p.b's jump function there sends that edge to p.b, and with it g to
# `print(g)` in h.
CALL_EDGE_SOURCE = """var g = 0;
var x;
var y;
fn q(v) { g = v; }
fn p(a, b) { var c = a + b; q(c); }
fn h() { p(1, y); print(g); }
p(x, 1);
register("e", h);
emit("e");
"""


def test_call_edge_returns_a_settled_summary_to_a_later_start_fact():
    program = parse(CALL_EDGE_SOURCE)
    build, problem, xsg, labeled, result = ide_for(program,
                                                   check_descent=True)
    oracle = brute_force_ide(xsg.graph, xsg.rel_of, labeled.labels,
                             build.handlers, max_len=40)
    assert {n: dict(table) for n, table in oracle.items()} == result.envs
    plain = solve_ifds(result)
    brute = _brute(xsg)
    assert plain.facts == brute.facts
    assert plain.reachable == brute.reachable
    print_g = node_for_sid(xsg.graph, program, next(
        s.sid for s in iter_stmts(program.function("h").body)
        if isinstance(s, Print)))
    assert problem.domain.index_of("g") in plain.facts_at(print_g)


# q is called twice from top-level, with h registered in between.  In
# the test below, the first call's return edge maps q's exit fact f1 to
# f1 and f4, and the second call edge maps f4, and only f4, to q's f1.  So
# f4 reaches the second call site only after q's summary from f1 settled
# in a return wave, and that site's first pop with f4 reads it.  Its
# return edge maps f1 to f1, f2 and f3: a fan-out the uninit client never
# makes.
SETTLED_FAN_OUT_SOURCE = """fn h() { print(1); }
fn q() { print(2); }
q();
register("e", h);
q();
emit("e");
"""


def test_a_settled_summary_fans_out_at_a_later_call_site():
    program = parse(SETTLED_FAN_OUT_SOURCE)
    build = build_supergraph(program)
    g = build.graph
    domain = FactDomain(("f1", "f2", "f3", "f4"))
    f1, f2, f3, f4 = domain.indices()
    first, second = [e for e in g.edges if e.kind is EdgeKind.CALL
                     and g.proc_of(e.dst) == "q"]
    patch_of = {e.eid: IDENTITY for e in g.edges}
    for e in g.out_edges(g.entry()):
        patch_of[e.eid] = Patch((), ((ZERO, f1),))
    patch_of[second.eid] = Patch((f1, f4), ((f4, f1),))
    for e in g.edges:
        if e.kind is EdgeKind.RETURN and e.dst == first.ret_site:
            patch_of[e.eid] = Patch((), ((f1, f4),))
        elif e.kind is EdgeKind.RETURN and e.dst == second.ret_site:
            patch_of[e.eid] = Patch((), ((f1, f2), (f1, f3)))
    xsg = ExplodedSupergraph(g, domain, patch_of)
    labeled = transform(xsg, build.ops, build.handlers)
    result = solve_ide(labeled, check_descent=True)
    oracle = brute_force_ide(g, xsg.rel_of, labeled.labels, build.handlers,
                             max_len=40)
    assert {n: dict(table) for n, table in oracle.items()} == result.envs
    plain = solve_ifds(result)
    brute = _brute(xsg)
    assert plain.facts == brute.facts
    assert plain.reachable == brute.reachable
    assert plain.facts_at(second.ret_site) == {f1, f2, f3, f4}


# Programs whose callee summaries reach a call site in every order the
# summary-edge rule has to handle:
# - merge: three handlers return into the one loop edge per (loop, fact);
#   h1 is emitted from top-level and from h2, so its summary drops after
#   the loop's edges exist;
# - recursive: r's summary through the base case returns to the recursive
#   call before the path through the recursion lowers it;
# - nested: a called function registers and emits, so the loop's
#   summaries return into it, and its own into top-level, twice;
# - self_emit: h registers and emits its own event, and registers k, so a
#   return wave sends a loop edge that drops into the loop's jump
#   functions, which are its callers and its return site at once, and
#   lowers the row it reads the callers from;
# - relowered: the second f() call site's first pop reads f's summary
#   through the path that skips g, and a later return wave lowers it with
#   the path through g's emit.
SUMMARY_EDGE_SOURCES = {
    "merge": """var x;
var y;
var z;
fn h1() { print(x); y = 1; }
fn h2() { print(y); z = 1; emit("a"); }
fn h3() { x = 1; print(z); }
register("a", h1);
register("b", h2);
register("c", h3);
emit("b");
emit("a");
emit("c");
""",
    "recursive": """var x;
var g;
fn h() { print(g); }
fn r(n) { if (n > 0) { register("e", h); r(n - 1); g = x; } print(x); }
r(2);
emit("e");
x = 1;
""",
    "nested": """var x;
var y;
fn h() { print(x); y = 1; }
fn setup() { register("e", h); emit("e"); x = 1; }
setup();
print(y);
setup();
""",
    "self_emit": """var x;
var y;
fn k() { print(x); }
fn h() { register("e", h); register("b", k); emit("e"); y = 1; }
register("e", h);
emit("e");
print(y);
x = 1;
""",
    "relowered": """var x;
var y;
var c = 1;
fn h() { print(x); y = 1; }
fn g() { emit("e"); }
fn f() { if (c > 0) { g(); } print(y); }
register("e", h);
f();
f();
x = 1;
""",
}


@pytest.mark.parametrize("name", SUMMARY_EDGE_SOURCES)
def test_summary_edges_answer_like_the_path_oracles(name):
    program = parse(SUMMARY_EDGE_SOURCES[name])
    build, problem, xsg, labeled, result = ide_for(program,
                                                   check_descent=True)
    oracle = brute_force_ide(xsg.graph, xsg.rel_of, labeled.labels,
                             build.handlers, max_len=40)
    assert {n: dict(table) for n, table in oracle.items()} == result.envs
    plain = solve_ifds(result)
    brute = _brute(xsg)
    assert plain.facts == brute.facts
    assert plain.reachable == brute.reachable
    assert result.stats["summary_edges"] > 0


def test_jump_functions_descend_and_fixpoint(door, dirstat):
    for program, _ in (door, dirstat):
        build, problem, xsg = pipeline(program)
        labeled = transform(xsg, build.ops, build.handlers)
        r1 = solve_ide(labeled, check_descent=True)
        r2 = solve_ide(labeled, check_descent=True)
        assert r1.envs == r2.envs
        assert r1.stats["jump_functions"] == r2.stats["jump_functions"]


def test_descent_check_survives_python_O():
    # a solve that must descend (door merges paths) with every descent
    # declared invalid: the check has to fire even with asserts stripped
    code = (
        "import evflow.ide as ide\n"
        "from conftest import load_corpus_entry\n"
        "from helpers import pipeline\n"
        "from evflow.transform import transform\n"
        "build, _, xsg = pipeline(load_corpus_entry('door')[0])\n"
        "labeled = transform(xsg, build.ops, build.handlers)\n"
        "ide.packed_leq = lambda new, old: False\n"
        "try:\n"
        "    ide.solve_ide(labeled, check_descent=True)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=f"{tests.parent / 'src'}{os.pathsep}{tests}")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          timeout=60)
    assert done.returncode == 0


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_meet_that_rises_fails_the_descent_check(name, monkeypatch):
    """A meet that returns its second operand lets a jump function rise
    where paths merge: the descent check raises, and a solve without it
    runs to its end."""
    monkeypatch.setattr(ide, "packed_meet", lambda f, g: g)
    program = load_corpus_entry(name)[0]
    analyze_event_aware(program)
    with pytest.raises(AssertionError) as err:
        analyze_event_aware(program, check_descent=True)
    assert str(err.value) == "jump function must only descend"


def _chain_labeled(h, g):
    build, _, xsg = pipeline(parse(chain_source(h, g, 4)))
    return transform(xsg, build.ops, build.handlers)


def test_lattice_operators_run_once_per_distinct_pair():
    labeled = _chain_labeled(10, 20)
    first = solve_ide(labeled)
    second = solve_ide(labeled)
    # compose is asked for on every propagation, but only a few hundred
    # distinct pairs occur
    assert 0 < first.stats["compositions"] < 1000
    assert first.stats["meets"] > 0
    assert first.stats["distinct_functions"] > len(labeled.handlers)
    # nothing outlives a solve: a second one redoes every evaluation
    assert second.stats == first.stats
    assert second.envs == first.envs


def test_a_dropped_solve_is_freed_without_the_cycle_collector():
    """Nothing a solve builds, its result's rows included, sits in a
    reference cycle, so dropping the result frees it at once."""
    labeled = _chain_labeled(6, 12)
    gc.collect()
    gc.disable()
    try:
        result = solve_ide(labeled)
        untransform(result).facts
        assert result.envs and result.reachable
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stats_do_not_depend_on_string_hashing():
    """Step counts, the fact classes and their representatives are the
    same under any string hashing, on a program whose facts are all
    singletons and on one where most share a class."""
    code = (
        "import json\n"
        "from pathlib import Path\n"
        "from helpers import chain_source, pipeline\n"
        "from evflow.lang.parser import parse\n"
        "from evflow.ide import solve_ide\n"
        "from evflow.transform import transform\n"
        "wide = Path('tests/golden/wide_3x100.evl').read_text()\n"
        "for source in (chain_source(6, 12, 4), wide):\n"
        "    build, _, xsg = pipeline(parse(source))\n"
        "    labeled = transform(xsg, build.ops, build.handlers)\n"
        "    print(json.dumps(solve_ide(labeled).stats, sort_keys=True))\n"
        "    print(json.dumps(list(xsg.classes.items())))\n")
    tests = Path(__file__).parent
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=f"{tests.parent / 'src'}{os.pathsep}{tests}")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=tests.parent, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
    lines = outputs.pop().splitlines()
    wide_stats, wide_classes = json.loads(lines[2]), json.loads(lines[3])
    assert wide_stats["fact_classes"] == len(wide_classes) < 100
    # a class is named by its lowest fact, and classes come in the order
    # of their representatives
    assert all(rep == min(ds) and ds == sorted(ds)
               for rep, ds in wide_classes)
    reps = [rep for rep, _ in wide_classes]
    assert reps == sorted(reps)


def test_environments_only_for_reachable(door):
    program, _ = door
    build, problem, xsg, labeled, result = ide_for(program)
    assert set(result.envs) == _brute(xsg).reachable


def test_label_sizes_bounded_by_handlers(door, dirstat, timer, server):
    for program, _ in (door, dirstat, timer, server):
        analysis = analyze_event_aware(program)
        n_handlers = len(analysis.build.handlers)
        for hmf in analysis.labeled.labels.values():
            assert len(hmf) == n_handlers
        assert analysis.ide.stats["max_label_entries"] <= n_handlers


def _interning_programs():
    for name in CORPUS_NAMES:
        yield load_corpus_entry(name)
    params = GenParams(allow_while=True)
    for i in range(200):
        yield parse(gen_source(f"maps:{i}", params)), None


def test_environment_maps_are_interned():
    """Equal maps in the environments are one dict, the query hands out
    that same dict, and a second solve starts from empty intern tables."""
    for program, _ in _interning_programs():
        _, _, _, labeled, result = ide_for(program)
        maps = [m for env in result.envs.values() for m in env.values()]
        distinct = {tuple(sorted(m.items())) for m in maps}
        assert len({id(m) for m in maps}) == len(distinct)
        assert all(result.map_at(node, d) is hsm
                   for node, env in result.envs.items()
                   for d, hsm in env.items())
        again = solve_ide(labeled)
        assert again.stats == result.stats
        assert again.envs == result.envs


def test_queries_equal_the_materialized_solution():
    """At every node and fact, reached or not, `map_at` is the
    environment entry, and plain and kept membership are membership in
    the materialized fact sets; on the corpus, the goldens and 200
    random programs."""
    for tag, program in sample_programs():
        analysis = analyze_event_aware(program)
        ide, plain, kept = analysis.ide, analysis.ifds, analysis.filtered
        facts = (ZERO, *analysis.domain.indices(), len(analysis.domain) + 1)
        for node in analysis.build.graph.nodes:
            env = ide.envs.get(node, {})
            reached = node in plain.reachable
            assert reached == (node in ide.envs) == \
                (node in kept.reachable), (tag, node)
            assert plain.holds(node, ZERO) == reached, (tag, node)
            for d in facts:
                assert ide.map_at(node, d) == env.get(d), (tag, node, d)
                if d != ZERO:
                    assert plain.holds(node, d) == \
                        (d in plain.facts_at(node)), (tag, node, d)
                    assert kept.holds(node, d) == \
                        (d in kept.facts_at(node)), (tag, node, d)


def test_class_solve_equals_the_per_fact_oracles():
    """On random programs, some with interchangeable facts, the class
    solve's environments equal the path oracle's over every fact of the
    full relations, and its plain result equals `mvp_bruteforce`."""
    checked = merged = 0
    for i in range(120):
        program = parse(gen_source(f"classes:{i}", SMALL))
        build, problem, xsg, labeled, result = ide_for(program)
        try:
            oracle = brute_force_ide(xsg.graph, xsg.rel_of, labeled.labels,
                                     build.handlers, max_len=40,
                                     path_budget=150_000)
            brute = _brute(xsg)
        except (RuntimeError, PathBudgetExceededError):
            continue
        checked += 1
        merged += len(xsg.classes) < len(problem.domain)
        assert {n: dict(t) for n, t in oracle.items()} == result.envs, i
        plain = solve_ifds(result)
        assert plain.facts == brute.facts, i
        assert plain.reachable == brute.reachable, i
    assert checked >= 100
    assert merged >= 5


def _random_patch(rng, facts):
    """A patch over `facts` that drops some `(d, d)` pairs, gens some
    facts from 0 and adds some pairs between two non-zero facts."""
    dropped = sorted(rng.sample(facts, rng.randint(0, len(facts))))
    added = {(ZERO, d) for d in facts if rng.random() < 0.3}
    if len(facts) > 1:
        added |= {tuple(rng.sample(facts, 2)) for _ in range(rng.randint(0, 3))}
    return Patch(tuple(dropped), tuple(sorted(added)))


def _fans_out(patch, d):
    """Whether `patch` maps the non-zero fact `d` to two or more facts."""
    kept = d not in patch.dropped
    return kept + sum(d1 == d for d1, _ in patch.added) >= 2


def test_random_ifds_problems_equal_the_path_oracles():
    """Random flow functions on the supergraphs of random programs, with
    their event labels: 1-5 facts, 1-4 distinct patches besides the
    identity, pairs between non-zero facts.  The environments equal the
    path oracle's, and the plain and filtered results equal
    `mvp_bruteforce` and the oracle's filter.  Some of these shapes the
    uninit client never makes, such as a return edge that maps a reached
    non-zero fact to several facts."""
    checked = merged = fanned_returns = filtered = 0
    for i in range(80):
        rng = random.Random(f"ifds:{i}")
        program = parse(gen_source(f"ifds:{i}", SMALL))
        build = build_supergraph(program)
        domain = FactDomain(f"f{k}" for k in range(rng.randint(1, 5)))
        facts = list(domain.indices())
        patches = [IDENTITY, *(_random_patch(rng, facts)
                               for _ in range(rng.randint(1, 4)))]
        xsg = ExplodedSupergraph(build.graph, domain, {
            e.eid: rng.choice(patches) for e in build.graph.edges})
        labeled = transform(xsg, build.ops, build.handlers)
        result = solve_ide(labeled, check_descent=True)
        try:
            oracle = brute_force_ide(xsg.graph, xsg.rel_of, labeled.labels,
                                     build.handlers, max_len=40,
                                     path_budget=150_000)
            brute = _brute(xsg)
        except (RuntimeError, PathBudgetExceededError):
            continue
        checked += 1
        assert {n: dict(t) for n, t in oracle.items()} == result.envs, i
        plain, kept = solve_ifds(result), untransform(result)
        assert plain.facts == brute.facts, i
        assert plain.reachable == brute.reachable, i
        by_hand = filtered_by_hand(oracle, build.handlers)
        assert kept.facts == {n: ds for n, ds in by_hand.items() if ds}, i
        merged += len(xsg.classes) < len(domain)
        filtered += kept.facts != plain.facts
        fanned_returns += any(
            _fans_out(xsg.patch_of[e.eid], d)
            for e in build.graph.edges if e.kind is EdgeKind.RETURN
            for d in brute.facts_at(e.src))
    assert checked >= 75, checked
    assert merged >= 3 and filtered >= 10 and fanned_returns >= 10, \
        (merged, filtered, fanned_returns)


# Straight-line shapes that `solve_ide` folds into blocks: a `while` body,
# an `if` without `else`, runs that end at a call site and at an exit, a
# block headed by a return site, an empty function, a run through two
# registrations in order, and a handler whose event is never emitted, so
# that the filter drops every fact in its blocks.
BLOCK_SOURCES = ("""var g;
var x;
var y;
fn empty() { }
fn f() { y = x; g = y; print(g); }
f();
var i = 0;
while (i < 2) { print(y); i = i + 1; y = i; }
if (i < 3) { print(g); g = 2; }
empty();
print(g);
x = 3;
f();
""", """var x;
var z;
fn h() { print(x); z = x; }
fn k() { print(z); z = x; print(z); }
register("e", h);
register("f", k);
x = 1;
emit("e");
print(z);
""")


def _interior(g):
    """The nodes whose only in-edge is intraprocedural and comes from a
    node with one out-edge, call sites and exits aside."""
    into = defaultdict(list)
    for e in g.edges:
        into[e.dst].append(e)
    call_sites = {e.src for e in g.edges if e.kind is EdgeKind.CALL}
    exits = {end for _, end in g.funcs.values()}
    return {n for n, es in into.items()
            if len(es) == 1 and es[0].kind is EdgeKind.INTRA
            and len(g.out_edges(es[0].src)) == 1
            and n not in call_sites and n not in exits}


def _block_shapes(program, g, labels, interior) -> set[str]:
    """Which of the shapes of `BLOCK_SOURCES` the blocks of `g` show."""
    shapes = set()
    identity = Transformer()    # the label of an edge without one
    for func in program.functions:
        for s in iter_stmts(func.body):
            body = s.then_body if isinstance(s, If) else \
                s.body if isinstance(s, While) else []
            inner = {node_for_sid(g, program, b.sid) for b in body[1:]}
            if inner and inner <= interior:
                shapes.add(f"{type(s).__name__} body")
    for m in interior:
        (e,) = (e for e in g.edges if e.dst == m)
        if e.src in interior:
            continue
        shapes.add(f"headed by {g.nodes[e.src].kind.value}")
        # walk the run to its end, counting non-identity labels
        run_labels = [labels.get(e.eid, identity)]
        while True:
            outs = g.out_edges(e.dst)
            if len(outs) != 1 or outs[0].dst not in interior:
                break
            e = outs[0]
            run_labels.append(labels.get(e.eid, identity))
        for out in outs:
            shapes.add(f"ends at {g.nodes[out.dst].kind.value}")
            if sum(not f.is_identity() for f in (
                    *run_labels, labels.get(out.eid, identity))) >= 2:
                shapes.add("two labels in a block")
    return shapes


def _relabelled(labeled, interior):
    """`labeled` plus one handler that each block emits as it enters its
    run and registers as it leaves: the event labelling puts only
    registrations on straight-line edges, and they commute, so these
    labels are what shows the order in which a block composes them."""
    handlers = (*labeled.handlers, "relabel")
    emit, register = (packed(handlers, {"relabel": mf})
                      for mf in (MF_EMIT, MF_REGISTER))
    # the new handler is the last lane, the identity on every other edge
    labels = {eid: Transformer(t + b"\0") for eid, t in labeled.labels.items()}
    for e in labeled.xsg.graph.edges:
        if e.kind is EdgeKind.INTRA and (e.src in interior) != \
                (e.dst in interior):
            labels[e.eid] = emit if e.dst in interior else register
    return LabeledExplodedSupergraph(labeled.xsg, labels, handlers)


def test_blocks_answer_like_the_path_oracles():
    """At every node of the block shapes, interior nodes included, the
    maps and both memberships equal the path oracles', under the event
    labels and under labels that do not commute, and jump functions are
    filed at as many nodes as are reached and not interior."""
    shapes = set()
    for source in BLOCK_SOURCES:
        program = parse(source)
        build, problem, xsg, labeled, _ = ide_for(program)
        g = xsg.graph
        interior = _interior(g)
        shapes |= _block_shapes(program, g, labeled.labels, interior)
        brute = _brute(xsg)
        for lx in (labeled, _relabelled(labeled, interior)):
            result = solve_ide(lx, check_descent=True)
            oracle = brute_force_ide(g, xsg.rel_of, lx.labels, lx.handlers,
                                     max_len=60)
            # jump functions sit only at reached heads: a node the solver
            # and `_interior` disagree on moves the count
            assert result.stats["heads"] == len(brute.reachable - interior)
            plain, kept = solve_ifds(result), untransform(result)
            for node in g.nodes:
                for d in (ZERO, *problem.domain.indices()):
                    want = oracle.get(node, {}).get(d)
                    assert result.map_at(node, d) == want, (node, d)
                    assert plain.holds(node, d) == (
                        node in brute.reachable if d == ZERO
                        else d in brute.facts_at(node)), (node, d)
                    assert kept.holds(node, d) == (
                        want is not None and X not in want.values()), \
                        (node, d)
                    if node in interior and d and plain.holds(node, d) \
                            and not kept.holds(node, d):
                        shapes.add("filtered inside a block")
    assert shapes == {"While body", "If body", "headed by start",
                      "headed by ret", "headed by stmt", "ends at call",
                      "ends at end", "ends at stmt", "two labels in a block",
                      "filtered inside a block"}, shapes


# a successor table over six facts: sources with one successor, with two
# or more, with an empty tuple, and absent ones.  The facts are multiples
# of 8, so a set of them need not iterate in ascending order, and a
# composition that forgot to sort would show.
_FACTS = range(0, 48, 8)
_facts = st.sampled_from(_FACTS)
_tables = st.dictionaries(
    _facts, st.lists(_facts, unique=True, max_size=4).map(
        lambda ds: tuple(sorted(ds))))


# the example: two successors whose successors overlap and come out of
# order, a source whose one successor has none, and an empty tuple
@given(_tables, _tables)
@example({0: (8, 16), 8: (0,), 16: ()}, {8: (0, 40), 16: (0, 24)})
def test_then_composes_successor_tables(a, b):
    """A block's table is its edges' tables composed: per source, the
    ascending successors of its successors, and no source without one."""
    ab = _then(a, b)
    for d in _FACTS:
        assert ab.get(d, ()) == tuple(sorted(
            {d3 for d2 in a.get(d, ()) for d3 in b.get(d2, ())})), d
    assert all(ab.values())


# f is called after `register` on one branch and after `emit; register`
# in g on the other: two transformers that differ where h is registered
# but agree on the entry map, so met as transformers f's start value
# would drop while its map stays {h: R}.  g's emit enters the loop after
# the end of top-level has, with a map no lower, so nothing else drops.
TRANSFORMER_DROP_SOURCE = """var x;
var c = 1;
fn h() { print(x); }
fn f() { print(x); }
fn g() { emit("e"); register("e", h); f(); }
if (c > 0) {
  register("e", h);
  f();
} else {
  g();
}
x = 1;
"""


def test_a_start_value_stays_where_its_map_stays():
    """Here `f` is entered with two transformers that differ but give
    the same map (register `h`, and emit then register `h`).  Phase 2
    keeps values in their normal form at S, so the second does not drop
    the first and no value is stepped twice, and the maps read at every
    node and fact are still the meet over valid paths."""
    program = parse(TRANSFORMER_DROP_SOURCE)
    build, problem, xsg, labeled, result = ide_for(program,
                                                   check_descent=True)
    g = xsg.graph
    facts = (ZERO, *problem.domain.indices())
    assert len(xsg.classes) == len(problem.domain)
    # phase 2 keeps one value per (start or call site, fact) and steps
    # each once, and once more each time it drops
    calls = [e for e in g.edges if e.kind is EdgeKind.CALL]
    keyed = {g.entry(), *(e.src for e in calls), *(e.dst for e in calls)}
    values = sum(len(result.envs.get(n, ())) for n in keyed)
    assert result.stats["phase2_steps"] == values
    x = problem.domain.index_of("x")
    assert result.envs[g.start_of("f")] == {ZERO: {"h": R}, x: {"h": R}}
    oracle = brute_force_ide(g, xsg.rel_of, labeled.labels, build.handlers,
                             max_len=40)
    for node in g.nodes:
        for d in facts:
            assert result.map_at(node, d) == oracle.get(node, {}).get(d), \
                (node, d)
