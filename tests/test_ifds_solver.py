import pytest

from evflow.ifds import (
    ExplodedSupergraph,
    FactDomain,
    ZERO,
    exploded_dot,
)
from evflow.lang.parser import parse
from evflow.lang.ast import TOP_LEVEL, Assign, Print
from evflow.randgen import SMALL, gen_source
from evflow.supergraph import (
    EdgeKind,
    Node,
    NodeKind,
    Supergraph,
    node_for_sid,
)
from evflow.transform import analyze_event_aware
from evflow.uninit import report_uses

from helpers import (
    apply_rel,
    identity_rel_def,
    iter_stmts,
    mvp_bruteforce,
    patch_of_rel,
    PathBudgetExceededError,
    pipeline,
    solve_plain,
)


def test_apply_reference_relation():
    domain = FactDomain(["x", "y", "z"])
    x, y, z = (domain.index_of(v) for v in "xyz")
    r = frozenset({(ZERO, ZERO), (y, x), (y, y), (z, x), (z, z)})
    assert apply_rel(r, {y}) == frozenset({x, y})
    assert apply_rel(r, frozenset()) == frozenset()
    assert apply_rel(r, {x}) == frozenset()


def test_domain_validation():
    with pytest.raises(ValueError):
        FactDomain(["a", "a"])
    d = FactDomain(["p", "q"])
    assert d.name_of(d.index_of("q")) == "q"
    assert d.names_of({1, 2}) == frozenset({"p", "q"})


def node_of_assign(program, graph, pred):
    for f in program.functions:
        for s in iter_stmts(f.body):
            if isinstance(s, Assign) and pred(s):
                return node_for_sid(graph, program, s.sid)
    raise AssertionError("assignment not found")


def test_straight_line_kill():
    program = parse("var x; x = 1; print(x);")
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    print_node = next(n for n in build.graph.nodes.values()
                      if n.sid is not None
                      and isinstance(program.stmt(n.sid), Print))
    assert problem.domain.index_of("x") not in result.facts_at(print_node.id)
    assert report_uses(problem, result) == []


def test_uninit_survives_to_read():
    program = parse("var x; print(x);")
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    diags = report_uses(problem, result)
    assert [(d.var, d.line) for d in diags] == [("x", 1)]


def test_door_ifds_reports_concat(door):
    program, _ = door
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    concat = node_of_assign(program, build.graph,
                            lambda s: s.name == "txt" and "world" in str(s.value))
    assert problem.domain.index_of("txt") in result.facts_at(concat)
    diags = report_uses(problem, result)
    assert any(d.var == "txt" and d.node == concat for d in diags)


def test_dirstat_ifds_reports_sum(dirstat):
    program, _ = dirstat
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    add = node_of_assign(program, build.graph, lambda s: s.name == "sum")
    assert problem.domain.index_of("sum") in result.facts_at(add)


def test_callee_initialization_kills_global():
    src = ("fn setup() { g = 1; }\n"
           "var g;\n"
           "setup();\n"
           "print(g);\n")
    program = parse(src)
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    assert report_uses(problem, result) == []


def test_call_to_return_preserves_caller_local():
    src = ("fn noop() { print(0); }\n"
           "fn caller() { var l; noop(); print(l); }\n"
           "caller();\n")
    program = parse(src)
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    diags = report_uses(problem, result)
    assert [(d.var, d.qualified) for d in diags] == [("l", "caller.l")]


def test_param_binding_carries_uninit():
    src = ("fn show(p) { print(p); }\n"
           "var u; var v; v = 1;\n"
           "show(u);\n"
           "show(v);\n")
    program = parse(src)
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    diags = report_uses(problem, result)
    # the uninitialized actual u is reported both at the call site and,
    # through parameter binding, inside show
    assert {d.qualified for d in diags} == {"show.p", "u"}
    assert all(d.qualified != "show.p" or d.line == 1 for d in diags)


def test_branch_join_unions():
    src = ("var x;\n"
           "var c; c = 1;\n"
           "if (c > 0) { x = 1; } else { print(0); }\n"
           "print(x);\n")
    program = parse(src)
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    diags = report_uses(problem, result)
    assert {(d.var, d.line) for d in diags} == {("x", 4)}


def test_fixpoint_rerun_identical(door):
    program, _ = door
    _, _, xsg = pipeline(program)
    r1 = solve_plain(xsg)
    r2 = solve_plain(xsg)
    assert r1.facts == r2.facts and r1.reachable == r2.reachable
    assert r1.stats == r2.stats


def test_unreachable_nodes_flagged():
    program = parse("fn dead() { var d; print(d); }\nprint(1);")
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    dead_start = build.graph.start_of("dead")
    assert dead_start not in result.reachable
    assert result.facts_at(dead_start) == frozenset()


def test_tabulation_subset_of_plain_reachability(door, dirstat):
    # ignoring balancing can only add facts, never remove
    for program, _ in (door, dirstat):
        _, problem, xsg = pipeline(program)
        balanced = solve_plain(xsg)
        g = xsg.graph
        plain: dict[str, set[int]] = {g.entry(): {ZERO}}
        work = [(g.entry(), ZERO)]
        seen = {(g.entry(), ZERO)}
        while work:
            n, d = work.pop()
            for e in g.out_edges(n):
                for d2 in (t for s, t in xsg.rel_of[e.eid] if s == d):
                    if (e.dst, d2) not in seen:
                        seen.add((e.dst, d2))
                        work.append((e.dst, d2))
        for n, facts in balanced.facts.items():
            assert all((n, d) in seen for d in facts)


def _manual_two_node_graph():
    """f calls g once; plus a deliberately unbalanced return edge target."""
    g = Supergraph()
    for node in [
        Node("start:main", NodeKind.START, "main"),
        Node("end:main", NodeKind.END, "main"),
        Node("call:main:0", NodeKind.CALL_SITE, "main", 0),
        Node("ret:main:0", NodeKind.RETURN_SITE, "main", 0),
        Node("bad:main", NodeKind.RETURN_SITE, "main", 1),
        Node("start:g", NodeKind.START, "g"),
        Node("end:g", NodeKind.END, "g"),
    ]:
        g.add_node(node)
    g.funcs = {"main": ("start:main", "end:main"), "g": ("start:g", "end:g")}
    g.add_edge("start:main", "call:main:0", EdgeKind.INTRA)
    g.add_edge("call:main:0", "start:g", EdgeKind.CALL,
               ret_site="ret:main:0")
    g.add_edge("start:g", "end:g", EdgeKind.INTRA)
    g.add_edge("end:g", "ret:main:0", EdgeKind.RETURN)
    # an unbalanced pseudo-path: returning from g to a site nobody called from
    g.add_edge("end:g", "bad:main", EdgeKind.RETURN)
    g.add_edge("call:main:0", "ret:main:0", EdgeKind.CALL_TO_RETURN)
    g.add_edge("ret:main:0", "end:main", EdgeKind.INTRA)
    return g


def test_bruteforce_excludes_unbalanced_path():
    g = _manual_two_node_graph()
    from evflow.ifds import FactDomain
    domain = FactDomain(["t"])
    rel = identity_rel_def(domain)
    gen = frozenset({(ZERO, ZERO), (ZERO, 1)})
    rel_of = {e.eid: rel for e in g.edges}
    # the call edge generates the fact inside g
    call_eid = next(e.eid for e in g.edges if e.kind is EdgeKind.CALL)
    rel_of[call_eid] = gen
    result = mvp_bruteforce(g, rel_of, "start:main", max_len=10)
    assert 1 in result.facts_at("ret:main:0")
    assert "bad:main" not in result.reachable


def test_budget_raises():
    program = parse(gen_source("budget", SMALL))
    _, _, xsg = pipeline(program)
    with pytest.raises(PathBudgetExceededError):
        mvp_bruteforce(xsg.graph, xsg.rel_of, max_len=40, path_budget=5)


def test_acyclic_no_call_graph_equals_bruteforce():
    program = parse("var a; var b; a = 1; if (a > 0) { b = a; } print(b);")
    _, _, xsg = pipeline(program)
    exact = solve_plain(xsg)
    brute = mvp_bruteforce(xsg.graph, xsg.rel_of, max_len=30)
    assert brute.facts == exact.facts
    assert brute.reachable == exact.reachable


def test_bruteforce_equals_tabulation_on_random_programs():
    mismatches = []
    complete = 0
    for i in range(60):
        source = gen_source(f"oracle:{i}", SMALL)
        program = parse(source)
        _, _, xsg = pipeline(program)
        try:
            brute = mvp_bruteforce(xsg.graph, xsg.rel_of, max_len=40,
                                   path_budget=100_000)
        except PathBudgetExceededError:
            continue
        complete += 1
        exact = solve_plain(xsg)
        if brute.facts != exact.facts or brute.reachable != exact.reachable:
            mismatches.append(source)
    assert complete >= 50, f"only {complete} programs fit the budget"
    assert mismatches == [], mismatches[0]


def test_handler_also_called_directly():
    # h is a registered handler and a plain callee; its summary kills g on
    # the direct call, and dispatch returns go back to the loop
    src = ('fn h() { g = 1; }\n'
           "var g;\n"
           'register("e", h);\n'
           "h();\n"
           "print(g);\n"
           'emit("e");\n')
    program = parse(src)
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    assert report_uses(problem, result) == []
    from evflow.lang.interp import interpret
    trace = interpret(program)
    assert trace.uninit_reads() == [] and trace.outputs() == ["1"]


def test_recursive_function_summaries():
    src = ("fn rec(n) { if (n > 0) { rec(n - 1); } g = 1; }\n"
           "var g;\n"
           "rec(2);\n"
           "print(g);\n")
    program = parse(src)
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    assert report_uses(problem, result) == []
    brute = mvp_bruteforce(xsg.graph, xsg.rel_of, max_len=40)
    assert brute.facts == result.facts


def test_empty_program_solves():
    _, problem, xsg = pipeline(parse(""))
    result = solve_plain(xsg)
    assert result.facts == {}
    assert xsg.graph.entry() in result.reachable
    assert "loop" in result.reachable


def test_exploded_dot(door):
    program, _ = door
    _, _, xsg = pipeline(program)
    dot = exploded_dot(xsg)
    assert dot.startswith("digraph exploded {")
    assert "rank=same" in dot
    assert "txt" in dot


def _grouped(rel):
    table = {}
    for d1, d2 in sorted(rel):
        table.setdefault(d1, []).append(d2)
    return [(d1, tuple(ds)) for d1, ds in table.items()]


def _exploded(g, domain, rel_of):
    return ExplodedSupergraph(g, domain, {
        eid: patch_of_rel(domain, rel) for eid, rel in rel_of.items()})


def test_successor_tables_far_from_the_identity():
    """With every fact a class of its own, each successor table, patched
    from the identity's, is the grouping of the sorted relation by
    source, keys in ascending order; edges with equal relations share
    one table, and the relation view gives the relations back."""
    g = _manual_two_node_graph()
    domain = FactDomain(["a", "b", "c", "d"])
    ident = identity_rel_def(domain)
    no_zero = frozenset({(1, 2), (3, 3), (4, 1)})
    # sources 1 and 2 lose their diagonal, 4 keeps it and gains 1 and 3
    off_diagonal = frozenset({(ZERO, ZERO), (ZERO, 4), (2, 1), (2, 3),
                              (1, 3), (3, 3), (4, 4), (4, 1), (4, 3)})
    rels = [no_zero, off_diagonal, frozenset(set(ident)), ident,
            ident - {(2, 2)} | {(1, 2), (3, 2)}, frozenset(), off_diagonal]
    assert len(rels) == len(g.edges)
    rel_of = {e.eid: rel for e, rel in zip(g.edges, rels)}
    xsg = _exploded(g, domain, rel_of)
    assert len(xsg.classes) == len(domain)
    for eid, rel in rel_of.items():
        assert list(xsg.rep_succ[eid].items()) == _grouped(rel), rel
    assert xsg.rep_succ[g.edges[1].eid] is xsg.rep_succ[g.edges[6].eid]
    assert xsg.rep_succ[g.edges[2].eid] is xsg.rep_succ[g.edges[3].eid]
    assert xsg.rel_of == rel_of

    empty = FactDomain([])
    rels = [frozenset({(ZERO, ZERO)}), frozenset()] * 4
    rel_of = {e.eid: rel for e, rel in zip(g.edges, rels)}
    xsg = _exploded(g, empty, rel_of)
    for eid, rel in rel_of.items():
        assert list(xsg.rep_succ[eid].items()) == _grouped(rel), rel
    assert xsg.rel_of == rel_of


def test_classes_are_read_off_the_relations_alone():
    """On hand-made relations: `a` and `b` differ only in a gen, `c` and
    `d` are generated and dropped by the same relations, and `e` flows
    into `f`.  The solver's tables over representatives are the per-fact
    tables without `d`, and the class solve equals the path oracle."""
    g = _manual_two_node_graph()
    g.funcs[TOP_LEVEL] = g.funcs["main"]    # the solve enters there
    domain = FactDomain(["a", "b", "c", "d", "e", "f"])
    a, b, c, d, e, f = domain.indices()
    ident = identity_rel_def(domain)
    rel_of = {edge.eid: ident for edge in g.edges}
    rel_of[g.edges[0].eid] = ident | {(ZERO, a), (ZERO, c), (ZERO, d),
                                      (ZERO, e)}
    rel_of[g.edges[2].eid] = ident - {(c, c), (d, d)}
    rel_of[g.edges[6].eid] = ident | {(e, f)}
    xsg = _exploded(g, domain, rel_of)
    assert xsg.classes == {a: (a,), b: (b,), c: (c, d), e: (e,), f: (f,)}
    for eid, rel in rel_of.items():
        assert xsg.rep_succ[eid] == {
            s: tuple(t for t in ts if t != d)
            for s, ts in _grouped(rel) if s != d}
    result = solve_plain(xsg)
    brute = mvp_bruteforce(g, rel_of, "start:main", max_len=20)
    assert result.facts == brute.facts
    assert result.reachable == brute.reachable
    assert d in result.facts_at("start:g")
    assert d not in result.facts_at("end:g")


# `a` and `b` differ only in `a`'s initializer; `b` and `c` are dropped
# and generated by the same relations.
SYMMETRY_SOURCE = """fn h() { print(a); print(b); print(c); }
var a = 1;
var b;
var c;
register("e", h);
print(a);
emit("e");
"""


def test_facts_share_a_class_only_where_every_relation_agrees():
    """An initializer breaks the symmetry between two inert globals;
    two globals with identical kills share one class, represented by the
    lower fact, and every member reads the representative's map object
    at every node."""
    analysis = analyze_event_aware(parse(SYMMETRY_SOURCE))
    xsg, domain = analysis.xsg, analysis.domain
    a, b, c = (domain.index_of(v) for v in "abc")
    assert xsg.classes == {a: (a,), b: (b, c)}
    assert analysis.ide.stats["fact_classes"] == 2
    assert all(c not in table and all(c not in ds for ds in table.values())
               for table in xsg.rep_succ.values())
    shared = 0
    for node, env in analysis.ide.envs.items():
        assert (b in env) == (c in env), node
        if b in env:
            assert env[c] is env[b], node
            shared += 1
    assert shared > 0
    diags = report_uses(analysis.problem, analysis.ifds)
    assert {(d.var, d.line) for d in diags} == {("b", 1), ("c", 1)}
