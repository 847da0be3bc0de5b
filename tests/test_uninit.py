import itertools
import random

from evflow.ifds import IDENTITY, ZERO, ExplodedSupergraph
from evflow.lang.parser import parse
from evflow.lang.ast import Assign, Call, If, VarDecl, expr_vars
from evflow.lang.interp import interpret
from evflow.supergraph import EdgeKind, NodeKind, node_for_sid
from evflow.uninit import report_uses

from helpers import (
    apply_rel,
    assign_rel_def,
    canon_rel_def,
    gen_rel_def,
    iter_stmts,
    patch_of_rel,
    pipeline,
    sample_programs,
    solve_plain,
)

from conftest import CORPUS_NAMES


def edge_after(program, graph, pred):
    for f in program.functions:
        for s in iter_stmts(f.body):
            if pred(s):
                node = node_for_sid(graph, program, s.sid)
                out = [e for e in graph.out_edges(node)
                       if e.kind is EdgeKind.INTRA]
                assert len(out) == 1
                return out[0]
    raise AssertionError("statement not found")


def test_assignment_relation_is_reference_shape():
    program = parse("var x; var y; var z; x = y + z;")
    _, problem, xsg = pipeline(program)
    edge = edge_after(program, xsg.graph,
                      lambda s: isinstance(s, Assign) and s.name == "x")
    x, y, z = (problem.domain.index_of(v) for v in "xyz")
    assert xsg.rel_of[edge.eid] == frozenset(
        {(ZERO, ZERO), (y, x), (y, y), (z, x), (z, z)})


def test_var_decl_generates():
    # hoisting generates x on the edge leaving the start node; the
    # declaration itself, without an initializer, changes nothing
    program = parse("var a; var x; print(a);")
    _, problem, xsg = pipeline(program)
    edge = edge_after(program, xsg.graph,
                      lambda s: isinstance(s, VarDecl) and s.name == "x")
    a, x = problem.domain.index_of("a"), problem.domain.index_of("x")
    assert xsg.rel_of[edge.eid] == frozenset({(ZERO, ZERO), (a, a), (x, x)})
    start = next(e for e in xsg.graph.out_edges(xsg.graph.entry()))
    assert (ZERO, x) in xsg.rel_of[start.eid]


def test_redeclaration_after_assignment_keeps_the_value():
    # `var g;` after `g = 1;` does not make g uninitialized again, and no
    # run reads it unset
    program = parse("g = 1;\nvar g;\nprint(g);\n")
    _, problem, xsg = pipeline(program)
    assert report_uses(problem, solve_plain(xsg)) == []
    assert interpret(program).uninit_reads() == []


def test_constant_assignment_kills():
    program = parse("var a; var x; x = 1;")
    _, problem, xsg = pipeline(program)
    edge = edge_after(program, xsg.graph,
                      lambda s: isinstance(s, Assign) and s.name == "x")
    a, x = problem.domain.index_of("a"), problem.domain.index_of("x")
    assert xsg.rel_of[edge.eid] == frozenset({(ZERO, ZERO), (a, a)})
    # x never in the outgoing set regardless of the incoming set
    for s in ({a}, {x}, {a, x}, set()):
        assert x not in apply_rel(xsg.rel_of[edge.eid], s)


def test_self_referential_assignment_keeps_fact():
    program = parse("var x; x = x + 1;")
    _, problem, xsg = pipeline(program)
    edge = edge_after(program, xsg.graph,
                      lambda s: isinstance(s, Assign))
    x = problem.domain.index_of("x")
    assert (x, x) in xsg.rel_of[edge.eid]


def test_condition_and_print_are_identity():
    program = parse("var x; if (x > 0) { print(x); }")
    _, problem, xsg = pipeline(program)
    x = problem.domain.index_of("x")
    nodes = xsg.graph.nodes
    cond_edges = [e for e in xsg.graph.edges if nodes[e.src].sid is not None
                  and isinstance(program.stmt(nodes[e.src].sid), If)]
    for e in cond_edges:
        assert (x, x) in xsg.rel_of[e.eid]
        assert (ZERO, x) not in xsg.rel_of[e.eid]


def test_distributivity_exhaustive_small_fragments():
    rng = random.Random(5)
    sources = [
        "var a; var b; a = b + 1; print(a);",
        "var a; var b; var c; if (a > 0) { b = c; } else { c = b; }",
        "var a; var b; b = 2; a = a + b;",
    ]
    for src in sources:
        program = parse(src)
        _, problem, xsg = pipeline(program)
        idx = list(problem.domain.indices())
        for eid, rel in xsg.rel_of.items():
            f = lambda s: apply_rel(rel, s)
            for k in range(len(idx) + 1):
                for combo in itertools.combinations(idx, k):
                    s1 = frozenset(rng.sample(idx, rng.randint(0, len(idx))))
                    s2 = frozenset(combo)
                    assert f(s1 | s2) == f(s1) | f(s2)


def test_hoisted_locals_uninit_from_function_entry():
    # reading a local before its declaration line still counts
    src = ("fn f() { print(z); var z; }\n"
           "f();\n")
    program = parse(src)
    build, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    diags = report_uses(problem, result)
    assert [(d.var, d.qualified) for d in diags] == [("z", "f.z")]
    trace = interpret(program)
    assert [r.var for r in trace.uninit_reads()] == ["f.z"]


def test_register_async_args_are_report_sites():
    src = "fn h() { print(1); }\nvar d;\nregister_async(h, d + 1);\n"
    program = parse(src)
    _, problem, xsg = pipeline(program)
    diags = report_uses(problem, solve_plain(xsg))
    assert [(d.var, d.line) for d in diags] == [("d", 3)]


def test_diagnostics_carry_position():
    program = parse("var x;\nprint(x);\n", filename="demo.evl")
    _, problem, xsg = pipeline(program)
    result = solve_plain(xsg)
    d = report_uses(problem, result)[0]
    assert (d.file, d.line, d.var) == ("demo.evl", 2, "x")


def test_interpreter_agreement_straight_line():
    # without var-to-var derivation, a variable is possibly-uninitialized
    # exactly when a run reads it unset, so the two reports coincide
    rng = random.Random(31)
    names = ["a", "b", "c"]
    for _ in range(40):
        lines = [f"var {n};" for n in names]
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            target = rng.choice(names)
            if kind < 0.5:
                lines.append(f"{target} = {rng.randint(0, 5)};")
            else:
                lines.append(f"print({rng.choice(names)});")
        program = parse("\n".join(lines))
        _, problem, xsg = pipeline(program)
        diags = report_uses(problem, solve_plain(xsg))
        trace = interpret(program)
        static = {(d.node, d.qualified) for d in diags}
        dynamic = {(node_for_sid(xsg.graph, program, r.sid), r.var)
                   for r in trace.uninit_reads()}
        assert static == dynamic


def test_derived_values_reported_statically_only():
    # assignment from an uninitialized source taints the target for the
    # analysis, but the run only records the direct unset read
    program = parse("var a; var b; a = b + 1; print(a);")
    _, problem, xsg = pipeline(program)
    diags = report_uses(problem, solve_plain(xsg))
    assert {(d.var, d.line) for d in diags} == {("b", 1), ("a", 1)}
    trace = interpret(program)
    assert [r.var for r in trace.uninit_reads()] == ["b"]


def test_interpreter_agreement_with_branches_is_superset():
    src = ("var a; var c;\n"
           "c = 0;\n"
           "if (c > 0) { a = 1; }\n"
           "print(a);\n")
    program = parse(src)
    _, problem, xsg = pipeline(program)
    diags = report_uses(problem, solve_plain(xsg))
    trace = interpret(program)
    static = {(d.node, d.qualified) for d in diags}
    dynamic = {(node_for_sid(xsg.graph, program, r.sid), r.var)
               for r in trace.uninit_reads()}
    assert dynamic <= static
    assert dynamic  # this one actually fires at run time


def test_relations_are_canonical_and_successor_tables_match_them():
    """Flow relations are built canonical, and each successor table the
    solver reads, however it is built or shared, is the grouping by
    source fact of the sorted relation pairs whose two ends are 0 or
    representatives; where every fact is a class of its own, that is
    the whole relation."""
    checked = singletons = 0
    for tag, program in sample_programs():
        _, problem, xsg = pipeline(program)
        reps = {ZERO, *xsg.classes}
        singletons += len(reps) == len(problem.domain) + 1
        for e in xsg.graph.edges:
            rel = xsg.rel_of[e.eid]
            assert canon_rel_def(rel) == rel, (tag, e)
            table: dict[int, list[int]] = {}
            for d1, d2 in sorted(rel):
                if d1 in reps and d2 in reps:
                    table.setdefault(d1, []).append(d2)
            expected = {d1: tuple(ds) for d1, ds in table.items()}
            succ = xsg.rep_succ[e.eid]
            assert succ == expected, (tag, e)
            assert list(succ) == sorted(succ), (tag, e)
        checked += 1
    assert checked == len(CORPUS_NAMES) + 3 + 200
    assert 0 < singletons < checked


def _definitional_rel(problem, edge):
    """The gen or assign relation of an intra edge, built pair by pair,
    or None for an edge that neither generates nor assigns."""
    if edge.kind is not EdgeKind.INTRA:
        return None
    node = problem.graph.nodes[edge.src]
    domain = problem.domain

    def idx(name):
        return domain.index_of(problem.scopes.qualify(node.func, name))

    if node.kind is NodeKind.START:
        locs = problem.scopes.locals_by_func.get(node.func, ())
        return gen_rel_def(domain, {domain.index_of(n) for n in locs})
    if node.kind is not NodeKind.STMT:
        return None
    stmt = problem.program.stmt(node.sid)
    if isinstance(stmt, VarDecl) and stmt.init is not None:
        value = stmt.init
    elif isinstance(stmt, Assign):
        value = stmt.value
    else:
        return None
    return assign_rel_def(domain, idx(stmt.name),
                          [idx(v) for v in expr_vars(value)])


def test_gen_and_assign_relations_match_their_definitions():
    """The gen and assign patches are the patches of the relations built
    pair by pair over the domain."""
    checked = 0
    for tag, program in sample_programs():
        _, problem, xsg = pipeline(program)
        for e in xsg.graph.edges:
            expected = _definitional_rel(problem, e)
            if expected is not None:
                assert problem.flow_for(e) == \
                    patch_of_rel(problem.domain, expected), (tag, e)
                assert xsg.rel_of[e.eid] == expected, (tag, e)
                checked += 1
    assert checked > 1000


def test_call_edges_that_bind_no_parameter_share_one_relation():
    """Emits, dispatches, the end of top-level and calls whose actuals
    read no variable all carry the globals-only relation, so the
    exploded supergraph builds one successor table for them."""
    shared = 0
    for tag, program in sample_programs():
        _, problem, xsg = pipeline(program)
        globals_only = frozenset({(ZERO, ZERO), *(
            (d, d) for d in map(problem.domain.index_of,
                                problem.scopes.globals))})
        tables = set()
        for e in xsg.graph.edges:
            if e.kind is not EdgeKind.CALL:
                continue
            sid = xsg.graph.nodes[e.src].sid
            stmt = None if sid is None else program.stmt(sid)
            binds = isinstance(stmt, Call) and \
                program.has_function(stmt.callee) and \
                any(expr_vars(a) for a in stmt.args)
            assert (xsg.rel_of[e.eid] == globals_only) != binds, (tag, e)
            if not binds:
                tables.add(id(xsg.rep_succ[e.eid]))
                shared += 1
        assert len(tables) <= 1, tag
    assert shared > 0


def test_patches_are_normalized():
    """No patch adds a `(d, d)` pair, its added pairs are ascending, and
    it drops no fact twice, so equal relations have equal patches."""
    checked = 0
    for tag, program in sample_programs():
        _, _, xsg = pipeline(program)
        for dropped, added in xsg.patch_of.values():
            assert all(d1 != d2 for d1, d2 in added), tag
            assert list(added) == sorted(set(added)), tag
            assert len(set(dropped)) == len(dropped), tag
            checked += 1
    assert checked > 5000


def test_identity_patches_have_the_identity_table():
    """Every edge whose patch is the identity has the table mapping 0 and
    each representative to itself, so `solve_ide` may leave such an edge
    out of a block's composed table."""
    checked = 0
    for tag, program in sample_programs():
        _, _, xsg = pipeline(program)
        identity = {d: (d,) for d in (ZERO, *xsg.classes)}
        for eid, patch in xsg.patch_of.items():
            if patch == IDENTITY:
                assert xsg.rep_succ[eid] == identity, (tag, eid)
                checked += 1
    assert checked > 1000


def test_a_kept_pair_is_neither_dropped_nor_added():
    """`g = g + 1` is the identity patch, and the recursive `f(a)` inside
    `f` keeps `a` without adding `(a, a)`, so `g` and `u` stay one
    class; a patch that dropped and added `g`'s own pair would give `g`
    a class of its own."""
    program = parse("var g; var u; var k = 1; fn f(a) { var b = a; "
                    "if (k < 1) { f(a); } print(b); } fn h() { g = g + 1; "
                    "print(g); print(u); } register(\"e\", h); emit(\"e\"); "
                    "f(k);")
    _, problem, xsg = pipeline(program)
    assert xsg.classes == {1: (1, 2), 3: (3,), 4: (4,), 5: (5,)}
    increment = edge_after(program, xsg.graph,
                           lambda s: isinstance(s, Assign) and s.name == "g")
    assert xsg.patch_of[increment.eid] == IDENTITY
    a = problem.domain.index_of("f.a")
    recursive, = (e for e in xsg.graph.edges if e.kind is EdgeKind.CALL
                  and xsg.graph.proc_of(e.src) == "f")
    assert a not in xsg.patch_of[recursive.eid].dropped
    assert xsg.patch_of[recursive.eid].added == ()


def test_patches_of_the_relation_view_explode_alike():
    """Exploding the patches of the relation view gives the same classes
    and successor tables, key order included."""
    for tag, program in sample_programs():
        _, problem, xsg = pipeline(program)
        again = ExplodedSupergraph(xsg.graph, problem.domain, {
            eid: patch_of_rel(problem.domain, rel)
            for eid, rel in xsg.rel_of.items()})
        assert list(again.classes.items()) == list(xsg.classes.items()), tag
        assert [(eid, list(t.items())) for eid, t in again.rep_succ.items()] \
            == [(eid, list(t.items())) for eid, t in xsg.rep_succ.items()], tag
