"""Acceptance gate: every criterion at its stated tolerance, one
pass/fail line each."""

import time

from evflow.event_lattice import (
    HState,
    MF_CLOSURE,
    MF_EMIT,
    MF_EMIT_REGISTER,
    MF_ID,
    MF_INVOKE,
    MF_REGISTER,
    map_at_s,
    mf_apply,
    mf_compose,
    packed_compose,
    packed_leq,
    packed_meet,
)
from evflow.ide import LabeledExplodedSupergraph, solve_ide, solve_ifds
from evflow.ifds import ZERO
from evflow.lang.parser import parse
from evflow.lang.ast import Assign
from evflow.lang.interp import check_trace_ordering, explore_schedules
from evflow.randgen import DEFAULT, SMALL, gen_source
from evflow.supergraph import EVENT_LOOP, EdgeKind, node_for_sid
from evflow.transform import analyze_event_aware
from evflow.uninit import report_uses

from conftest import CORPUS_NAMES, load_corpus_entry
from helpers import (
    EMIT_IMAGES,
    INVOKE_IMAGES,
    REGISTER_IMAGES,
    closure_def,
    compose_def,
    hstate_meet,
    image,
    iter_stmts,
    leq_def,
    meet_def,
    mvp_bruteforce,
    PathBudgetExceededError,
    pipeline,
    solve_plain,
    touched,
)

S, R, E, X = HState.S, HState.R, HState.E, HState.X
STATES = (X, S, R, E)


def _passed(n: int, text: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {n} ({text}): PASS [{elapsed:.2f}s]")


def _assign_node(analysis, var, self_referencing=True):
    for f in analysis.program.functions:
        for s in iter_stmts(f.body):
            if isinstance(s, Assign) and s.name == var and \
                    (var in str(s.value)) == self_referencing:
                return node_for_sid(analysis.build.graph, analysis.program,
                                    s.sid)
    raise AssertionError(f"assignment to {var} not found")


def test_criterion_1_door():
    started = time.perf_counter()
    program, _ = load_corpus_entry("door")
    analysis = analyze_event_aware(program)
    g = analysis.build.graph
    txt = analysis.domain.index_of("txt")

    concat = _assign_node(analysis, "txt")
    ifds_diags = report_uses(analysis.problem, analysis.ifds)
    assert any(d.var == "txt" and d.node == concat for d in ifds_diags)

    filtered_diags = report_uses(analysis.problem, analysis.filtered)
    assert filtered_diags == []

    assert analysis.ide.envs[g.start_of("hdlOpen")][txt] == \
        {"hdlOpen": E, "hdlClose": S}
    assert analysis.ide.envs[g.start_of("hdlClose")][txt] == \
        {"hdlOpen": E, "hdlClose": X}
    _passed(1, "door: filtered false positive, exact state maps",
            started, 1.0)


def test_criterion_2_dirstat():
    started = time.perf_counter()
    program, _ = load_corpus_entry("dirstat")
    analysis = analyze_event_aware(program)
    sum_i = analysis.domain.index_of("sum")
    add = _assign_node(analysis, "sum")

    assert sum_i in analysis.ifds.facts_at(add)
    assert sum_i not in analysis.filtered.facts_at(add)

    # feasible path: both callbacks registered-with-implicit-emission and
    # then invoked; composing the actual edge labels gives all-E
    labels = analysis.labeled.labels
    g = analysis.build.graph
    by_handler = {g.proc_of(e.dst): labels[e.eid] for e in g.edges
                  if e.kind is EdgeKind.CALL and e.src == EVENT_LOOP}
    handlers = analysis.handlers
    reg_f = next(t for t in labels.values()
                 if touched(t, handlers) == {"f": MF_EMIT_REGISTER})
    reg_h = next(t for t in labels.values()
                 if touched(t, handlers) == {"h": MF_EMIT_REGISTER})
    feasible = packed_compose(by_handler["h"], packed_compose(
        reg_h, packed_compose(by_handler["f"], reg_f)))
    assert map_at_s(feasible, handlers) == {"f": E, "h": E}
    # the solver agrees: the tautological row at the reading node meets to
    # the feasible map
    assert analysis.ide.envs[add][ZERO] == {"f": E, "h": E}
    # and the infeasible path is why sum was filtered
    assert analysis.ide.envs[add][sum_i] == {"f": E, "h": X}
    _passed(2, "dirstat: sum filtered, feasible path all-E", started, 1.0)


def test_criterion_3_timer_and_server():
    started = time.perf_counter()
    cases = [
        ("timer", "rem", {"start": E, "tick": X}),
        ("server", "nConn", {"lstn": E, "conn": X}),
    ]
    for name, var, expected in cases:
        program, _ = load_corpus_entry(name)
        analysis = analyze_event_aware(program)
        fact = analysis.domain.index_of(var)
        read = _assign_node(analysis, var)
        assert fact in analysis.ifds.facts_at(read), name
        assert fact not in analysis.filtered.facts_at(read), name
        assert analysis.ide.envs[read][fact] == expected, name
    _passed(3, "timer/server: filtered with exact infeasible maps",
            started, 1.0)


def test_criterion_4_micro_function_algebra():
    started = time.perf_counter()
    # the three generators, by their images
    assert image(MF_REGISTER) == REGISTER_IMAGES
    assert image(MF_EMIT) == EMIT_IMAGES
    assert image(MF_INVOKE) == INVOKE_IMAGES
    assert MF_ID == 0

    # everything the generators can produce: seven functions, closed
    # under the definitional operators
    generated = closure_def()
    assert generated == {image(f) for f in MF_CLOSURE} and len(generated) == 7

    # tabulated operators equal the definitional ones on all closure
    # pairs, the lane tables read through one-lane transformers
    for g in MF_CLOSURE:
        for f in MF_CLOSURE:
            lanes = bytes([g]), bytes([f])
            assert packed_compose(*lanes)[0] == mf_compose(g, f)
            assert image(mf_compose(g, f)) == compose_def(image(g), image(f))
            assert image(packed_meet(*lanes)[0]) == \
                meet_def(image(g), image(f))
            assert packed_leq(*lanes) == leq_def(image(g), image(f))

    # distributivity over the chain meet
    for f in MF_CLOSURE:
        for a in STATES:
            for b in STATES:
                assert mf_apply(f, hstate_meet(a, b)) == \
                    hstate_meet(mf_apply(f, a), mf_apply(f, b))
    _passed(4, "micro-function algebra exact on all 7x7 closure pairs",
            started, 1.0)


def _random_programs(count, prefix, params):
    return [parse(gen_source(f"{prefix}:{i}", params)) for i in range(count)]


def test_criterion_5_precision():
    started = time.perf_counter()
    analyses = []
    for name in CORPUS_NAMES:
        program, _ = load_corpus_entry(name)
        analyses.append(analyze_event_aware(program))
    for program in _random_programs(100, "accept5", DEFAULT):
        analyses.append(analyze_event_aware(program))
    violations = 0
    for analysis in analyses:
        for node in set(analysis.ifds.facts) | set(analysis.filtered.facts):
            if not analysis.filtered.facts_at(node) <= \
                    analysis.ifds.facts_at(node):
                violations += 1
    assert violations == 0
    _passed(5, "precision: filtered subset of plain on 104 programs",
            started, 30.0)


def test_criterion_6_soundness():
    started = time.perf_counter()
    jobs = []
    for name in CORPUS_NAMES:
        jobs.append((name, load_corpus_entry(name)[0]))
    for i, program in enumerate(_random_programs(100, "accept6", DEFAULT)):
        jobs.append((f"random:{i}", program))
    violations = []
    for tag, program in jobs:
        analysis = analyze_event_aware(program)
        traces = explore_schedules(program, max_decisions=6)
        for trace in traces:
            if check_trace_ordering(program, trace):
                violations.append((tag, "trace ordering"))
            for read in trace.uninit_reads():
                node = node_for_sid(analysis.build.graph, program, read.sid)
                fact = analysis.domain.index_of(read.var)
                if fact not in analysis.filtered.facts_at(node):
                    violations.append((tag, read))
    assert violations == []
    _passed(6, "soundness: every run-time read survives filtering",
            started, 30.0)


def test_criterion_7_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    i = 0
    while checked < 50 and i < 120:
        program = parse(gen_source(f"accept7:{i}", SMALL))
        i += 1
        build, problem, xsg = pipeline(program)
        try:
            brute = mvp_bruteforce(xsg.graph, xsg.rel_of, max_len=40,
                                   path_budget=100_000)
        except PathBudgetExceededError:
            continue
        checked += 1
        exact = solve_plain(xsg)
        assert brute.facts == exact.facts
        assert brute.reachable == exact.reachable
        ide = solve_ide(LabeledExplodedSupergraph(xsg, {}, build.handlers))
        assert set(ide.envs) == brute.reachable
        assert solve_ifds(ide).facts == brute.facts
    assert checked >= 50
    _passed(7, f"oracle equivalence on {checked} enumerable programs",
            started, 30.0)


def test_criterion_8_handler_work_bound():
    started = time.perf_counter()
    programs = [load_corpus_entry(n) for n in CORPUS_NAMES]
    programs += [(p, None) for p in _random_programs(30, "accept8", DEFAULT)]
    for program, _ in programs:
        analysis = analyze_event_aware(program, check_descent=True)
        bound = max(1, len(analysis.handlers))
        for hmf in analysis.labeled.labels.values():
            assert len(hmf) == len(analysis.handlers)
        assert analysis.ide.stats["max_label_entries"] <= bound
    _passed(8, "per-composition work bounded by the handler count",
            started, 30.0)
