"""Program-level property suites: the filtered result is always a subset
of the plain one, and no run-time uninitialized read ever escapes it."""

import pytest

from evflow.lang.parser import parse
from evflow.lang.interp import check_trace_ordering, explore_schedules
from evflow.randgen import GenParams, gen_source
from evflow.supergraph import node_for_sid
from evflow.transform import analyze_event_aware

from conftest import CORPUS_NAMES, load_corpus_entry

RANDOM_SEEDS = [f"prop:{i}" for i in range(100)]
FULL = GenParams(allow_while=True)


def corpus_analyses():
    for name in CORPUS_NAMES:
        program = load_corpus_entry(name)[0]
        yield name, program, analyze_event_aware(program)


@pytest.fixture(scope="module")
def random_programs():
    out = []
    for seed in RANDOM_SEEDS:
        source = gen_source(seed, FULL)
        program = parse(source)
        out.append((seed, source, program))
    return out


def test_precision_on_corpus():
    for name, program, analysis in corpus_analyses():
        for node in set(analysis.ifds.facts) | set(analysis.filtered.facts):
            assert analysis.filtered.facts_at(node) <= \
                analysis.ifds.facts_at(node), (name, node)


def test_precision_on_random_programs(random_programs):
    for seed, source, program in random_programs:
        analysis = analyze_event_aware(program)
        for node in set(analysis.ifds.facts) | set(analysis.filtered.facts):
            assert analysis.filtered.facts_at(node) <= \
                analysis.ifds.facts_at(node), (seed, node, source)


def _assert_sound(program, analysis, tag, max_decisions=6):
    traces = explore_schedules(program, max_decisions=max_decisions)
    assert traces
    for trace in traces:
        assert check_trace_ordering(program, trace) == [], tag
        for read in trace.uninit_reads():
            node = node_for_sid(analysis.build.graph, program, read.sid)
            fact = analysis.domain.index_of(read.var)
            assert fact in analysis.filtered.facts_at(node), (tag, read)


def test_soundness_on_corpus():
    for name, program, analysis in corpus_analyses():
        _assert_sound(program, analysis, name)


def test_soundness_on_random_programs(random_programs):
    for seed, source, program in random_programs:
        analysis = analyze_event_aware(program)
        _assert_sound(program, analysis, (seed, source))


def test_handler_work_bound_on_random_programs(random_programs):
    # composed transformers never touch more handlers than the program has
    for seed, _source, program in random_programs[:25]:
        analysis = analyze_event_aware(program, check_descent=True)
        bound = max(1, len(analysis.build.handlers))
        assert analysis.ide.stats["max_label_entries"] <= bound, seed
        for hmf in analysis.labeled.labels.values():
            assert len(hmf) == len(analysis.build.handlers)


def test_schedule_exploration_finds_order_bugs():
    # two async handlers racing on one global: only one order initializes
    # before the read, and the filtered result still reports the read
    src = ("fn writer() { g = 1; }\n"
           "fn reader() { print(g); }\n"
           "var g;\n"
           "register_async(writer);\n"
           "register_async(reader);\n")
    program = parse(src)
    analysis = analyze_event_aware(program)
    traces = explore_schedules(program)
    dynamic = [t for t in traces if t.uninit_reads()]
    assert dynamic, "some schedule must hit the uninitialized read"
    _assert_sound(program, analysis, "race")
