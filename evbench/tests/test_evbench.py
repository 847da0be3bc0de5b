"""Tests of the benchmark itself: generators, gate, failure counting,
tracing, and that BENCHMARK.json names what the benchmark reports."""

import json
import signal
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from evbench import gen, run, worker  # noqa: E402
from evbench.trace import COUNT_METRICS, TIME_METRICS  # noqa: E402


def _deck(tmp_path, workload="chain", seed=0, keep=None):
    run.write_deck(workload, seed, tmp_path / "deck")
    if keep is not None:
        manifest = json.loads((tmp_path / "deck" / "deck.json").read_text())
        (tmp_path / "deck" / "deck.json").write_text(json.dumps(manifest[:keep]))
    return worker.Workload(workload, tmp_path / "deck")


@pytest.mark.parametrize("workload", ["chain", "wide", "oracle"])
def test_generators_are_deterministic_per_seed(workload):
    assert gen.deck(workload, 7) == gen.deck(workload, 7)
    assert gen.deck(workload, 7) != gen.deck(workload, 8)


def test_oracle_deck_passes_over_runaway_programs():
    programs, passed_over = gen.oracle_deck(2)
    assert passed_over == ["2:689", "2:913"]
    assert len(programs) == gen.ORACLE_DECK
    assert programs[-1][0] == "2:1001"


@pytest.mark.parametrize("workload", ["chain", "wide"])
def test_seed_changes_surface_not_structure(workload):
    a, b = dict(gen.deck(workload, 1)), dict(gen.deck(workload, 2))
    assert a.keys() == b.keys()
    for pid in a:
        assert a[pid] != b[pid]
        assert a[pid].count("\n") == b[pid].count("\n")


def test_gate_passes_reference_and_fails_a_dropped_diagnostic(tmp_path):
    w = _deck(tmp_path, keep=1)
    status, report = w.op(0)
    assert w.outcome(0, (status, report))[1] == []
    report.diagnostics.pop()
    assert w.outcome(0, (status, report))[1]


@pytest.mark.parametrize("plant", ["extra_fact", "dropped_facts"])
def test_gate_fails_a_planted_analysis_error(tmp_path, monkeypatch, plant):
    from evflow import transform
    from evbench import gate
    w = _deck(tmp_path, keep=1)
    assert gate.analysis_violations(w.paths[0]) == []
    original = transform.untransform

    def planted(result):
        filtered = original(result)
        if plant == "extra_fact":  # a fact that does not reach this node
            facts = {d for env in result.envs.values() for d in env if d}
            node, env = next((n, e) for n, e in result.envs.items()
                             if facts - set(e))
            filtered.facts[node] = filtered.facts_at(node) | {min(facts - set(env))}
        else:
            filtered.facts.clear()
        return filtered

    monkeypatch.setattr(transform, "untransform", planted)
    violations = gate.analysis_violations(w.paths[0])
    kind = "subset" if plant == "extra_fact" else "soundness"
    assert any(v.startswith(kind) for v in violations)


def test_failed_ratio_counts_programs_that_raise(tmp_path, monkeypatch):
    _deck(tmp_path, keep=1)
    deck = tmp_path / "deck"
    (deck / "bad.evl").write_text("var x = ;\n")                    # exit 2
    (deck / "deep.evl").write_text("var x = " + "(" * 3000 + "1" +
                                   ")" * 3000 + ";\n")               # raises
    (deck / "slow.evl").write_text(                                  # no end
        'var g = 3;\nfn h() { g = g * g; emit("e"); }\n'
        'register("e", h);\nemit("e");\n')
    manifest = json.loads((deck / "deck.json").read_text())
    manifest += [["bad", "bad.evl"], ["deep", "deep.evl"], ["slow", "slow.evl"]]
    (deck / "deck.json").write_text(json.dumps(manifest))
    w = worker.Workload("chain", deck)
    monkeypatch.setattr(worker, "DEADLINE_S", 0.5)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        gate = worker.gate_pass(w, range(len(w.ids)))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert gate["ok"] == [0]
    assert set(gate["failed"]) == {"bad", "deep", "slow"}
    assert "DeadlineExceeded" in gate["failed"]["slow"]
    timed = worker.timed_pass(w, gate["ok"], 0.0)
    timed["peak_rss_mb"] = 1.0
    probe = {"setup_s": 0.1, "status": 0, "kernel_s": 0.015,
             "digest": json.loads((ROOT / "evbench" / "reference.json")
                                  .read_text())["door"]}
    summary = run.summarize("chain", [probe], gate, [timed])
    assert summary["failed_count"] == 3
    assert summary["row"]["failed_ratio"][0] == 3 / summary["attempted"]
    assert summary["correct"]


def test_traced_pass_matches_untraced_and_covers_every_layer(tmp_path):
    w = _deck(tmp_path, keep=2)
    gate = worker.gate_pass(w, range(len(w.ids)))
    timed = worker.timed_pass(w, gate["ok"], 0.0)
    traced = worker.traced_pass(w, gate["ok"], timed["sequence"], None)
    assert traced["digests"] == timed["digests"]
    metrics = traced["metrics"]
    for name in [*TIME_METRICS, *COUNT_METRICS]:
        assert metrics[name] > 0, name
    assert metrics["ide.solve_s"] == max(metrics[m] for m in TIME_METRICS)


def test_tail_percentile_needs_ten_samples_beyond():
    times = [i / 1000 for i in range(1, 201)]
    assert run.tail(times) == (90, 0.18)
    assert run.tail(times[:50])[0] == 50


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["evbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = [*TIME_METRICS, *COUNT_METRICS, "ide.max_label_entries",
               "ide.steps_per_jump_function", "ide.to_ifds_time_ratio",
               "cli.program_s", "cli.self_s", "ifds.explode.peak_kb",
               "ide.solve.peak_kb", "setup.import_s",
               "event_lattice.first_compose_s", "trace.overhead_s"]
    assert set(per_layer) == set(emitted)
    assert all(per_layer[n] == run.per_layer_unit(n) for n in emitted)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "program_s_p50", "program_s_tail", "programs_per_s",
        "peak_rss_mb"}
