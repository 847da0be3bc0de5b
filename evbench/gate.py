"""Correctness gate applied to every program the benchmark runs.

A program fails the gate (counts toward `wrong_results`) when:

- the report of `evflow diff` differs from the reference digest
  recorded for its structure (`reference.json`);
- some node keeps a fact after filtering that the plain result lacks;
- an uninitialized read the interpreter observes under FIFO is missing
  from the filtered result;
- on `oracle`, `cli.check_program` returns any violation.

evflow functions are looked up on their modules at call time, so the
spans the tracer installs there see the gate's calls too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(status: int, report) -> str:
    """Digest of what a user sees from `evflow diff`: the exit status,
    the diagnostics and the warnings.  Stats (wall time, counters) are
    left out, and file paths are cut to their names so the digest does
    not depend on where the programs were written."""
    base = {str(Path(f).parent) + "/" for f in report.files}
    diagnostics = [dict(d, file=Path(d["file"]).name) for d in report.diagnostics]
    warnings = []
    for w in report.warnings:
        for prefix in base:
            w = w.replace(prefix, "")
        warnings.append(w)
    return digest({"status": status, "diagnostics": diagnostics,
                   "warnings": warnings})


def analysis_violations(path: str) -> list[str]:
    """Subset and FIFO-soundness checks on one program file."""
    from evflow import transform
    from evflow.lang import interp, parser
    from evflow.supergraph import node_for_sid

    program = parser.parse_files([path])
    analysis = transform.analyze_event_aware(program)
    out = []
    for node in set(analysis.ifds.facts) | set(analysis.filtered.facts):
        extra = analysis.filtered.facts_at(node) - analysis.ifds.facts_at(node)
        if extra:
            out.append(f"subset: {sorted(analysis.domain.names_of(extra))} "
                       f"at {node} survive filtering but are not plain facts")
    trace = interp.interpret(program)
    for read in trace.uninit_reads():
        node = node_for_sid(analysis.build.graph, program, read.sid)
        if analysis.domain.index_of(read.var) not in analysis.filtered.facts_at(node):
            out.append(f"soundness: FIFO read of {read.var} at {node} was "
                       f"filtered")
    return out


def load_reference(bench_dir: Path) -> dict:
    return json.loads((bench_dir / "reference.json").read_text(encoding="utf-8"))
