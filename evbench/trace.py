"""Spans around evflow's public calls, installed from outside.

`Tracer.install()` replaces the module attributes through which the
pipeline reaches each layer (for example `evflow.transform.solve_ide`,
which `analyze_event_aware` calls) with wrappers that record a span:
name, start, end, parent span and program id.  Spans stay in memory;
`summary()` turns them into per-layer self times and per-program
counts, and `dump()` writes them out.  Counts come only from the
objects the calls return.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


def _exploded_pairs(xsg) -> dict:
    return {"exploded_pairs": sum(len(rel) for rel in xsg.rel_of.values())}


def _build_counts(build) -> dict:
    return {"nodes": len(build.graph.nodes), "edges": len(build.graph.edges),
            "handlers": len(build.handlers)}


def _label_counts(labeled) -> dict:
    return {"non_identity_labels":
            sum(1 for f in labeled.labels.values() if not f.is_identity())}


# (module, attribute, span name, counter over the returned object)
CALLS = (
    ("evflow.cli", "parse", "lang.parser.parse", None),
    ("evflow.cli", "parse_files", "lang.parser.parse", None),
    ("evflow.lang.parser", "parse_files", "lang.parser.parse", None),
    ("evflow.transform", "build_supergraph", "supergraph.build", _build_counts),
    ("evflow.transform", "UninitProblem", "uninit.problem",
     lambda p: {"facts": len(p.domain)}),
    ("evflow.cli", "report_uses", "uninit.report", None),
    ("evflow.transform", "explode", "ifds.explode", _exploded_pairs),
    ("evflow.transform", "solve_ifds", "ifds.solve", lambda r: dict(r.stats)),
    ("evflow.transform", "transform", "transform.label", _label_counts),
    ("evflow.transform", "untransform", "transform.untransform", None),
    ("evflow.transform", "solve_ide", "ide.solve", lambda r: dict(r.stats)),
    ("evflow.cli", "explore_schedules", "lang.interp.schedules", None),
    ("evflow.lang.interp", "interpret", "lang.interp.interpret",
     lambda t: {"traces": 1}),
)

# per-layer metric name -> span names whose self time it sums
TIME_METRICS = {
    "lang.parser.parse_s": ("lang.parser.parse",),
    "supergraph.build_s": ("supergraph.build",),
    "uninit.problem_s": ("uninit.problem",),
    "uninit.report_s": ("uninit.report",),
    "ifds.explode_s": ("ifds.explode",),
    "ifds.solve_s": ("ifds.solve",),
    "transform.label_s": ("transform.label",),
    "transform.untransform_s": ("transform.untransform",),
    "ide.solve_s": ("ide.solve",),
    "lang.interp.schedules_s": ("lang.interp.schedules", "lang.interp.interpret"),
}

# per-layer metric name -> (span name, count key)
COUNT_METRICS = {
    "supergraph.nodes": ("supergraph.build", "nodes"),
    "supergraph.edges": ("supergraph.build", "edges"),
    "supergraph.handlers": ("supergraph.build", "handlers"),
    "uninit.facts": ("uninit.problem", "facts"),
    "ifds.exploded_pairs": ("ifds.explode", "exploded_pairs"),
    "ifds.worklist_steps": ("ifds.solve", "worklist_steps"),
    "ifds.path_edges": ("ifds.solve", "path_edges"),
    "transform.non_identity_labels": ("transform.label", "non_identity_labels"),
    "ide.phase1_steps": ("ide.solve", "phase1_steps"),
    "ide.phase2_steps": ("ide.solve", "phase2_steps"),
    "ide.jump_functions": ("ide.solve", "jump_functions"),
    "lang.interp.traces": ("lang.interp.interpret", "traces"),
}


def _layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


class _Patches:
    """Replace module attributes and put the originals back on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, module_name: str, attr: str, make) -> None:
        """Set module.attr to make(original)."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, program]
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches = _Patches()
        self.program = ""

    def span(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1,
                               self.program])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if count is not None:
                self.counts[idx] = count(result)
            return result
        return traced

    def root(self, name: str, program: str, fn, *args):
        """Run fn as the root span of one program."""
        self.program = program
        return self.span(name, fn)(*args)

    def install(self) -> None:
        for module_name, attr, name, count in CALLS:
            self._patches.wrap(module_name, attr,
                               lambda fn, name=name, count=count:
                               self.span(name, fn, count))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- read-out --

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _roots(self) -> list[int]:
        root_of = []
        for i, span in enumerate(self.spans):
            root_of.append(i if span[3] < 0 else root_of[span[3]])
        return root_of

    def summary(self, op_name: str) -> dict:
        """Per-layer metrics, per program.

        A call's metric is averaged over the programs whose root span
        reaches it, preferring the timed operation (`op_name`) and
        falling back to the gate, so the interpreter, which only the gate
        runs on `chain` and `wide`, is measured per gated program.
        """
        own = self.self_times()
        root_of = self._roots()
        # root span -> {span name: self time, (span name, count): total}
        totals: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            per_root = totals[root_of[i]]
            per_root[span[0]] += own[i]
            for key, value in self.counts.get(i, {}).items():
                per_root[span[0], key] += value

        def per_program(keys) -> float:
            for kind in (op_name, "gate"):
                hit = [t for r, t in totals.items() if self.spans[r][0] == kind
                       and any(k in t for k in keys)]
                if hit:
                    return sum(t[k] for t in hit for k in keys) / len(hit)
            return 0.0

        out = {metric: per_program(names) for metric, names in TIME_METRICS.items()}
        out.update({metric: per_program([key])
                    for metric, key in COUNT_METRICS.items()})
        ide_spans = [i for i, s in enumerate(self.spans) if s[0] == "ide.solve"]
        out["ide.max_label_entries"] = max(
            (self.counts[i]["max_label_entries"] for i in ide_spans), default=0)
        jump = sum(self.counts[i]["jump_functions"] for i in ide_spans)
        steps = sum(self.counts[i]["phase1_steps"] for i in ide_spans)
        out["ide.steps_per_jump_function"] = steps / jump if jump else 0.0
        ide_s = sum(own[i] for i in ide_spans)
        ifds_s = sum(own[i] for i, s in enumerate(self.spans) if s[0] == "ifds.solve")
        out["ide.to_ifds_time_ratio"] = ide_s / ifds_s if ifds_s else 0.0
        ops = [r for r in totals if self.spans[r][0] == op_name]
        out["cli.program_s"] = sum(self.spans[r][2] - self.spans[r][1]
                                   for r in ops) / max(1, len(ops))
        out["cli.self_s"] = sum(own[r] for r in ops) / max(1, len(ops))
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Total self time per layer over the whole traced pass."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[_layer(span[0]) if span[3] >= 0 else span[0]] += own
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "program"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, fields=fields, spans=self.spans,
                           counts={str(k): v for k, v in self.counts.items()},
                           layer_self_s=self.layer_self_times()), fh)


class PeakMemory:
    """tracemalloc peak of single calls, in KiB above the memory in use
    when the call starts; installed the same way as the spans."""

    TARGETS = (("evflow.transform", "explode", "ifds.explode.peak_kb"),
               ("evflow.transform", "solve_ide", "ide.solve.peak_kb"))

    def __init__(self):
        self.peak_kb = {metric: 0.0 for _, _, metric in self.TARGETS}
        self._patches = _Patches()

    def _wrap(self, metric: str, fn):
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 1024
            self.peak_kb[metric] = max(self.peak_kb[metric], peak)
            return result
        return measured

    def __enter__(self):
        for module_name, attr, metric in self.TARGETS:
            self._patches.wrap(module_name, attr,
                               lambda fn, metric=metric: self._wrap(metric, fn))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        self._patches.restore()
