"""Golden `evflow diff --format json` reports for the packaged corpus and
for the synthetic programs in `golden/`.

Each report must stay byte-identical apart from `stats.wall_ms`, which is
masked; step counts are part of the report, so a change to the solver's
order of work shows here.  After a deliberate change to the report,
rewrite the files with `PYTHONPATH=src python tests/test_golden.py`: it
refuses if a report changed outside `stats`, and prints every changed
stats key as old → new.
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from evflow import cli

from conftest import CORPUS_NAMES, corpus_dir
from helpers import chain_source

GOLDEN = Path(__file__).parent / "golden"
_WALL_MS = re.compile(r'"wall_ms": [0-9.eE+-]+')

# Synthetic programs kept as sources in `golden/`: chain programs from
# `chain_source(h, g, 4)`, the `chain` benchmark shape and a larger one,
# where the event-aware solve dominates, and a wide one over 100 globals.
CHAIN_PROGRAMS = {"chain_6x12": (6, 12), "chain_20x40": (20, 40)}
SYNTHETIC_NAMES = (*CHAIN_PROGRAMS, "wide_3x100")


def diff_report(directory: Path, name: str) -> str:
    """The masked JSON report of `evflow diff` on `name.evl`, run from its
    directory so that file names stay relative."""
    argv = ["diff", "--format", "json", f"{name}.evl"]
    if (directory / f"{name}.model.json").exists():
        argv += ["--event-model", f"{name}.model.json"]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            cli.main(argv)
    finally:
        os.chdir(cwd)
    return _WALL_MS.sub('"wall_ms": null', out.getvalue())


def _golden_inputs():
    return [(corpus_dir(), n) for n in CORPUS_NAMES] + \
        [(GOLDEN, n) for n in SYNTHETIC_NAMES]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert diff_report(corpus_dir(), name) == expected


@pytest.mark.parametrize("name", SYNTHETIC_NAMES)
def test_synthetic_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert diff_report(GOLDEN, name) == expected


@pytest.mark.parametrize("name", CHAIN_PROGRAMS)
def test_chain_sources_match_generator(name):
    h, g = CHAIN_PROGRAMS[name]
    assert (GOLDEN / f"{name}.evl").read_text(encoding="utf-8") == \
        chain_source(h, g, 4)


def _shown(value) -> str:
    if value is None:
        return "(absent)"
    return f"{value:,}" if isinstance(value, int) else str(value)


def record() -> int:
    """Rewrite the golden reports that changed.  A report may change only
    in `stats`; if any changed elsewhere, nothing is written.  Each
    changed stats key is printed as `name: key old → new`."""
    changed, refused = {}, []
    for directory, name in _golden_inputs():
        path = GOLDEN / f"{name}.json"
        new = diff_report(directory, name)
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if new == old:
            continue
        changed[path] = new
        if old is None:
            print(f"{name}: new golden")
            continue
        old_doc, new_doc = json.loads(old), json.loads(new)
        old_stats, new_stats = old_doc.pop("stats"), new_doc.pop("stats")
        if old_doc != new_doc:
            refused.append(name)
        for key in sorted(old_stats.keys() | new_stats.keys()):
            if old_stats.get(key) != new_stats.get(key):
                print(f"{name}: {key} {_shown(old_stats.get(key))} → "
                      f"{_shown(new_stats.get(key))}")
    if refused:
        print(f"nothing rewritten: {', '.join(refused)} changed outside "
              f"stats", file=sys.stderr)
        return 1
    for path, text in changed.items():
        path.write_text(text, encoding="utf-8")
    return 0


def test_recorder_rewrites_stats_only(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    monkeypatch.setitem(globals(), "_golden_inputs",
                        lambda: [(corpus_dir(), "door")])
    golden = tmp_path / "door.json"
    report = diff_report(corpus_dir(), "door")
    steps = json.loads(report)["stats"]["ide_phase1_steps"]
    golden.write_text(report.replace(f'"ide_phase1_steps": {steps}',
                                     '"ide_phase1_steps": 1'))
    assert record() == 0
    assert golden.read_text() == report
    assert capsys.readouterr().out == \
        f"door: ide_phase1_steps 1 → {steps:,}\n"
    # a report that changed outside `stats` is not rewritten
    moved = report.replace('"line": ', '"line": 1', 1)
    golden.write_text(moved.replace(f'"ide_phase1_steps": {steps}',
                                    '"ide_phase1_steps": 1'))
    assert record() == 1
    assert golden.read_text() != report
    assert "door changed outside stats" in capsys.readouterr().err


if __name__ == "__main__":
    sys.exit(record())
