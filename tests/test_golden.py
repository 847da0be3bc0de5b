"""Golden `evflow diff --format json` reports for the packaged corpus and
for the synthetic programs in `golden/`.

Each report must stay byte-identical apart from `stats.wall_ms`, which is
masked; step counts are part of the report, so a change to the solver's
order of work shows here.  After a deliberate change to the report,
rewrite the files with `PYTHONPATH=src python tests/test_golden.py` and
review the diff.
"""

import contextlib
import io
import os
import re
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


if __name__ == "__main__":
    for directory, input_name in _golden_inputs():
        (GOLDEN / f"{input_name}.json").write_text(
            diff_report(directory, input_name), encoding="utf-8")
