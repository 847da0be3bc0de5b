"""Golden `evflow diff --format json` reports for the packaged corpus.

Each report must stay byte-identical apart from `stats.wall_ms`, which is
masked.  After a deliberate change to the report, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from evflow import cli

from conftest import CORPUS_NAMES, corpus_dir

GOLDEN = Path(__file__).parent / "golden"
_WALL_MS = re.compile(r'"wall_ms": [0-9.eE+-]+')


def diff_report(name: str) -> str:
    """The masked JSON report of `evflow diff` on one corpus program, run
    from the corpus directory so that file names stay relative."""
    argv = ["diff", "--format", "json", f"{name}.evl"]
    if (corpus_dir() / f"{name}.model.json").exists():
        argv += ["--event-model", f"{name}.model.json"]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(corpus_dir())
    try:
        with contextlib.redirect_stdout(out):
            cli.main(argv)
    finally:
        os.chdir(cwd)
    return _WALL_MS.sub('"wall_ms": null', out.getvalue())


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert diff_report(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for corpus_name in CORPUS_NAMES:
        (GOLDEN / f"{corpus_name}.json").write_text(
            diff_report(corpus_name), encoding="utf-8")
