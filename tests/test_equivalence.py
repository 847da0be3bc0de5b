"""The parent-vs-change check `equivalence.py` gives the same lines on
every run: on the corpus, in a fresh interpreter and in this one; and
every program of its set keeps the digests in `golden/equivalence.jsonl`,
and every malformed input the message in `golden/errors.jsonl`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equivalence
from conftest import CORPUS_NAMES

TESTS = Path(__file__).parent
KEYS = {"id", "parse", "patches", "plain_facts", "filtered_facts", "envs", "ide_stats",
        "dump_supergraph", "dump_exploded",
        *(f"{mode}_{form}" for mode in ("ifds", "ide", "diff")
          for form in ("json", "text"))}


def test_corpus_digests_are_reproducible():
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    done = subprocess.run([sys.executable, str(TESTS / "equivalence.py"),
                           "corpus"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = equivalence.digest_lines(equivalence.corpus_programs())
    assert done.stdout.splitlines() == lines
    rows = [json.loads(line) for line in lines]
    assert sorted(row["id"] for row in rows) == sorted(CORPUS_NAMES)
    assert all(set(row) == KEYS for row in rows)


def test_every_malformed_case_raises():
    lines = equivalence.error_lines()
    errors = [json.loads(line)["error"] for line in lines]
    assert len(errors) == len(equivalence.MALFORMED)
    assert all(e.split(":")[0].endswith("Error") for e in errors), errors


def test_digests_match_the_golden():
    """Re-record only under the goldens' rules (ROADMAP), with
    `PYTHONPATH=src python tests/equivalence.py golden`."""
    want = equivalence.GOLDEN.read_text(encoding="utf-8").splitlines()
    got = equivalence.golden_lines()
    for old, new in zip(want, got):
        if old != new:
            pytest.fail(f"{json.loads(old)['id']}: "
                        f"{', '.join(equivalence.moved_keys(old, new))} "
                        f"moved from {equivalence.GOLDEN.name}")
    assert len(got) == len(want)


def test_error_messages_match_the_golden():
    """Each input error keeps its message byte for byte; its type is not
    recorded.  Re-record as `test_digests_match_the_golden` says."""
    want = equivalence.ERRORS_GOLDEN.read_text(encoding="utf-8").splitlines()
    assert equivalence.golden_error_lines() == want
