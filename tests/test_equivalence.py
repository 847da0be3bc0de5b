"""The parent-vs-change check `equivalence.py` gives the same lines on
every run: on the corpus, in a fresh interpreter and in this one."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
