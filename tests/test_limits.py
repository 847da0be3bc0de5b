"""Large valid programs end in a result, not an internal error: each runs
through `evflow diff` and `evflow oracle` in a subprocess under a 1 GiB
address-space cap and a time limit, and exits 0 (clean) or 1
(diagnostics), never 2.  And the oracle's check of one program takes
memory linear in the program."""

import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from evflow.cli import EXIT_CLEAN, EXIT_DIAGNOSTICS, check_program
from evflow.eventmodel import EventModel

from helpers import chain_source

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 120


def uninitialized_globals(n: int) -> str:
    """`n` globals declared one per line, none assigned, and one read."""
    return "".join(f"var v{i};\n" for i in range(n)) + "print(v0);\n"


def call_chain(n: int) -> str:
    """f0 calls f1, ..., which calls f{n-1}; the top level calls f0."""
    return ("".join(f"fn f{i}() {{ f{i + 1}(); }}\n" for i in range(n - 1))
            + f"fn f{n - 1}() {{ print(1); }}\nf0();\n")


def nested_ifs(n: int) -> str:
    """A read of an uninitialized global under `n` nested ifs."""
    return "var x;\n" + "if (true) { " * n + "print(x);" + " }" * n + "\n"


# name -> (source builder, the commands that run it)
INPUTS = {
    "globals_20000": (lambda: uninitialized_globals(20_000),
                      ("diff", "oracle")),
    "calls_3000": (lambda: call_chain(3_000), ("diff", "oracle")),
    "string_2mb": (lambda: 'var s = "' + "a" * (2 << 20) + '";\nprint(s);\n',
                   ("diff", "oracle")),
    "ifs_64": (lambda: nested_ifs(64), ("diff", "oracle")),
    "chain_96": (lambda: chain_source(96, 192, 4), ("diff",)),
}
CASES = [(name, command) for name, (_, commands) in INPUTS.items()
         for command in commands]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("name, command", CASES,
                         ids=[f"{c}-{n}" for n, c in CASES])
def test_a_large_program_runs_to_a_result(name, command, tmp_path):
    (tmp_path / f"{name}.evl").write_text(INPUTS[name][0](), encoding="utf-8")
    args = ([str(tmp_path / f"{name}.evl")] if command == "diff"
            else [str(tmp_path), "--count", "0"])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys\nsys.path.insert(0, sys.argv[1])\n"
         "from evflow.cli import main\nsys.exit(main(sys.argv[2:]))",
         str(SRC), command, *args],
        capture_output=True, text=True, timeout=TIMEOUT_S,
        preexec_fn=_cap_address_space)
    assert done.returncode in (EXIT_CLEAN, EXIT_DIAGNOSTICS), \
        (done.returncode, done.stdout[-2000:], done.stderr[-2000:])
    if command == "oracle":
        assert "oracle suite: 1/1 passed" in done.stdout


def test_the_oracle_check_of_many_globals_stays_small():
    """`check_program` asks the solve one row per observed read and builds
    no whole-program fact set, which would hold about N**2 / 2 entries
    for N globals declared one per line."""
    source = uninitialized_globals(4_000)
    tracemalloc.start()
    try:
        assert check_program(source, EventModel.default(), 6) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20, peak
