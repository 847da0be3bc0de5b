"""The exact work of `evflow diff` on the chain programs of `scaling.py`,
and what it reports there.  A change to the solver's order of work moves
these counts; re-record them from `PYTHONPATH=src python tests/scaling.py
12 24`."""

import pytest

import scaling


# (variant, H) -> (jump functions, phase-1 steps)
WORK = {
    ("plain", 12): (1_190, 1_236),
    ("plain", 24): (4_779, 4_871),
    ("init", 12): (1_767, 1_825),
    ("init", 24): (7_084, 7_200),
}


@pytest.mark.parametrize("variant, h", WORK)
def test_chain_work_and_diagnostics(variant, h):
    row = scaling.measure(variant, h)
    assert (row["jump_functions"], row["phase1_steps"]) == WORK[variant, h]
    # no g is ever initialized, so every read of one is reported; in the
    # init variant each handler but the first also reads the t its
    # predecessor writes before registering it
    assert row["reported"] == {12: 82, 24: 166}[h]
    assert row["filtered"] == (h - 1 if variant == "init" else 0)


def test_a_48_handler_chain_keeps_few_jump_functions():
    """Summaries at the tail emits and the exits keep the rows per start
    fact from growing with the loop: 224,876 jump functions before."""
    assert scaling.measure("plain", 48)["jump_functions"] <= 100_000
