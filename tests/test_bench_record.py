"""The verdict `tests/bench_record.py` writes per metric."""

import pytest

from bench_record import verdict

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]


@pytest.mark.parametrize("change, wins, bound, want", [
    # won 9 of 10 pairs, median up by more than the parent's spread
    ([v + 1 for v in PARENT[:9]] + [9.0], 9, 0.25, "better"),
    # won 8 of 10: a higher median alone is not a gain
    ([v + 1 for v in PARENT[:8]] + [9.0, 9.0], 8, 0.25, "level"),
    # median down by 30%, past a 25% bound
    ([7.0] * 10, 0, 0.25, "worse"),
    # median down by 1%, within the bound
    ([9.9] * 10, 1, 0.25, "level"),
    # the parent's quartile spread (0.15) is wider than a 1% bound (0.1)
    ([9.95] * 10, 1, 0.01, "unresolved"),
    # ... unless every change run beats every parent run
    ([10.3] * 10, 8, 0.01, "level"),
])
def test_verdict(change, wins, bound, want):
    assert verdict(PARENT, change, wins, bound) == want
