import pytest

from child import TAIL_BEYOND, best_latencies, tail


def test_tail_is_the_highest_whole_percentile_with_ten_samples_beyond():
    samples = [i * 1_000_000 for i in range(1, 1001)]  # 1..1000 ms
    assert tail(samples) == (990.0, 99)
    value, pct = tail(samples[:40])  # 40 samples: p75 leaves exactly 10 beyond
    assert (value, pct) == (30.0, 75)
    assert sum(s > value * 1e6 for s in samples[:40]) == TAIL_BEYOND


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(list(range(TAIL_BEYOND)))


def test_best_latencies_take_each_invocations_fastest_repeat():
    assert best_latencies([[5, 9, 3], [4, 10, 6], [7, 8, 2]]) == [4, 8, 2]
