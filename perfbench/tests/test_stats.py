"""Percentile and sample-count rules, and open-loop timing."""

import time

import pytest

from perfbench import stats


def test_nearest_rank_percentile_is_a_measured_value():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    assert stats.tail_percentile(15) is None


def test_median_and_empty_layer_default():
    assert stats.median([4, 1, 3, 2]) == 2.5
    assert stats.median([5, 1, 3]) == 3
    assert stats.p50([]) == 0.0


def test_failed_operations_land_in_the_tail():
    lat = stats.latencies_with_failures([0.01] * 95, [5.0] * 5)
    assert stats.percentile(lat, 50) == 0.01
    assert stats.percentile(lat, 99) == 5.0


def test_schedule_spacing():
    dues = stats.schedule(4, 8.0, 10.0)
    assert dues == [10.0, 10.125, 10.25, 10.375]
    with pytest.raises(ValueError):
        stats.schedule(3, 0.0, 0.0)


def test_open_loop_latency_counts_from_the_due_time():
    # One thread, ops due every 10 ms; the first stalls for 80 ms.  The
    # later ops start late, and their latency includes that wait.
    start = time.perf_counter() + 0.01
    dues = stats.schedule(4, 100.0, start)

    def execute(i):
        if i == 0:
            time.sleep(0.08)
        return i

    results = stats.run_open_loop(dues, execute, threads=1)
    assert [value for value, _, _ in results] == [0, 1, 2, 3]
    lat = [finished - due for due, (_, _, finished) in zip(dues, results)]
    assert lat[0] >= 0.08
    # op 1 was due 10 ms in but could only start after op 0 ended
    assert results[1][1] >= 0.06
    assert lat[1] >= 0.07
    assert lat[3] >= 0.05


def test_open_loop_second_thread_absorbs_a_stall_and_keeps_errors():
    start = time.perf_counter() + 0.01
    dues = stats.schedule(3, 100.0, start)

    def execute(i):
        if i == 0:
            time.sleep(0.08)
        if i == 2:
            raise RuntimeError("boom")
        return i

    results = stats.run_open_loop(dues, execute, threads=2)
    assert results[1][1] < 0.05  # the helper thread was free
    assert isinstance(results[2][0], RuntimeError)
