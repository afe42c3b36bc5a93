"""Tests for SAX discretization."""

import numpy as np
import pytest

from repro.discovery.sax import (
    SAXConfig,
    gaussian_breakpoints,
    paa,
    positive_delta_breakpoints,
    sax_inter_arrival,
    sax_symbols,
)


class TestBreakpoints:
    def test_gaussian_breakpoints_symmetric(self):
        points = gaussian_breakpoints(4)
        assert len(points) == 3
        assert points[1] == pytest.approx(0.0, abs=1e-12)
        assert points[0] == pytest.approx(-points[2])

    def test_equiprobable(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=100_000)
        points = gaussian_breakpoints(5)
        counts = np.histogram(samples, bins=[-np.inf, *points, np.inf])[0]
        assert (np.abs(counts / len(samples) - 0.2) < 0.01).all()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            gaussian_breakpoints(1)

    def test_matches_scipy_norm_ppf(self):
        from scipy import stats

        for alphabet_size in range(2, 27):
            expected = stats.norm.ppf(
                np.arange(1, alphabet_size) / alphabet_size
            )
            np.testing.assert_allclose(
                gaussian_breakpoints(alphabet_size), expected,
                rtol=0, atol=1e-12,
            )


class TestPAA:
    def test_divisible_length(self):
        series = np.array([1.0, 1.0, 5.0, 5.0])
        assert paa(series, 2) == pytest.approx([1.0, 5.0])

    def test_segments_ge_length_is_identity(self):
        series = np.array([1.0, 2.0])
        assert paa(series, 10) == pytest.approx([1.0, 2.0])

    def test_non_divisible_preserves_mean(self):
        series = np.arange(10.0)
        reduced = paa(series, 3)
        assert len(reduced) == 3
        assert reduced.mean() == pytest.approx(series.mean(), rel=0.2)

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            paa(np.zeros(5), 0)


class TestClassicSAX:
    def test_alphabet_usage(self):
        rng = np.random.default_rng(1)
        symbols = sax_symbols(rng.normal(size=1000), SAXConfig(alphabet_size=4))
        assert set(symbols) == {"a", "b", "c", "d"}

    def test_monotone_series_is_sorted_symbols(self):
        symbols = sax_symbols(np.linspace(-3, 3, 50), SAXConfig(alphabet_size=3))
        assert list(symbols) == sorted(symbols)

    def test_constant_series_single_symbol(self):
        symbols = sax_symbols(np.ones(20), SAXConfig(alphabet_size=6))
        assert len(set(symbols)) == 1

    def test_empty_and_nan_series(self):
        assert sax_symbols(np.array([])) == ""
        assert sax_symbols(np.array([np.nan, np.nan])) == ""

    def test_paa_reduces_length(self):
        symbols = sax_symbols(
            np.random.default_rng(2).normal(size=100),
            SAXConfig(alphabet_size=4, paa_segments=10),
        )
        assert len(symbols) == 10

    def test_invalid_alphabet_size(self):
        with pytest.raises(ValueError):
            SAXConfig(alphabet_size=1)


class TestInterArrivalSAX:
    def test_a_reserved_for_negative(self):
        deltas = np.array([0.01, -0.005, 0.02, 0.015, -0.001, 0.03])
        symbols = sax_inter_arrival(deltas)
        assert symbols[1] == "a"
        assert symbols[4] == "a"
        assert "a" not in symbols[0] + symbols[2] + symbols[3] + symbols[5]

    def test_positive_values_spread_over_bcdef(self):
        rng = np.random.default_rng(3)
        deltas = rng.exponential(0.01, size=2000)
        symbols = sax_inter_arrival(deltas, alphabet_size=6)
        used = set(symbols)
        assert "a" not in used
        assert used == {"b", "c", "d", "e", "f"}
        # Quantile binning -> roughly equal occupancy.
        counts = [symbols.count(s) for s in "bcdef"]
        assert max(counts) < 2 * min(counts)

    def test_shared_breakpoints_reused(self):
        reference = np.random.default_rng(4).exponential(0.01, size=500)
        breakpoints = positive_delta_breakpoints(reference)
        symbols_a = sax_inter_arrival(reference, breakpoints=breakpoints)
        symbols_b = sax_inter_arrival(
            reference + 1.0, breakpoints=breakpoints
        )
        # A trace whose deltas all exceed the reference's largest
        # breakpoint maps entirely to the top symbol.
        assert set(symbols_b) == {"f"}
        assert set(symbols_a) == {"b", "c", "d", "e", "f"}

    def test_trace_input(self, cubic_trace):
        symbols = sax_inter_arrival(cubic_trace)
        assert len(symbols) == cubic_trace.packets_delivered - 1

    def test_empty(self):
        assert sax_inter_arrival(np.array([])) == ""
