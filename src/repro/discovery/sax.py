"""SAX: Symbolic Aggregate approXimation (Lin et al. 2003).

Classic SAX z-normalises a series, optionally reduces it with Piecewise
Aggregate Approximation (PAA), and discretizes into an alphabet using
equiprobable Gaussian breakpoints.

The paper's Fig. 8 uses a networking-specific variant on inter-packet
arrival deltas: symbol **'a' is reserved for negative values** (reordering
events) and the remaining symbols 'b'..'f' split the positive mass into
equiprobable bins — :func:`sax_inter_arrival` implements exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.trace.features import arrival_order_deltas
from repro.trace.records import Trace

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SAXConfig:
    """Knobs for classic SAX."""

    alphabet_size: int = 6
    paa_segments: int = 0  # 0 disables PAA (per-sample symbols)

    def __post_init__(self):
        if not 2 <= self.alphabet_size <= len(ALPHABET):
            raise ValueError(
                f"alphabet_size must be in [2, {len(ALPHABET)}]"
            )


def gaussian_breakpoints(alphabet_size: int) -> np.ndarray:
    """The ``alphabet_size - 1`` breakpoints that split N(0,1) into
    equiprobable regions."""
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be >= 2")
    inv_cdf = NormalDist().inv_cdf
    return np.array(
        [inv_cdf(k / alphabet_size) for k in range(1, alphabet_size)]
    )


def paa(series: np.ndarray, segments: int) -> np.ndarray:
    """Piecewise Aggregate Approximation: mean of each of ``segments``
    equal-width chunks (handles non-divisible lengths by fractional
    weighting)."""
    series = np.asarray(series, dtype=float)
    n = len(series)
    if segments <= 0:
        raise ValueError("segments must be positive")
    if n == 0:
        return np.zeros(0)
    if segments >= n:
        return series.copy()
    if n % segments == 0:
        return series.reshape(segments, n // segments).mean(axis=1)
    # Fractional PAA: distribute each sample across overlapping segments.
    out = np.zeros(segments)
    weights = np.zeros(segments)
    positions = np.arange(n) * segments / n
    for i, pos in enumerate(positions):
        lo = int(pos)
        hi = min(int(pos + segments / n), segments - 1)
        for seg in range(lo, hi + 1):
            out[seg] += series[i]
            weights[seg] += 1.0
    weights = np.maximum(weights, 1.0)
    return out / weights


def sax_symbols(series: np.ndarray, config: SAXConfig = SAXConfig()) -> str:
    """Classic SAX: z-norm -> (PAA) -> Gaussian-breakpoint symbols."""
    series = np.asarray(series, dtype=float)
    series = series[~np.isnan(series)]
    if len(series) == 0:
        return ""
    std = series.std()
    normed = (series - series.mean()) / std if std > 1e-12 else np.zeros_like(series)
    if config.paa_segments > 0:
        normed = paa(normed, config.paa_segments)
    breakpoints = gaussian_breakpoints(config.alphabet_size)
    indices = np.searchsorted(breakpoints, normed)
    return "".join(ALPHABET[i] for i in indices)


def sax_inter_arrival(
    trace_or_deltas,
    alphabet_size: int = 6,
    breakpoints: np.ndarray = None,
) -> str:
    """The paper's Fig. 8 discretization of inter-packet arrival deltas.

    Symbol 'a' denotes **negative** deltas (reordering events); 'b'..'f'
    (for the default size-6 alphabet) split the positive deltas into
    equiprobable quantile bins computed from the data itself (pass
    ``breakpoints`` — positive-value bin edges — to reuse a reference
    discretization across traces, which Fig. 8 needs when comparing GT and
    simulated traces on a common alphabet).
    """
    if isinstance(trace_or_deltas, Trace):
        deltas = arrival_order_deltas(trace_or_deltas)
    else:
        deltas = np.asarray(trace_or_deltas, dtype=float)
    deltas = deltas[~np.isnan(deltas)]
    if len(deltas) == 0:
        return ""
    if breakpoints is None:
        breakpoints = positive_delta_breakpoints(deltas, alphabet_size)
    indices = np.searchsorted(breakpoints, deltas, side="right")
    symbols = np.where(deltas < 0, 0, indices + 1)
    symbols = np.minimum(symbols, alphabet_size - 1)
    return "".join(ALPHABET[int(i)] for i in symbols)


def positive_delta_breakpoints(
    deltas: np.ndarray, alphabet_size: int = 6
) -> np.ndarray:
    """Quantile breakpoints over the positive deltas for symbols 'b'..'f'.

    Returns ``alphabet_size - 2`` increasing edges; values below the first
    edge map to 'b', above the last to the final symbol.
    """
    deltas = np.asarray(deltas, dtype=float)
    positive = deltas[deltas >= 0]
    n_bins = alphabet_size - 1  # symbols b..f
    if len(positive) == 0:
        return np.zeros(n_bins - 1)
    quantiles = np.arange(1, n_bins) / n_bins
    return np.quantile(positive, quantiles)
