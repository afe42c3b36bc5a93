"""Distribution comparison statistics.

Two uses in the paper:

* Fig. 2: the iBoxNet-vs-ground-truth match of p95-delay / loss / rate
  distributions is "verified through a two-sample KS test";
* Table 1: "the difference (in ms) between median of 95th percentiles of
  inferences and GT delays" — i.e. percentile-point deltas between the two
  distributions of per-call p95 delays, reported at P25/P50/P75 and the
  mean, in absolute ms and percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-sample Kolmogorov–Smirnov test; returns (statistic, p-value).

    ``scipy.stats`` is imported here rather than at module level: it is
    the package's only scipy user and costs over a second to import.
    """
    from scipy import stats as scipy_stats

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a[~np.isnan(a)]
    b = b[~np.isnan(b)]
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    result = scipy_stats.ks_2samp(a, b)
    return float(result.statistic), float(result.pvalue)


def distributions_match(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> bool:
    """True when the KS test fails to reject equality at level ``alpha``."""
    _, pvalue = ks_statistic(a, b)
    return pvalue >= alpha


def cdf_points(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF as (sorted values, cumulative probabilities)."""
    values = np.sort(np.asarray(values, dtype=float))
    if len(values) == 0:
        return values, values
    probs = np.arange(1, len(values) + 1) / len(values)
    return values, probs


@dataclass(frozen=True)
class PercentileErrorRow:
    """One row of the Table 1 error metric."""

    label: str
    p25_ms: float
    p50_ms: float
    p75_ms: float
    mean_ms: float
    p25_pct: float
    p50_pct: float
    p75_pct: float
    mean_pct: float

    def __str__(self) -> str:
        return (
            f"{self.label:>4s}  "
            f"{self.p25_ms:.0f} ({self.p25_pct:.0f}%)  "
            f"{self.p50_ms:.0f} ({self.p50_pct:.0f}%)  "
            f"{self.p75_ms:.0f} ({self.p75_pct:.0f}%)  "
            f"{self.mean_ms:.0f} ({self.mean_pct:.0f}%)"
        )


def percentile_error_table(
    predicted_ms: Sequence[float],
    ground_truth_ms: Sequence[float],
    label: str = "",
) -> PercentileErrorRow:
    """The Table 1 metric.

    Both inputs are distributions of per-call 95th-percentile delays (ms).
    The error at percentile P is ``|percentile(pred, P) - percentile(gt, P)|``
    in ms and as a percentage of the GT percentile; "mean" compares the
    distribution means.
    """
    pred = np.asarray(predicted_ms, dtype=float)
    gt = np.asarray(ground_truth_ms, dtype=float)
    pred = pred[~np.isnan(pred)]
    gt = gt[~np.isnan(gt)]
    if len(pred) == 0 or len(gt) == 0:
        raise ValueError("both distributions must be non-empty")

    def delta(p: float) -> Tuple[float, float]:
        gt_val = float(np.percentile(gt, p))
        pred_val = float(np.percentile(pred, p))
        err = abs(pred_val - gt_val)
        return err, 100.0 * err / max(gt_val, 1e-9)

    p25_ms, p25_pct = delta(25)
    p50_ms, p50_pct = delta(50)
    p75_ms, p75_pct = delta(75)
    mean_err = abs(float(pred.mean()) - float(gt.mean()))
    mean_pct = 100.0 * mean_err / max(float(gt.mean()), 1e-9)
    return PercentileErrorRow(
        label=label,
        p25_ms=p25_ms,
        p50_ms=p50_ms,
        p75_ms=p75_ms,
        mean_ms=mean_err,
        p25_pct=p25_pct,
        p50_pct=p50_pct,
        p75_pct=p75_pct,
        mean_pct=mean_pct,
    )


def summary_distribution_ks(
    gt_summaries: Sequence,
    sim_summaries: Sequence,
) -> Dict[str, Tuple[float, float]]:
    """KS statistics for each Fig. 2 axis between GT and simulated runs.

    Inputs are sequences of :class:`repro.trace.metrics.TraceSummary`.
    """
    metrics = {
        "p95_delay_ms": lambda s: s.p95_delay_ms,
        "loss_percent": lambda s: s.loss_percent,
        "mean_rate_mbps": lambda s: s.mean_rate_mbps,
    }
    out = {}
    for name, getter in metrics.items():
        gt_vals = [getter(s) for s in gt_summaries]
        sim_vals = [getter(s) for s in sim_summaries]
        out[name] = ks_statistic(gt_vals, sim_vals)
    return out
