"""Statistics helpers for experiment results.

The paper reports boxplots over 10 runs (Fig. 2) and a linear trend; we
provide exactly those: five-number boxplot summaries (matplotlib
convention: whiskers at 1.5 IQR, the rest outliers) and least-squares
linear fits with R².
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = [
    "BoxplotStats",
    "LinearFit",
    "boxplot_stats",
    "linear_fit",
]


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary plus mean/stdev and outliers."""

    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    mean: float
    stdev: float
    outliers: Tuple[float, ...] = ()

    @property
    def iqr(self) -> float:
        """Interquartile range (q3 - q1)."""
        return self.q3 - self.q1


def boxplot_stats(values: Sequence[float]) -> BoxplotStats:
    """Five-number summary with 1.5-IQR whiskers (matplotlib convention)."""
    if not values:
        raise ValueError("no values")
    import numpy as np

    arr = np.asarray(sorted(values), dtype=float)
    q1, median, q3 = np.percentile(arr, [25, 50, 75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    whisker_low = float(inside.min()) if inside.size else float(arr.min())
    whisker_high = float(inside.max()) if inside.size else float(arr.max())
    # Interpolated percentiles can fall outside the observed data (e.g.
    # q3 of [0,0,0,1] is 0.25); clamp whiskers to the box edges so that
    # min <= whisker_low <= q1 <= q3 <= whisker_high <= max always holds.
    whisker_low = min(whisker_low, float(q1))
    whisker_high = max(whisker_high, float(q3))
    outliers = tuple(
        float(v) for v in arr if v < whisker_low or v > whisker_high
    )
    return BoxplotStats(
        n=len(arr),
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(arr.max()),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        mean=float(arr.mean()),
        stdev=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        outliers=outliers,
    )


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line y = slope * x + intercept with fit quality."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted line at x."""
        return self.slope * x + self.intercept

    @property
    def is_decreasing(self) -> bool:
        """True when the fitted slope is negative."""
        return self.slope < 0


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Fit a line through (xs, ys); R² measures how linear the trend is."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    # Closed-form least squares (more robust than polyfit's SVD for
    # near-degenerate inputs).
    x_mean, y_mean = x.mean(), y.mean()
    ss_xx = float(np.sum((x - x_mean) ** 2))
    if ss_xx == 0.0:
        raise ValueError("all x values identical; no line to fit")
    slope = float(np.sum((x - x_mean) * (y - y_mean))) / ss_xx
    intercept = y_mean - slope * x_mean
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LinearFit(float(slope), float(intercept), r_squared)
