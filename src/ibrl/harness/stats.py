"""Percentile summaries with bootstrap confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class PercentileReport:
    """One quantile summary: nearest-rank point estimate, bootstrap CI, and
    (for trap experiments) the fraction of runs that hit a catastrophe."""

    statistic: str
    estimate: float
    ci_low: float
    ci_high: float
    catastrophe_rate: float | None = None

    def __post_init__(self) -> None:
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise ConfigError("percentile CI must contain the point estimate")

    def format(self) -> str:
        text = f"{self.statistic} {self.estimate:.2f} [{self.ci_low:.2f}, {self.ci_high:.2f}]"
        if self.catastrophe_rate is not None:
            text += f" cat_rate={self.catastrophe_rate:.3f}"
        return text


def nearest_rank(samples: np.ndarray, q: float) -> float:
    """Nearest-rank empirical quantile: the ceil(q*n)-th smallest sample."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise ConfigError("cannot take a quantile of an empty sample set")
    if not 0.0 < q <= 1.0:
        raise ConfigError("quantile level must lie in (0, 1]")
    rank = max(1, math.ceil(q * s.size))
    return float(s[rank - 1])


def bootstrap_percentiles(
    samples: "np.ndarray | list[float]",
    q: float,
    n_boot: int,
    rng: np.random.Generator,
    catastrophe_rate: float | None = None,
) -> PercentileReport:
    """Nearest-rank quantile with a percentile-bootstrap 95% CI.

    The CI bounds are the 2.5% and 97.5% nearest-rank quantiles of the
    quantile's bootstrap distribution over ``n_boot`` resamples with
    replacement, widened if needed so the interval contains the point
    estimate."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ConfigError("bootstrap needs at least one sample")
    if not 0.0 < q <= 1.0:
        raise ConfigError("quantile level must lie in (0, 1]")
    if n_boot < 1:
        raise ConfigError("resample count must be at least 1")
    estimate = nearest_rank(data, q)
    col = max(1, math.ceil(q * data.size)) - 1
    indices = rng.integers(0, data.size, size=(n_boot, data.size))
    resampled = np.sort(data[indices], axis=1)[:, col]
    ci_low = min(nearest_rank(resampled, 0.025), estimate)
    ci_high = max(nearest_rank(resampled, 0.975), estimate)
    label = f"p{q * 100:g}"
    return PercentileReport(label, estimate, ci_low, ci_high, catastrophe_rate)
