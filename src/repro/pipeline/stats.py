"""Statistical analysis utilities for experiment results.

The paper's stability experiment (Appendix G) reports the *variance* of
every metric over repeated random train/test folds and eyeballs
box-plot outliers.  This module makes those judgements quantitative:
five-number summaries with IQR outlier detection, bootstrap confidence
intervals for metric means, and paired significance tests for
"approach A beats approach B on this metric" claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StabilitySummary",
    "stability_summary",
    "bootstrap_ci",
    "PairedComparison",
    "paired_comparison",
]


@dataclass(frozen=True)
class StabilitySummary:
    """Five-number variability summary of one metric across folds.

    ``outliers`` are values beyond 1.5×IQR of the quartiles — the
    standard box-plot whisker rule the paper's Figure 22 uses.
    """

    mean: float
    std: float
    median: float
    q1: float
    q3: float
    outliers: tuple[float, ...]

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @property
    def is_stable(self) -> bool:
        """The paper's reading of "low variance": std below 0.05."""
        return self.std < 0.05


def stability_summary(values: np.ndarray) -> StabilitySummary:
    """Summarise a metric's values over repeated folds.

    Raises
    ------
    ValueError
        With fewer than two values (variance is undefined).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a 1-D array of at least two fold values")
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = tuple(float(v) for v in values[(values < lo) | (values > hi)])
    return StabilitySummary(
        mean=float(values.mean()),
        std=float(values.std(ddof=1)),
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        outliers=outliers,
    )


def bootstrap_ci(values: np.ndarray, confidence: float = 0.95,
                 n_resamples: int = 2000, seed: int = 0,
                 statistic=np.mean) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for a statistic.

    Parameters
    ----------
    values:
        The fold-level metric values.
    confidence:
        Interval coverage (e.g. 0.95).
    n_resamples:
        Bootstrap resamples to draw.
    seed:
        Resampling randomness.
    statistic:
        Function of a 1-D array; defaults to the mean.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two values")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, values.size, size=(n_resamples, values.size))
    replicates = np.apply_along_axis(statistic, 1, values[idx])
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.percentile(replicates, [100 * alpha, 100 * (1 - alpha)])
    return float(lo), float(hi)


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired test between two approaches' fold scores.

    Attributes
    ----------
    mean_difference:
        Mean of ``a − b`` (positive means A scored higher).
    t_statistic, p_value:
        Paired t-test of the null "no difference".
    wilcoxon_p_value:
        Distribution-free confirmation (NaN when all differences are
        zero, where the test is undefined).
    significant:
        ``p_value`` below the requested level.
    """

    mean_difference: float
    t_statistic: float
    p_value: float
    wilcoxon_p_value: float
    significant: bool


def paired_comparison(a: np.ndarray, b: np.ndarray,
                      alpha: float = 0.05) -> PairedComparison:
    """Paired t-test (plus Wilcoxon check) of two aligned score arrays.

    The pairing matters: fold i of approach A is compared with fold i
    of approach B, which removes the shared fold-difficulty variance —
    the right design for the paper's repeated-fold protocol.
    """
    from scipy import stats as scipy_stats

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two aligned 1-D arrays of length >= 2")
    diff = a - b
    if np.allclose(diff, 0.0):
        return PairedComparison(
            mean_difference=0.0, t_statistic=0.0, p_value=1.0,
            wilcoxon_p_value=float("nan"), significant=False)
    t_stat, p_value = scipy_stats.ttest_rel(a, b)
    try:
        _, w_p = scipy_stats.wilcoxon(diff)
    except ValueError:
        w_p = float("nan")
    return PairedComparison(
        mean_difference=float(diff.mean()),
        t_statistic=float(t_stat),
        p_value=float(p_value),
        wilcoxon_p_value=float(w_p),
        significant=bool(p_value < alpha),
    )
