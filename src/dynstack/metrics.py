"""Accuracy, covariate-binned accuracy, and paired method comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "accuracy",
    "BinnedAccuracy",
    "binned_accuracy",
    "ComparisonResult",
    "paired_comparison",
]


def accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of correct predictions.

    Float input is read as positive-class probabilities and thresholded
    with a strict ``> 0.5`` (so an exact 0.5 predicts class 0);
    integer input is compared to ``truth`` directly, which also covers
    multi-class hard labels.
    """
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth must have equal length")
    if predicted.size == 0:
        raise ValueError("empty input")
    if np.issubdtype(predicted.dtype, np.floating):
        predicted = (predicted > 0.5).astype(np.int64)
    return float(np.mean(predicted == truth))


@dataclass(frozen=True)
class BinnedAccuracy:
    """Per-bin test counts and correct predictions over a covariate."""

    bin_lo: np.ndarray
    bin_hi: np.ndarray
    counts: np.ndarray
    correct: np.ndarray


def binned_accuracy(
    predicted: np.ndarray,
    truth: np.ndarray,
    values: np.ndarray,
    bins: int = 100,
    integer_bins: bool = False,
    value_range: tuple[float, float] | None = None,
) -> BinnedAccuracy:
    """Test counts and correct predictions inside equal-width covariate bins;
    a bin's accuracy is ``correct / counts``.

    Bins are half-open with the last one closed, and a value landing
    exactly on an interior edge goes to the right-hand bin. With
    ``integer_bins`` (degree-like covariates) there is one bin per
    integer value instead. ``value_range`` fixes the binned range so
    different samples can share edges; values outside it clamp into the
    end bins.
    """
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    values = np.asarray(values, dtype=float)
    if not (len(predicted) == len(truth) == len(values)):
        raise ValueError("inputs must be aligned")
    if np.issubdtype(predicted.dtype, np.floating):
        predicted = (predicted > 0.5).astype(np.int64)
    correct = (predicted == truth).astype(float)

    if integer_bins:
        ints = np.rint(values).astype(np.int64)
        imin, imax = (
            (ints.min(), ints.max())
            if value_range is None
            else (int(value_range[0]), int(value_range[1]))
        )
        uniq = np.arange(imin, imax + 1)
        idx = np.clip(ints, imin, imax) - imin
        n_bins = len(uniq)
        lo = uniq.astype(float)
        hi = uniq.astype(float)
    else:
        if bins < 1:
            raise ValueError("need at least one bin")
        n_bins = bins
        vmin, vmax = (values.min(), values.max()) if value_range is None else value_range
        if vmin == vmax:
            edges = np.array([vmin, vmax])
            n_bins = 1
        else:
            edges = np.linspace(vmin, vmax, n_bins + 1)
        idx = np.digitize(values, edges) - 1
        idx = np.clip(idx, 0, n_bins - 1)  # closes the last bin
        lo = edges[:-1]
        hi = edges[1:]

    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    hits = np.bincount(idx, weights=correct, minlength=n_bins)
    return BinnedAccuracy(lo, hi, counts, hits)


@dataclass(frozen=True)
class ComparisonResult:
    mean_diff: float
    p_value: float
    degenerate: bool  # zero-variance differences; p reported at the limit


def paired_comparison(acc_a: np.ndarray, acc_b: np.ndarray) -> ComparisonResult:
    """Paired one-sided test that method A is no better than method B.

    Computes the mean of per-repetition differences A - B and a paired
    t-test p-value under a normality assumption on the differences; a
    small p is evidence that A is more accurate. Constant differences
    have no variance, so the p-value collapses to 0.5 (all-zero), 0
    (positive, reported as < 1e-12), or 1 and is flagged degenerate.
    """
    a = np.asarray(acc_a, dtype=float)
    b = np.asarray(acc_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired comparison needs equal repetition counts")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two repetitions")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return ComparisonResult(mean, 0.5, True)
        return ComparisonResult(mean, 0.0 if mean > 0 else 1.0, True)
    from scipy.special import stdtr

    t = mean / (sd / np.sqrt(n))
    p = float(stdtr(n - 1, -t))  # Student t survival function at t
    return ComparisonResult(mean, p, False)
