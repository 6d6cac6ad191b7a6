"""Ordinary least squares line fits for the divergence and growth scans.

The slope standard error is residual-based (classic OLS formula), which
folds both sampling noise and model misfit into the quoted uncertainty;
that is the right notion for the 3-sigma divergence verdicts, where a
series that visibly bends away from the model should not be certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LineFit:
    slope: float
    slope_stderr: float


def fit_line(x, y) -> LineFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    m = len(x)
    if m < 3:
        raise ValueError("need at least 3 points to quote a slope error")
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("x values are all identical")
    slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
    intercept = ybar - slope * xbar
    resid = y - intercept - slope * x
    s2 = float((resid**2).sum()) / (m - 2)
    return LineFit(slope=slope, slope_stderr=float(np.sqrt(s2 / sxx)))
