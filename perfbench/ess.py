"""Integrated autocorrelation time with Sokal's automatic window.

This is the benchmark's own yardstick for MCMC efficiency.  It deliberately
does not use the library's ``ChainRecord.iact``: that estimate is capped at a
quarter of the series and is itself a target of future changes, so a
yardstick built on it would move with the code it measures.

The autocorrelation is pooled over independent chains of the same target:
each chain is centred on its own mean, the lag products of all chains are
summed, and the pooled autocovariance is normalised by the pooled variance.
The window is the smallest M with M >= c * tau(M), where
tau(M) = 1 + 2 sum_{t=1}^{M} rho(t) (A. D. Sokal, "Monte Carlo methods in
statistical mechanics: foundations and new algorithms", 1997, section 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WINDOW_C = 5.0  # Sokal's c; adequate for roughly exponential decay


@dataclass(frozen=True)
class IACT:
    """tau in units of recorded samples, the window M it was cut at, and the
    number of samples it was estimated from."""

    tau: float
    window: int
    samples: int

    @property
    def ess(self) -> float:
        return self.samples / self.tau


def pooled_autocorrelation(series_list, max_lag: int) -> np.ndarray:
    """rho(0..max_lag) pooled over the chains (each centred on its own mean)."""
    num = np.zeros(max_lag + 1)
    total = 0
    for s in series_list:
        x = np.asarray(s, dtype=float)
        n = len(x)
        if n < 2:
            continue
        x = x - x.mean()
        size = 1 << int(np.ceil(np.log2(2 * n)))
        f = np.fft.rfft(x, size)
        acov = np.fft.irfft(f * np.conj(f), size)[: min(n, max_lag + 1)]
        num[: len(acov)] += acov
        total += n
    if total == 0 or num[0] <= 0.0:
        raise ValueError("autocorrelation of a constant series is undefined")
    return num / num[0]


def sokal_iact(series_list, c: float = WINDOW_C) -> IACT:
    """Pooled IACT of independent chains, with the automatic window.

    Raises ValueError when the series are constant or too short for the
    window condition to be met, so a caller can count the estimate as failed
    instead of reporting a truncated value.
    """
    series_list = [np.asarray(s, dtype=float) for s in series_list]
    n_min = min(len(s) for s in series_list)
    max_lag = n_min // 2
    rho = pooled_autocorrelation(series_list, max_lag)
    tau = 1.0 + 2.0 * np.cumsum(rho[1:])
    lags = np.arange(1, max_lag + 1)
    ok = np.flatnonzero(lags >= c * tau)
    if len(ok) == 0:
        raise ValueError(f"no Sokal window within {max_lag} lags; series too short")
    m = int(ok[0])
    return IACT(float(tau[m]), int(lags[m]), int(sum(len(s) for s in series_list)))
