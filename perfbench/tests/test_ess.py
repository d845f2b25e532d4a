"""The benchmark's IACT estimator against AR(1) series with known tau.

An AR(1) process x_t = a x_{t-1} + e_t has rho(t) = a^|t|, so
tau = 1 + 2 sum_{t>=1} a^t = (1 + a) / (1 - a).

Run with: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import ess  # noqa: E402


def ar1(a: float, n: int, rng: np.random.Generator) -> np.ndarray:
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - a * a)  # start in the stationary law
    for t in range(1, n):
        x[t] = a * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("a", [0.0, 0.5, 0.8, 0.95])
def test_pooled_iact_matches_ar1(a):
    rng = np.random.default_rng(12345)
    chains = [ar1(a, 50_000, rng) for _ in range(4)]
    est = ess.sokal_iact(chains)
    exact = (1.0 + a) / (1.0 - a)
    # Sokal: var(tau_hat) ~ 2 (2M + 1) / n * tau^2; allow 4 standard errors
    rel_se = np.sqrt(2.0 * (2 * est.window + 1) / est.samples)
    assert abs(est.tau - exact) <= 4.0 * rel_se * exact + 0.02
    assert est.window >= ess.WINDOW_C * est.tau
    assert est.samples == 200_000
    assert est.ess == pytest.approx(200_000 / est.tau)


def test_pooling_uses_each_chain_mean():
    """Chains with different means are not one chain with a jump."""
    rng = np.random.default_rng(7)
    chains = [ar1(0.5, 20_000, rng) + offset for offset in (-50.0, 0.0, 50.0)]
    assert ess.sokal_iact(chains).tau == pytest.approx(3.0, rel=0.1)


def test_constant_and_short_series_raise():
    with pytest.raises(ValueError):
        ess.sokal_iact([np.ones(100), np.ones(100)])
    with pytest.raises(ValueError):  # a trend never decorrelates within half its length
        ess.sokal_iact([np.arange(200.0)])
