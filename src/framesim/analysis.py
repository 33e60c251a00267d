"""Post-processing statistics for sampled records.

Rate estimation (including Horvitz-Thompson style weighted rates from
importance-sampled strata), Monte Carlo credible intervals for rate ratios
under Jeffreys-prior Beta posteriors, and the conservative T-state fidelity
estimator with its Pauli-channel attenuation model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_MAX_SAMPLES = 10 ** 7  # four float arrays of this length: 320 MB


@dataclass
class RateEstimate:
    """Event rate; supports weighted (importance-sampled) counting."""

    events: float
    trials: float

    @property
    def rate(self) -> float:
        return self.events / self.trials if self.trials else 0.0

    @classmethod
    def from_counts(cls, k: int, n: int) -> "RateEstimate":
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k} n={n}")
        return cls(float(k), float(n))

    @classmethod
    def from_weighted(cls, weights, hits) -> "RateEstimate":
        """Weighted event mass over weighted trials (weights sum per stratum)."""
        w = np.asarray(weights, dtype=float)
        h = np.asarray(hits, dtype=float)
        if w.shape != h.shape:
            raise ValueError("weights and hits must align")
        return cls(float(np.sum(w * h)), float(np.sum(w)))


@dataclass
class RatioInterval:
    median: float
    lo: float
    hi: float
    mc_samples: int


def _nearest_rank(sorted_vals: np.ndarray, q: float) -> float:
    n = len(sorted_vals)
    rank = max(1, math.ceil(q * n))
    return float(sorted_vals[rank - 1])


def ratio_credible_interval(k1: int, n1: int, k2: int, n2: int,
                            samples: int = 100_000, seed: int = 0) -> RatioInterval:
    """95% credible interval for p1/p2 with Beta(k+1/2, n-k+1/2) posteriors.

    Monte Carlo over paired posterior draws; the median of the elementwise
    ratios is the point estimate and the 2.5th/97.5th percentiles bound it.
    ``samples`` must lie in [10^4, 10^7].
    """
    for k, n in ((k1, n1), (k2, n2)):
        if n < 1 or not 0 <= k <= n:
            raise ValueError(f"invalid counts k={k}, n={n}")
    if samples < 10_000:
        raise ValueError("need at least 10^4 Monte Carlo samples")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"at most 10^7 Monte Carlo samples, got {samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    p1 = rng.beta(k1 + 0.5, n1 - k1 + 0.5, size=samples)
    p2 = rng.beta(k2 + 0.5, n2 - k2 + 0.5, size=samples)
    tiny = p2 < 1e-300
    while tiny.any():  # negligible posterior mass; redraw to avoid division blowup
        p2[tiny] = rng.beta(k2 + 0.5, n2 - k2 + 0.5, size=int(tiny.sum()))
        tiny = p2 < 1e-300
    ratios = np.sort(p1 / p2)
    return RatioInterval(
        median=_nearest_rank(ratios, 0.5),
        lo=_nearest_rank(ratios, 0.025),
        hi=_nearest_rank(ratios, 0.975),
        mc_samples=samples,
    )


def t_fidelity_bound(y_expect: float) -> float:
    """Conservative T-state fidelity lower bound 1/2 + <Y>/sqrt(2).

    Valid as a lower bound when <X> >= <Y> (the logical-Y failure channel is
    much rarer than X/Z in the regime this estimator targets).
    """
    if not -1.0 <= y_expect <= 1.0:
        raise ValueError(f"expectation {y_expect} outside [-1, 1]")
    return 0.5 + y_expect / _SQRT2


def attenuation_model(p_x: float, p_y: float, p_z: float,
                      ideal_x: float, ideal_y: float) -> tuple[float, float]:
    """Expectation attenuation under a Pauli channel.

    Errors anticommuting with a measured observable shrink its expectation:
    X picks up (1 - 2pY - 2pZ), Y picks up (1 - 2pX - 2pZ).
    """
    for p in (p_x, p_y, p_z):
        if p < 0:
            raise ValueError("negative probability")
    if p_x + p_y + p_z > 1.0 + 1e-12:
        raise ValueError("probabilities sum beyond 1")
    noisy_x = (1.0 - 2.0 * p_y - 2.0 * p_z) * ideal_x
    noisy_y = (1.0 - 2.0 * p_x - 2.0 * p_z) * ideal_y
    return noisy_x, noisy_y
