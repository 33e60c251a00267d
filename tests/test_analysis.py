"""Rate estimates, ratio credible intervals, T-fidelity bound."""
from __future__ import annotations

import math

import numpy as np
import pytest

from framesim.analysis import (
    RateEstimate,
    attenuation_model,
    ratio_credible_interval,
    t_fidelity_bound,
)


def test_rate_estimate_basic_and_weighted():
    r = RateEstimate.from_counts(5, 100)
    assert r.rate == 0.05
    with pytest.raises(ValueError):
        RateEstimate.from_counts(5, 4)
    # equal weights reduce to the unweighted estimate
    hits = np.array([1, 0, 1, 1, 0])
    w = np.full(5, 0.37)
    assert RateEstimate.from_weighted(w, hits).rate == pytest.approx(3 / 5)


def test_ratio_symmetric_case():
    ri = ratio_credible_interval(500, 10 ** 6, 500, 10 ** 6, samples=50_000, seed=1)
    assert 0.9 < ri.median < 1.1
    assert ri.lo < 1.0 < ri.hi


def test_ratio_zero_events_finite():
    ri = ratio_credible_interval(0, 10_000, 50, 10_000, samples=20_000, seed=2)
    assert ri.lo > 0.0
    assert math.isfinite(ri.hi)
    assert ri.lo <= ri.median <= ri.hi


def test_ratio_swap_equivariance():
    a = ratio_credible_interval(80, 10 ** 5, 40, 10 ** 5, samples=200_000, seed=3)
    b = ratio_credible_interval(40, 10 ** 5, 80, 10 ** 5, samples=200_000, seed=4)
    assert a.median == pytest.approx(1 / b.median, rel=0.03)
    assert a.lo == pytest.approx(1 / b.hi, rel=0.05)
    assert a.hi == pytest.approx(1 / b.lo, rel=0.05)


def test_ratio_validates_inputs():
    with pytest.raises(ValueError):
        ratio_credible_interval(5, 4, 1, 10)
    with pytest.raises(ValueError):
        ratio_credible_interval(1, 10, 1, 10, samples=100)


def test_tbound_values_and_monotonicity():
    assert t_fidelity_bound(1 / math.sqrt(2)) == pytest.approx(1.0)
    assert t_fidelity_bound(0.0) == pytest.approx(0.5)
    ys = np.linspace(-1, 1, 41)
    vals = [t_fidelity_bound(float(y)) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        t_fidelity_bound(1.5)


def test_full_fidelity_identity_for_ideal_state():
    inv = 1 / math.sqrt(2)
    f = 0.5 + inv / (2 * math.sqrt(2)) + inv / (2 * math.sqrt(2))
    assert f == pytest.approx(1.0)


def test_attenuation_matches_single_qubit_channel_average():
    rng = np.random.default_rng(7)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    psi = np.array([1 / math.sqrt(2), np.exp(1j * math.pi / 4) / math.sqrt(2)])
    ideal_x = float(np.vdot(psi, x @ psi).real)
    ideal_y = float(np.vdot(psi, y @ psi).real)
    for _ in range(20):
        probs = rng.dirichlet([1, 1, 1, 1])[:3] * rng.uniform(0.2, 1.0)
        px, py, pz = (float(p) for p in probs)
        branches = [(1 - px - py - pz, np.eye(2)), (px, x), (py, y), (pz, z)]
        noisy_x = sum(p * np.vdot(e @ psi, x @ (e @ psi)).real for p, e in branches)
        noisy_y = sum(p * np.vdot(e @ psi, y @ (e @ psi)).real for p, e in branches)
        got_x, got_y = attenuation_model(px, py, pz, ideal_x, ideal_y)
        assert abs(got_x - noisy_x) < 1e-12
        assert abs(got_y - noisy_y) < 1e-12


def test_attenuation_edge_cases():
    assert attenuation_model(0, 0, 0, 0.5, 0.25) == (0.5, 0.25)
    nx, ny = attenuation_model(0, 0, 0.5, 0.7, 0.7)
    assert nx == pytest.approx(0.0) and ny == pytest.approx(0.0)
    with pytest.raises(ValueError):
        attenuation_model(0.6, 0.3, 0.3, 1, 1)
    with pytest.raises(ValueError):
        attenuation_model(-0.1, 0, 0, 1, 1)


def test_ratio_interval_refuses_samples_above_bound_before_allocating():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="at most 10\\^7"):
            ratio_credible_interval(1, 10, 1, 10, samples=10 ** 7 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the four arrays would take 320 MB
