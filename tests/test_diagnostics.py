"""Convergence diagnostics: rate estimate, kernel distance, Geweke, ESS."""

import math

import numpy as np
import pytest

from amcmc.diagnostics import (
    Trace,
    effective_sample_size,
    geweke_z,
    phi_max,
    read_trace_csv,
    w1_kernel_distance,
    write_trace_csv,
)
from amcmc.distributions import SeededRng
from amcmc.finite_chain import FiniteMeasure, simulate_path, two_state_symmetric


def ar1(rho, t, seed=0, p=1):
    rng = np.random.default_rng(seed)
    x = np.zeros((t, p))
    innov = rng.normal(size=(t, p)) * math.sqrt(1 - rho * rho)
    for i in range(1, t):
        x[i] = rho * x[i - 1] + innov[i]
    return Trace(x)


# ---------------------------------------------------------------------------
# Trace container
# ---------------------------------------------------------------------------


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace(np.zeros((1, 2)))  # too short
    with pytest.raises(ValueError):
        Trace(np.array([[np.nan], [0.0]]))
    with pytest.raises(ValueError):
        Trace(np.zeros((2, 2, 2)))


def test_trace_one_dim_promoted_to_column():
    tr = Trace(np.arange(5.0))
    assert tr.samples.shape == (5, 1)
    assert tr.t == 5 and tr.p == 1


# ---------------------------------------------------------------------------
# phi_max
# ---------------------------------------------------------------------------


def test_phi_max_recovers_ar1_rate():
    tr = ar1(0.8, 50_000, seed=1)
    rep = phi_max(tr, k_max=20)
    assert rep.phi_max is not None
    assert rep.phi_max == pytest.approx(0.8, abs=0.05)


def test_phi_max_absent_for_iid():
    rng = np.random.default_rng(8)
    rep = phi_max(Trace(rng.normal(size=(20_000, 2))), k_max=10)
    assert rep.phi_max is None
    assert rep.retained == []


def test_phi_max_excludes_constant_coordinate():
    x = np.column_stack([np.ones(1000), np.random.default_rng(0).normal(size=1000)])
    rep = phi_max(Trace(x), k_max=5)
    assert rep.excluded_coords == [0]


def test_phi_max_k_max_validation():
    tr = ar1(0.5, 100)
    with pytest.raises(ValueError):
        phi_max(tr, k_max=11)  # above t / 10
    with pytest.raises(ValueError):
        phi_max(tr, k_max=0)


def test_phi_max_threshold_formula():
    tr = ar1(0.5, 1000)
    rep = phi_max(tr, k_max=10)
    from scipy.stats import norm

    expected = float(norm.ppf(0.95 ** (1 / 10))) / math.sqrt(1000 - 10)
    assert rep.threshold == pytest.approx(expected, abs=1e-12)


def test_phi_max_quantile_equals_scipy_stats_norm_ppf():
    """The threshold's quantile comes from scipy.special.ndtri, which must
    give norm.ppf's bits on every level phi_max can ask for."""
    from scipy.special import ndtri
    from scipy.stats import norm

    levels = np.concatenate([0.95 ** (1.0 / np.arange(1, 201)), np.linspace(0.0, 1.0, 101)])
    assert np.array_equal(ndtri(levels), norm.ppf(levels))


# ---------------------------------------------------------------------------
# kernel distance
# ---------------------------------------------------------------------------


def test_w1_two_singletons_closed_form():
    # sets {a} and {b}: dist = sqrt((2 - 2 exp(-phi (a-b)^2)) / sigma)
    a, b, phi, sigma = 0.3, 1.7, 0.8, 2.0
    got = w1_kernel_distance(np.array([a]), np.array([b]), phi=phi, sigma=sigma)
    want = math.sqrt((2.0 - 2.0 * math.exp(-phi * (a - b) ** 2)) / sigma)
    assert got == pytest.approx(want, abs=1e-12)


def test_w1_identical_sets_is_zero():
    x = np.random.default_rng(0).normal(size=(50, 3))
    assert w1_kernel_distance(x, x.copy()) == pytest.approx(0.0, abs=1e-9)


def test_w1_symmetry_and_positivity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=(60, 2)) + 0.5
    d1 = w1_kernel_distance(x, y)
    d2 = w1_kernel_distance(y, x)
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert d1 > 0.0


def test_w1_shrinks_as_laws_merge():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(500, 1))
    ds = [
        w1_kernel_distance(x, rng.normal(size=(500, 1)) + shift)
        for shift in (2.0, 1.0, 0.0)
    ]
    assert ds[0] > ds[1] > ds[2]


def test_w1_validation():
    with pytest.raises(ValueError):
        w1_kernel_distance(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        w1_kernel_distance(np.zeros((0, 1)), np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# Geweke and ESS
# ---------------------------------------------------------------------------


def test_geweke_small_for_stationary_large_for_trended():
    tr = ar1(0.5, 20_000, seed=3)
    assert abs(geweke_z(tr)[0]) < 4.0
    trended = Trace(np.linspace(0, 10, 20_000) + ar1(0.5, 20_000, seed=4).samples[:, 0])
    assert abs(geweke_z(trended)[0]) > 5.0


def test_geweke_window_validation():
    tr = ar1(0.5, 1000)
    with pytest.raises(ValueError):
        geweke_z(tr, first_frac=0.6, last_frac=0.5)
    with pytest.raises(ValueError):
        geweke_z(tr, first_frac=0.0)


def test_ess_iid_near_t():
    rng = np.random.default_rng(5)
    tr = Trace(rng.normal(size=(20_000, 1)))
    ess, flags = effective_sample_size(tr)
    assert not flags[0]
    assert ess[0] == pytest.approx(20_000, rel=0.1)


def test_ess_ar1_matches_theory():
    # AR(1) with rho: ESS/t -> (1 - rho) / (1 + rho)
    rho = 0.6
    tr = ar1(rho, 100_000, seed=6)
    ess, _ = effective_sample_size(tr)
    assert ess[0] / tr.t == pytest.approx((1 - rho) / (1 + rho), abs=0.04)


def test_ess_constant_coordinate_flagged():
    x = np.column_stack([np.ones(500), np.random.default_rng(7).normal(size=500)])
    ess, flags = effective_sample_size(Trace(x))
    assert flags[0] and not flags[1]
    assert ess[0] == 500


def test_two_state_chain_ess():
    """On the symmetric chain with off-diagonal a, autocorrelations are
    (1-2a)^k, so ESS/t = a / (1 - a)."""
    a = 0.25
    P = two_state_symmetric(a)
    nu = FiniteMeasure(np.array([0.5, 0.5]))
    path = simulate_path(SeededRng(21), P, nu, 50_000)
    ess, _ = effective_sample_size(Trace(path.astype(float)))
    assert ess[0] / 50_000 == pytest.approx(a / (1 - a), abs=0.05)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_trace_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    tr = Trace(rng.normal(size=(100, 3)) * 1e-7, seed=9)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path, names=["a", "b", "c"])
    back = read_trace_csv(path, seed=9)
    assert np.array_equal(tr.samples, back.samples)  # repr round-trips floats
    # writing the read-back trace reproduces the file byte for byte
    path2 = tmp_path / "trace2.csv"
    write_trace_csv(back, path2, names=["a", "b", "c"])
    assert path.read_bytes() == path2.read_bytes()
