import dataclasses

import numpy as np
import pytest

from vanspec import reconstruct
from vanspec.reconstruct import (
    generate_spectrum,
    lmmse,
    mse_monte_carlo,
    observe,
)
from vanspec.sampling import uniform_distribution
from vanspec.scenarios import hole_distribution
from vanspec.spectral import build_vandermonde, gram_eigenvalues

from helpers import (
    lmmse_complex_reference,
    point_distribution,
    received,
    synthesize_field,
    vandermonde_entries,
)


def test_generate_spectrum_power_and_determinism():
    powers = []
    for s in range(200):
        a = generate_spectrum(2, 1, seed=s)
        powers.append(np.mean(np.abs(a) ** 2))
    assert np.mean(powers) == pytest.approx(1.0, abs=0.05)
    a1 = generate_spectrum(4, 2, seed=7)
    assert a1.shape == (16,)
    assert np.array_equal(a1, generate_spectrum(4, 2, seed=7))


def test_generate_spectrum_covariance_is_identity():
    draws = np.stack([generate_spectrum(2, 1, seed=s) for s in range(4000)])
    cov = draws.conj().T @ draws / draws.shape[0]
    assert np.abs(np.diag(cov) - 1.0).max() < 0.06
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 0.05


def test_synthesize_constant_mode():
    a = np.zeros(3, dtype=complex)
    a[0] = 1.0
    assert synthesize_field(a, 3, 1, np.array([0.3])) == pytest.approx(3 ** -0.5)


def test_synthesize_single_harmonic():
    val = synthesize_field(np.array([0.0, 1.0], dtype=complex), 2, 1, np.array([0.25]))
    assert val == pytest.approx(1j / np.sqrt(2))


def test_synthesis_matches_observation_map():
    # sampling the synthesized field at the matrix points equals beta^-1/2 V^H a
    dist = uniform_distribution(2)
    V = build_vandermonde(dist, 4, 9, seed=3)
    a = generate_spectrum(4, 2, seed=4)
    s, _ = observe(V, a, seed=5)
    direct = synthesize_field(a, 4, 2, V.points)
    assert np.allclose(direct, s, atol=1e-12)


def test_observe_noiseless_and_noise_power():
    dist = uniform_distribution(1)
    V = build_vandermonde(dist, 8, 16, seed=1)
    a = generate_spectrum(8, 1, seed=2)
    s, z = observe(V, a, seed=3)
    assert np.array_equal(s, V.beta ** -0.5 * V.rmatvec(a))
    # the same noise draw for any field, of power sigma_n2 once received
    s0, z0 = observe(V, np.zeros(8, dtype=complex), seed=3)
    assert not s0.any() and np.array_equal(z0, z)
    pooled = np.concatenate(
        [received(*observe(V, np.zeros(8, dtype=complex), seed=s), 0.5) for s in range(200)]
    )
    assert np.mean(np.abs(pooled) ** 2) == pytest.approx(0.5, rel=0.05)
    with pytest.raises(ValueError, match="does not match"):
        observe(V, np.zeros(7, dtype=complex), seed=3)


def test_observe_worked_example():
    # one sensor at x=0, two unit coefficients, no noise: s = 2/sqrt(2)
    V = build_vandermonde(point_distribution([[0.0]]), 2, 1, seed=0)
    s, _ = observe(V, np.array([1.0, 1.0], dtype=complex), seed=0)
    assert s == pytest.approx([np.sqrt(2)])


def _solve(V, a, sigma_n2, seed):
    """lmmse on one observation of a at noise power sigma_n2."""
    s, z = observe(V, a, seed=seed)
    return lmmse(V, a, received(s, z, sigma_n2), sigma_n2)


def test_lmmse_limits():
    dist = uniform_distribution(1)
    V = build_vandermonde(dist, 4, 16, seed=11)
    a = generate_spectrum(4, 1, seed=12)
    low = _solve(V, a, 1e6, seed=13)   # gamma -> 0
    assert np.abs(low.a_hat).max() < 1e-2
    assert low.trace_mse == pytest.approx(1.0, abs=1e-3)
    hi = _solve(V, a, 1e-9, seed=14)   # gamma -> inf
    assert hi.normalized_error < 1e-4


@pytest.mark.parametrize("sigma_n2", [0.0, -1.0, float("inf"), float("nan")])
def test_lmmse_rejects_bad_noise_power(sigma_n2):
    V = build_vandermonde(uniform_distribution(1), 4, 6, seed=1)
    a = generate_spectrum(4, 1, seed=2)
    with pytest.raises(ValueError, match="sigma_n2"):
        lmmse(V, a, np.zeros(6, dtype=complex), sigma_n2)


def test_lmmse_trace_equals_empirical_eta():
    dist = uniform_distribution(1)
    for seed, n, m in ((0, 4, 8), (1, 16, 8), (2, 11, 11)):
        V = build_vandermonde(dist, n, m, seed=seed)
        a = generate_spectrum(n, 1, seed=seed + 50)
        gamma = 3.7
        res = _solve(V, a, 1.0 / gamma, seed=seed + 99)
        lam = gram_eigenvalues(V)
        eta = float(np.mean(1.0 / (gamma / V.beta * lam + 1.0)))
        assert abs(res.trace_mse - eta) < 1e-10


def test_lmmse_primal_dual_agreement():
    # the one solve agrees with an explicit inverse of B = gamma/beta E E^H + I
    # for m below, at and above n^d; below n^d a smaller m x m (dual) system
    # would also do, but the trace needs B^-1 in any case
    dist = uniform_distribution(1)
    nd, gamma = 6, 2.0
    a = generate_spectrum(nd, 1, seed=21)
    for m, seed in ((4, 24), (6, 26), (13, 22)):
        V = build_vandermonde(dist, nd, m, seed=seed)
        s, z = observe(V, a, seed=seed + 1)
        p = received(s, z, 1.0 / gamma)
        res = lmmse(V, a, p, 1.0 / gamma)
        E, beta = vandermonde_entries(V), V.beta
        B_inv = np.linalg.inv((gamma / beta) * (E @ E.conj().T) + np.eye(nd))
        a_ref = B_inv @ ((gamma / np.sqrt(beta)) * (E @ p))
        assert res.a_hat == pytest.approx(a_ref, rel=1e-10, abs=0)
        assert res.trace_mse == pytest.approx(np.trace(B_inv).real / nd, rel=1e-10, abs=0)


@pytest.mark.parametrize("d, n", [(1, 7), (1, 8), (2, 3), (2, 4), (3, 3), (3, 2)])
def test_lmmse_real_twin_matches_complex_solve(d, n):
    # the real solve on B's real twin against one complex LU solve of B on
    # [rhs | I], for odd and even n^d, m below and above n^d, with and
    # without a coverage hole, from -10 to 30 dB
    nd = n ** d
    for dist in (uniform_distribution(d), hole_distribution(0.5, d=d)):
        for m in (max(1, nd // 2), 2 * nd + 1):
            for k, gamma_db in enumerate(range(-10, 31, 10)):
                V = build_vandermonde(dist, n, m, seed=(d, n, m, k))
                a = generate_spectrum(n, d, seed=(d, n, m, k, 1))
                sigma_n2 = 10 ** (-gamma_db / 10)
                s, z = observe(V, a, seed=(d, n, m, k, 2))
                p = received(s, z, sigma_n2)
                res = lmmse(V, a, p, sigma_n2)
                ref = lmmse_complex_reference(V, a, p, sigma_n2)
                assert np.abs(res.a_hat - ref.a_hat).max() <= 1e-12 * np.abs(ref.a_hat).max()
                assert res.trace_mse == pytest.approx(ref.trace_mse, rel=0, abs=1e-12)
                assert res.normalized_error == pytest.approx(ref.normalized_error, rel=0, abs=1e-12)
                assert res.ill_conditioned == ref.ill_conditioned


def counting(dist):
    """dist with a sampler that records each call's m before drawing."""
    drawn = []

    def sampler(seed, m):
        drawn.append(m)
        return dist.sampler(seed, m)

    return dataclasses.replace(dist, sampler=sampler), drawn


def test_mse_monte_carlo_estimators_agree():
    [est] = mse_monte_carlo(uniform_distribution(1), 16, 20, gammas=[5.0], trials=60, seed=31)
    spread = 3 * (est.stderr_trace_mse + est.stderr_normalized_error)
    assert abs(est.mean_trace_mse - est.mean_normalized_error) <= max(spread, 0.02)


def test_mse_monte_carlo_decreasing_in_gamma():
    ests = mse_monte_carlo(uniform_distribution(1), 16, 20, gammas=[0.5, 2.0, 8.0, 32.0],
                           trials=20, seed=5)
    vals = [est.mean_trace_mse for est in ests]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mse_monte_carlo_sweep_equals_each_gamma_alone():
    # one V, field and noise seed per trial serve every gamma, bit for bit
    for dist, n, m in ((uniform_distribution(1), 8, 12), (hole_distribution(0.5, d=2), 3, 7)):
        gammas = [0.3, 4.0, 250.0]
        sweep = mse_monte_carlo(dist, n, m, gammas, trials=5, seed=11, threads=1)
        assert len(sweep) == len(gammas)
        for gamma, est in zip(gammas, sweep):
            assert est == mse_monte_carlo(dist, n, m, [gamma], trials=5, seed=11, threads=1)[0]


def test_mse_monte_carlo_draws_each_trial_once():
    dist, drawn = counting(uniform_distribution(1))
    mse_monte_carlo(dist, 8, 10, gammas=[0.5, 2.0, 8.0, 32.0], trials=3, seed=3, threads=1)
    assert drawn == [10, 10, 10]


def test_mse_monte_carlo_observes_each_trial_once(monkeypatch):
    # one observe per trial serves every gamma; one lmmse per (trial, gamma)
    calls = {"observe": 0, "lmmse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(reconstruct, name, counted(name, getattr(reconstruct, name)))
    mse_monte_carlo(uniform_distribution(1), 8, 10, gammas=[0.5, 2.0, 8.0, 32.0],
                    trials=3, seed=3, threads=1)
    assert calls == {"observe": 3, "lmmse": 12}


def test_mse_monte_carlo_thread_invariance():
    gammas = [0.5, 2.0, 40.0]
    a = mse_monte_carlo(uniform_distribution(1), 8, 10, gammas, trials=6, seed=3, threads=1)
    b = mse_monte_carlo(uniform_distribution(1), 8, 10, gammas, trials=6, seed=3, threads=3)
    assert a == b


def test_mse_monte_carlo_rejects_negative_threads_before_any_trial():
    dist, drawn = counting(uniform_distribution(1))
    with pytest.raises(ValueError, match="threads must be >= 0"):
        mse_monte_carlo(dist, 8, 10, gammas=[2.0], trials=3, seed=3, threads=-1)
    assert not drawn


def test_mse_monte_carlo_rejects_bad_gamma():
    # anywhere in the grid, and an empty grid, before any draw; 1e-320 is
    # positive and finite, but its noise power 1/gamma is not
    for gammas in ([0.0], [2.0, -1.0], [2.0, float("inf")], [float("nan"), 2.0], [],
                   [2.0, 1e-320]):
        dist, drawn = counting(uniform_distribution(1))
        with pytest.raises(ValueError, match="gamma"):
            mse_monte_carlo(dist, 8, 10, gammas, trials=2, seed=0)
        assert not drawn, gammas
