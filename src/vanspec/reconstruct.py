"""Bandlimited field synthesis, noisy sensor observation, LMMSE recovery.

The reconstruction error of the LMMSE filter on a realized sampling matrix
V equals the empirical eta-transform of V V^H at gamma/beta; both the
filtered estimate and the trace form of the error are provided so the
identity can be verified numerically rather than by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sampling import SamplingDistribution
from .spectral import (
    DFoldVandermonde,
    _run_trials,
    build_vandermonde,
    trial_seed,
)

# Condition-estimate bound above which LMMSE results carry a warning flag.
COND_TOL = 1e12


@dataclass(frozen=True)
class FieldSpectrum:
    """Complex field spectrum with E[a a^H] = sigma_a^2 I."""

    a: np.ndarray
    sigma_a2: float
    n: int
    d: int


@dataclass(frozen=True)
class Observation:
    """Received samples p = s + noise, with s the noiseless samples."""

    p: np.ndarray
    s: np.ndarray
    sigma_n2: float
    gamma: float
    field: FieldSpectrum


@dataclass(frozen=True)
class LmmseResult:
    a_hat: np.ndarray
    normalized_error: float
    trace_mse: float
    ill_conditioned: bool


def _complex_normal(rng: np.random.Generator, size: int, variance: float) -> np.ndarray:
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def generate_spectrum(n: int, d: int, sigma_a2: float, seed) -> FieldSpectrum:
    """i.i.d. circularly symmetric complex Gaussian spectrum."""
    if sigma_a2 <= 0:
        raise ValueError("sigma_a2 must be > 0")
    rng = np.random.default_rng(seed)
    a = _complex_normal(rng, n ** d, sigma_a2)
    return FieldSpectrum(a=a, sigma_a2=sigma_a2, n=n, d=d)


def observe(V: DFoldVandermonde, spec: FieldSpectrum, sigma_n2: float, seed) -> Observation:
    """Noisy samples p = beta^(-1/2) V^H a + white complex Gaussian noise."""
    if sigma_n2 < 0:
        raise ValueError("sigma_n2 must be >= 0")
    if spec.n != V.n or spec.d != V.d:
        raise ValueError("field spectrum size does not match the matrix")
    s = V.beta ** -0.5 * V.rmatvec(spec.a)
    if sigma_n2 > 0:
        rng = np.random.default_rng(seed)
        noise = _complex_normal(rng, V.m, sigma_n2)
    else:
        noise = np.zeros(V.m, dtype=complex)
    gamma = spec.sigma_a2 / sigma_n2 if sigma_n2 > 0 else np.inf
    return Observation(p=s + noise, s=s, sigma_n2=sigma_n2, gamma=gamma, field=spec)


def lmmse(V: DFoldVandermonde, obs: Observation) -> LmmseResult:
    """LMMSE estimate of the spectrum and the trace form of its error.

    The estimate solves B a = rhs with B = sigma_n^-2 beta^-1 V V^H +
    sigma_a^-2 I, and B^-1, the error covariance, gives trace_mse
    independently of any eigendecomposition.  V V^H is the Toeplitz Gram
    that the spectra use, and B is solved as its real twin B_R = S^H B S
    (see gram_twin, read from V.lmmse_twin so that every SNR on one V shares
    it): one real LU solve of B_R X = [Re y | Im y | I] with
    y = sqrt(2) S^H rhs = rhs - i J rhs, so a = S B_R^-1 S^H rhs =
    (z + i J z) / 2 with z = X_0 + i X_1, and tr B^-1 = tr B_R^-1.
    """
    if not np.isfinite(obs.gamma) or obs.sigma_n2 <= 0:
        raise ValueError("lmmse needs sigma_n2 > 0 (finite gamma)")
    sigma_a2 = obs.field.sigma_a2
    sigma_n2 = obs.sigma_n2
    nd = V.n ** V.d
    beta = V.beta

    B_R = (1.0 / (sigma_n2 * beta)) * V.lmmse_twin + (1.0 / sigma_a2) * np.eye(nd)
    rhs = (1.0 / (sigma_n2 * np.sqrt(beta))) * V.matvec(obs.p)
    y = rhs - 1j * rhs[::-1]
    X = np.linalg.solve(B_R, np.column_stack([y.real, y.imag, np.eye(nd)]))
    z = X[:, 0] + 1j * X[:, 1]
    a_hat = (z + 1j * z[::-1]) / 2
    trace_mse = float(np.trace(X[:, 2:])) / (nd * sigma_a2)
    err = obs.field.a - a_hat
    normalized_error = float(np.real(err.conj() @ err)) / (nd * sigma_a2)

    cond_bound = 1.0 + obs.gamma * nd / beta
    return LmmseResult(
        a_hat=a_hat,
        normalized_error=normalized_error,
        trace_mse=trace_mse,
        ill_conditioned=bool(cond_bound > COND_TOL),
    )


@dataclass(frozen=True)
class MseEstimate:
    mean_trace_mse: float
    mean_normalized_error: float
    stderr_trace_mse: float
    stderr_normalized_error: float


def mse_monte_carlo(
    dist: SamplingDistribution,
    n: int,
    d: int,
    m: int,
    gammas: Sequence[float],
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> list[MseEstimate]:
    """Average LMMSE error over independent (V, a, noise) draws, one
    estimate per SNR in gammas.

    Each trial draws its points, field spectrum and unit noise once and
    observes and solves that one V at every gamma (common random numbers),
    so each estimate equals a sweep over its gamma alone, bit for bit; the
    stderr is per gamma, and the estimates are correlated across gamma.
    Both estimators (realized reconstruction error and the trace formula)
    target MSE^(n); their agreement is a consistency check.
    """
    gammas = [float(g) for g in gammas]
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not gammas:
        raise ValueError("gammas must not be empty")
    if not all(g > 0 and np.isfinite(g) for g in gammas):
        raise ValueError(f"every gamma must be positive and finite, got {gammas}")
    if d != dist.d:
        raise ValueError(f"dimension mismatch: requested d={d}, distribution has d={dist.d}")
    sigma_a2 = 1.0

    def one(t: int) -> list[tuple[float, float]]:
        ss = trial_seed(seed, t)
        s_pts, s_field, s_noise = ss.spawn(3)
        V = build_vandermonde(dist, n, m, s_pts)
        spec = generate_spectrum(n, d, sigma_a2, s_field)
        out = []
        for gamma in gammas:
            res = lmmse(V, observe(V, spec, sigma_a2 / gamma, s_noise))
            out.append((res.trace_mse, res.normalized_error))
        return out

    results = np.array(_run_trials(one, trials, threads))  # (trials, gamma, estimator)
    return [_estimate(results[:, i]) for i in range(len(gammas))]


def _estimate(results: np.ndarray) -> MseEstimate:
    """Means and standard errors over the trials of (trace_mse, normalized_error) rows."""
    trials = len(results)
    tr, er = results[:, 0], results[:, 1]
    return MseEstimate(
        mean_trace_mse=float(tr.mean()),
        mean_normalized_error=float(er.mean()),
        stderr_trace_mse=float(tr.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        stderr_normalized_error=float(er.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
    )
