"""Bandlimited field synthesis, noisy sensor observation, LMMSE recovery.

The field is its spectrum a, a plain complex vector of unit power; a
trial observes it once (noiseless samples s and one noise draw z) and
forms the received samples s + sqrt(sigma_n2 / 2) z at each SNR.  The
reconstruction error of the LMMSE filter on a realized sampling matrix V
equals the empirical eta-transform of V V^H at gamma/beta; both the
filtered estimate and the trace form of the error are provided so the
identity can be verified numerically rather than by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sampling import SamplingDistribution
from .spectral import DFoldVandermonde, _run_trials, build_vandermonde

# Condition-estimate bound above which LMMSE results carry a warning flag.
COND_TOL = 1e12


@dataclass(frozen=True)
class LmmseResult:
    a_hat: np.ndarray
    normalized_error: float
    trace_mse: float
    ill_conditioned: bool


def _complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """re + i im with i.i.d. unit-normal parts (so E|z|^2 = 2)."""
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def generate_spectrum(n: int, d: int, seed) -> np.ndarray:
    """Field spectrum a of n^d i.i.d. circularly symmetric complex Gaussian
    coefficients with E[a a^H] = I."""
    rng = np.random.default_rng(seed)
    return np.sqrt(0.5) * _complex_normal(rng, n ** d)


def observe(V: DFoldVandermonde, a: np.ndarray, seed) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless samples s = beta^(-1/2) V^H a and one noise draw z.

    The received samples at noise power sigma_n2 are
    p = s + sqrt(sigma_n2 / 2) * z, so one draw serves every SNR.
    """
    if a.shape != (V.n ** V.d,):
        raise ValueError("field spectrum size does not match the matrix")
    s = V.beta ** -0.5 * V.rmatvec(a)
    return s, _complex_normal(np.random.default_rng(seed), V.m)


def lmmse(V: DFoldVandermonde, a: np.ndarray, p: np.ndarray, sigma_n2: float) -> LmmseResult:
    """LMMSE estimate of the spectrum a from the samples p, and the trace
    form of its error, at noise power sigma_n2 (a has unit power).

    The estimate solves B a = rhs with B = sigma_n^-2 beta^-1 V V^H + I, and
    B^-1, the error covariance, gives trace_mse independently of any
    eigendecomposition.  V V^H is the Toeplitz Gram that the spectra use,
    and B is solved as its real twin B_R = S^H B S (see V.twin, built once
    and shared by every SNR on one V): one real LU solve of
    B_R X = [Re y | Im y | I] with y = sqrt(2) S^H rhs = rhs - i J rhs, so
    a = S B_R^-1 S^H rhs = (z + i J z) / 2 with z = X_0 + i X_1, and
    tr B^-1 = tr B_R^-1.  The realized error |a - a_hat|^2 / n^d is
    normalized_error.
    """
    if not 0 < sigma_n2 < np.inf:
        raise ValueError(f"lmmse needs a finite sigma_n2 > 0, got {sigma_n2}")
    nd = V.n ** V.d
    beta = V.beta

    B_R = (1.0 / (sigma_n2 * beta)) * V.twin + np.eye(nd)
    rhs = (1.0 / (sigma_n2 * np.sqrt(beta))) * V.matvec(p)
    y = rhs - 1j * rhs[::-1]
    X = np.linalg.solve(B_R, np.column_stack([y.real, y.imag, np.eye(nd)]))
    z = X[:, 0] + 1j * X[:, 1]
    a_hat = (z + 1j * z[::-1]) / 2
    err = a - a_hat

    cond_bound = 1.0 + (1.0 / sigma_n2) * nd / beta
    return LmmseResult(
        a_hat=a_hat,
        normalized_error=float(np.real(err.conj() @ err)) / nd,
        trace_mse=float(np.trace(X[:, 2:])) / nd,
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
    m: int,
    gammas: Sequence[float],
    trials: int,
    seed: int,
    threads: Optional[int] = 1,
) -> list[MseEstimate]:
    """Average LMMSE error over independent (V, a, noise) draws, one
    estimate per SNR in gammas.

    Each trial draws its points, field spectrum and noise once, observes V
    once, and solves at every gamma with the noise scaled to
    sigma_n2 = 1/gamma (common random numbers), so each estimate equals a
    sweep over its gamma alone, bit for bit; the stderr is per gamma, and
    the estimates are correlated across gamma.
    Both estimators (realized reconstruction error and the trace formula)
    target MSE^(n); their agreement is a consistency check.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError("gammas must not be empty")
    if not all(0 < g < np.inf and 1.0 / g < np.inf for g in gammas):
        raise ValueError(f"every gamma and 1/gamma must be positive and finite, got {gammas}")
    sigma_n2s = [1.0 / gamma for gamma in gammas]

    def one(trial_seed: np.random.SeedSequence) -> list[tuple[float, float]]:
        s_pts, s_field, s_noise = trial_seed.spawn(3)
        V = build_vandermonde(dist, n, m, s_pts)
        a = generate_spectrum(n, dist.d, s_field)
        s, z = observe(V, a, s_noise)
        out = []
        for sigma_n2 in sigma_n2s:
            res = lmmse(V, a, s + np.sqrt(sigma_n2 / 2.0) * z, sigma_n2)
            out.append((res.trace_mse, res.normalized_error))
        return out

    results = np.array(_run_trials(one, trials, seed, threads))  # (trials, gamma, estimator)
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
