"""Asymptotic moments of V V^H for arbitrary sampling densities.

The p-th moment is a polynomial in the aspect ratio beta whose coefficients
mix the density-power integrals I_k with partition sums of v(omega)^d:

    M_p = sum_{k=1..p} beta^(p-k) * I_k * sum_{omega in Omega_{p,k}} v(omega)^d

For the uniform density every I_k is 1 and the moments reduce to the
uniform-phase values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .partitions import P_MAX, coefficient_table
from .sampling import SamplingDistribution


def density_power_integrals(dist: SamplingDistribution, P: int) -> tuple[float, ...]:
    """I_1..I_P, where I_k = int_H f(z)^k dz = |A| * int y^k g_x(y) dy.

    The integral over y is the weighted sum over g_x's nodes_weights, the
    same rule as the g_x mixture: exact for atoms, and the
    fixed Gauss-Legendre rule for closed forms.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    if dist.gx is None:
        raise ValueError(f"{dist.id} has no g_x, so its power integrals are unknown")
    y, w = dist.gx.nodes_weights()
    return tuple(dist.support_measure * float(np.sum(w * y ** k)) for k in range(1, P + 1))


def _omega_sum(p: int, k: int, d: int) -> Fraction:
    """Exact sum of v(omega)^d over all k-block partitions of {1..p}."""
    return sum(v ** d for v in coefficient_table(p, k).values())


def asymptotic_moment(
    p: int,
    d: int,
    beta: float,
    I: Sequence[float],
) -> float:
    """p-th asymptotic moment of V V^H at aspect ratio beta."""
    if p < 1 or p > P_MAX:
        raise ValueError(f"p must be in 1..{P_MAX}")
    if d < 1:
        raise ValueError("d must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if len(I) < p:
        raise ValueError(f"need I_1..I_{p}, got only {len(I)} integrals")
    return float(
        sum(beta ** (p - k) * I[k - 1] * float(_omega_sum(p, k, d)) for k in range(1, p + 1))
    )


def moment_table(dist: SamplingDistribution, beta: float, P: int) -> tuple[float, ...]:
    """Moments (M_1, ..., M_P) at dist.d for a sampling distribution; it needs a g_x."""
    I = density_power_integrals(dist, P)
    return tuple(asymptotic_moment(p, dist.d, beta, I) for p in range(1, P + 1))
