"""Sampling distributions on the hypercube H = [-1/2, 1/2)^d.

A SamplingDistribution bundles the density of delivered-sample positions,
its support measure, a seeded sampler and, when known, the distribution of
the density value itself (the "density of the density" g_x), which drives
every limiting-spectrum, moment and asymptotic-MSE formula downstream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

# Gauss-Legendre nodes per piece of a closed-form g_x.  A piece's density
# may have square-root behaviour at its ends (the fading g_x at its
# breakpoint), so the rule runs in s with y = lo + (hi - lo)(1 - cos(pi s))/2,
# which makes such ends smooth.  What is left converges algebraically: the
# C1 knots of the PCHIP eta_u table.  96 nodes put the fig3 fading mixtures
# within 1e-6 relative of adaptive quadrature at epsrel 1e-10.
NODES_PER_PIECE = 96


@functools.cache
def _cosine_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u = (1 - cos(pi s))/2 and weights du on [0, 1], from the n-point
    Gauss-Legendre rule in s (cached: building the rule costs milliseconds)."""
    t, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * np.pi * (t + 1.0)
    return 0.5 * (1.0 - np.cos(s)), 0.25 * np.pi * np.sin(s) * w


@dataclass(frozen=True)
class GxClosedForm:
    """g_x(y) given as a callable density on a finite support interval."""

    density: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    breakpoints: tuple[float, ...] = ()

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Cosine-mapped Gauss-Legendre nodes on each piece between the support
        ends and the breakpoints, with weights that include the density,
        normalized to sum to 1 so that a mixture of eta_u <= 1 reads <= 1."""
        knots = np.array([self.support[0], *self.breakpoints, self.support[1]])
        u, du = _cosine_rule(NODES_PER_PIECE)
        width = np.diff(knots)[:, None]
        y = (knots[:-1, None] + width * u).ravel()
        w = (width * du).ravel() * self.density(y)
        return y, w / w.sum()


@dataclass(frozen=True)
class GxDiscreteAtoms:
    """g_x as a finite mixture of atoms (y_i, |A_i|); areas sum to |A|."""

    atoms: tuple[tuple[float, float], ...]

    @property
    def support(self) -> tuple[float, float]:
        ys = [y for y, _ in self.atoms]
        return min(ys), max(ys)

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms themselves, areas normalized to probabilities."""
        y, area = np.array(self.atoms, dtype=float).T
        if np.any(y <= 0):
            raise ValueError("discrete g_x atoms need y > 0")
        return y, area / area.sum()


GxRepresentation = Union[GxClosedForm, GxDiscreteAtoms]


@dataclass(frozen=True)
class SamplingDistribution:
    """Position distribution of the samples that reach the sink.

    density maps an (m, d) array of points to (m,) nonnegative values;
    sampler(seed, m) draws m i.i.d. points as an (m, d) array.
    """

    d: int
    density: Callable[[np.ndarray], np.ndarray]
    support_measure: float
    sampler: Callable[[object, int], np.ndarray]
    gx: Optional[GxRepresentation]
    id: str


def uniform_distribution(d: int = 1) -> SamplingDistribution:
    """Uniform positions over the whole hypercube (the lossless baseline)."""
    if d < 1:
        raise ValueError("d must be >= 1")

    def density(z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        return np.ones(z.shape[0])

    def sampler(seed, m: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.random((m, d)) - 0.5

    return SamplingDistribution(
        d=d,
        density=density,
        support_measure=1.0,
        sampler=sampler,
        gx=GxDiscreteAtoms(atoms=((1.0, 1.0),)),
        id=f"uniform-d{d}",
    )

