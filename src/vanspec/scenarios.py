"""Sensor-network loss scenarios as sampling distributions.

Each scenario describes how samples are lost (coverage holes, Rayleigh
fading above an SNR threshold, CSMA collisions in a cluster hierarchy) and
produces the position distribution of the samples that survive, together
with its density-of-density g_x, from which the asymptotic reconstruction
MSE follows by the eta-transform mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sampling import (
    GxClosedForm,
    GxDiscreteAtoms,
    GxRepresentation,
    SamplingDistribution,
)
from .spectral import EtaCallable, asymptotic_mse


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


# ---------------------------------------------------------------------------
# fading


@dataclass(frozen=True)
class FadingScenario:
    """Delivery through a Rayleigh-faded channel to a central sink.

    a = threshold/unit-SNR ratio (linear); the delivered-sample density is
    b*exp(-a*(z1^2+z2^2)) with b fixed by normalization over the unit square.
    """

    a: float
    b: float

    @classmethod
    def from_db(cls, a_db: float) -> "FadingScenario":
        return cls.from_linear(db_to_linear(a_db))

    @classmethod
    def from_linear(cls, a: float) -> "FadingScenario":
        if a <= 0:
            raise ValueError("a must be > 0 (linear)")
        b = a / (np.pi * math.erf(math.sqrt(a / 4.0)) ** 2)
        return cls(a=a, b=float(b))


def fading_gx(a: float) -> GxClosedForm:
    """Density of the fading density value: piecewise form on [b e^-a/2, b].

    The middle branch accounts for the level circle of the density being
    clipped by the square region once its radius exceeds 1/2.
    """
    sc = FadingScenario.from_linear(a)
    b = sc.b
    lo, brk, hi = b * np.exp(-a / 2.0), b * np.exp(-a / 4.0), b

    def density(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        outer = (y >= brk) & (y < hi)
        out[outer] = np.pi / (a * y[outer])
        inner = (y >= lo) & (y < brk)
        if np.any(inner):
            r = np.sqrt(np.log(b / y[inner]) / a)
            out[inner] = (np.pi - 4.0 * np.arccos(1.0 / (2.0 * r))) / (a * y[inner])
        return out

    def cdf(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        out[y >= hi] = 1.0
        outer = (y >= brk) & (y < hi)
        if np.any(outer):
            r = np.sqrt(np.log(b / y[outer]) / a)
            out[outer] = 1.0 - np.pi * r ** 2
        inner = (y >= lo) & (y < brk)
        if np.any(inner):
            r = np.sqrt(np.log(b / y[inner]) / a)
            out[inner] = (
                1.0
                - np.sqrt(4.0 * r ** 2 - 1.0)
                - r ** 2 * (np.pi - 4.0 * np.arccos(1.0 / (2.0 * r)))
            )
        return out

    return GxClosedForm(density=density, support=(float(lo), float(hi)), breakpoints=(float(brk),), cdf=cdf)


def fading_distribution(a_db: float) -> SamplingDistribution:
    """Delivered-sample distribution over the unit square (d = 2)."""
    sc = FadingScenario.from_db(a_db)
    a, b = sc.a, sc.b

    def density(z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        return b * np.exp(-a * (z[:, 0] ** 2 + z[:, 1] ** 2))

    def sampler(seed, m: int) -> np.ndarray:
        # rejection from the uniform deployment; acceptance is exactly the
        # delivery probability, so this doubles as the thinning oracle
        rng = np.random.default_rng(seed)
        out = np.empty((0, 2))
        block = max(4 * m, 1024)
        while out.shape[0] < m:
            z = rng.random((block, 2)) - 0.5
            keep = rng.random(block) < np.exp(-a * (z[:, 0] ** 2 + z[:, 1] ** 2))
            out = np.vstack([out, z[keep]])
        return out[:m]

    return SamplingDistribution(
        d=2,
        density=density,
        support_measure=1.0,
        sampler=sampler,
        gx=fading_gx(a),
        id=f"fading-a{a_db:g}dB",
    )


def fading_mse(a: float, beta: float, gamma: float, eta_u: EtaCallable) -> float:
    """Asymptotic MSE under fading: integral of g_x(y) eta_u(beta/y, gamma*y/beta)."""
    return asymptotic_mse(fading_gx(a), 1.0, 2, beta, gamma, eta_u)


# ---------------------------------------------------------------------------
# coverage holes (scaled support)


def hole_distribution(c: float, d: int = 1) -> SamplingDistribution:
    """Uniform density 1/c on a centered hypercube of measure c.

    d = 1 is the plain scaled-interval model; higher d uses side c^(1/d)
    per axis so the covered measure is still c.
    """
    if not 0 < c <= 1:
        raise ValueError("c must be in (0, 1]")
    side = c ** (1.0 / d)

    def density(z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        inside = np.all(np.abs(z) <= side / 2.0, axis=1)
        return np.where(inside, 1.0 / c, 0.0)

    def sampler(seed, m: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return (rng.random((m, d)) - 0.5) * side

    return SamplingDistribution(
        d=d,
        density=density,
        support_measure=c,
        sampler=sampler,
        gx=GxDiscreteAtoms(atoms=((1.0 / c, c),)),
        id=f"hole-c{c:g}-d{d}",
    )


def hole_mse(c: float, d: int, beta: float, gamma: float, eta_u: EtaCallable) -> float:
    """Asymptotic MSE with a coverage hole: 1 - c + c*eta_u(c*beta, gamma/(c*beta))."""
    return asymptotic_mse(GxDiscreteAtoms(atoms=((1.0 / c, c),)), c, d, beta, gamma, eta_u)


# ---------------------------------------------------------------------------
# clustered CSMA collection


@dataclass(frozen=True)
class CollisionParams:
    """Parameters of the built-in slotted-CSMA collision closed form."""

    slot_duration: float = 1.0
    backoff_factor: float = 1.0
    vulnerability_slots: float = 2.0


def default_collision_model(
    m_nodes: int, load_per_node: float, params: CollisionParams = CollisionParams()
) -> float:
    """Collision probability for a cluster of m_nodes with per-node load.

    Each node attempts in a slot with probability q = min(1, load * slot *
    backoff); a transmission fails when any of the m-1 contenders attempts
    inside the vulnerability window.
    """
    if m_nodes < 1:
        raise ValueError("m_nodes must be >= 1")
    if load_per_node < 0:
        raise ValueError("load must be >= 0")
    if m_nodes == 1 or load_per_node == 0:
        return 0.0
    q = min(1.0, load_per_node * params.slot_duration * params.backoff_factor)
    if q >= 1.0:
        return 1.0
    return 1.0 - (1.0 - q) ** (params.vulnerability_slots * (m_nodes - 1))


CollisionModel = Callable[[int, float], float]


@dataclass(frozen=True)
class ClusterHierarchy:
    """Cluster tree over L load areas and H layers.

    nodes[i][h] is the mean cluster population at layer h+1 in area i;
    lambda1[i] the per-node offered load at layer 1.  collision_model maps
    (m_nodes, load) to a collision probability in [0, 1).
    """

    areas: tuple[float, ...]
    H: int
    nodes: tuple[tuple[int, ...], ...]
    lambda1: tuple[float, ...]
    collision_model: CollisionModel = default_collision_model

    def __post_init__(self):
        L = len(self.areas)
        if L < 1 or self.H < 1:
            raise ValueError("need at least one area and one layer")
        if abs(sum(self.areas) - 1.0) > 1e-9:
            raise ValueError("area measures must sum to 1")
        if any(a <= 0 for a in self.areas):
            raise ValueError("area measures must be positive")
        if len(self.nodes) != L or any(len(row) != self.H for row in self.nodes):
            raise ValueError("nodes must be an L x H table")
        if len(self.lambda1) != L or any(l < 0 for l in self.lambda1):
            raise ValueError("need one nonnegative layer-1 load per area")

    @property
    def L(self) -> int:
        return len(self.areas)


@dataclass(frozen=True)
class CsmaProfile:
    """Per-area delivery probabilities and the induced sampling distribution."""

    hierarchy: ClusterHierarchy
    loads: np.ndarray  # (L, H) offered load per node
    collision: np.ndarray  # (L, H) P_c(i, h)
    layer_success: np.ndarray  # (L, H) P_s(i, h)
    success: np.ndarray  # (L,) end-to-end P_s(i)
    normalized_success: np.ndarray  # (L,) p_s(i)
    distribution: SamplingDistribution
    gx: GxDiscreteAtoms

    def mse(self, beta: float, gamma: float, eta_u: EtaCallable) -> float:
        return asymptotic_mse(
            self.gx, self.distribution.support_measure, 2, beta, gamma, eta_u
        )


def csma_success_profile(hier: ClusterHierarchy) -> CsmaProfile:
    """Run the traffic recursion up the hierarchy and build the delivered-
    sample distribution (areas as vertical strips of the unit square).

    Layer loads follow lambda_{i,h} = nodes_{i,h-1} * lambda_{i,h-1} *
    (1 - P_c(i,h-1)); end-to-end success multiplies the per-layer
    probabilities.
    """
    L, H = hier.L, hier.H
    loads = np.zeros((L, H))
    pc = np.zeros((L, H))
    for i in range(L):
        lam = hier.lambda1[i]
        for h in range(H):
            loads[i, h] = lam
            p = float(hier.collision_model(hier.nodes[i][h], lam))
            if not 0.0 <= p < 1.0:
                raise ValueError(
                    f"collision model returned P_c={p} at area {i + 1}, layer {h + 1}"
                )
            pc[i, h] = p
            lam = hier.nodes[i][h] * lam * (1.0 - p)
    ps_layer = 1.0 - pc
    ps = ps_layer.prod(axis=1)
    norm = float(np.dot(hier.areas, ps))
    if norm <= 0:
        raise ValueError("no traffic survives the hierarchy")
    p_s = ps / norm

    areas = np.asarray(hier.areas)
    edges = np.concatenate([[0.0], np.cumsum(areas)]) - 0.5  # strip bounds on z1
    covered = p_s > 0
    support = float(areas[covered].sum())

    def density(z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        idx = np.clip(np.searchsorted(edges, z[:, 0], side="right") - 1, 0, L - 1)
        return p_s[idx]

    strip_mass = areas * p_s  # sums to 1 by normalization

    def sampler(seed, m: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        idx = rng.choice(L, size=m, p=strip_mass)
        z1 = edges[idx] + rng.random(m) * areas[idx]
        z2 = rng.random(m) - 0.5
        return np.stack([z1, z2], axis=1)

    gx = GxDiscreteAtoms(
        atoms=tuple((float(p_s[i]), float(areas[i])) for i in range(L) if covered[i])
    )
    dist = SamplingDistribution(
        d=2,
        density=density,
        support_measure=support,
        sampler=sampler,
        gx=gx,
        id=f"csma-L{L}-H{H}",
    )
    return CsmaProfile(
        hierarchy=hier,
        loads=loads,
        collision=pc,
        layer_success=ps_layer,
        success=ps,
        normalized_success=p_s,
        distribution=dist,
        gx=gx,
    )


def quadrant_hierarchy(
    lambda1: Sequence[float],
    nodes_per_layer: Sequence[int] = (10, 6, 4),
    collision_model: CollisionModel = default_collision_model,
) -> ClusterHierarchy:
    """Four equal areas, three layers; cluster sizes shared across areas."""
    if len(lambda1) != 4:
        raise ValueError("quadrant hierarchy needs 4 layer-1 loads")
    nodes = tuple(tuple(int(v) for v in nodes_per_layer) for _ in range(4))
    return ClusterHierarchy(
        areas=(0.25, 0.25, 0.25, 0.25),
        H=len(nodes_per_layer),
        nodes=nodes,
        lambda1=tuple(float(v) for v in lambda1),
        collision_model=collision_model,
    )


# ---------------------------------------------------------------------------
# massively dense limit


@dataclass(frozen=True)
class DenseLimit:
    """beta -> 0 predictions: spectrum collapses onto the density of the
    density; the MSE floor is the uncovered measure."""

    atom_mass: float
    gx: GxRepresentation
    mse_floor: float

    def lsd_density(self, z: np.ndarray) -> np.ndarray:
        """Continuous part of the limiting spectrum, |A| * g_x(z)."""
        if not isinstance(self.gx, GxClosedForm):
            raise TypeError("closed-form g_x required for a density curve")
        return (1.0 - self.atom_mass) * self.gx.density(np.asarray(z, dtype=float))


def dense_limit(dist: SamplingDistribution) -> DenseLimit:
    if dist.gx is None:
        raise ValueError(f"distribution {dist.id} carries no g_x representation")
    A = dist.support_measure
    return DenseLimit(atom_mass=1.0 - A, gx=dist.gx, mse_floor=1.0 - A)
