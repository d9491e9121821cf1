import numpy as np
from scipy import stats

from vanspec.sampling import SamplingDistribution


def point_distribution(points):
    """Degenerate distribution that always returns the given points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))

    def sampler(seed, m):
        assert m == pts.shape[0]
        return pts.copy()

    return SamplingDistribution(
        d=pts.shape[1],
        density=lambda z: np.ones(np.atleast_2d(z).shape[0]),
        support_measure=1.0,
        sampler=sampler,
        gx=None,
        id="fixed-points",
    )


def grid_cell_masses(dist: SamplingDistribution, cells: int, subdiv: int = 8) -> np.ndarray:
    """Probability mass of each cell of a cells^d grid over H, by midpoint
    quadrature on a subdiv-refined grid per cell (d <= 2)."""
    if dist.d > 2:
        raise ValueError("cell masses supported for d <= 2 only")
    fine = cells * subdiv
    axis = (np.arange(fine) + 0.5) / fine - 0.5
    if dist.d == 1:
        pts = axis[:, None]
        vals = dist.density(pts).reshape(cells, subdiv)
        masses = vals.mean(axis=1) / cells
    else:
        z1, z2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([z1.ravel(), z2.ravel()], axis=1)
        vals = dist.density(pts).reshape(cells, subdiv, cells, subdiv)
        masses = vals.mean(axis=(1, 3)) / cells ** 2
        masses = masses.ravel()
    return masses / masses.sum()


def sampler_chi2_pvalue(
    dist: SamplingDistribution, draws: int = 100_000, cells: int = 16, seed=0
) -> float:
    """Chi-square goodness-of-fit p-value of the sampler against the density
    on a cells^d grid."""
    pts = dist.sampler(seed, draws)
    expected = grid_cell_masses(dist, cells) * draws
    idx = np.clip(((pts + 0.5) * cells).astype(int), 0, cells - 1)
    if dist.d == 1:
        flat = idx[:, 0]
    else:
        flat = idx[:, 0] * cells + idx[:, 1]
    observed = np.bincount(flat, minlength=cells ** dist.d).astype(float)
    keep = expected > 1e-9
    # absorb zero-probability cells: any draw there is an outright failure
    if observed[~keep].sum() > 0:
        return 0.0
    stat, p = stats.chisquare(observed[keep], expected[keep] * (observed[keep].sum() / expected[keep].sum()))
    return float(p)
