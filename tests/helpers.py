import itertools

import numpy as np
from scipy import stats

from vanspec.reconstruct import COND_TOL, LmmseResult
from vanspec.sampling import SamplingDistribution
from vanspec.spectral import gram_matrix


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


def lattice_count_bruteforce(part, n: int) -> int:
    """Direct enumeration over {0..n-1}^p; oracle for lattice_count."""
    labels = part.labels
    p = len(labels)
    k = part.k
    count = 0
    for t in itertools.product(range(n), repeat=p):
        bal = [0] * (k + 1)
        for i in range(p):
            bal[labels[i]] += t[i]
            bal[labels[(i + 1) % p]] -= t[i]
        if all(v == 0 for v in bal):
            count += 1
    return count


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


def real_twin(G: np.ndarray) -> np.ndarray:
    """Re G - (Im G) J of a complex Gram G, J the flat-index reversal: the
    reference for spectral.gram_twin, which builds it from c directly."""
    return G.real - G.imag[:, ::-1]


def lmmse_complex_reference(V, obs) -> LmmseResult:
    """LMMSE by one complex LU solve of B = sigma_n^-2 beta^-1 V V^H +
    sigma_a^-2 I on [rhs | I]: column 0 is the estimate, the rest is B^-1."""
    sigma_a2 = obs.field.sigma_a2 if obs.field is not None else obs.gamma * obs.sigma_n2
    nd, beta = V.n ** V.d, V.beta
    B = (1.0 / (obs.sigma_n2 * beta)) * gram_matrix(V) + (1.0 / sigma_a2) * np.eye(nd)
    rhs = (1.0 / (obs.sigma_n2 * np.sqrt(beta))) * V.matvec(obs.p)
    sol = np.linalg.solve(B, np.column_stack([rhs, np.eye(nd, dtype=complex)]))
    a_hat = sol[:, 0]
    if obs.field is not None:
        err = obs.field.a - a_hat
        normalized_error = float(np.real(err.conj() @ err)) / (nd * sigma_a2)
    else:
        normalized_error = float("nan")
    return LmmseResult(
        a_hat=a_hat,
        normalized_error=normalized_error,
        trace_mse=float(np.real(np.trace(sol[:, 1:]))) / (nd * sigma_a2),
        ill_conditioned=bool(1.0 + obs.gamma * nd / beta > COND_TOL),
    )
