"""Reference implementations and fixtures the tests compare the package against."""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import stats

from vanspec.moments import asymptotic_moment
from vanspec.partitions import SetPartition, _first_occurrence
from vanspec.reconstruct import COND_TOL, LmmseResult
from vanspec.sampling import SamplingDistribution
from vanspec.scenarios import CsmaProfile, _fading_b
from vanspec.spectral import DFoldVandermonde, _gram_view, _khatri_rao


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
    reference for DFoldVandermonde.twin, which builds it from c directly."""
    return G.real - G.imag[:, ::-1]


def received(s: np.ndarray, z: np.ndarray, sigma_n2: float) -> np.ndarray:
    """Samples received at noise power sigma_n2 from observe's (s, z), formed
    as mse_monte_carlo forms them."""
    return s + np.sqrt(sigma_n2 / 2.0) * z


def lmmse_complex_reference(V, a, p, sigma_n2) -> LmmseResult:
    """LMMSE by one complex LU solve of B = sigma_n^-2 beta^-1 V V^H + I on
    [rhs | I]: column 0 is the estimate, the rest is B^-1."""
    nd, beta = V.n ** V.d, V.beta
    B = (1.0 / (sigma_n2 * beta)) * gram_matrix(V) + np.eye(nd)
    rhs = (1.0 / (sigma_n2 * np.sqrt(beta))) * V.matvec(p)
    sol = np.linalg.solve(B, np.column_stack([rhs, np.eye(nd, dtype=complex)]))
    a_hat = sol[:, 0]
    err = a - a_hat
    return LmmseResult(
        a_hat=a_hat,
        normalized_error=float(np.real(err.conj() @ err)) / nd,
        trace_mse=float(np.real(np.trace(sol[:, 1:]))) / nd,
        ill_conditioned=bool(1.0 + (1.0 / sigma_n2) * nd / beta > COND_TOL),
    )


def uniform_moment(p: int, d: int, beta: float) -> float:
    """Asymptotic moment for uniformly distributed phases (every I_k = 1)."""
    return asymptotic_moment(p, d, beta, [1.0] * p)


# ---------------------------------------------------------------------------
# partitions


def bell_number(p: int) -> int:
    """Bell number B(p) via the Bell triangle."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    row = [1]
    for _ in range(p):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def stirling2(p: int, k: int) -> int:
    """Stirling number of the second kind S(p, k)."""
    if k < 0 or k > p:
        return 0
    tbl = [[0] * (k + 1) for _ in range(p + 1)]
    tbl[0][0] = 1
    for i in range(1, p + 1):
        for j in range(1, min(i, k) + 1):
            tbl[i][j] = j * tbl[i - 1][j] + tbl[i - 1][j - 1]
    return tbl[p][k]


def partition_from_labels(labels) -> SetPartition:
    """Build from an arbitrary labeling, relabeling canonically."""
    return SetPartition(_first_occurrence(labels))


def partition_from_blocks(blocks) -> SetPartition:
    """Build from blocks of 1-based element positions."""
    elems = sorted(e for b in blocks for e in b)
    if elems != list(range(1, len(elems) + 1)):
        raise ValueError(f"blocks {blocks} do not partition {{1..p}}")
    labels = [0] * len(elems)
    for b in blocks:
        for e in b:
            labels[e - 1] = min(b)
    return partition_from_labels(labels)


# ---------------------------------------------------------------------------
# matrices and fields


def multi_indices(n: int, d: int) -> np.ndarray:
    """Row multi-indices l, ordered by nu(l) = sum_j n^(j-1) l_j."""
    r = np.arange(n ** d)
    return np.stack([(r // n ** j) % n for j in range(d)], axis=1)


def vandermonde_entries(V: DFoldVandermonde) -> np.ndarray:
    """V as an (n^d, m) array, rows ordered by nu(l): the Khatri-Rao
    product of the tables."""
    coarse, fine = V.box_tables
    return _khatri_rao([coarse, fine])[: V.n ** V.d] / np.sqrt(V.m)


def gram_matrix(V: DFoldVandermonde) -> np.ndarray:
    """V V^H, exactly Hermitian, from its multilevel Toeplitz structure."""
    return np.ascontiguousarray(_gram_view(V).reshape(V.n ** V.d, V.n ** V.d))


def exact_phase_powers(j, x) -> tuple[np.ndarray, np.ndarray]:
    """exp(-2*pi*i j x) as long-double (real, imag), one row per integer
    power j and one column per coordinate x.  For |j| < 2^11, j x is exact
    in a 64-bit significand and so is its reduction mod 1, so only 2*pi and
    cos/sin round, each within a few 2^-64."""
    t = np.multiply.outer(np.asarray(j, dtype=np.longdouble), np.asarray(x, dtype=np.longdouble))
    phase = 8 * np.arctan(np.longdouble(1)) * (t - np.round(t))
    return np.cos(phase), -np.sin(phase)


def synthesize_field(a: np.ndarray, n: int, d: int, x) -> complex | np.ndarray:
    """Field value n^(-d/2) sum_l a_nu(l) exp(+2*pi*i l.x) at point(s) x."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    phases = pts @ multi_indices(n, d).T  # (q, n^d)
    vals = (np.exp(2j * np.pi * phases) @ a) * n ** (-d / 2)
    return complex(vals[0]) if single else vals


# ---------------------------------------------------------------------------
# Fourier coefficients of the densities
#
# f_hat(j) = int_H f(z) exp(-2*pi*i j.z) dz at integer lags j, given as an
# (..., d) array with axis 1 first.  It is the expectation of every Gram sum
# c(j) = m^-1 sum_q exp(-2*pi*i j.x_q) over x_q drawn from f, at every m.


def uniform_fourier(j: np.ndarray) -> np.ndarray:
    """Uniform on H: delta_j0."""
    return np.all(np.asarray(j) == 0, axis=-1).astype(complex)


def hole_fourier(c: float, j: np.ndarray) -> np.ndarray:
    """Uniform on the centred cube of side c^(1/d): prod_a sinc(j_a c^(1/d))."""
    j = np.asarray(j, dtype=float)
    return np.prod(np.sinc(j * c ** (1.0 / j.shape[-1])), axis=-1).astype(complex)


def fading_fourier(a: float, j: np.ndarray) -> np.ndarray:
    """b exp(-a |z|^2) on the unit square (d = 2): b g(j_1) g(j_2), with
    g(k) = int_{-1/2}^{1/2} exp(-a z^2) cos(2 pi k z) dz by a 200-node
    Gauss-Legendre rule (the odd part integrates to zero)."""
    t, w = np.polynomial.legendre.leggauss(200)
    z, w = t / 2.0, w / 2.0
    j = np.asarray(j, dtype=float)

    def g(k):
        return (w * np.exp(-a * z ** 2) * np.cos(2.0 * np.pi * k[..., None] * z)).sum(axis=-1)

    return (_fading_b(a) * g(j[..., 0]) * g(j[..., 1])).astype(complex)


def csma_fourier(profile: CsmaProfile, j: np.ndarray) -> np.ndarray:
    """Density p_s(i) on the vertical strip i of the unit square (d = 2):
    delta(j_2) sum_i p_s(i) int_{strip i} exp(-2 pi i j_1 z) dz."""
    j = np.asarray(j)
    edges = np.concatenate([[0.0], np.cumsum(profile.hierarchy.areas)]) - 0.5
    k = j[..., 0, None].astype(float)
    lo, hi = edges[:-1], edges[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        strip = (np.exp(-2j * np.pi * k * hi) - np.exp(-2j * np.pi * k * lo)) / (-2j * np.pi * k)
    strip = np.where(k == 0, hi - lo, strip)
    return np.where(j[..., 1] == 0, strip @ profile.normalized_success, 0.0)


# ---------------------------------------------------------------------------
# density of the density


def gx_distribution(gx, support_measure: float = 1.0, d: int = 1) -> SamplingDistribution:
    """A distribution that holds only what the g_x mixture reads: g_x, |A| and d."""
    return SamplingDistribution(d=d, density=None, support_measure=support_measure,
                                sampler=None, gx=gx, id="gx-only")


def fading_gx_cdf(a: float):
    """CDF of the fading g_x (linear threshold ratio a), from the area of the
    density's level sets: 1 - pi r^2 while the level circle of radius r lies
    inside the unit square, and 1 - sqrt(4 r^2 - 1) - r^2 (pi - 4 arccos(1/(2r)))
    once the square clips it (r > 1/2)."""
    b = _fading_b(a)
    lo, brk, hi = b * np.exp(-a / 2.0), b * np.exp(-a / 4.0), b

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

    return cdf


@dataclass(frozen=True)
class GxEmpirical:
    """Histogram of density values measured over a quadrature grid; the
    mixture and the power integrals read it through nodes_weights."""

    edges: np.ndarray
    masses: np.ndarray  # sums to 1

    @property
    def support(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Centers and masses of the bins that hold mass."""
        keep = self.masses > 0
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        return centers[keep], self.masses[keep]


def empirical_density_of_density(
    dist: SamplingDistribution, cells_per_axis: int = 512, bins: int = 64
) -> GxEmpirical:
    """Measure g_x by evaluating the density on a regular grid over H.

    Only grid cells inside the support contribute; masses are normalized by
    the support measure so they sum to 1.
    """
    if dist.d > 2:
        raise ValueError("grid measurement supported for d <= 2 only")
    axis = (np.arange(cells_per_axis) + 0.5) / cells_per_axis - 0.5
    if dist.d == 1:
        pts = axis[:, None]
    else:
        z1, z2 = np.meshgrid(axis, axis)
        pts = np.stack([z1.ravel(), z2.ravel()], axis=1)
    vals = dist.density(pts)
    vals = vals[vals > 0]
    weights = np.full(vals.size, 1.0 / vals.size)
    hist, edges = np.histogram(vals, bins=bins, weights=weights)
    return GxEmpirical(edges=edges, masses=hist)
