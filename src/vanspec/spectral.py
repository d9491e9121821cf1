"""d-fold Vandermonde matrices, empirical spectra and eta-transforms.

Draws the points of the n^d x m sampling matrix V, builds V V^H from its
multilevel Toeplitz structure, pools its eigenvalues over seeded trials into
spectrum summaries (with the rank-deficiency atom at zero accounted
separately), and applies the limiting-spectrum transform laws: support
scaling, and the eta-transform mixture over the density-of-density g_x that
yields the asymptotic MSE.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sampling import GxRepresentation, SamplingDistribution

# Eigenvalues below ATOM_TOL_REL x (largest eigenvalue of the trial) count as
# the atom at zero.  1e-4 captures the exponentially collapsing cluster that
# uncovered area produces at desk-scale n; a tighter cut (1e-9) misses most
# of it and under-reports the atom.
ATOM_TOL_REL = 1e-4
# Negative eigenvalues beyond -EIG_TOL_REL x max are a solver failure.
EIG_TOL_REL = 1e-8
# Desk-scale cap on the Gram size n^d.
NDIM_CAP = 1024


def _run_trials(worker: Callable[[int], object], trials: int, threads: Optional[int]):
    """Run worker(0..trials-1), results in trial order regardless of schedule."""
    if threads is None or threads <= 0:
        threads = os.cpu_count() or 1
    threads = min(threads, trials)
    if threads <= 1:
        return [worker(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, range(trials)))


def trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed, independent of execution order."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index,))


def _powers(k, x: np.ndarray) -> np.ndarray:
    """exp(-2*pi*i k x): one row per power k, one column per coordinate x."""
    return np.exp(-2j * np.pi * np.multiply.outer(k, x))


def _khatri_rao(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product; the last table's row index runs fastest."""
    out = tables[0]
    for t in tables[1:]:
        out = (out[:, None, :] * t[None, :, :]).reshape(-1, t.shape[1])
    return out


@dataclass(frozen=True)
class DFoldVandermonde:
    """Sampling matrix V with entries m^(-1/2) exp(-2*pi*i l.x_q).

    Holds the points and, once built, their per-axis power tables.  The Gram
    V V^H comes from its multilevel Toeplitz structure (gram_matrix), and
    the products V p and V^H a from the same tables, without forming V.
    """

    n: int
    d: int
    m: int
    points: np.ndarray  # (m, d)

    @property
    def beta(self) -> float:
        return self.n ** self.d / self.m

    @functools.cached_property
    def power_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Coarse and fine tables of z_q^j = exp(-2*pi*i j.x_q), built once.

        coarse[k] * fine[i] is the power at the flat position
        k * len(fine) + i of the box j_d in [0, n), j_a in [-(n-1), n) for
        a < d, axis d slowest and axis 1 fastest.  The power j_d = k*b + r
        splits into a coarse z^(k b) and a fine z^r, with b = ceil(sqrt(n))
        for d = 1 and b = 1 otherwise; the fine table is the Khatri-Rao
        product of z^r with the other axes' tables.  Every power is one exp
        of its own phase, so no error accumulates along a recurrence.  The
        positions past the box (k*b + r >= n) are padding.
        """
        n, x = self.n, self.points.T
        b = math.isqrt(n - 1) + 1 if self.d == 1 else 1
        fine = [_powers(np.arange(b), x[-1])]
        for xa in reversed(x[:-1]):
            t = _powers(np.arange(n), xa)
            fine.append(np.concatenate([t[:0:-1].conj(), t]))
        return _powers(np.arange(0, n, b), x[-1]), _khatri_rao(fine)

    def _box_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """power_tables with j_a in [0, n) for a < d: V's own rows."""
        (coarse, fine), n, d = self.power_tables, self.n, self.d
        box = (slice(None),) + (slice(n - 1, None),) * (d - 1)
        return coarse, fine.reshape(-1, *(2 * n - 1,) * (d - 1), self.m)[box].reshape(-1, self.m)

    def matvec(self, p: np.ndarray) -> np.ndarray:
        """V p, rows ordered by nu(l)."""
        coarse, fine = self._box_tables()
        return ((coarse * p) @ fine.T).ravel()[: self.n ** self.d] / np.sqrt(self.m)

    def rmatvec(self, a: np.ndarray) -> np.ndarray:
        """V^H a, with a ordered by nu(l)."""
        coarse, fine = self._box_tables()
        padded = np.zeros(coarse.shape[0] * fine.shape[0], dtype=complex)
        padded[: a.size] = np.conj(a)
        inner = padded.reshape(coarse.shape[0], -1) @ fine  # sum over the fine index
        return np.einsum("kq,kq->q", coarse, inner).conj() / np.sqrt(self.m)

    @property
    def entries(self) -> np.ndarray:
        """V as an (n^d, m) array, rows ordered by nu(l): the Khatri-Rao
        product of the tables."""
        coarse, fine = self._box_tables()
        return _khatri_rao([coarse, fine])[: self.n ** self.d] / np.sqrt(self.m)


def multi_indices(n: int, d: int) -> np.ndarray:
    """Row multi-indices l, ordered by nu(l) = sum_j n^(j-1) l_j."""
    r = np.arange(n ** d)
    return np.stack([(r // n ** j) % n for j in range(d)], axis=1)


def build_vandermonde(
    dist: SamplingDistribution, n: int, m: int, seed
) -> DFoldVandermonde:
    """Draw m points from dist for the n^d x m matrix V; deterministic in the seed."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if n ** dist.d > NDIM_CAP:
        raise ValueError(f"n^d = {n ** dist.d} above desk-scale cap {NDIM_CAP}")
    points = np.asarray(dist.sampler(seed, m), dtype=float)
    if points.shape != (m, dist.d):
        raise ValueError(
            f"sampler for {dist.id} returned shape {points.shape}, wanted {(m, dist.d)}"
        )
    return DFoldVandermonde(n=n, d=dist.d, m=m, points=points)


def gram_matrix(V: DFoldVandermonde) -> np.ndarray:
    """V V^H, exactly Hermitian, from its multilevel Toeplitz structure.

    Entry (l, l') is c(l - l') = m^-1 sum_q exp(-2*pi*i (l - l').x_q).  The
    sums c(j) over the upper half of the box [-(n-1), n-1]^d (flat order,
    axis d most significant) come from one product of V's power tables;
    the lower half is their conjugate, and a sliding window gathers the
    Gram from c.
    """
    n, d = V.n, V.d
    width = (2 * n - 1) ** (d - 1)  # flat length of one j_d slice
    coarse, fine = V.power_tables
    # c over j_d >= 0: it starts at j_d = 0 with the other axes at -(n-1)
    slab = (coarse @ fine.T).ravel()[: n * width] / V.m
    half = slab[(width - 1) // 2:]
    c = np.concatenate([half[:0:-1].conj(), half]).reshape((2 * n - 1,) * d)
    # window (s, k) of the reversed c is c(n - 1 - s - k); reversing s gives l - k
    windows = sliding_window_view(c[(slice(None, None, -1),) * d], (n,) * d)
    return np.ascontiguousarray(windows[(slice(None, None, -1),) * d].reshape(n ** d, n ** d))


def gram_eigenvalues(V: DFoldVandermonde) -> np.ndarray:
    """Eigenvalues of V V^H, ascending, with tiny negatives clamped to zero."""
    lam = np.linalg.eigvalsh(gram_matrix(V))
    floor = -EIG_TOL_REL * max(lam[-1], 1.0)
    if lam[0] < floor:
        raise RuntimeError(
            f"V V^H eigenvalue {lam[0]} below PSD tolerance (n={V.n}, m={V.m})"
        )
    return np.clip(lam, 0.0, None)


@dataclass(frozen=True)
class SpectrumSummary:
    """Pooled eigenvalue samples of V V^H over independent trials.

    extra_zero_mass is probability mass at zero added on top of the stored
    samples (used by the support-scaling transform); every expectation
    weights the samples by (1 - extra_zero_mass).
    """

    eigenvalues: np.ndarray  # pooled, ascending
    trials: int
    n: int
    d: int
    m: int
    distribution_id: str
    master_seed: Optional[int]
    atom_zero_mass: float  # fraction of stored samples classified as atom
    atom: np.ndarray  # per sample: below ATOM_TOL_REL x its own trial's largest
    hist_edges: np.ndarray
    hist_density: np.ndarray  # integrates to 1 - total_atom_mass
    extra_zero_mass: float = 0.0

    @property
    def beta(self) -> float:
        return self.n ** self.d / self.m

    @property
    def total_atom_mass(self) -> float:
        return self.extra_zero_mass + (1.0 - self.extra_zero_mass) * self.atom_zero_mass

    @property
    def atom_cut(self) -> float:
        """Pooled atom/positive split point (the spectrum comparison's cut)."""
        return ATOM_TOL_REL * float(self.eigenvalues[-1]) if self.eigenvalues.size else 0.0


def _histogram(
    positives: np.ndarray, bins, positive_mass: float
) -> tuple[np.ndarray, np.ndarray]:
    if positives.size == 0:
        return np.array([0.0, 1.0]), np.array([0.0])
    edges = np.histogram_bin_edges(positives, bins="fd" if bins == "auto" else bins)
    if len(edges) > 2048:  # FD can explode on heavy tails
        edges = np.histogram_bin_edges(positives, bins=256)
    dens, edges = np.histogram(positives, bins=edges, density=True)
    return edges, dens * positive_mass


def summarize_eigenvalues(
    per_trial: Sequence[np.ndarray],
    n: int,
    d: int,
    m: int,
    distribution_id: str,
    master_seed: Optional[int],
    bins="auto",
) -> SpectrumSummary:
    """Pool per-trial eigenvalues into a SpectrumSummary.

    One per-trial mask splits the samples: those below ATOM_TOL_REL x their
    trial's largest eigenvalue make atom_zero_mass, and the rest, exactly,
    make the histogram.
    """
    pooled = np.concatenate(per_trial)
    atom = np.concatenate([lam < ATOM_TOL_REL * lam[-1] for lam in per_trial])
    order = np.argsort(pooled, kind="stable")
    pooled, atom = pooled[order], atom[order]
    atom_mass = np.count_nonzero(atom) / pooled.size
    edges, dens = _histogram(pooled[~atom], bins, 1.0 - atom_mass)
    return SpectrumSummary(
        eigenvalues=pooled,
        trials=len(per_trial),
        n=n,
        d=d,
        m=m,
        distribution_id=distribution_id,
        master_seed=master_seed,
        atom_zero_mass=atom_mass,
        atom=atom,
        hist_edges=edges,
        hist_density=dens,
    )


def aesd(
    dist: SamplingDistribution,
    n: int,
    m: int,
    trials: int,
    seed: int,
    bins="auto",
    threads: Optional[int] = None,
) -> SpectrumSummary:
    """Average empirical spectral distribution of V V^H over seeded trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def one(t: int) -> np.ndarray:
        V = build_vandermonde(dist, n, m, trial_seed(seed, t))
        return gram_eigenvalues(V)

    per_trial = _run_trials(one, trials, threads)
    return summarize_eigenvalues(per_trial, n, dist.d, m, dist.id, seed, bins)


def empirical_eta(summary: SpectrumSummary, gamma: float) -> float:
    """eta(gamma) = E[1/(gamma*lambda + 1)] over the summarized spectrum."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    core = float(np.mean(1.0 / (gamma * summary.eigenvalues + 1.0)))
    return summary.extra_zero_mass + (1.0 - summary.extra_zero_mass) * core


def empirical_moment(summary: SpectrumSummary, p: int) -> float:
    """p-th empirical moment (normalized trace of (V V^H)^p)."""
    core = float(np.mean(summary.eigenvalues ** p))
    return (1.0 - summary.extra_zero_mass) * core


def transform_scaled_lsd(base: SpectrumSummary, c: float, beta: float, bins="auto") -> SpectrumSummary:
    """Support-scaling law: from a uniform-phase summary at aspect c*beta,
    predict the spectrum under a support of measure c at aspect beta.

    The prediction adds mass (1 - c) at zero and maps each remaining sample
    lambda -> lambda / c; the atom mask is the base's, since scaling a trial
    keeps its own cut.
    """
    if not 0 < c <= 1:
        raise ValueError("c must be in (0, 1]")
    if abs(base.beta - c * beta) > 0.02 * c * beta:
        raise ValueError(
            f"base summary at beta={base.beta:.4f}, need c*beta={c * beta:.4f}"
        )
    if c == 1.0:
        return base
    scaled = base.eigenvalues / c
    extra = 1.0 - c + c * base.extra_zero_mass
    positive_mass = (1.0 - extra) * (1.0 - base.atom_zero_mass)
    edges, dens = _histogram(scaled[~base.atom], bins, positive_mass)
    return SpectrumSummary(
        eigenvalues=scaled,
        trials=base.trials,
        n=base.n,
        d=base.d,
        m=base.m,
        distribution_id=f"scaled(c={c:g},{base.distribution_id})",
        master_seed=base.master_seed,
        atom_zero_mass=base.atom_zero_mass,
        atom=base.atom,
        hist_edges=edges,
        hist_density=dens,
        extra_zero_mass=extra,
    )


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic: the largest gap between the empirical CDFs
    of a and b, both read on the pooled sample.  The gap is counted in
    integers, so the result is the exact fraction rounded once."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    gap = (np.searchsorted(a, pooled, side="right") * b.size
           - np.searchsorted(b, pooled, side="right") * a.size)
    return int(np.abs(gap).max()) / (a.size * b.size)


@dataclass(frozen=True)
class ScaledLsdComparison:
    ks_distance: float
    atom_direct: float
    atom_transformed: float
    cut: float


def compare_scaled_aesd(
    direct: SpectrumSummary, transformed: SpectrumSummary
) -> ScaledLsdComparison:
    """KS distance between positive parts plus atom-mass bookkeeping.

    The comparison cut separates the direct spectrum's collapsing cluster
    (asymptotically part of the atom) from the bulk: everything below half
    the transformed reference's smallest positive sample is atom-side.
    """
    ref_pos = transformed.eigenvalues[
        transformed.eigenvalues >= transformed.atom_cut
    ]
    cut = max(direct.atom_cut, transformed.atom_cut, 0.5 * float(ref_pos.min()))

    def atom_at(summary: SpectrumSummary, cut: float) -> float:
        below = float(np.mean(summary.eigenvalues < cut))
        return summary.extra_zero_mass + (1.0 - summary.extra_zero_mass) * below

    d_pos = direct.eigenvalues[direct.eigenvalues >= cut]
    t_pos = transformed.eigenvalues[transformed.eigenvalues >= cut]
    return ScaledLsdComparison(
        ks_distance=_ks_distance(d_pos, t_pos),
        atom_direct=atom_at(direct, cut),
        atom_transformed=atom_at(transformed, cut),
        cut=cut,
    )


# ---------------------------------------------------------------------------
# eta-transform mixture and the empirical eta_u table


class EtaTableRangeError(ValueError):
    """Query outside the tabulated (beta, gamma) range; extend the table."""


# Relative slack of the table's range check, for queries that land on an
# end node up to rounding.
ETA_RANGE_SLACK = 1e-9


def _outside(q: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Mask of the queries q outside [grid[0], grid[-1]] widened by the slack."""
    return ~((q >= grid[0] * (1 - ETA_RANGE_SLACK)) & (q <= grid[-1] * (1 + ETA_RANGE_SLACK)))


def _pchip(x: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Monotone piecewise-cubic Hermite interpolant of y over nodes x, at q.

    The nodes run along y's axis 0; q broadcasts against y's other axes, so
    every trailing position is read at its own query.  Node slopes follow
    Fritsch & Carlson (SIAM J. Numer. Anal. 17(2), 1980): the weighted
    harmonic mean of the side secants, zero at a sign change or a flat
    side, Moler's clamped three-point rule at the ends (Numerical Computing
    with MATLAB, 2004, pchiptx), and a straight line for two nodes.
    """
    h = np.diff(x).reshape(-1, *(1,) * (y.ndim - 1))
    m = np.diff(y, axis=0) / h
    if len(m) == 1:
        s = np.concatenate([m, m])
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        # both ends at once: the one-sided three-point slope, clamped to keep the shape
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        flip = np.sign(end) != np.sign(m0)
        clamp = ~flip & (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3 * np.abs(m0))
        end = np.where(flip, 0.0, np.where(clamp, 3 * m0, end))
        s = np.concatenate([end[:1], inner, end[1:]])
    # the cubic on each interval in powers of (q - x[i])
    t = (s[:-1] + s[1:] - 2 * m) / h
    c = np.stack([t / h, (m - s[:-1]) / h - t, s[:-1], y[:-1]])
    i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, len(x) - 2)
    pos = np.arange(m[0].size).reshape(m.shape[1:])  # flat index of each trailing position
    c = c.reshape(4, -1)[:, i * pos.size + pos]
    u = q - x[i]
    return ((c[0] * u + c[1]) * u + c[2]) * u + c[3]


@dataclass
class EtaUTable:
    """Empirical eta-transform of the uniform-phase spectrum on a grid.

    Stands in for the unknown closed-form limiting spectrum: values are
    eta^(n)_u on (beta_grid x gamma_grid), interpolated monotonically in
    log beta and log gamma.  eta(gamma=0) is exactly 1.
    """

    d: int
    n: int
    trials: int
    seed: int
    beta_grid: np.ndarray
    gamma_grid: np.ndarray
    values: np.ndarray  # (len(beta_grid), len(gamma_grid))

    def eta(self, beta, gamma):
        """eta_u at broadcasting (beta, gamma) arrays; a float for scalars.

        Each query first interpolates every beta row at its gamma (PCHIP in
        log gamma), then interpolates that column at its beta (PCHIP in log
        beta).  Any element outside the table raises EtaTableRangeError;
        nothing is extrapolated.
        """
        b, g = np.broadcast_arrays(np.asarray(beta, dtype=float), np.asarray(gamma, dtype=float))
        out = np.ones(b.shape)
        live = g != 0.0
        b, g = b[live], g[live]
        if np.any(g < 0) or np.any(b <= 0):
            raise ValueError("need beta > 0 and gamma >= 0")
        bg, gg = self.beta_grid, self.gamma_grid
        for name, q, grid in (("beta", b, bg), ("gamma", g, gg)):
            outside = _outside(q, grid)
            if np.any(outside):
                raise EtaTableRangeError(
                    f"{name}={q[outside][0]:.5g} outside table range "
                    f"[{grid[0]:.5g}, {grid[-1]:.5g}]"
                )
        # (len(bg), k): every beta row read at every query's gamma
        cols = _pchip(np.log(gg), self.values.T[:, :, None], np.log(np.clip(g, gg[0], gg[-1])))
        if len(bg) == 1:
            out[live] = cols[0]
        else:  # each query's column at its own beta
            out[live] = _pchip(np.log(bg), cols, np.log(np.clip(b, bg[0], bg[-1])))
        return float(out) if out.ndim == 0 else out

    def __call__(self, beta, gamma):
        return self.eta(beta, gamma)

    def check_covers(self, beta_span: Sequence[float], gamma_span: Sequence[float]) -> None:
        """Raise EtaTableRangeError unless every query in the [lo, hi] spans
        is inside the table, by the same range rule as eta."""
        for name, span, grid in (("beta", beta_span, self.beta_grid),
                                 ("gamma", gamma_span, self.gamma_grid)):
            if np.any(_outside(np.asarray(span, dtype=float), grid)):
                raise EtaTableRangeError(
                    f"table {name} range [{grid[0]:.5g}, {grid[-1]:.5g}] "
                    f"does not cover the requested [{span[0]:.5g}, {span[1]:.5g}]"
                )

    def save(self, path: str) -> None:
        payload = {
            "d": self.d,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "beta_grid": self.beta_grid.tolist(),
            "gamma_grid": self.gamma_grid.tolist(),
            "values": self.values.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path: str) -> "EtaUTable":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(
            d=payload["d"],
            n=payload["n"],
            trials=payload["trials"],
            seed=payload["seed"],
            beta_grid=np.array(payload["beta_grid"]),
            gamma_grid=np.array(payload["gamma_grid"]),
            values=np.array(payload["values"]),
        )


def eta_u_table(
    d: int,
    beta_grid: Sequence[float],
    gamma_grid: Sequence[float],
    n: int,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> EtaUTable:
    """Simulate eta^(n)_u on the grid.  Each beta node is realized by the
    nearest integer m; the stored grid holds the achieved aspect ratios."""
    from .sampling import uniform_distribution

    beta_grid = np.sort(np.asarray(beta_grid, dtype=float))
    gamma_grid = np.sort(np.asarray(gamma_grid, dtype=float))
    if beta_grid[0] <= 0 or gamma_grid[0] <= 0:
        raise ValueError("grids must be positive (gamma=0 is handled exactly)")
    uni = uniform_distribution(d)
    ms = np.unique([max(1, int(round(n ** d / b))) for b in beta_grid])[::-1]
    achieved = np.array([n ** d / m for m in ms])
    values = np.empty((len(ms), len(gamma_grid)))
    for i, m in enumerate(ms):
        summary = aesd(uni, n, int(m), trials, seed=seed + i, threads=threads)
        lam = summary.eigenvalues
        values[i] = [float(np.mean(1.0 / (g * lam + 1.0))) for g in gamma_grid]
    return EtaUTable(
        d=d,
        n=n,
        trials=trials,
        seed=seed,
        beta_grid=achieved,
        gamma_grid=gamma_grid,
        values=values,
    )


def build_eta_table(
    d: int,
    n: int,
    beta_span: tuple[float, float],
    gamma_span: tuple[float, float],
    beta_nodes: int = 24,
    gamma_nodes: int = 40,
    trials: int = 50,
    seed: int = 42,
    threads: Optional[int] = None,
) -> EtaUTable:
    """Log-spaced table covering the requested spans with 5% padding."""
    bspan = (beta_span[0] * 0.95, beta_span[1] * 1.05)
    gspan = (gamma_span[0] * 0.95, gamma_span[1] * 1.05)
    return eta_u_table(
        d,
        np.geomspace(*bspan, beta_nodes),
        np.geomspace(*gspan, gamma_nodes),
        n,
        trials,
        seed,
        threads,
    )


# eta_u(beta, gamma): broadcasting arrays in, an array (or a scalar) out.
EtaCallable = Callable[[np.ndarray, np.ndarray], np.ndarray]


def eta_mixture(
    gx: GxRepresentation,
    support_measure: float,
    d: int,
    beta: float,
    gamma: float,
    eta_u: EtaCallable,
) -> float:
    """eta_x(d, beta, gamma) = 1 - |A| + |A| * int g_x(y) eta_u(beta/y, gamma*y) dy.

    The integral is the finite weighted sum over g_x's nodes_weights: exact
    for atoms and histograms, a fixed Gauss-Legendre rule for closed forms.
    eta_u is called once, on all nodes together.
    """
    if gamma == 0.0:
        return 1.0
    if isinstance(eta_u, EtaUTable) and eta_u.d != d:
        raise ValueError(f"eta_u table has d={eta_u.d}, mixture needs d={d}")
    y, w = gx.nodes_weights()
    A = support_measure
    return 1.0 - A + A * float(np.sum(w * eta_u(beta / y, gamma * y)))


def asymptotic_mse(
    gx: GxRepresentation,
    support_measure: float,
    d: int,
    beta: float,
    gamma: float,
    eta_u: EtaCallable,
) -> float:
    """MSE_inf = eta_x(d, beta, gamma/beta)."""
    return eta_mixture(gx, support_measure, d, beta, gamma / beta, eta_u)
