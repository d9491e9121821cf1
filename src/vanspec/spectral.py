"""d-fold Vandermonde matrices, empirical spectra and eta-transforms.

Draws the points of the n^d x m sampling matrix V, builds V V^H from its
multilevel Toeplitz structure, keeps the eigenvalues of each seeded trial as
one row of a spectrum summary (with the rank-deficiency atom at zero cut per
row), and applies the limiting-spectrum transform laws: support scaling, and
the eta-transform mixture over the density-of-density g_x that yields the
asymptotic MSE.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import reprlib
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .sampling import SamplingDistribution

# Eigenvalues below ATOM_TOL_REL x (largest eigenvalue of the trial) count as
# the atom at zero.  1e-4 captures the exponentially collapsing cluster that
# uncovered area produces at desk-scale n; a tighter cut (1e-9) misses most
# of it and under-reports the atom.
ATOM_TOL_REL = 1e-4
# Negative eigenvalues beyond -EIG_TOL_REL x max are a solver failure.
EIG_TOL_REL = 1e-8
# Desk-scale cap on the Gram size n^d.
NDIM_CAP = 1024


def _run_trials(worker: Callable[[np.random.SeedSequence], object], trials: int, seed: int,
                threads: Optional[int]):
    """worker(SeedSequence(entropy=seed, spawn_key=(t,))) for t in [0, trials),
    results in trial order: each trial's seed depends on t alone, so the
    results do not depend on the schedule.  threads None or 0 means all
    cores.  trials < 1 and a negative threads raise before any trial."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threads is not None and threads < 0:
        raise ValueError(f"threads must be >= 0 (0 = all cores), got {threads}")
    seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(t,)) for t in range(trials)]
    if not threads:
        threads = os.cpu_count() or 1
    threads = min(threads, trials)
    if threads <= 1:
        return [worker(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, seeds))


def _powers(rows: int, step: int, x: np.ndarray) -> np.ndarray:
    """exp(-2*pi*i k step x) for k in [0, rows): one row per power, one column
    per coordinate x.  Row k is the running product of k factors z =
    exp(-2*pi*i step x), so the table costs one exp per coordinate."""
    out = np.empty((rows, x.size), dtype=complex)
    out[0] = 1.0
    if rows > 1:
        out[1:] = np.exp(-2j * np.pi * (step * x))
    return np.multiply.accumulate(out, axis=0, out=out)


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
    V V^H and its real twin come from its multilevel Toeplitz structure, and
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
        product of z^r with the other axes' tables.  The positions past the
        box (k*b + r >= n) are padding.

        Each per-axis table is a running product (_powers), one exp per
        point.  The error of power k grows like k eps, as it does for one
        exp of the phase k x, which rounds in proportion to k: at n = 512
        the powers up to 506 are within 3.4e-13 of an exact-phase reference
        (2.6e-13 with one exp per power), and the Gram sums c(j) at m = 1024
        within 3.9e-15 (5.2e-15).
        """
        n, x = self.n, self.points.T
        b = math.isqrt(n - 1) + 1 if self.d == 1 else 1
        fine = [_powers(b, 1, x[-1])]
        for xa in reversed(x[:-1]):
            t = _powers(n, 1, xa)
            fine.append(np.concatenate([t[:0:-1].conj(), t]))
        return _powers(-(-n // b), b, x[-1]), _khatri_rao(fine)

    @functools.cached_property
    def twin(self) -> np.ndarray:
        """Re G - (Im G) J, the real symmetric matrix S^H G S of G = V V^H,
        built once: the eigensolve and every LMMSE solve on V read it.

        J reverses the flat index (l -> n - 1 - l) and S = (I + iJ)/sqrt(2) is
        unitary.  J G J = conj G for every d, so S^H G S = Re G + i (G J - J G)/2
        = Re G - (Im G) J is real, with G's eigenvalues (A. Lee, Linear Algebra
        Appl. 29, 1980).  Entry (l, l') is Re c(l - l') - Im c(l + l' - (n-1)):
        the Toeplitz view of Re c minus, with l' reversed, the Hankel view of
        Im c.  Neither is copied, and both triangles read one c, so the twin is
        exactly symmetric.
        """
        T, flip = _gram_view(self), (Ellipsis,) + (slice(None, None, -1),) * self.d
        return np.subtract(T.real, T.imag[flip], order="C").reshape(self.n ** self.d, -1)

    @functools.cached_property
    def box_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """power_tables with j_a in [0, n) for a < d: V's own rows."""
        (coarse, fine), n, d = self.power_tables, self.n, self.d
        box = (slice(None),) + (slice(n - 1, None),) * (d - 1)
        return coarse, fine.reshape(-1, *(2 * n - 1,) * (d - 1), self.m)[box].reshape(-1, self.m)

    def matvec(self, p: np.ndarray) -> np.ndarray:
        """V p, rows ordered by nu(l)."""
        coarse, fine = self.box_tables
        return ((coarse * p) @ fine.T).ravel()[: self.n ** self.d] / np.sqrt(self.m)

    def rmatvec(self, a: np.ndarray) -> np.ndarray:
        """V^H a, with a ordered by nu(l)."""
        coarse, fine = self.box_tables
        padded = np.zeros(coarse.shape[0] * fine.shape[0], dtype=complex)
        padded[: a.size] = np.conj(a)
        inner = padded.reshape(coarse.shape[0], -1) @ fine  # sum over the fine index
        return np.einsum("kq,kq->q", coarse, inner).conj() / np.sqrt(self.m)


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


def _gram_view(V: DFoldVandermonde) -> np.ndarray:
    """T[l, l'] = c(l - l'), an (n,)*2d view of the sums c(j) = m^-1 sum_q
    exp(-2*pi*i j.x_q) on the box [-(n-1), n-1]^d.  The upper half of c
    (flat, axis d slowest) comes from one product of V's power tables, and
    the lower half is its conjugate, so c(-j) = conj c(j) exactly."""
    n, d = V.n, V.d
    width = (2 * n - 1) ** (d - 1)  # flat length of one j_d slice
    coarse, fine = V.power_tables
    # c over j_d >= 0: it starts at j_d = 0 with the other axes at -(n-1)
    slab = (coarse @ fine.T).ravel()[: n * width] / V.m
    half = slab[(width - 1) // 2:]
    c = np.concatenate([half[:0:-1].conj(), half]).reshape((2 * n - 1,) * d)
    # from c(0) at the centre, step forward along l and back along l'
    return np.ndarray((n,) * 2 * d, c.dtype, buffer=c, offset=(n - 1) * sum(c.strides),
                      strides=c.strides + tuple(-s for s in c.strides))


def gram_eigenvalues(V: DFoldVandermonde) -> np.ndarray:
    """Eigenvalues of V V^H, ascending, with tiny negatives clamped to zero;
    solved in real arithmetic on the Gram's real twin V.twin."""
    lam = np.linalg.eigvalsh(V.twin)
    floor = -EIG_TOL_REL * max(lam[-1], 1.0)
    if lam[0] < floor:
        raise RuntimeError(
            f"V V^H eigenvalue {lam[0]} below PSD tolerance (n={V.n}, m={V.m})"
        )
    return np.clip(lam, 0.0, None)


@dataclass(frozen=True)
class SpectrumSummary:
    """Eigenvalues of V V^H over independent trials, one row per trial.

    extra_zero_mass is probability mass at zero added on top of the stored
    samples (used by the support-scaling transform); every expectation
    weights the samples by (1 - extra_zero_mass).
    """

    rows: np.ndarray  # (trials, n^d), each row ascending, as gram_eigenvalues returns it
    m: int
    extra_zero_mass: float = 0.0

    @property
    def beta(self) -> float:
        return self.rows.shape[1] / self.m

    @property
    def atom(self) -> np.ndarray:
        """Per sample, in the layout of rows: below ATOM_TOL_REL x its own
        trial's largest eigenvalue."""
        return self.rows < ATOM_TOL_REL * self.rows[:, -1:]

    @property
    def atom_zero_mass(self) -> float:
        """Fraction of the stored samples in the atom."""
        return np.count_nonzero(self.atom) / self.rows.size

    @property
    def total_atom_mass(self) -> float:
        return self.extra_zero_mass + (1.0 - self.extra_zero_mass) * self.atom_zero_mass


def histogram(summary: SpectrumSummary, bins="auto") -> tuple[np.ndarray, np.ndarray]:
    """Edges and density of the summary's bulk, the samples outside its atom;
    the density integrates to 1 - total_atom_mass.  Each trial's largest
    eigenvalue is in the bulk, so the bulk is never empty.  bins is a count
    or "auto" (Freedman-Diaconis, capped at 256 bins when it explodes).  A
    bulk too narrow for finite-sized bins is binned over [lo - 0.5, hi + 0.5],
    as numpy bins a zero-width one, and "auto" then takes 256 bins."""
    positives = summary.rows[~summary.atom]
    rule = bins
    if bins == "auto":  # FD explodes on heavy tails: cap it before numpy allocates its edges
        width = 2.0 * np.subtract(*np.percentile(positives, [75, 25])) * positives.size ** (-1 / 3)
        rule = "fd" if not width or np.ptp(positives) / width <= 2047 else 256
    try:
        edges = np.histogram_bin_edges(positives, bins=rule)
    except ValueError as exc:  # a bulk a few ulps wide
        if "finite-sized" not in str(exc):
            raise
        edges = np.histogram_bin_edges(positives, bins=256 if bins == "auto" else bins,
                                       range=(positives.min() - 0.5, positives.max() + 0.5))
    dens, edges = np.histogram(positives, bins=edges, density=True)
    return edges, dens * ((1.0 - summary.extra_zero_mass) * (1.0 - summary.atom_zero_mass))


def summarize_eigenvalues(per_trial: Sequence[np.ndarray], m: int) -> SpectrumSummary:
    """Keep each trial's ascending eigenvalues as one row of a SpectrumSummary."""
    return SpectrumSummary(np.stack(per_trial), m)


def aesd(
    dist: SamplingDistribution,
    n: int,
    m: int,
    trials: int,
    seed: int,
    threads: Optional[int] = 1,
) -> SpectrumSummary:
    """Average empirical spectral distribution of V V^H over seeded trials."""
    return summarize_eigenvalues(
        _run_trials(lambda s: gram_eigenvalues(build_vandermonde(dist, n, m, s)),
                    trials, seed, threads),
        m)


def empirical_eta(summary: SpectrumSummary, gamma: float | np.ndarray) -> float | np.ndarray:
    """eta(gamma) = E[1/(gamma*lambda + 1)] over the summarized spectrum: a
    float for a scalar gamma, an array of the same shape for an array.  Each
    gamma is one mean over the rows, so the temporary is rows-sized."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma must be >= 0")
    core = np.array([np.mean(1.0 / (x * summary.rows + 1.0)) for x in g.reshape(-1)])
    eta = summary.extra_zero_mass + (1.0 - summary.extra_zero_mass) * core.reshape(g.shape)
    return float(eta) if g.ndim == 0 else eta


def empirical_moment(summary: SpectrumSummary, p: int) -> float:
    """p-th empirical moment (normalized trace of (V V^H)^p)."""
    core = float(np.mean(summary.rows ** p))
    return (1.0 - summary.extra_zero_mass) * core


def transform_scaled_lsd(base: SpectrumSummary, c: float, beta: float) -> SpectrumSummary:
    """Support-scaling law: from a uniform-phase summary at aspect c*beta,
    predict the spectrum under a support of measure c at aspect beta.

    The prediction adds mass (1 - c) at zero and maps each remaining sample
    lambda -> lambda / c.  Each row scales with its own largest eigenvalue,
    so the atom cut of each row stays the base's (up to rounding at the cut).
    """
    if not 0 < c <= 1:
        raise ValueError("c must be in (0, 1]")
    if abs(base.beta - c * beta) > 0.02 * c * beta:
        raise ValueError(
            f"base summary at beta={base.beta:.4f}, need c*beta={c * beta:.4f}"
        )
    if c == 1.0:
        return base
    return dataclasses.replace(base, rows=base.rows / c,
                               extra_zero_mass=1.0 - c + c * base.extra_zero_mass)


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


def compare_scaled_aesd(
    direct: SpectrumSummary, transformed: SpectrumSummary
) -> ScaledLsdComparison:
    """KS distance between positive parts plus atom-mass bookkeeping.

    The comparison cut separates the direct spectrum's collapsing cluster
    (asymptotically part of the atom) from the bulk: everything below half
    the transformed reference's smallest positive sample is atom-side.
    """
    # each summary's atom/positive split point, from its largest sample
    direct_cut, ref_cut = (ATOM_TOL_REL * float(s.rows.max()) for s in (direct, transformed))
    ref_pos = transformed.rows[transformed.rows >= ref_cut]
    cut = max(direct_cut, ref_cut, 0.5 * float(ref_pos.min()))

    def atom_at(summary: SpectrumSummary, cut: float) -> float:
        below = float(np.mean(summary.rows < cut))
        return summary.extra_zero_mass + (1.0 - summary.extra_zero_mass) * below

    d_pos = direct.rows[direct.rows >= cut]
    t_pos = transformed.rows[transformed.rows >= cut]
    return ScaledLsdComparison(
        ks_distance=_ks_distance(d_pos, t_pos),
        atom_direct=atom_at(direct, cut),
        atom_transformed=atom_at(transformed, cut),
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
    with MATLAB, 2004, pchiptx), and a straight line for two nodes.  One
    node gives its own value (the range check keeps q at that node).
    """
    if len(x) == 1:
        return np.broadcast_to(y[0], np.broadcast_shapes(y.shape[1:], q.shape))
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


def read_record(payload, schema, where: str):
    """payload, a decoded JSON value, read against schema: a dict from each
    key (with a trailing "?" if it may be left out) to int, float, str, a
    one-item list [t] or a nested schema.  An int is a JSON integer, a float
    any finite JSON number, returned as a float.  ValueError names the key
    path, where.key, of an unknown or missing key, of a value not of its
    type, and of a list whose lists differ in length."""
    kind = type(schema) if isinstance(schema, (dict, list)) else schema
    if isinstance(payload, bool) or not isinstance(payload, {float: (int, float)}.get(kind, kind)):
        want = {dict: "a JSON object", list: "a list", int: "an integer", float: "a number",
                str: "a string"}[kind]
        raise ValueError(f"{where} must be {want}, got {reprlib.repr(payload)}")
    if kind is float and not abs(payload) <= sys.float_info.max:  # NaN, +-inf or a huge int
        raise ValueError(f"{where} must be finite, got {reprlib.repr(payload)}")
    if kind is list:
        items = [read_record(v, schema[0], where) for v in payload]
        if isinstance(schema[0], list) and len(set(map(len, items))) > 1:
            raise ValueError(f"{where} is ragged: its lists differ in length")
        return items
    if kind is not dict:
        return float(payload) if kind is float else payload
    keys = {k.removesuffix("?"): k for k in schema}
    for key in [*payload, *(k for k, entry in keys.items() if entry == k)]:
        if (key in payload) != (key in keys):  # unknown, or required and missing
            raise ValueError(f"{'unknown' if key in payload else 'missing'} key '{where}.{key}' "
                             f"({where} takes {', '.join(keys)})")
    return {k: read_record(payload[k], schema[entry], f"{where}.{k}")
            for k, entry in keys.items() if k in payload}


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
        # each query's column at its own beta
        out[live] = _pchip(np.log(bg), cols, np.log(np.clip(b, bg[0], bg[-1])))
        return float(out) if out.ndim == 0 else out

    def __call__(self, beta, gamma):
        return self.eta(beta, gamma)

    def check_request(self, d: int, n: int, trials: int, beta_span: Sequence[float],
                      gamma_span: Sequence[float]) -> None:
        """Raise ValueError unless the table was built at d, n and trials, and
        EtaTableRangeError unless every query in the [lo, hi] spans is inside
        it, by the same range rule as eta."""
        for name, have, want in (("d", self.d, d), ("n", self.n, n), ("trials", self.trials, trials)):
            if have != want:
                raise ValueError(f"table has {name}={have}, request needs {name}={want}")
        for name, span, grid in (("beta", beta_span, self.beta_grid),
                                 ("gamma", gamma_span, self.gamma_grid)):
            if np.any(_outside(np.asarray(span, dtype=float), grid)):
                raise EtaTableRangeError(
                    f"table {name} range [{grid[0]:.5g}, {grid[-1]:.5g}] "
                    f"does not cover the requested [{span[0]:.5g}, {span[1]:.5g}]"
                )

    def save(self, path: str) -> None:
        """Write every field, in declaration order, as one JSON object."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({k: v.tolist() if isinstance(v, np.ndarray) else v
                       for k, v in vars(self).items()}, fh)

    @classmethod
    def load(cls, path: str) -> "EtaUTable":
        """Read a table written by save; ValueError names what is malformed:
        anything read_record refuses in the record eta_table (a non-finite
        number among them), a grid that is not strictly increasing and
        positive, or a values shape other than (len(beta_grid),
        len(gamma_grid))."""
        with open(path, encoding="utf-8") as fh:
            record = read_record(json.load(fh), {
                "d": int, "n": int, "trials": int, "seed": int,
                "beta_grid": [float], "gamma_grid": [float], "values": [[float]]}, "eta_table")
        table = cls(**{k: np.array(v, dtype=float) if isinstance(v, list) else v
                       for k, v in record.items()})
        for name, grid in (("beta_grid", table.beta_grid), ("gamma_grid", table.gamma_grid)):
            if grid.size == 0 or not np.all(grid > 0) or np.any(np.diff(grid) <= 0):
                raise ValueError(f"{name} is not a strictly increasing list of positive numbers")
        want = (table.beta_grid.size, table.gamma_grid.size)
        if table.values.shape != want:
            raise ValueError(f"values has shape {table.values.shape}, "
                             f"want (len(beta_grid), len(gamma_grid)) = {want}")
        return table


def eta_u_table(
    d: int,
    ms: Sequence[int],
    gamma_grid: Sequence[float],
    n: int,
    trials: int,
    seed: int,
    threads: Optional[int] = 1,
) -> EtaUTable:
    """Simulate eta^(n)_u at the sample counts ms and on the gamma grid.

    The distinct m run in descending order, node i at seed + i, and the
    stored beta grid is their aspect ratios n^d/m, ascending."""
    from .sampling import uniform_distribution

    ms = sorted(set(ms), reverse=True)
    gamma_grid = np.sort(np.asarray(gamma_grid, dtype=float))
    if ms[-1] < 1 or gamma_grid[0] <= 0:
        raise ValueError("need every m >= 1 and every gamma > 0 (gamma=0 is handled exactly)")
    uni = uniform_distribution(d)
    values = np.empty((len(ms), len(gamma_grid)))
    for i, m in enumerate(ms):
        summary = aesd(uni, n, m, trials, seed=seed + i, threads=threads)
        values[i] = empirical_eta(summary, gamma_grid)
    return EtaUTable(
        d=d,
        n=n,
        trials=trials,
        seed=seed,
        beta_grid=np.array([n ** d / m for m in ms]),
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
    threads: Optional[int] = 1,
) -> EtaUTable:
    """Log-spaced table covering the requested spans with 5% padding.

    Each beta node is realized by the nearest integer m, which at small n^d
    can pull an end of the realized grid inside the span.  Such an end node
    is realized by the m that covers it instead: ceil(n^d/beta_lo) at the
    bottom, floor(n^d/beta_hi) at the top.  A beta_hi above n^d needs
    m < 1, and raises EtaTableRangeError before any trial.
    """
    N, (lo, hi) = n ** d, beta_span
    ms = [max(1, round(N / b)) for b in np.geomspace(lo * 0.95, hi * 1.05, beta_nodes)]
    if N / ms[0] > lo * (1 + ETA_RANGE_SLACK):
        ms[0] = math.ceil(N / lo)
    if N / ms[-1] < hi * (1 - ETA_RANGE_SLACK):
        if N < hi:
            raise EtaTableRangeError(
                f"beta span [{lo:.5g}, {hi:.5g}] reaches above n^d = {N}: no m >= 1 realizes it"
            )
        ms[-1] = math.floor(N / hi)
    gspan = (gamma_span[0] * 0.95, gamma_span[1] * 1.05)
    return eta_u_table(
        d,
        ms,
        np.geomspace(*gspan, gamma_nodes),
        n,
        trials,
        seed,
        threads,
    )


# eta_u(beta, gamma): broadcasting arrays in, an array (or a scalar) out.
EtaCallable = Callable[[np.ndarray, np.ndarray], np.ndarray]


def eta_mixture(
    dist: SamplingDistribution,
    beta: float,
    gamma: float,
    eta_u: EtaCallable,
) -> float:
    """eta_x(d, beta, gamma) = 1 - |A| + |A| * int g_x(y) eta_u(beta/y, gamma*y) dy,
    with g_x, |A| = dist.support_measure and d read from dist.

    The integral is the finite weighted sum over g_x's nodes_weights: exact
    for atoms, a fixed Gauss-Legendre rule for closed forms.
    eta_u is called once, on all nodes together.
    """
    if gamma == 0.0:
        return 1.0
    if isinstance(eta_u, EtaUTable) and eta_u.d != dist.d:
        raise ValueError(f"eta_u table has d={eta_u.d}, mixture needs d={dist.d}")
    y, w = dist.gx.nodes_weights()
    A = dist.support_measure
    return 1.0 - A + A * float(np.sum(w * eta_u(beta / y, gamma * y)))


def mixture_span(dists: Sequence[SamplingDistribution], betas: Sequence[float],
                 gammas: Sequence[float]) -> tuple[tuple[float, float], tuple[float, float]]:
    """The (beta, gamma) spans of every eta_u query that asymptotic_mse makes
    for each dist in dists, beta in betas and gamma in gammas: the mixture at
    gamma/beta reads eta_u(beta/y, y*gamma/beta) at g_x nodes y, which lie in
    the union of the dists' g_x supports.  No padding is added."""
    y_lo = min(dist.gx.support[0] for dist in dists)
    y_hi = max(dist.gx.support[1] for dist in dists)
    ratios = [g / b for g in gammas for b in betas]
    return (min(betas) / y_hi, max(betas) / y_lo), (min(ratios) * y_lo, max(ratios) * y_hi)


def asymptotic_mse(
    dist: SamplingDistribution,
    beta: float,
    gamma: float,
    eta_u: EtaCallable,
) -> float:
    """MSE_inf = eta_x(d, beta, gamma/beta)."""
    return eta_mixture(dist, beta, gamma / beta, eta_u)
