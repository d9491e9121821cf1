from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.stats import ks_2samp

from vanspec.moments import uniform_moment
from vanspec.sampling import (
    GxDiscreteAtoms,
    GxEmpirical,
    empirical_density_of_density,
    uniform_distribution,
)
from vanspec.spectral import (
    ATOM_TOL_REL,
    DFoldVandermonde,
    EtaTableRangeError,
    EtaUTable,
    _ks_distance,
    _pchip,
    aesd,
    asymptotic_mse,
    build_eta_table,
    build_vandermonde,
    compare_scaled_aesd,
    empirical_eta,
    empirical_moment,
    eta_mixture,
    eta_u_table,
    gram_eigenvalues,
    gram_matrix,
    multi_indices,
    summarize_eigenvalues,
    transform_scaled_lsd,
)
from vanspec.scenarios import db_to_linear, fading_distribution, fading_gx, hole_distribution

from helpers import point_distribution


# ---------------------------------------------------------------------------
# matrix construction


def test_multi_index_order():
    L = multi_indices(2, 2)
    assert L.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_build_zero_phase_column():
    V = build_vandermonde(point_distribution([[0.0]]), 2, 1, seed=0)
    assert np.allclose(V.entries, [[1.0], [1.0]])


def test_build_quarter_phase_column():
    V = build_vandermonde(point_distribution([[0.25]]), 2, 1, seed=0)
    assert np.allclose(V.entries[:, 0], [1.0, -1j])


def test_build_modulus_and_row_order():
    rng = np.random.default_rng(7)
    pts = rng.random((3, 2)) - 0.5
    V = build_vandermonde(point_distribution(pts), 2, 3, seed=0)
    assert V.entries.shape == (4, 3)
    assert np.allclose(np.abs(V.entries), 1 / np.sqrt(3))
    # row nu = l1 + 2*l2
    for q in range(3):
        for l1 in (0, 1):
            for l2 in (0, 1):
                expected = np.exp(-2j * np.pi * (l1 * pts[q, 0] + l2 * pts[q, 1])) / np.sqrt(3)
                assert np.isclose(V.entries[l1 + 2 * l2, q], expected)


def test_build_deterministic_and_beta():
    dist = uniform_distribution(1)
    V1 = build_vandermonde(dist, 8, 10, seed=5)
    V2 = build_vandermonde(dist, 8, 10, seed=5)
    assert np.array_equal(V1.entries, V2.entries)
    assert V1.beta == pytest.approx(0.8)


def test_build_rejects_oversize():
    with pytest.raises(ValueError):
        build_vandermonde(uniform_distribution(2), 40, 10, seed=0)


# ---------------------------------------------------------------------------
# eigenvalues


def test_gram_n1_is_one():
    for m in (1, 3, 7):
        V = build_vandermonde(uniform_distribution(1), 1, m, seed=m)
        assert gram_eigenvalues(V) == pytest.approx([1.0])


def test_gram_rank_one():
    # single unit-modulus-entry column: trace n^d = 2, rank 1
    V = build_vandermonde(uniform_distribution(1), 2, 1, seed=3)
    assert gram_eigenvalues(V) == pytest.approx([0.0, 2.0], abs=1e-12)


def test_gram_two_point_closed_form():
    V = build_vandermonde(point_distribution([[0.0], [0.25]]), 2, 2, seed=0)
    lam = gram_eigenvalues(V)
    assert lam == pytest.approx([1 - 2 ** -0.5, 1 + 2 ** -0.5])


# largest n per d for the Gram gate: n^d up to 64
GATE_N = {1: 64, 2: 8, 3: 4}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 3]).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, GATE_N[d]))),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([None, 0.0, 0.25]),
    st.integers(0, 2 ** 32 - 1),
)
def test_toeplitz_gram_matches_explicit(dn, side, mass, seed):
    # the Toeplitz Gram, V p and V^H a against E E^H, E p and E^H a, with E
    # built here as the oracle, for m below, at and above n^d, with and
    # without point masses at 0 and 0.25
    (d, n), nd = dn, dn[1] ** dn[0]
    m = max(1, nd + side * (nd // 2 + 1))
    rng = np.random.default_rng(seed)
    x = rng.random((m, d)) - 0.5
    if mass is not None:
        x[rng.random(m) < 0.5] = mass
    E = np.exp(-2j * np.pi * multi_indices(n, d) @ x.T) / np.sqrt(m)
    V = DFoldVandermonde(n=n, d=d, m=m, points=x)
    G = gram_matrix(V)
    assert G.shape == (nd, nd)
    assert np.array_equal(G, G.conj().T)
    assert np.abs(G - E @ E.conj().T).max() <= 1e-12
    p = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    a = rng.standard_normal(nd) + 1j * rng.standard_normal(nd)
    assert np.abs(V.matvec(p) - E @ p).max() <= 1e-12 * np.abs(p).sum()
    assert np.abs(V.rmatvec(a) - E.conj().T @ a).max() <= 1e-12 * np.abs(a).sum()


def test_toeplitz_gram_point_masses():
    # all samples at 0: every entry is 1; at 0.25 in 2-D: c(j) = (-i)^(j1+j2)
    G = gram_matrix(DFoldVandermonde(n=5, d=1, m=3, points=np.zeros((3, 1))))
    assert np.array_equal(G, np.ones((5, 5)))
    G = gram_matrix(DFoldVandermonde(n=3, d=2, m=2, points=np.full((2, 2), 0.25)))
    j = multi_indices(3, 2).sum(axis=1)
    assert np.abs(G - (-1j) ** (j[:, None] - j[None, :])).max() < 1e-14


# ---------------------------------------------------------------------------
# spectra


def test_aesd_determinism():
    dist = uniform_distribution(1)
    s1 = aesd(dist, 16, 20, trials=3, seed=11)
    s2 = aesd(dist, 16, 20, trials=3, seed=11)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert s1.atom_zero_mass == s2.atom_zero_mass


def test_aesd_thread_count_invariance():
    dist = uniform_distribution(1)
    s1 = aesd(dist, 16, 20, trials=4, seed=11, threads=1)
    s2 = aesd(dist, 16, 20, trials=4, seed=11, threads=4)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)


def test_aesd_histogram_mass_and_trace():
    s = aesd(uniform_distribution(1), 32, 40, trials=5, seed=2)
    widths = np.diff(s.hist_edges)
    assert np.sum(s.hist_density * widths) == pytest.approx(1 - s.total_atom_mass, rel=1e-9)
    assert empirical_moment(s, 1) == pytest.approx(1.0, abs=0.05)


# Trial scales differ by 100x, so a pooled cut (1e-2) would drop the first
# trial's 1e-3 from the histogram while its own cut (1e-4) keeps it.
SPLIT_TRIALS = [np.array([1e-6, 1e-3, 1.0]), np.array([1e-4, 0.5, 100.0])]


def test_atom_and_histogram_split_one_mask():
    s = summarize_eigenvalues(SPLIT_TRIALS, 3, 1, 3, "test", None, bins=4)
    positives = np.concatenate([lam[lam >= ATOM_TOL_REL * lam[-1]] for lam in SPLIT_TRIALS])
    total = sum(lam.size for lam in SPLIT_TRIALS)
    assert positives.size == 4
    assert s.atom_zero_mass == (total - positives.size) / total
    assert np.array_equal(np.sort(positives), s.eigenvalues[~s.atom])
    counts, _ = np.histogram(positives, bins=s.hist_edges)
    assert counts.sum() == positives.size
    assert np.allclose(s.hist_density * np.diff(s.hist_edges), counts / total, rtol=1e-12)


def test_transform_keeps_the_base_atom_mask():
    base = summarize_eigenvalues(SPLIT_TRIALS, 3, 1, 3, "test", None, bins=4)
    t = transform_scaled_lsd(base, 0.5, 2.0, bins=4)
    assert np.array_equal(t.atom, base.atom)
    counts, _ = np.histogram(t.eigenvalues[~t.atom], bins=t.hist_edges)
    assert counts.sum() == np.count_nonzero(~base.atom) == 4
    assert np.sum(t.hist_density * np.diff(t.hist_edges)) == pytest.approx(
        1 - t.total_atom_mass, rel=1e-12)


def test_aesd_hole_atom_mass():
    # desk-scale version of the scaled-support atom law (full law in acceptance)
    s = aesd(hole_distribution(0.6, d=1), 64, 80, trials=8, seed=4)
    assert s.atom_zero_mass == pytest.approx(0.4, abs=0.06)


# ---------------------------------------------------------------------------
# eta


def test_empirical_eta_at_zero_and_ones():
    s = aesd(uniform_distribution(1), 16, 20, trials=2, seed=1)
    assert empirical_eta(s, 0.0) == 1.0
    fake = s.__class__(**{**s.__dict__, "eigenvalues": np.ones(10)})
    assert empirical_eta(fake, 1.0) == pytest.approx(0.5)


def test_empirical_eta_strictly_decreasing_and_convex():
    s = aesd(uniform_distribution(1), 16, 20, trials=2, seed=1)
    gammas = np.linspace(0.0, 10.0, 21)
    vals = np.array([empirical_eta(s, g) for g in gammas])
    assert np.all(np.diff(vals) < 0)
    assert np.all(np.diff(vals, 2) > -1e-12)  # convex in gamma
    with pytest.raises(ValueError):
        empirical_eta(s, -1.0)


def test_empirical_eta_regression_baseline():
    # frozen value for the default-seed uniform summary (n=100, beta=0.8);
    # guards the whole sampling -> spectrum -> eta pipeline
    s = aesd(uniform_distribution(1), 100, 125, trials=50, seed=42)
    assert empirical_eta(s, 10.0) == pytest.approx(0.28212, abs=2e-4)


def test_moment_bridge():
    # histogram moments vs the partition-sum engine, within 5 %
    beta = 0.5
    s = aesd(uniform_distribution(1), 256, 512, trials=12, seed=9)
    for p in (1, 2, 3, 4):
        ana = uniform_moment(p, 1, beta)
        emp = empirical_moment(s, p)
        assert abs(emp - ana) / ana < 0.05


# ---------------------------------------------------------------------------
# scaled-support transform


def test_transform_identity_at_c1():
    s = aesd(uniform_distribution(1), 16, 20, trials=2, seed=1)
    t = transform_scaled_lsd(s, 1.0, s.beta)
    assert t is s


def test_transform_mass_accounting():
    c, beta = 0.8, 0.8
    base = aesd(uniform_distribution(1), 50, int(round(50 / (c * beta))), trials=4, seed=3)
    t = transform_scaled_lsd(base, c, beta)
    assert t.extra_zero_mass == pytest.approx(1 - c)
    assert np.allclose(t.eigenvalues, base.eigenvalues / c)
    widths = np.diff(t.hist_edges)
    assert np.sum(t.hist_density * widths) == pytest.approx(1 - t.total_atom_mass, rel=1e-9)
    # eta of the transform follows the scaling law
    for g in (0.5, 2.0):
        assert empirical_eta(t, g) == pytest.approx(
            (1 - c) + c * empirical_eta(base, g / c), rel=1e-12
        )


def test_transform_rejects_wrong_base():
    base = aesd(uniform_distribution(1), 50, 63, trials=2, seed=3)
    with pytest.raises(ValueError):
        transform_scaled_lsd(base, 0.5, 0.8)
    with pytest.raises(ValueError):
        transform_scaled_lsd(base, 1.5, base.beta / 1.5)


def test_scaled_aesd_comparison_small():
    # desk-scale version of the Fig-1 law; acceptance runs the full sizes
    c, beta, n = 0.8, 0.8, 48
    direct = aesd(hole_distribution(c, d=1), n, int(round(n / beta)), trials=10, seed=21)
    base = aesd(uniform_distribution(1), n, int(round(n / (c * beta))), trials=10, seed=22)
    cmp = compare_scaled_aesd(direct, transform_scaled_lsd(base, c, beta))
    assert cmp.ks_distance < 0.08
    assert cmp.atom_direct == pytest.approx(1 - c, abs=0.05)


# ---------------------------------------------------------------------------
# eta mixture and table


def test_eta_mixture_delta_collapses_to_eta_u():
    gx = GxDiscreteAtoms(atoms=((1.0, 1.0),))
    calls = []

    def eta_u(b, g):
        calls.append((b, g))
        return 0.37

    assert eta_mixture(gx, 1.0, 1, 0.5, 2.0, eta_u) == pytest.approx(0.37)
    assert calls == [(0.5, 2.0)]


def test_eta_mixture_gamma_zero():
    gx = GxDiscreteAtoms(atoms=((2.0, 0.5),))
    assert eta_mixture(gx, 0.5, 1, 0.5, 0.0, lambda b, g: 0.0) == 1.0


def test_eta_mixture_discrete_sum():
    atoms = tuple((y, 0.25) for y in (0.5, 1.0, 1.5, 2.0))
    gx = GxDiscreteAtoms(atoms=atoms)
    val = eta_mixture(gx, 1.0, 2, 0.4, 3.0, lambda b, g: 1.0 / (1.0 + g))
    expect = sum(0.25 / (1.0 + 3.0 * y) for y, _ in atoms)
    assert val == pytest.approx(expect)


def test_eta_mixture_hole_floor():
    c = 0.6
    gx = GxDiscreteAtoms(atoms=((1 / c, c),))
    val = eta_mixture(gx, c, 1, 0.5, 5.0, lambda b, g: 0.2)
    assert val == pytest.approx((1 - c) + c * 0.2)
    assert val > 1 - c


def test_eta_table_basics_and_rangecheck():
    tab = eta_u_table(1, [0.4, 0.8], np.geomspace(0.1, 20, 12), n=24, trials=4, seed=3)
    assert tab.eta(0.5, 0.0) == 1.0
    v = tab.eta(0.6, 1.0)
    assert 0.0 < v < 1.0
    with pytest.raises(EtaTableRangeError):
        tab.eta(0.1, 1.0)
    with pytest.raises(EtaTableRangeError):
        tab.eta(0.5, 100.0)


def test_eta_table_matches_direct_simulation():
    # mid-grid interpolation within 1 % of a directly simulated value
    tab = build_eta_table(1, 64, (0.3, 1.2), (0.2, 30), beta_nodes=12,
                          gamma_nodes=24, trials=20, seed=17)
    beta_q, gamma_q = 0.63, 3.7
    s = aesd(uniform_distribution(1), 64, int(round(64 / beta_q)), trials=60, seed=99)
    direct = empirical_eta(s, gamma_q)
    assert abs(tab.eta(64 / round(64 / beta_q), gamma_q) - direct) / direct < 0.01


def test_eta_table_small_beta_large_gamma_vanishes():
    # eta_u(d, beta, gamma/beta) -> 0 as beta -> 0
    tab = eta_u_table(1, [0.01], np.geomspace(0.5, 2000, 24), n=100, trials=10, seed=8)
    assert tab.eta(0.01, 10.0 / 0.01) < 0.05


def test_eta_table_save_load_roundtrip(tmp_path):
    tab = eta_u_table(1, [0.4, 0.8], np.geomspace(0.1, 10, 8), n=16, trials=3, seed=1)
    path = tmp_path / "tab.json"
    tab.save(str(path))
    back = tab.load(str(path))
    assert np.allclose(back.values, tab.values)
    assert back.eta(0.6, 2.0) == pytest.approx(tab.eta(0.6, 2.0))


def test_asymptotic_mse_scales_gamma():
    gx = GxDiscreteAtoms(atoms=((1.0, 1.0),))
    got = asymptotic_mse(gx, 1.0, 1, 0.5, 2.0, lambda b, g: 1.0 / (1.0 + g))
    assert got == pytest.approx(1.0 / (1.0 + 2.0 / 0.5))


# ---------------------------------------------------------------------------
# batched lookups and the fixed-rule mixture


def per_point_eta(table, beta, gamma):
    """Reference lookup, one point at a time: a PCHIP per beta row in log
    gamma, then a fresh PCHIP through that column in log beta."""
    if gamma == 0.0:
        return 1.0
    beta = np.clip(beta, table.beta_grid[0], table.beta_grid[-1])
    gamma = np.clip(gamma, table.gamma_grid[0], table.gamma_grid[-1])
    lg = np.log(table.gamma_grid)
    col = np.array([float(PchipInterpolator(lg, row, extrapolate=False)(np.log(gamma)))
                    for row in table.values])
    if len(table.beta_grid) == 1:
        return float(col[0])
    return float(PchipInterpolator(np.log(table.beta_grid), col, extrapolate=False)(np.log(beta)))


@st.composite
def tables_and_queries(draw):
    nb = draw(st.integers(1, 6))
    ng = draw(st.integers(2, 9))
    unit = st.floats(0.0, 1.0)
    beta_grid = np.cumsum(0.05 + np.array(draw(st.lists(unit, min_size=nb, max_size=nb))))
    gamma_grid = np.geomspace(0.1, 0.1 * 10 ** draw(st.floats(0.5, 4.0)), ng)
    # eta_u lies in (0, 1]; a floor keeps the relative comparison meaningful
    eta_values = st.floats(0.01, 1.0)
    values = np.array(draw(st.lists(eta_values, min_size=nb * ng, max_size=nb * ng)))
    values = values.reshape(nb, ng)
    table = EtaUTable(d=1, n=8, trials=3, seed=0, beta_grid=beta_grid,
                      gamma_grid=gamma_grid, values=values)
    k = draw(st.integers(1, 12))
    fb = np.array(draw(st.lists(unit, min_size=k, max_size=k)))
    fg = np.array(draw(st.lists(unit, min_size=k, max_size=k)))
    beta = beta_grid[0] * (beta_grid[-1] / beta_grid[0]) ** fb
    gamma = gamma_grid[0] * (gamma_grid[-1] / gamma_grid[0]) ** fg
    gamma[np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))] = 0.0
    return table, beta, gamma


@settings(max_examples=60, deadline=None)
@given(tables_and_queries())
def test_eta_table_array_lookup_matches_per_point(case):
    table, beta, gamma = case
    got = table.eta(beta, gamma)
    assert got.shape == beta.shape
    ref = np.array([per_point_eta(table, b, g) for b, g in zip(beta, gamma)])
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
    assert np.all(got[gamma == 0.0] == 1.0)
    assert isinstance(table.eta(beta[0], gamma[0]), float)
    grid = table.eta(beta[:, None], gamma[None, :])  # arguments broadcast
    assert grid.shape == (beta.size, gamma.size)
    assert np.allclose(np.diagonal(grid), got, rtol=1e-12, atol=0.0)
    # one element outside either axis spoils the whole call
    for bad_beta, bad_gamma in ((table.beta_grid[0] * 0.9, gamma[0] or 1.0),
                                (beta[0], table.gamma_grid[-1] * 1.1)):
        with pytest.raises(EtaTableRangeError):
            table.eta(np.append(beta, bad_beta), np.append(gamma, bad_gamma))


def test_eta_table_array_lookup_rejects_bad_arguments():
    table = EtaUTable(d=1, n=8, trials=3, seed=0, beta_grid=np.array([0.5, 1.0]),
                      gamma_grid=np.array([1.0, 10.0]), values=np.array([[0.6, 0.3], [0.7, 0.4]]))
    with pytest.raises(ValueError):
        table.eta(np.array([0.6, -0.1]), np.array([2.0, 2.0]))
    with pytest.raises(ValueError):
        table.eta(np.array([0.6, 0.7]), np.array([2.0, -2.0]))
    # gamma == 0 is exactly 1 whatever beta is, as for scalars
    assert table.eta(np.array([0.6, -1.0]), 0.0).tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# the numpy PCHIP and KS helpers against scipy


def assert_pchip_matches_scipy(x, y):
    """_pchip against PchipInterpolator at the nodes and between them, with
    the nodes on axis 0 and each column read both at every query and at its
    own query."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    q = np.concatenate([x, np.linspace(x[0], x[-1], 41)])
    ref = PchipInterpolator(x, y, extrapolate=False)(q)
    tol = dict(rtol=1e-13, atol=1e-13 * np.abs(y).max())
    np.testing.assert_allclose(_pchip(x, y[:, None], q), ref, **tol)
    cols = np.repeat(y[:, None], q.size, axis=1)
    np.testing.assert_allclose(_pchip(x, cols, q), ref, **tol)


PCHIP_CASES = {
    "two nodes": ([0.3, 1.7], [2.0, -1.0]),
    "flat runs": ([0, 1, 2, 3, 4, 5, 6], [1, 1, 1, 2, 2, 0.5, 0.5]),
    "extrema": ([0.0, 0.4, 1.5, 1.7, 3.0], [0.0, 1.0, 0.2, 0.9, -0.3]),
    "non-uniform": ([0.0, 0.1, 0.5, 2.0, 2.2, 5.0], [0.1, 0.15, 0.4, 0.41, 0.9, 1.0]),
    # end slopes: the three-point estimate (3*1 - 5)/2 = -1 flips sign, so 0;
    # (3*1 + 5)/2 = 4 exceeds 3*m0 across a sign change of the secants, so 3
    "end flip": ([0, 1, 2], [0, 1, 6]),
    "end clamp": ([0, 1, 2], [0, 1, -4]),
}


@pytest.mark.parametrize("case", PCHIP_CASES)
def test_pchip_matches_scipy(case):
    assert_pchip_matches_scipy(*PCHIP_CASES[case])


def test_pchip_cases_hit_the_end_rules():
    for case, end_slope in (("end flip", 0.0), ("end clamp", 3.0)):
        x, y = PCHIP_CASES[case]
        assert PchipInterpolator(x, y).derivative()(0.0) == end_slope


@pytest.mark.filterwarnings("ignore:overflow")  # scipy's, on secants near 1e-308
@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda k: st.tuples(
    st.lists(st.floats(0.01, 3.0), min_size=k - 1, max_size=k - 1),
    st.lists(st.integers(-3, 3) | st.floats(-3.0, 3.0), min_size=k, max_size=k),
)))
def test_pchip_matches_scipy_random(case):
    # small integers make exact flat runs and sign changes common
    gaps, y = case
    assert_pchip_matches_scipy(np.cumsum([0.0, *gaps]), y)


def exact_ks(a, b):
    """KS statistic from exact fractions, rounded once."""
    return float(max(abs(Fraction(sum(v <= t for v in a), len(a))
                         - Fraction(sum(v <= t for v in b), len(b))) for t in a + b))


@pytest.mark.filterwarnings("ignore:ks_2samp")  # about scipy's p-value only
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=60),
       st.lists(st.integers(0, 12), min_size=1, max_size=90))
def test_ks_distance_matches_ks_2samp(a, b):
    # ties across and within the samples, unequal sizes; scipy rounds the
    # exact fraction too for samples of up to 10,000 values
    got = _ks_distance(np.array(a, dtype=float), np.array(b, dtype=float))
    assert got == ks_2samp(a, b).statistic
    assert got == exact_ks(a, b)


FIG3_BETAS = (0.2, 0.4, 0.6, 0.8)
FIG3_GDB = tuple(range(-10, 31, 2))


def quad_mixture(gx, beta, gamma, eta_u, points=()):
    """Tight adaptive-quadrature reference for int g_x(y) eta_u(beta/y, gamma*y) dy."""
    lo, hi = gx.support
    inside = sorted({p for p in (*gx.breakpoints, *points) if lo < p < hi})
    val, _ = integrate.quad(
        lambda y: float(gx.density(np.array([y]))[0]) * float(eta_u(beta / y, gamma * y)),
        lo, hi, points=inside, limit=1000, epsabs=0.0, epsrel=1e-10,
    )
    return val


def test_mixture_fixed_rule_matches_tight_quad_analytic():
    gx = fading_gx(db_to_linear(5.0))

    def eta_u(b, g):
        return 1.0 / (1.0 + g) * b / (1.0 + b)

    for beta in FIG3_BETAS:
        for gdb in FIG3_GDB:
            gamma = db_to_linear(gdb) / beta
            got = eta_mixture(gx, 1.0, 2, beta, gamma, eta_u)
            assert got == pytest.approx(quad_mixture(gx, beta, gamma, eta_u), rel=1e-5)


def test_mixture_fixed_rule_matches_tight_quad_table():
    gx = fading_gx(db_to_linear(5.0))
    lo, hi = gx.support
    table = build_eta_table(2, 8, (0.2 / hi, 0.8 / lo),
                            (db_to_linear(-10) / 0.8 * lo, db_to_linear(30) / 0.2 * hi),
                            beta_nodes=10, gamma_nodes=16, trials=4, seed=5)
    for beta in (0.2, 0.8):
        for gdb in (-10, 10, 30):
            gamma = db_to_linear(gdb) / beta
            # the table's knots, where its interpolant has a second-derivative jump
            knots = [*(beta / table.beta_grid), *(table.gamma_grid / gamma)]
            got = eta_mixture(gx, 1.0, 2, beta, gamma, table)
            assert got == pytest.approx(quad_mixture(gx, beta, gamma, table, knots), rel=1e-5)


@pytest.mark.parametrize("gx", [
    fading_gx(db_to_linear(5.0)),
    GxDiscreteAtoms(atoms=((0.5, 0.25), (1.0, 0.25), (2.0, 0.25))),
    empirical_density_of_density(fading_distribution(5.0), cells_per_axis=64, bins=16),
], ids=["closed-form", "discrete", "empirical"])
def test_mixture_calls_eta_u_once(gx):
    calls = []

    def eta_u(b, g):
        calls.append(np.shape(b))
        return 1.0 / (1.0 + g)

    assert 0.0 < eta_mixture(gx, 0.75, 2, 0.4, 3.0, eta_u) < 1.0
    assert len(calls) == 1
    assert calls[0] == gx.nodes_weights()[0].shape


def test_mixture_accepts_scalar_returning_eta_u():
    fading = fading_gx(db_to_linear(5.0))
    assert eta_mixture(fading, 1.0, 2, 0.4, 3.0, lambda b, g: 0.2) == pytest.approx(0.2, rel=1e-12)
    hist = GxEmpirical(edges=np.array([0.5, 1.0, 1.5, 2.0]), masses=np.array([0.4, 0.0, 0.6]))
    assert eta_mixture(hist, 0.5, 2, 0.4, 3.0, lambda b, g: 0.2) == pytest.approx(0.6)
    assert hist.nodes_weights()[0].tolist() == [0.75, 1.75]


def test_discrete_atoms_reject_nonpositive_y():
    gx = GxDiscreteAtoms(atoms=((0.0, 0.5), (2.0, 0.5)))
    with pytest.raises(ValueError):
        eta_mixture(gx, 1.0, 2, 0.4, 3.0, lambda b, g: 0.2)
