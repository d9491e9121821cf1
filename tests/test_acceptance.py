"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Three sub-criteria (5b, 6b, 8a) assert finite-size claims that the
measured desk-scale spectra genuinely do not satisfy; they are implemented
faithfully at their stated tolerances and are expected to fail.  The
companion tests (5a, 6a, 8b) cover the parts that hold.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from vanspec.cli import main as cli_main
from vanspec.partitions import (
    _fit_coefficient,
    enumerate_partitions,
    is_noncrossing,
    lattice_count,
    vandermonde_coefficient,
)
from vanspec.reconstruct import generate_spectrum, lmmse, mse_monte_carlo, observe
from vanspec.sampling import uniform_distribution
from vanspec.scenarios import (
    csma_success_profile,
    db_to_linear,
    fading_distribution,
    fading_gx,
    hole_distribution,
    quadrant_hierarchy,
)
from vanspec.spectral import (
    aesd,
    asymptotic_mse,
    build_eta_table,
    build_vandermonde,
    compare_scaled_aesd,
    empirical_eta,
    empirical_moment,
    gram_eigenvalues,
    histogram,
    mixture_span,
    transform_scaled_lsd,
)

from helpers import empirical_density_of_density, partition_from_blocks, received, uniform_moment

SEED = 42


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared tables and summaries


@pytest.fixture(scope="module")
def fading_table():
    # the fx and the lossless fu curves, at beta in [0.2, 0.8], gamma in [0.1, 1000]
    spans = mixture_span([uniform_distribution(2), fading_distribution(5.0)],
                         (0.2, 0.8), (0.1, 1000.0))
    return build_eta_table(2, 10, *spans, beta_nodes=24, gamma_nodes=48, trials=80,
                           seed=SEED + 101)


@pytest.fixture(scope="module")
def csma_profiles():
    return {
        "fig6": csma_success_profile(quadrant_hierarchy([1e-3, 2e-4, 2e-4, 2e-5])),
        "fig7": csma_success_profile(quadrant_hierarchy([5e-3, 1e-3, 1e-3, 1e-4])),
    }


@pytest.fixture(scope="module")
def csma_tables(csma_profiles):
    out = {}
    for key, prof in csma_profiles.items():
        spans = mixture_span([uniform_distribution(2), prof.distribution],
                             (0.2, 0.8), (1.0, 100.0))
        out[key] = build_eta_table(2, 10, *spans, beta_nodes=24, gamma_nodes=48, trials=80,
                                   seed=SEED + 102)
    return out


@pytest.fixture(scope="module")
def hole_table():
    # covers c*beta for c in {0.5, 0.8}, beta in {0.01, 0.2, 0.8} and the
    # corner gamma/(beta*c) up to 2e5
    return build_eta_table(
        1, 100, (0.005, 0.64), (1.5, 2.0e5),
        beta_nodes=12, gamma_nodes=40, trials=12, seed=SEED + 103,
    )


@pytest.fixture(scope="module")
def hole_summaries():
    out = {}
    for c in (0.5, 0.8):
        for beta in (0.01, 0.2, 0.8):
            m = int(round(100 / beta))
            out[c, beta] = aesd(hole_distribution(c, d=1), 100, m, trials=20,
                                seed=SEED + 104)
    return out


# ---------------------------------------------------------------------------
# 1. trace-MSE equals the empirical eta-transform


def test_c01_lmmse_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(8, 257)) if d == 1 else int(rng.integers(3, 17))
        beta = float(rng.uniform(0.1, 2.0))
        m = max(1, int(round(n ** d / beta)))
        gamma = float(10 ** rng.uniform(-1, 2))
        dist = uniform_distribution(d)
        V = build_vandermonde(dist, n, m, seed=rng.integers(2 ** 31))
        a = generate_spectrum(n, d, seed=rng.integers(2 ** 31))
        s, z = observe(V, a, seed=rng.integers(2 ** 31))
        res = lmmse(V, a, received(s, z, 1.0 / gamma), 1.0 / gamma)
        lam = gram_eigenvalues(V)
        eta = float(np.mean(1.0 / (gamma / V.beta * lam + 1.0)))
        worst = max(worst, abs(res.trace_mse - eta))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 60.0
    assert report("1", ok, f"max |trace_mse - eta| = {worst:.3e} over 200 instances, "
                           f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. moment engine vs Monte Carlo


def test_c02_moments_vs_monte_carlo():
    t0 = time.monotonic()
    # lattice-count oracle for the crossing coefficient, checked before use
    crossing = partition_from_blocks([[1, 3], [2, 4]])
    for n in range(2, 11):
        assert lattice_count(crossing, n) == (2 * n ** 3 + n) // 3
    assert vandermonde_coefficient(crossing) == Fraction(2, 3)

    dist1, dist2 = uniform_distribution(1), uniform_distribution(2)
    worst = 0.0
    lines = []
    for d, n, dist in ((1, 512, dist1), (2, 16, dist2)):
        for beta in (0.2, 0.5, 1.0):
            m = int(round(n ** d / beta))
            summary = aesd(dist, n, m, trials=100, seed=SEED + 10 * d)
            for p in (1, 2, 3, 4):
                ana = uniform_moment(p, d, n ** d / m)
                emp = empirical_moment(summary, p)
                rel = abs(emp - ana) / ana
                worst = max(worst, rel)
                lines.append(f"d{d} b{beta} p{p}: {rel:.3%}")
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and elapsed < 600.0
    assert report("2", ok, f"worst relative moment error {worst:.3%} (<= 5%), "
                           f"v crossing = 2/3 exact, {elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 3. noncrossing law


def test_c03_noncrossing_law():
    checked = 0
    for p in range(1, 7):
        for part in enumerate_partitions(p):
            c = _fit_coefficient(part)  # counted: the coefficient table takes 1 as given
            assert 0 < c <= 1, f"v({part}) = {c} outside (0,1]"
            if is_noncrossing(part):
                assert c == 1, f"noncrossing {part} has v = {c}"
            checked += 1
    assert report("3", True, f"{checked} partitions p <= 6: noncrossing => v = 1 "
                             "exactly, all v in (0,1]")


# ---------------------------------------------------------------------------
# 4. scaled-support spectrum law


@pytest.mark.parametrize("c,beta", [(0.8, 0.8), (0.5, 0.2)])
def test_c04_scaling_law(c, beta):
    t0 = time.monotonic()
    n, trials = 100, 50
    direct = aesd(hole_distribution(c, d=1), n, int(round(n / beta)), trials, seed=SEED)
    base = aesd(uniform_distribution(1), n, int(round(n / (c * beta))), trials, seed=SEED + 1)
    cmp = compare_scaled_aesd(direct, transform_scaled_lsd(base, c, beta))
    elapsed = time.monotonic() - t0
    ok = cmp.ks_distance <= 0.05 and abs(cmp.atom_direct - (1 - c)) <= 0.02 and elapsed < 300
    assert report("4", ok,
                  f"c={c} beta={beta}: KS = {cmp.ks_distance:.4f} (<= 0.05), "
                  f"atom = {cmp.atom_direct:.4f} vs {1 - c} (+-0.02), {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 5. MSE floor


GRID_BETA = (0.01, 0.2, 0.8)
GRID_GDB = (0.0, 10.0, 30.0)


def test_c05a_floor_predicted(hole_table):
    worst_margin = np.inf
    corner = {}
    for c in (0.5, 0.8):
        dist = hole_distribution(c)
        for beta in GRID_BETA:
            for gdb in GRID_GDB:
                pred = asymptotic_mse(dist, beta, db_to_linear(gdb), hole_table)
                worst_margin = min(worst_margin, pred - (1 - c))
                if beta == 0.01 and gdb == 30.0:
                    corner[c] = pred
    ok = worst_margin > 0 and all(
        1 - c <= corner[c] <= 1 - c + 0.02 for c in (0.5, 0.8)
    )
    assert report("5a", ok,
                  f"predicted MSE floor margin {worst_margin:.2e} > 0 everywhere; "
                  f"corner values {corner[0.5]:.4f} in [0.5, 0.52], "
                  f"{corner[0.8]:.4f} in [0.2, 0.22]")


def test_c05b_floor_simulated(hole_summaries):
    # Faithful to the stated criterion; the finite-n spectrum undershoots the
    # asymptotic floor at large gamma/beta, so this is expected to fail.
    failures = []
    corner = {}
    for c in (0.5, 0.8):
        for beta in GRID_BETA:
            summary = hole_summaries[c, beta]
            for gdb in GRID_GDB:
                sim = empirical_eta(summary, db_to_linear(gdb) / summary.beta)
                if sim <= 1 - c:
                    failures.append(f"c={c} beta={beta} {gdb:g}dB: {sim:.4f} <= {1 - c}")
                if beta == 0.01 and gdb == 30.0:
                    corner[c] = sim
    in_bracket = all(1 - c <= corner[c] <= 1 - c + 0.02 for c in (0.5, 0.8))
    ok = not failures and in_bracket
    assert report("5b", ok,
                  f"simulated floor violations at {len(failures)}/18 grid points "
                  f"(e.g. {failures[0] if failures else 'none'}); corner "
                  f"{corner[0.5]:.4f} / {corner[0.8]:.4f}")


# ---------------------------------------------------------------------------
# 6. dense-network limit


@pytest.fixture(scope="module")
def dense_l1():
    gx = fading_gx(db_to_linear(5.0))
    dist = fading_distribution(5.0)
    out = {}
    for beta, trials in ((0.5, 100), (0.1, 100), (0.01, 200)):
        m = int(round(100 / beta))
        edges, dens = histogram(aesd(dist, 10, m, trials, seed=SEED + 6), 24)
        avg = np.empty(len(dens))
        for i in range(len(dens)):
            yy = np.linspace(edges[i], edges[i + 1], 64)
            avg[i] = np.trapezoid(gx.density(yy), yy) / (edges[i + 1] - edges[i])
        out[beta] = float(np.sum(np.abs(dens - avg) * np.diff(edges)))
    return out


def test_c06a_dense_limit_monotone(dense_l1):
    ok = dense_l1[0.5] > dense_l1[0.1] > dense_l1[0.01]
    assert report("6a", ok,
                  "L1(AESD, g_x) improves monotonically: "
                  + ", ".join(f"beta={b}: {dense_l1[b]:.3f}" for b in (0.5, 0.1, 0.01)))


def test_c06b_dense_limit_final(dense_l1):
    # Faithful to the stated criterion, and expected to fail at n = 10: the
    # L1 distance there is not monotone in beta, and the m = infinity limit
    # at n = 10 reads 0.173, farther from g_x than this run (README, "Tests
    # and the acceptance suite").
    ok = dense_l1[0.01] <= 0.05
    assert report("6b", ok, f"L1 at beta=0.01 = {dense_l1[0.01]:.3f} (criterion <= 0.05)")


# ---------------------------------------------------------------------------
# 7. fading closed forms


def test_c07_fading_closed_forms():
    worst_b = 0.0
    for a_db in (0.0, 5.0, 10.0):
        a = db_to_linear(a_db)
        quad_b, _ = integrate.dblquad(
            lambda z2, z1: np.exp(-a * (z1 ** 2 + z2 ** 2)),
            -0.5, 0.5, -0.5, 0.5, epsabs=1e-13, epsrel=1e-12,
        )
        worst_b = max(worst_b, abs(1.0 / fading_gx(a).support[1] - quad_b))
    gx = fading_gx(db_to_linear(5.0))
    total, _ = integrate.quad(lambda y: float(gx.density(np.array([y]))[0]),
                              *gx.support, points=list(gx.breakpoints), limit=200)
    emp = empirical_density_of_density(fading_distribution(5.0), cells_per_axis=1000, bins=40)
    widths = np.diff(emp.edges)
    avg = np.empty(len(widths))
    for i, (a_, b_) in enumerate(zip(emp.edges[:-1], emp.edges[1:])):
        yy = np.linspace(a_, b_, 64)
        avg[i] = np.trapezoid(gx.density(yy), yy) / (b_ - a_)
    l1 = float(np.sum(np.abs(emp.masses / widths - avg) * widths))
    ok = worst_b <= 1e-8 and abs(total - 1.0) <= 1e-6 and l1 <= 0.02
    assert report("7", ok,
                  f"normalization |1/b - quad| = {worst_b:.1e} (<= 1e-8), "
                  f"int g_x = {total:.8f} (1 +- 1e-6), measured-histogram L1 = {l1:.4f} (<= 0.02)")


# ---------------------------------------------------------------------------
# 8. end-to-end scenario cross-validation


def _cross_validation_grid(fading_table, csma_profiles, csma_tables):
    gdbs = (0.0, 10.0, 20.0)
    gammas = [db_to_linear(gdb) for gdb in gdbs]
    dist, prof = fading_distribution(5.0), csma_profiles["fig6"]
    rows = []
    for beta in (0.2, 0.4, 0.6, 0.8):
        m = int(round(100 / beta))
        fading = mse_monte_carlo(dist, 10, m, gammas, trials=100, seed=SEED + 8)
        csma = mse_monte_carlo(prof.distribution, 10, m, gammas, trials=100, seed=SEED + 9)
        for gdb, gamma, f_est, c_est in zip(gdbs, gammas, fading, csma):
            pred = asymptotic_mse(dist, beta, gamma, fading_table)
            rows.append(("fading", beta, gdb, pred, f_est.mean_trace_mse))
            pred = asymptotic_mse(prof.distribution, beta, gamma, csma_tables["fig6"])
            rows.append(("csma", beta, gdb, pred, c_est.mean_trace_mse))
    return rows


@pytest.fixture(scope="module")
def cross_validation(fading_table, csma_profiles, csma_tables):
    return _cross_validation_grid(fading_table, csma_profiles, csma_tables)


def test_c08a_cross_validation_full(cross_validation):
    # Faithful to the stated criterion; at n = 10 the mixture prediction
    # overshoots the direct thinned simulation by up to ~35% at 20 dB (the
    # gap closes as n grows), so this is expected to fail.
    t0 = time.monotonic()
    bad = []
    for name, beta, gdb, pred, mc in cross_validation:
        rel = abs(pred - mc) / pred
        if rel > 0.05:
            bad.append(f"{name} b{beta:g} {gdb:g}dB {rel:.1%}")
    ok = not bad and (time.monotonic() - t0) < 1200
    assert report("8a", ok,
                  f"{len(bad)}/24 grid points above 5% ({'; '.join(bad[:4])}...)"
                  if bad else "all 24 points within 5%")


def test_c08b_cross_validation_low_snr(cross_validation):
    # the portion of the grid that finite n = 10 does support
    worst = 0.0
    for name, beta, gdb, pred, mc in cross_validation:
        if gdb == 0.0 or (name == "csma" and gdb == 10.0):
            worst = max(worst, abs(pred - mc) / pred)
    ok = worst <= 0.05
    assert report("8b", ok,
                  f"0 dB grid (both scenarios) + 10 dB (csma): worst rel err {worst:.2%} (<= 5%)")


# ---------------------------------------------------------------------------
# 9. monotonicity suite


def test_c09_monotonicity(fading_table, csma_profiles, csma_tables):
    # empirical eta strictly decreasing in gamma
    gammas = np.geomspace(0.01, 1000, 25)
    for dist, n, m in (
        (uniform_distribution(1), 64, 80),
        (hole_distribution(0.7, d=1), 64, 80),
        (fading_distribution(5.0), 8, 100),
    ):
        s = aesd(dist, n, m, trials=5, seed=SEED + 90)
        vals = [empirical_eta(s, g) for g in np.concatenate([[0.0], gammas])]
        assert all(a > b for a, b in zip(vals, vals[1:])), dist.id

    # predicted MSE curves nondecreasing in beta at fixed gamma
    betas = (0.2, 0.4, 0.6, 0.8)
    curves = []
    dist = fading_distribution(5.0)
    for gdb in (0.0, 10.0, 20.0, 30.0):
        gamma = db_to_linear(gdb)
        curves.append(("fading fx", gdb,
                       [asymptotic_mse(dist, b, gamma, fading_table) for b in betas]))
        curves.append(("fading fu", gdb,
                       [fading_table.eta(b, gamma / b) for b in betas]))
    for key in ("fig6", "fig7"):
        prof, tab = csma_profiles[key], csma_tables[key]
        for gdb in (0.0, 10.0, 20.0):
            gamma = db_to_linear(gdb)
            curves.append((f"csma {key}", gdb,
                           [asymptotic_mse(prof.distribution, b, gamma, tab) for b in betas]))
            curves.append((f"uniform {key}", gdb,
                           [tab.eta(b, gamma / b) for b in betas]))
    bad = [f"{name} @ {gdb:g}dB" for name, gdb, vals in curves
           if not all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))]
    ok = not bad
    assert report("9", ok,
                  f"eta strictly decreasing in gamma (3 spectra); "
                  f"{len(curves)} MSE curves nondecreasing in beta"
                  + (f"; violations: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# 10. determinism of reproduction targets


@pytest.mark.parametrize("figure", ["fig1a", "fig6"])
def test_c10_reproduce_thread_invariance(figure, tmp_path):
    outs = {}
    for threads, sub in ((1, "a"), (2, "b")):
        outdir = tmp_path / sub
        rc = cli_main(["--threads", str(threads), "reproduce", figure,
                       "--out-dir", str(outdir)])
        assert rc == 0
        outs[threads] = sorted(outdir.glob("*.csv"))
    pairs = list(zip(outs[1], outs[2]))
    assert pairs
    same = all(a.read_bytes() == b.read_bytes() for a, b in pairs)
    assert report("10", same,
                  f"{figure}: {len(pairs)} CSV(s) byte-identical across --threads 1 vs 2")
