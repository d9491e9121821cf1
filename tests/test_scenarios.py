import numpy as np
import pytest
from scipy import integrate

from vanspec.moments import density_power_integrals
from vanspec.scenarios import (
    ClusterHierarchy,
    CollisionParams,
    csma_success_profile,
    db_to_linear,
    default_collision_model,
    fading_distribution,
    fading_gx,
    hole_distribution,
    quadrant_hierarchy,
)
from vanspec.sampling import uniform_distribution
from vanspec.spectral import asymptotic_mse, build_eta_table, mixture_span

from helpers import empirical_density_of_density, fading_gx_cdf, sampler_chi2_pvalue


# ---------------------------------------------------------------------------
# fading


def test_fading_normalization_closed_form_vs_quadrature():
    for a_db in (0.0, 5.0, 10.0):
        a = db_to_linear(a_db)
        val, _ = integrate.dblquad(
            lambda z2, z1: np.exp(-a * (z1 ** 2 + z2 ** 2)),
            -0.5, 0.5, -0.5, 0.5, epsabs=1e-12, epsrel=1e-11,
        )
        assert 1.0 / fading_gx(a).support[1] == pytest.approx(val, abs=1e-8)
        dist = fading_distribution(a_db)
        total, _ = integrate.dblquad(
            lambda z2, z1: float(dist.density(np.array([[z1, z2]]))[0]),
            -0.5, 0.5, -0.5, 0.5, epsabs=1e-12, epsrel=1e-11,
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_fading_zero_loss_limit():
    dist = fading_distribution(-60.0)  # a = 1e-6
    rng = np.random.default_rng(0)
    z = rng.random((1000, 2)) - 0.5
    assert np.max(np.abs(dist.density(z) - 1.0)) < 1e-5


def test_fading_density_ratio():
    dist = fading_distribution(5.0)
    a = db_to_linear(5.0)
    ratio = dist.density(np.array([[0.0, 0.0]]))[0] / dist.density(np.array([[0.5, 0.5]]))[0]
    assert ratio == pytest.approx(np.exp(a / 2))


def test_fading_gx_normalizes_and_cdf_consistent():
    for a_db in (0.0, 5.0, 10.0):
        gx = fading_gx(db_to_linear(a_db))
        cdf = fading_gx_cdf(db_to_linear(a_db))
        lo, hi = gx.support
        total, _ = integrate.quad(
            lambda y: float(gx.density(np.array([y]))[0]),
            lo, hi, points=list(gx.breakpoints), limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)
        # the oracle's cdf at the support ends
        assert cdf(np.array([lo]))[0] == pytest.approx(0.0, abs=1e-12)
        assert cdf(np.array([hi - 1e-12]))[0] == pytest.approx(1.0, abs=1e-9)
        # and on both branches, against the integrated density
        for mid in (0.5 * (lo + gx.breakpoints[0]), 0.5 * (gx.breakpoints[0] + hi)):
            part, _ = integrate.quad(
                lambda y: float(gx.density(np.array([y]))[0]),
                lo, mid, points=[p for p in gx.breakpoints if p < mid], limit=200,
            )
            assert cdf(np.array([mid]))[0] == pytest.approx(part, abs=1e-8)


def test_fading_gx_weights_are_probabilities():
    # the raw rule misses 1 by rounding and quadrature error (1 - 2.6e-14 at 15 dB)
    for a_db in (0.0, 5.0, 10.0, 15.0):
        _, w = fading_gx(db_to_linear(a_db)).nodes_weights()
        assert abs(w.sum() - 1.0) <= 1e-15, a_db


def test_fading_gx_support_trend_with_threshold():
    # low threshold concentrates mass near the top of the density range;
    # high threshold pushes support toward zero
    lo5, hi5 = fading_gx(db_to_linear(5.0)).support
    lo10, hi10 = fading_gx(db_to_linear(10.0)).support
    assert lo5 / hi5 > 0.15
    assert lo10 / hi10 < 0.05


def test_fading_gx_matches_measured_density_histogram():
    a = db_to_linear(5.0)
    dist = fading_distribution(5.0)
    gx = fading_gx(a)
    emp = empirical_density_of_density(dist, cells_per_axis=1000, bins=40)
    centers = 0.5 * (emp.edges[:-1] + emp.edges[1:])
    widths = np.diff(emp.edges)
    # bin-averaged closed form
    avg = np.empty_like(centers)
    for i, (a_, b_) in enumerate(zip(emp.edges[:-1], emp.edges[1:])):
        yy = np.linspace(a_, b_, 64)
        avg[i] = np.trapezoid(gx.density(yy), yy) / (b_ - a_)
    l1 = np.sum(np.abs(emp.masses / widths - avg) * widths)
    assert l1 <= 0.02


def test_fading_sampler_matches_density():
    assert sampler_chi2_pvalue(fading_distribution(5.0), draws=100_000, seed=0) > 1e-3


def test_fading_power_integral_consistency():
    # g_x is the density of f under the uniform measure on the support, so
    # |A| E[y] = 1 (total mass) and |A| E[y^2] = I_2
    dist = fading_distribution(5.0)
    gx = dist.gx
    mean, _ = integrate.quad(
        lambda y: y * float(gx.density(np.array([y]))[0]),
        *gx.support, points=list(gx.breakpoints), limit=200,
    )
    second, _ = integrate.quad(
        lambda y: y ** 2 * float(gx.density(np.array([y]))[0]),
        *gx.support, points=list(gx.breakpoints), limit=200,
    )
    I = density_power_integrals(dist, 2)
    assert dist.support_measure * mean == pytest.approx(1.0, rel=1e-6)
    assert dist.support_measure * second == pytest.approx(I[1], rel=1e-6)


def test_fading_mse_gamma_zero_is_one():
    assert asymptotic_mse(fading_distribution(5.0), 0.4, 0.0, lambda b, g: 0.5) == 1.0


@pytest.fixture(scope="module")
def small_eta_table():
    spans = mixture_span([uniform_distribution(2), fading_distribution(5.0)],
                         (0.2, 0.8), (1.0, 100.0))
    return build_eta_table(2, 8, *spans, beta_nodes=16, gamma_nodes=24, trials=30, seed=77)


def test_fading_degrades_mse_and_worsens_with_beta(small_eta_table):
    # losses cost reconstruction quality at equal delivered-sample count,
    # and the penalty grows with the aspect ratio at high SNR
    dist = fading_distribution(5.0)
    gaps = {}
    for beta in (0.2, 0.8):
        for gamma in (1.0, 100.0):
            fx = asymptotic_mse(dist, beta, gamma, small_eta_table)
            fu = small_eta_table.eta(beta, gamma / beta)
            assert fx >= fu - 2e-3
            gaps[beta, gamma] = fx - fu
    assert gaps[0.8, 100.0] > gaps[0.2, 100.0]
    assert gaps[0.8, 100.0] > gaps[0.8, 1.0]
    # low-aspect penalty is small in absolute terms
    assert gaps[0.2, 100.0] < 0.01


# ---------------------------------------------------------------------------
# holes


def test_hole_is_uniform_at_c1():
    dist = hole_distribution(1.0)
    rng = np.random.default_rng(1)
    z = rng.random((100, 1)) - 0.5
    assert np.allclose(dist.density(z), 1.0)
    assert dist.support_measure == 1.0


def test_hole_density_and_measure():
    dist = hole_distribution(0.5, d=2)
    assert dist.support_measure == pytest.approx(0.5)
    inside = dist.density(np.array([[0.0, 0.0]]))[0]
    outside = dist.density(np.array([[0.49, 0.49]]))[0]
    assert inside == pytest.approx(2.0)
    assert outside == 0.0
    pts = dist.sampler(0, 2000)
    assert np.all(np.abs(pts) <= 0.5 ** 0.5 / 2 + 1e-12)


def test_hole_sampler_gof():
    assert sampler_chi2_pvalue(hole_distribution(0.5, d=1), draws=100_000, seed=3) > 1e-3


def test_hole_mse_floor():
    c = 0.5
    val = asymptotic_mse(hole_distribution(c), 0.4, 10.0, lambda b, g: 1.0 / (1.0 + g))
    assert val > 1 - c
    # mixture collapses to 1 - c + c * eta_u(c*beta, gamma/(c*beta))
    assert val == pytest.approx((1 - c) + c / (1.0 + 10.0 / (0.4 * c)))


def test_hole_rejects_bad_c():
    with pytest.raises(ValueError):
        hole_distribution(0.0)
    with pytest.raises(ValueError):
        hole_distribution(1.2)


@pytest.mark.parametrize("a_db", [float("nan"), float("inf"), float("-inf")])
def test_fading_rejects_non_finite_threshold(a_db):
    # a NaN ratio once passed the a <= 0 check and hung the rejection sampler
    with pytest.raises(ValueError, match="a must be finite and > 0"):
        fading_distribution(a_db)
    with pytest.raises(ValueError, match="a must be finite and > 0"):
        fading_gx(db_to_linear(a_db))


# ---------------------------------------------------------------------------
# collision model + csma


def test_collision_model_trivial_cases():
    assert default_collision_model(1, 5.0) == 0.0
    assert default_collision_model(10, 0.0) == 0.0


def test_collision_model_closed_form():
    # 1 - 0.95^9 without the vulnerability factor
    params = CollisionParams(vulnerability_slots=1.0)
    assert default_collision_model(10, 0.05, params) == pytest.approx(1 - 0.95 ** 9)
    # default two-slot window squares the survival factor
    assert default_collision_model(10, 0.05) == pytest.approx(1 - 0.95 ** 18)


def test_collision_model_monotone_in_load_and_nodes():
    loads = np.linspace(0, 0.2, 10)
    vals = [default_collision_model(8, l) for l in loads]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    sizes = [default_collision_model(m, 0.05) for m in (2, 4, 8, 16)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_csma_lossless_network():
    hier = quadrant_hierarchy([0.0, 0.0, 0.0, 0.0])
    prof = csma_success_profile(hier)
    assert np.allclose(prof.normalized_success, 1.0)
    assert prof.distribution.gx.atoms == (((1.0, 0.25),) * 4)
    rng_pts = prof.distribution.sampler(0, 500)
    assert np.all(np.abs(rng_pts) <= 0.5)


def test_csma_traffic_recursion_by_hand():
    pc = 0.1

    def flat_model(m_nodes, load):
        return 0.0 if (m_nodes == 1 or load == 0) else pc

    hier = ClusterHierarchy(
        areas=(1.0,), H=3, nodes=((5, 4, 3),), lambda1=(0.01,),
        collision_model=flat_model,
    )
    prof = csma_success_profile(hier)
    lam2 = 5 * 0.01 * 0.9
    lam3 = 4 * lam2 * 0.9
    assert prof.loads[0].tolist() == pytest.approx([0.01, lam2, lam3])
    assert prof.success[0] == pytest.approx(0.9 ** 3)
    assert prof.normalized_success[0] == pytest.approx(1.0)  # single area renormalizes


def test_csma_normalization_identity():
    prof = csma_success_profile(quadrant_hierarchy([1e-3, 2e-4, 2e-4, 2e-5]))
    areas = np.asarray(prof.hierarchy.areas)
    assert float(np.dot(areas, prof.normalized_success)) == pytest.approx(1.0, rel=1e-12)
    assert np.dot(areas, [y for y, _ in prof.distribution.gx.atoms] * np.ones(4)) > 0


def test_csma_end_to_end_below_layer_min():
    prof = csma_success_profile(quadrant_hierarchy([5e-3, 1e-3, 1e-3, 1e-4]))
    assert np.all(prof.success <= prof.layer_success.min(axis=1) + 1e-12)


def test_csma_monotone_in_load():
    low = csma_success_profile(quadrant_hierarchy([1e-3, 2e-4, 2e-4, 2e-5]))
    high = csma_success_profile(quadrant_hierarchy([5e-3, 1e-3, 1e-3, 1e-4]))
    assert np.all(high.collision >= low.collision - 1e-12)
    assert np.all(high.success <= low.success + 1e-12)
    # bumping a single area's offered load never lowers any collision prob
    bumped = csma_success_profile(quadrant_hierarchy([1e-3, 8e-4, 2e-4, 2e-5]))
    assert np.all(bumped.collision >= low.collision - 1e-12)


def test_csma_sampler_and_density_consistent():
    prof = csma_success_profile(quadrant_hierarchy([5e-3, 1e-3, 1e-3, 1e-4]))
    assert sampler_chi2_pvalue(prof.distribution, draws=100_000, seed=5) > 1e-3


def test_csma_rejects_saturated_collision():
    def broken(m_nodes, load):
        return 1.0

    hier = ClusterHierarchy(
        areas=(1.0,), H=1, nodes=((5,),), lambda1=(0.5,), collision_model=broken
    )
    with pytest.raises(ValueError):
        csma_success_profile(hier)


def test_collision_model_saturates_at_one():
    # an attempt probability q >= 1 collides with certainty
    assert default_collision_model(2, 1.0) == 1.0
    assert default_collision_model(3, 0.5, CollisionParams(backoff_factor=4.0)) == 1.0


def _hierarchy(**change):
    return ClusterHierarchy(**{"areas": (1.0,), "H": 1, "nodes": ((2,),), "lambda1": (0.1,),
                               **change})


def _all_but_an_ulp(m_nodes, load):
    return float(np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("call, message", [
    (lambda: default_collision_model(0, 0.1), "m_nodes must be >= 1"),
    (lambda: default_collision_model(2, -0.1), "load must be >= 0"),
    (lambda: _hierarchy(areas=(), nodes=()), "need at least one area and one layer"),
    (lambda: _hierarchy(H=0, nodes=((),)), "need at least one area and one layer"),
    (lambda: _hierarchy(areas=(1.5, -0.5), nodes=((2,), (2,)), lambda1=(0.1, 0.1)),
     "area measures must be positive"),
    # each layer passes 2^-53 of the traffic: 25 layers underflow to zero
    (lambda: csma_success_profile(_hierarchy(H=25, nodes=((1,) * 25,),
                                             collision_model=_all_but_an_ulp)),
     "no traffic survives the hierarchy"),
], ids=["no-nodes", "negative-load", "no-area", "no-layer", "negative-area", "no-traffic"])
def test_each_scenarios_guard_names_its_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_cluster_hierarchy_validation():
    with pytest.raises(ValueError):
        ClusterHierarchy(areas=(0.5, 0.4), H=1, nodes=((2,), (2,)), lambda1=(0.1, 0.1))
    with pytest.raises(ValueError):
        ClusterHierarchy(areas=(0.5, 0.5), H=2, nodes=((2,), (2,)), lambda1=(0.1, 0.1))

