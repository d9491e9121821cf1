import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erf

from vanspec.moments import (
    asymptotic_moment,
    density_power_integrals,
    moment_table,
)
from vanspec.sampling import uniform_distribution
from vanspec.scenarios import (
    csma_success_profile,
    db_to_linear,
    fading_distribution,
    fading_gx,
    hole_distribution,
    quadrant_hierarchy,
)

from helpers import uniform_moment

K_MAX = 7
KS = range(1, K_MAX + 1)


@pytest.mark.parametrize("c", [0.8, 0.5, 0.3])
def test_integrals_hole_closed_form(c):
    I = density_power_integrals(hole_distribution(c), K_MAX)
    assert I == pytest.approx([c ** (1 - k) for k in KS], rel=1e-12, abs=0)


@pytest.mark.parametrize("a_db", [0.0, 5.0, 10.0])
def test_integrals_fading_closed_form(a_db):
    # int_H (b exp(-a |z|^2))^k dz over the unit square
    a = db_to_linear(a_db)
    b = fading_gx(a).support[1]
    ref = [b ** k * np.pi / (k * a) * erf(np.sqrt(k * a / 4.0)) ** 2 for k in KS]
    I = density_power_integrals(fading_distribution(a_db), K_MAX)
    assert I == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("lambda1", [(1e-3, 2e-4, 2e-4, 2e-5), (5e-3, 1e-3, 1e-3, 1e-4)],
                         ids=["fig6", "fig7"])
def test_integrals_csma_closed_form(lambda1):
    # piecewise-constant density: sum of area * p^k over the strips
    prof = csma_success_profile(quadrant_hierarchy(lambda1))
    strips = list(zip(prof.normalized_success, prof.hierarchy.areas))
    ref = [sum(area * p ** k for p, area in strips) for k in KS]
    I = density_power_integrals(prof.distribution, K_MAX)
    assert I == pytest.approx(ref, rel=1e-12, abs=0)


def test_integrals_uniform():
    for d in (1, 2, 3):
        assert density_power_integrals(uniform_distribution(d), K_MAX) == (1.0,) * K_MAX


def test_integrals_need_gx():
    bare = dataclasses.replace(fading_distribution(5.0), gx=None, id="fading-bare")
    with pytest.raises(ValueError, match="fading-bare"):
        density_power_integrals(bare, 2)
    with pytest.raises(ValueError, match="fading-bare"):
        moment_table(bare, 1.0, 2)


def test_integrals_scaled_uniform():
    I = density_power_integrals(hole_distribution(0.5, d=1), 3)
    assert I == pytest.approx((1.0, 2.0, 4.0))


def test_integrals_fading_closed_form_vs_quadrature():
    dist = fading_distribution(5.0)
    I = density_power_integrals(dist, 2)
    # independent quadrature of the squared density
    val, _ = integrate.dblquad(
        lambda z2, z1: float(dist.density(np.array([[z1, z2]]))[0]) ** 2,
        -0.5, 0.5, -0.5, 0.5, epsabs=1e-12, epsrel=1e-10,
    )
    assert I[0] == pytest.approx(1.0, abs=1e-9)
    assert I[1] == pytest.approx(val, rel=1e-7)


def test_integrals_log_convexity():
    # I_k^2 <= I_{k-1} I_{k+1} on closed-form cases
    for dist in (hole_distribution(0.3), fading_distribution(8.0)):
        I = density_power_integrals(dist, 5)
        for k in range(1, 4):
            assert I[k] ** 2 <= I[k - 1] * I[k + 1] * (1 + 1e-12)


def test_moment_examples():
    assert asymptotic_moment(1, 3, 0.7, [1.0]) == pytest.approx(1.0)
    assert asymptotic_moment(2, 1, 1.0, [1.0, 1.0]) == pytest.approx(2.0)
    assert asymptotic_moment(4, 1, 1.0, [1.0] * 4) == pytest.approx(44 / 3)
    assert uniform_moment(3, 1, 1.0) == pytest.approx(5.0)


def test_moment_table_examples():
    t = moment_table(uniform_distribution(1), 0.5, 3)
    assert t == pytest.approx((1.0, 1.5, 2.75))
    t2 = moment_table(uniform_distribution(2), 1.0, 4)
    assert t2[3] == pytest.approx(14 + 4 / 9)
    t3 = moment_table(hole_distribution(0.5, d=1), 1.0, 2)
    assert t3[1] == pytest.approx(3.0)


def test_moment_requires_enough_integrals():
    with pytest.raises(ValueError):
        asymptotic_moment(3, 1, 1.0, [1.0, 1.0])


def test_moment_rejects_bad_args():
    with pytest.raises(ValueError):
        asymptotic_moment(0, 1, 1.0, [1.0])
    with pytest.raises(ValueError):
        asymptotic_moment(2, 1, -0.5, [1.0, 1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: density_power_integrals(uniform_distribution(1), 0), "P must be >= 1"),
    (lambda: asymptotic_moment(1, 0, 0.5, [1.0]), "d must be >= 1"),
], ids=["P-zero", "d-zero"])
def test_each_moments_guard_names_its_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(0.05, 1.0),
    beta=st.floats(0.05, 3.0),
    p=st.integers(1, 5),
    d=st.integers(1, 3),
)
def test_scaling_consistency_identity(c, beta, p, d):
    # moments of the scaled-support density equal c^(1-p) times the uniform
    # moments at aspect c*beta (exact identity of the partition sum)
    I = [c ** (1 - k) for k in range(1, p + 1)]
    lhs = asymptotic_moment(p, d, beta, I)
    rhs = c ** (1 - p) * uniform_moment(p, d, c * beta)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_beta_polynomial_structure():
    # M_p(beta) - beta^(p-1) has positive coefficients and is increasing in beta
    for p in (2, 3, 4):
        vals = [uniform_moment(p, 1, b) for b in (0.1, 0.5, 1.0, 2.0)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_hankel_psd():
    for beta in (0.2, 0.5, 1.0):
        ms = [uniform_moment(p, 1, beta) for p in range(1, 7)]
        full = [1.0] + ms
        H = np.array([[full[i + j] for j in range(4)] for i in range(4)])
        assert np.linalg.eigvalsh(H).min() > -1e-9
