import dataclasses
import functools
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.stats import ks_2samp, norm

from vanspec import sampling, spectral
from vanspec.reconstruct import mse_monte_carlo
from vanspec.sampling import GxDiscreteAtoms, uniform_distribution
from vanspec.spectral import (
    ATOM_TOL_REL,
    DFoldVandermonde,
    EtaTableRangeError,
    EtaUTable,
    SpectrumSummary,
    _gram_view,
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
    histogram,
    mixture_span,
    read_record,
    summarize_eigenvalues,
    transform_scaled_lsd,
)
from vanspec.scenarios import (
    csma_success_profile,
    db_to_linear,
    fading_distribution,
    fading_gx,
    hole_distribution,
    quadrant_hierarchy,
)

from helpers import (
    GxEmpirical,
    csma_fourier,
    empirical_density_of_density,
    exact_phase_powers,
    fading_fourier,
    gram_matrix,
    gx_distribution,
    hole_fourier,
    multi_indices,
    point_distribution,
    real_twin,
    uniform_fourier,
    uniform_moment,
    vandermonde_entries,
)


# ---------------------------------------------------------------------------
# matrix construction


def test_multi_index_order():
    L = multi_indices(2, 2)
    assert L.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_build_zero_phase_column():
    V = build_vandermonde(point_distribution([[0.0]]), 2, 1, seed=0)
    assert np.allclose(vandermonde_entries(V), [[1.0], [1.0]])


def test_build_quarter_phase_column():
    V = build_vandermonde(point_distribution([[0.25]]), 2, 1, seed=0)
    assert np.allclose(vandermonde_entries(V)[:, 0], [1.0, -1j])


def test_build_modulus_and_row_order():
    rng = np.random.default_rng(7)
    pts = rng.random((3, 2)) - 0.5
    V = build_vandermonde(point_distribution(pts), 2, 3, seed=0)
    assert vandermonde_entries(V).shape == (4, 3)
    assert np.allclose(np.abs(vandermonde_entries(V)), 1 / np.sqrt(3))
    # row nu = l1 + 2*l2
    for q in range(3):
        for l1 in (0, 1):
            for l2 in (0, 1):
                expected = np.exp(-2j * np.pi * (l1 * pts[q, 0] + l2 * pts[q, 1])) / np.sqrt(3)
                assert np.isclose(vandermonde_entries(V)[l1 + 2 * l2, q], expected)


def test_build_deterministic_and_beta():
    dist = uniform_distribution(1)
    V1 = build_vandermonde(dist, 8, 10, seed=5)
    V2 = build_vandermonde(dist, 8, 10, seed=5)
    assert np.array_equal(vandermonde_entries(V1), vandermonde_entries(V2))
    assert V1.beta == pytest.approx(0.8)


def test_build_rejects_oversize():
    with pytest.raises(ValueError):
        build_vandermonde(uniform_distribution(2), 40, 10, seed=0)


U = 2.0 ** -53  # unit roundoff of float64
needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double"
)


def table_error(table: np.ndarray, j, x) -> np.ndarray:
    """|table - exp(-2*pi*i j x)| against the long-double reference."""
    re, im = exact_phase_powers(j, x)
    return np.hypot(table.real.astype(np.longdouble) - re, table.imag.astype(np.longdouble) - im)


def running_product_bound(k, step: int, x: np.ndarray) -> np.ndarray:
    """First-order error bound on row k of _powers(., step, x), the product of
    k factors z~ = fl(exp(-2*pi*i fl(2*pi) fl(step x))).  The phase takes
    three roundings, so |z~ - z| <= 3u |2*pi step x| + sqrt(2) u (cos and sin
    within an ulp), and z~^k inherits k times that.  Each of the k - 1
    products adds sqrt(5) u (Brent, Percival & Zimmermann, Math. Comp. 76,
    2007).  The 1.01 covers the second-order terms."""
    k = np.asarray(k, dtype=float)[:, None]
    phase = 2 * np.pi * step * np.abs(x)[None, :]
    first = k * (3 * U * phase + np.sqrt(2) * U) + np.maximum(k - 1, 0) * np.sqrt(5) * U
    return 1.01 * first


@needs_long_double
def test_power_tables_within_the_running_product_bound():
    # d = 1 at n = 512: coarse rows are powers k b of z (b = 23, k b up to
    # 506), fine rows powers 0..22; d = 2 at n = 10: coarse rows are axis 2's
    # powers 0..9, fine rows axis 1's -9..9 (the negative half conjugated)
    rng = np.random.default_rng(11)
    x = np.concatenate([[-0.5, 0.5 - 2 ** -53, 0.0, 0.25], rng.random(60) - 0.5])
    V = DFoldVandermonde(n=512, d=1, m=x.size, points=x[:, None])
    coarse, fine = V.power_tables
    k = np.arange(coarse.shape[0])
    assert coarse.shape == (23, x.size) and fine.shape == (23, x.size)
    assert np.all(table_error(coarse, 23 * k, x) <= running_product_bound(k, 23, x))
    assert np.all(table_error(fine, k, x) <= running_product_bound(k, 1, x))

    pts = np.stack([x, rng.permutation(x)], axis=1)
    V = DFoldVandermonde(n=10, d=2, m=x.size, points=pts)
    coarse, fine = V.power_tables
    k, j = np.arange(10), np.arange(-9, 10)
    assert coarse.shape == (10, x.size) and fine.shape == (19, x.size)
    assert np.all(table_error(coarse, k, pts[:, 1]) <= running_product_bound(k, 1, pts[:, 1]))
    assert np.all(table_error(fine, j, pts[:, 0]) <= running_product_bound(np.abs(j), 1, pts[:, 0]))


@needs_long_double
def test_gram_matches_long_double_reference():
    # every c(j) of the (512, 1024) Gram within 1e-14 of its long-double sum
    n, m = 512, 1024
    V = build_vandermonde(uniform_distribution(1), n, m, seed=5)
    re, im = exact_phase_powers(np.arange(n), V.points[:, 0])
    c = re.mean(axis=1) + 1j * im.mean(axis=1)  # j >= 0; c(-j) = conj c(j)
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    ref = np.where(lag >= 0, c[np.abs(lag)], c[np.abs(lag)].conj())
    assert np.abs(gram_matrix(V) - ref).max() <= 1e-14


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


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 3]).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, GATE_N[d]))),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([None, 0.0, 0.25]),
    st.integers(0, 2 ** 32 - 1),
)
def test_real_twin_eigenvalues_match_complex(dn, side, mass, seed):
    # the twin built from c is bitwise the twin of the complex Gram, exactly
    # symmetric, and its spectrum is the complex Gram's, for odd and even n,
    # m below n^d (an atom at zero), at and above
    (d, n), nd = dn, dn[1] ** dn[0]
    m = max(1, nd + side * (nd // 2 + 1))
    rng = np.random.default_rng(seed)
    x = rng.random((m, d)) - 0.5
    if mass is not None:
        x[rng.random(m) < 0.5] = mass
    V = DFoldVandermonde(n=n, d=d, m=m, points=x)
    G = gram_matrix(V)
    R = V.twin
    assert np.array_equal(R, real_twin(G))
    assert R.dtype == np.float64 and R.flags.c_contiguous
    assert np.array_equal(R, R.T)
    ref = np.linalg.eigvalsh(G)
    assert np.abs(gram_eigenvalues(V) - ref).max() <= 1e-12 * ref[-1]


def test_aesd_eigensolves_are_real(monkeypatch):
    # one real symmetric eigensolve per trial, through np.linalg.eigvalsh
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append((a.dtype, a.shape))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    aesd(uniform_distribution(2), 5, 40, trials=7, seed=3, threads=2)
    assert calls == [(np.dtype(np.float64), (25, 25))] * 7


def _fourier_cases():
    a = db_to_linear(5.0)
    csma = csma_success_profile(quadrant_hierarchy([5e-3, 1e-3, 1e-3, 1e-4]))  # fig7's loads
    return [
        pytest.param(uniform_distribution(1), uniform_fourier, 16, 61, id="uniform-d1"),
        pytest.param(uniform_distribution(2), uniform_fourier, 5, 62, id="uniform-d2"),
        pytest.param(hole_distribution(0.8, 1), functools.partial(hole_fourier, 0.8), 16, 63,
                     id="hole-c0.8-d1"),
        pytest.param(hole_distribution(0.6, 2), functools.partial(hole_fourier, 0.6), 5, 64,
                     id="hole-c0.6-d2"),
        pytest.param(fading_distribution(5.0), functools.partial(fading_fourier, a), 5, 65,
                     id="fading-5dB"),
        pytest.param(csma.distribution, functools.partial(csma_fourier, csma), 5, 66,
                     id="csma-fig7"),
    ]


@pytest.mark.parametrize("dist, f_hat, n, seed", _fourier_cases())
def test_gram_sums_average_to_the_density_fourier_coefficients(dist, f_hat, n, seed):
    # E c(j) = f_hat(j) at every m: over 400 trials at m = 40, the mean of
    # each Gram sum sits within a few standard errors of the density's exact
    # Fourier coefficient.  That ties the sampler to its density and to what
    # the Gram sees.  One lag of each +-j pair (c(-j) = conj c(j)); the real
    # and imaginary means are K = 2 x lags tests, each held to the Bonferroni
    # bound of a family-wise level of 1e-3.
    trials = 400
    # lags in the array order of c (axis d first), first nonzero entry positive
    lags = np.array([j for j in itertools.product(range(1 - n, n), repeat=dist.d)
                     if next((v for v in j if v), 0) > 0])
    at = tuple(np.maximum(lags, 0).T) + tuple(np.maximum(-lags, 0).T)  # T[l, l'] = c(l - l')

    def sums(trial_seed):
        T = _gram_view(build_vandermonde(dist, n, 40, trial_seed))
        return np.append(T[at], T[(0,) * 2 * dist.d])

    c = np.array(spectral._run_trials(sums, trials, seed, threads=1))
    assert np.all(c[:, -1] == 1.0)
    c, want = c[:, :-1], f_hat(lags[:, ::-1])
    z = np.concatenate([(part(c).mean(axis=0) - part(want))
                        / (part(c).std(axis=0, ddof=1) / np.sqrt(trials))
                        for part in (np.real, np.imag)])
    assert np.abs(z).max() <= norm.ppf(1 - 1e-3 / (2 * z.size))


def _psd_floor(tmp_path, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([-1e-3, 1.0]))
    gram_eigenvalues(build_vandermonde(uniform_distribution(1), 2, 2, seed=0))


def _load_list(tmp_path, monkeypatch):
    (tmp_path / "tab.json").write_text("[1, 2]")
    EtaUTable.load(str(tmp_path / "tab.json"))


ONE_NODE_TABLE = EtaUTable(d=1, n=8, trials=2, seed=0, beta_grid=np.array([0.5]),
                           gamma_grid=np.array([2.0]), values=np.array([[0.4]]))


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp, mp: build_vandermonde(uniform_distribution(1), 0, 4, seed=0), ValueError,
     "n and m must be >= 1"),
    (lambda tmp, mp: build_vandermonde(dataclasses.replace(
        uniform_distribution(2), sampler=lambda seed, m: np.zeros((m, 1))), 2, 4, seed=0),
     ValueError, r"returned shape \(4, 1\), wanted \(4, 2\)"),
    (_psd_floor, RuntimeError, "eigenvalue -0.001 below PSD tolerance"),
    (_load_list, ValueError, r"eta_table must be a JSON object, got \[1, 2\]"),
    (lambda tmp, mp: eta_u_table(1, [4, 0], [2.0], n=4, trials=1, seed=0), ValueError,
     "need every m >= 1 and every gamma > 0"),
    (lambda tmp, mp: eta_u_table(1, [4], [0.0, 2.0], n=4, trials=1, seed=0), ValueError,
     "need every m >= 1 and every gamma > 0"),
    (lambda tmp, mp: eta_mixture(uniform_distribution(2), 0.5, 2.0, ONE_NODE_TABLE), ValueError,
     "eta_u table has d=1, mixture needs d=2"),
    # only numpy's refusal of finite-sized bins is widened; any other error stands
    (lambda tmp, mp: histogram(SpectrumSummary(np.array([[0.5, 1.0, 2.0]]), 3), bins=0),
     ValueError, "`bins` must be positive"),
], ids=["n-zero", "sampler-shape", "psd-floor", "table-not-object", "table-m-zero",
        "table-gamma-zero", "mixture-d", "histogram-bins-zero"])
def test_each_spectral_guard_names_its_fault(tmp_path, monkeypatch, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path, monkeypatch)


@pytest.mark.parametrize("key, entry, message", [
    ("beta_grid", [True, 2.0], "eta_table.beta_grid must be a number, got True"),
    ("gamma_grid", ["0.5", 5.0], "eta_table.gamma_grid must be a number, got '0.5'"),
    ("values", [[0.6, False], [0.4, 0.3]], "eta_table.values must be a number, got False"),
    ("values", [[0.6, 0.5], [0.4, "0.3"]], "eta_table.values must be a number, got '0.3'"),
], ids=["beta-grid-bool", "gamma-grid-string", "values-bool", "values-string"])
def test_eta_table_load_takes_numbers_only(tmp_path, key, entry, message):
    # a float conversion once read true as 1.0 and "0.5" as 0.5
    table = {"d": 1, "n": 8, "trials": 2, "seed": 0, "beta_grid": [0.5, 2.0],
             "gamma_grid": [0.5, 5.0], "values": [[0.6, 0.5], [0.4, 0.3]], key: entry}
    (tmp_path / "tab.json").write_text(json.dumps(table))
    with pytest.raises(ValueError, match=re.escape(message)):
        EtaUTable.load(str(tmp_path / "tab.json"))


TABLE_FIELDS = [f.name for f in dataclasses.fields(EtaUTable)]
increasing_grid = st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=4, unique=True).map(sorted)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), beta_grid=increasing_grid, gamma_grid=increasing_grid,
       ints=st.lists(st.integers(-2 ** 63, 2 ** 63), min_size=4, max_size=4))
def test_eta_table_file_round_trips_and_names_a_changed_key(tmp_path_factory, data, beta_grid,
                                                            gamma_grid, ints):
    values = data.draw(arrays(np.float64, (len(beta_grid), len(gamma_grid)),
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    table = EtaUTable(*ints, np.array(beta_grid), np.array(gamma_grid), values)
    path = str(tmp_path_factory.getbasetemp() / "round-trip.json")
    table.save(path)
    back = EtaUTable.load(path)
    for name in TABLE_FIELDS:
        assert np.array_equal(getattr(back, name), getattr(table, name)), name
    saved = json.loads(open(path, encoding="utf-8").read())
    extra = data.draw(st.text(min_size=1).filter(lambda k: k not in saved))
    dropped = data.draw(st.sampled_from(TABLE_FIELDS))
    ragged = saved["values"] + [saved["values"][0] + [0.5]]
    for change, message in (({**saved, extra: 0}, f"unknown key 'eta_table.{extra}'"),
                            ({k: v for k, v in saved.items() if k != dropped},
                             f"missing key 'eta_table.{dropped}'"),
                            ({**saved, "values": ragged}, "eta_table.values is ragged")):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(change, fh)
        with pytest.raises(ValueError, match=re.escape(message)):
            EtaUTable.load(path)


RECORD = {"n": int, "x": float, "name?": str, "rows": [[float]], "sub?": {"k": int}}
GOOD = {"n": 2, "x": 1, "rows": [[1, 2.5], [0.0, -3]]}


def test_read_record_reads_a_good_record():
    # an integer where a float belongs reads as a float; keys left out stay out
    record = read_record({**GOOD, "sub": {"k": 7}}, RECORD, "rec")
    assert record == {"n": 2, "x": 1.0, "rows": [[1.0, 2.5], [0.0, -3.0]], "sub": {"k": 7}}
    assert type(record["x"]) is float and type(record["rows"][1][1]) is float
    assert "name" not in record


@pytest.mark.parametrize("change, message", [
    ({"y": 1}, "unknown key 'rec.y' (rec takes n, x, name, rows, sub)"),
    ({"sub": {"k": 1, "j": 2}}, "unknown key 'rec.sub.j' (rec.sub takes k)"),
    ({"sub": {}}, "missing key 'rec.sub.k'"),
    ({"sub": 5}, "rec.sub must be a JSON object, got 5"),
    ({"n": True}, "rec.n must be an integer, got True"),
    ({"n": 2.0}, "rec.n must be an integer, got 2.0"),
    ({"n": "2"}, "rec.n must be an integer, got '2'"),
    ({"x": False}, "rec.x must be a number, got False"),
    ({"x": "1"}, "rec.x must be a number, got '1'"),
    ({"x": None}, "rec.x must be a number, got None"),
    ({"x": json.loads("NaN")}, "rec.x must be finite, got nan"),
    ({"x": json.loads("-Infinity")}, "rec.x must be finite, got -inf"),
    ({"x": json.loads("1" + "0" * 400)}, "rec.x must be finite, got 1000"),
    ({"name": 3}, "rec.name must be a string, got 3"),
    ({"rows": 1}, "rec.rows must be a list, got 1"),
    ({"rows": [1.0]}, "rec.rows must be a list, got 1.0"),
    ({"rows": [[1.0], [1.0, 2.0]]}, "rec.rows is ragged: its lists differ in length"),
    ({"rows": [[1.0, math.inf]]}, "rec.rows must be finite, got inf"),
], ids=["unknown", "nested-unknown", "nested-missing", "nested-not-object", "int-bool",
        "int-float", "int-string", "float-bool", "float-string", "float-null", "float-nan",
        "float-infinity", "float-huge-int", "str-int", "list-number", "row-number", "ragged",
        "row-infinity"])
def test_read_record_names_each_fault(change, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_record({**GOOD, **change}, RECORD, "rec")


@pytest.mark.parametrize("payload, message", [
    ([GOOD], "rec must be a JSON object, got [{"),
    ({key: v for key, v in GOOD.items() if key != "x"}, "missing key 'rec.x'"),
], ids=["not-object", "missing"])
def test_read_record_names_a_missing_key_and_a_record_that_is_no_object(payload, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_record(payload, RECORD, "rec")


def test_uniform_density_is_one_on_the_cube():
    dist = uniform_distribution(2)
    z = np.random.default_rng(0).random((50, 2)) - 0.5
    assert np.array_equal(dist.density(z), np.ones(50))
    assert dist.density(np.zeros(2)).shape == (1,)


def test_uniform_distribution_refuses_d_below_one():
    with pytest.raises(ValueError, match="d must be >= 1"):
        uniform_distribution(0)


# ---------------------------------------------------------------------------
# spectra


def test_aesd_determinism():
    dist = uniform_distribution(1)
    s1 = aesd(dist, 16, 20, trials=3, seed=11)
    s2 = aesd(dist, 16, 20, trials=3, seed=11)
    assert np.array_equal(s1.rows, s2.rows)
    assert s1.atom_zero_mass == s2.atom_zero_mass


def test_aesd_thread_count_invariance():
    dist = uniform_distribution(1)
    s1 = aesd(dist, 16, 20, trials=4, seed=11, threads=1)
    s2 = aesd(dist, 16, 20, trials=4, seed=11, threads=4)
    assert np.array_equal(s1.rows, s2.rows)


@pytest.mark.parametrize("threads", [-1, -3])
def test_aesd_rejects_negative_threads_before_any_trial(threads):
    drawn = []
    dist = dataclasses.replace(uniform_distribution(1), sampler=lambda seed, m: drawn.append(m))
    with pytest.raises(ValueError, match="threads must be >= 0"):
        aesd(dist, 16, 20, trials=4, seed=11, threads=threads)
    assert not drawn
    # None and 0 still mean all cores
    for ok in (None, 0):
        assert aesd(uniform_distribution(1), 4, 4, trials=2, seed=0, threads=ok).rows.shape[0] == 2


@pytest.mark.parametrize("call", ["aesd", "mse_monte_carlo", "eta_u_table"])
def test_zero_trials_is_refused_before_any_draw(call, monkeypatch):
    drawn = []
    spy = dataclasses.replace(uniform_distribution(1), sampler=lambda seed, m: drawn.append(m))
    monkeypatch.setattr(sampling, "uniform_distribution", lambda d: spy)  # eta_u_table's
    run = {
        "aesd": lambda: aesd(spy, 16, 20, trials=0, seed=11),
        "mse_monte_carlo": lambda: mse_monte_carlo(spy, 16, 20, [2.0], trials=0, seed=11),
        "eta_u_table": lambda: eta_u_table(1, [20], [2.0], n=16, trials=0, seed=11),
    }[call]
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run()
    assert not drawn


def test_aesd_histogram_mass_and_trace():
    s = aesd(uniform_distribution(1), 32, 40, trials=5, seed=2)
    edges, density = histogram(s)
    assert np.sum(density * np.diff(edges)) == pytest.approx(1 - s.total_atom_mass, rel=1e-9)
    assert empirical_moment(s, 1) == pytest.approx(1.0, abs=0.05)


# Trial scales differ by 100x, so a pooled cut (1e-2) would drop the first
# trial's 1e-3 from the histogram while its own cut (1e-4) keeps it.
SPLIT_TRIALS = [np.array([1e-6, 1e-3, 1.0]), np.array([1e-4, 0.5, 100.0])]


def test_atom_and_histogram_split_one_mask():
    s = summarize_eigenvalues(SPLIT_TRIALS, 3)
    edges, density = histogram(s, 4)
    positives = np.concatenate([lam[lam >= ATOM_TOL_REL * lam[-1]] for lam in SPLIT_TRIALS])
    total = sum(lam.size for lam in SPLIT_TRIALS)
    assert positives.size == 4
    assert s.atom_zero_mass == (total - positives.size) / total
    assert np.array_equal(np.sort(positives), np.sort(s.rows[~s.atom]))
    counts, _ = np.histogram(positives, bins=edges)
    assert counts.sum() == positives.size
    assert np.allclose(density * np.diff(edges), counts / total, rtol=1e-12)


def test_transform_keeps_the_base_atom_mask():
    base = summarize_eigenvalues(SPLIT_TRIALS, 3)
    t = transform_scaled_lsd(base, 0.5, 2.0)
    edges, density = histogram(t, 4)
    assert np.array_equal(t.atom, base.atom)
    counts, _ = np.histogram(np.sort(t.rows[~t.atom]), bins=edges)
    assert counts.sum() == np.count_nonzero(~base.atom) == 4
    assert np.sum(density * np.diff(edges)) == pytest.approx(
        1 - t.total_atom_mass, rel=1e-12)


# 3 and the next three floats, 16 each: too narrow for 17 bins or for FD's 6
A_FEW_ULPS = np.repeat(3.0 + np.spacing(3.0) * np.arange(4), 16)[None]


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=8),
              elements=st.just(0.0) | st.floats(1e-12, 1e6)),
       st.integers(1, 20) | st.just("auto"))
@example(A_FEW_ULPS, 17)
@example(A_FEW_ULPS, "auto")
def test_every_trial_gives_a_bulk_sample(rows, bins):
    # a row's largest eigenvalue is never below ATOM_TOL_REL times itself, so
    # the bulk that histogram draws holds at least one sample per trial.  The
    # nonzero samples stay far above the smallest normal float, so that a
    # bin's density stays finite.
    s = SpectrumSummary(np.sort(rows, axis=1), 3)
    assert not s.atom[:, -1].any()
    bulk = s.rows[~s.atom]
    assert bulk.size >= rows.shape[0]
    edges, density = histogram(s, bins)
    assert np.histogram(bulk, bins=edges)[0].sum() == bulk.size
    assert np.sum(density * np.diff(edges)) == pytest.approx(1 - s.total_atom_mass, rel=1e-9)


def test_histogram_caps_an_exploding_freedman_diaconis_rule():
    # 10,000 samples in [1, 2] and one at 1,000: FD asks for about 21,500 bins
    rows = np.sort(np.append(np.random.default_rng(0).uniform(1.0, 2.0, 10_000), 1e3))[None]
    edges, density = histogram(SpectrumSummary(rows, 3))
    assert len(edges) == 257
    assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, rel=1e-12)


def test_histogram_caps_freedman_diaconis_before_numpy_allocates_its_edges():
    # an IQR of 2^-40 under a range of 1,000: FD asks for about 1.9e15
    # bins, whose edges numpy cannot allocate, so the cap must come first
    rows = np.array([[1.0] * 20 + [1.0 + 2.0 ** -40] * 20 + [1e3]])
    edges, density = histogram(SpectrumSummary(rows, 3))
    assert len(edges) == 257
    assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, rel=1e-12)


def test_aesd_hole_atom_mass():
    # desk-scale version of the scaled-support atom law (full law in acceptance)
    s = aesd(hole_distribution(0.6, d=1), 64, 80, trials=8, seed=4)
    assert s.atom_zero_mass == pytest.approx(0.4, abs=0.06)


# ---------------------------------------------------------------------------
# eta


def test_empirical_eta_at_zero_and_ones():
    s = aesd(uniform_distribution(1), 16, 20, trials=2, seed=1)
    assert empirical_eta(s, 0.0) == 1.0
    fake = dataclasses.replace(s, rows=np.ones((1, 10)))
    assert empirical_eta(fake, 1.0) == pytest.approx(0.5)


def test_empirical_eta_strictly_decreasing_and_convex():
    s = aesd(uniform_distribution(1), 16, 20, trials=2, seed=1)
    gammas = np.linspace(0.0, 10.0, 21)
    vals = np.array([empirical_eta(s, g) for g in gammas])
    assert np.all(np.diff(vals) < 0)
    assert np.all(np.diff(vals, 2) > -1e-12)  # convex in gamma
    with pytest.raises(ValueError):
        empirical_eta(s, -1.0)


def test_empirical_eta_array_is_the_scalar_calls():
    # bitwise, with and without extra zero mass; a negative entry is refused
    base = aesd(uniform_distribution(1), 16, 20, trials=3, seed=1)
    gammas = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 40)])
    for s in (base, transform_scaled_lsd(base, 0.8, 1.0)):
        eta = empirical_eta(s, gammas)
        assert eta.shape == gammas.shape
        assert np.array_equal(eta, [empirical_eta(s, float(g)) for g in gammas])
    with pytest.raises(ValueError):
        empirical_eta(base, np.array([1.0, -1e-300]))


def test_empirical_eta_temporary_is_bounded():
    # the largest desk table node pools 51,200 eigenvalues (n^d = 1,024, 50
    # trials) and reads 40 gamma nodes: one 40-row temporary peaked at 16.4 MB
    lam = np.sort(np.random.default_rng(0).random(51_200) * 4.0)
    s = SpectrumSummary(lam.reshape(50, 1024), 1280)
    gammas = np.geomspace(1e-3, 1e4, 40)
    tracemalloc.start()
    try:
        eta = empirical_eta(s, gammas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
    assert np.array_equal(eta, [empirical_eta(s, float(g)) for g in gammas])


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 64)),
              elements=st.floats(0, 1e6)),
       st.floats(0, 1e6), st.integers(1, 7))
def test_expectations_sum_the_rows_within_a_log_n_bound(rows, gamma, p):
    # nonnegative terms in numpy's summation order: within (log2 N + 2) eps
    # of the mean of the correctly rounded (fsum) sum of the same terms
    s = SpectrumSummary(np.sort(rows, axis=1), 3)
    tol = (math.log2(rows.size) + 2) * np.finfo(float).eps
    for got, terms in ((empirical_eta(s, gamma), 1.0 / (gamma * s.rows + 1.0)),
                       (empirical_moment(s, p), s.rows ** p)):
        want = math.fsum(terms.ravel()) / terms.size
        assert abs(got - want) <= tol * want


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
    assert np.allclose(t.rows, base.rows / c)
    edges, density = histogram(t)
    assert np.sum(density * np.diff(edges)) == pytest.approx(1 - t.total_atom_mass, rel=1e-9)
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

    assert eta_mixture(gx_distribution(gx), 0.5, 2.0, eta_u) == pytest.approx(0.37)
    assert calls == [(0.5, 2.0)]


def test_eta_mixture_gamma_zero():
    gx = GxDiscreteAtoms(atoms=((2.0, 0.5),))
    assert eta_mixture(gx_distribution(gx, 0.5), 0.5, 0.0, lambda b, g: 0.0) == 1.0


def test_eta_mixture_discrete_sum():
    atoms = tuple((y, 0.25) for y in (0.5, 1.0, 1.5, 2.0))
    gx = GxDiscreteAtoms(atoms=atoms)
    val = eta_mixture(gx_distribution(gx, d=2), 0.4, 3.0, lambda b, g: 1.0 / (1.0 + g))
    expect = sum(0.25 / (1.0 + 3.0 * y) for y, _ in atoms)
    assert val == pytest.approx(expect)


def test_eta_mixture_hole_floor():
    c = 0.6
    gx = GxDiscreteAtoms(atoms=((1 / c, c),))
    val = eta_mixture(gx_distribution(gx, c), 0.5, 5.0, lambda b, g: 0.2)
    assert val == pytest.approx((1 - c) + c * 0.2)
    assert val > 1 - c


def test_eta_table_basics_and_rangecheck():
    tab = eta_u_table(1, [60, 30], np.geomspace(0.1, 20, 12), n=24, trials=4, seed=3)
    assert tab.eta(0.5, 0.0) == 1.0
    v = tab.eta(0.6, 1.0)
    assert 0.0 < v < 1.0
    with pytest.raises(EtaTableRangeError):
        tab.eta(0.1, 1.0)
    with pytest.raises(EtaTableRangeError):
        tab.eta(0.5, 100.0)


def test_eta_table_one_gamma_node():
    # one gamma node, as one beta node: a query at the node reads the beta
    # column there (a straight line in log beta through two nodes), and a
    # query off the node is out of range
    tab = eta_u_table(1, [16, 8], [2.0], n=8, trials=2, seed=0)
    line = PchipInterpolator(np.log(tab.beta_grid), tab.values[:, 0])
    assert tab.eta(0.7, 2.0) == pytest.approx(float(line(np.log(0.7))), rel=1e-12)
    assert tab.eta(tab.beta_grid, [2.0, 2.0]).tolist() == tab.values[:, 0].tolist()
    with pytest.raises(EtaTableRangeError):
        tab.eta(0.7, 2.5)
    single = EtaUTable(d=1, n=8, trials=2, seed=0, beta_grid=np.array([0.5]),
                       gamma_grid=np.array([2.0]), values=np.array([[0.4]]))
    assert single.eta(0.5, 2.0) == 0.4
    with pytest.raises(EtaTableRangeError):
        single.eta(0.5, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.floats(0.05, 1.0), st.floats(0.0, 1.0))
def test_built_eta_table_covers_its_beta_span(d, n, lo_frac, width):
    # at small n^d the nearest m can pull both grid ends inside the span;
    # the built grid covers it anyway, and a span above n^d is refused
    N = n ** d
    lo = lo_frac * N
    hi = lo + width * (N - lo)
    tab = build_eta_table(d, n, (lo, hi), (1.0, 2.0), beta_nodes=3, gamma_nodes=2, trials=1)
    tab.check_request(d, n, 1, (lo, hi), (1.0, 2.0))
    assert np.allclose(N / tab.beta_grid, np.round(N / tab.beta_grid), rtol=1e-12)


def test_built_eta_table_refuses_a_span_above_n_d(monkeypatch):
    monkeypatch.setattr(spectral, "aesd", lambda *a, **k: pytest.fail("trial drawn"))
    with pytest.raises(EtaTableRangeError, match=r"beta span \[1, 3\] reaches above n\^d = 2"):
        build_eta_table(1, 2, (1.0, 3.0), (1.0, 2.0), trials=1)


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
    tab = eta_u_table(1, [10000], np.geomspace(0.5, 2000, 24), n=100, trials=10, seed=8)
    assert tab.eta(0.01, 10.0 / 0.01) < 0.05


def test_eta_table_save_load_roundtrip(tmp_path):
    tab = eta_u_table(1, [40, 20], np.geomspace(0.1, 10, 8), n=16, trials=3, seed=1)
    path = tmp_path / "tab.json"
    tab.save(str(path))
    back = tab.load(str(path))
    assert np.allclose(back.values, tab.values)
    assert back.eta(0.6, 2.0) == pytest.approx(tab.eta(0.6, 2.0))


def test_asymptotic_mse_scales_gamma():
    gx = GxDiscreteAtoms(atoms=((1.0, 1.0),))
    got = asymptotic_mse(gx_distribution(gx), 0.5, 2.0, lambda b, g: 1.0 / (1.0 + g))
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
    # the atol floor of a few subnormal ulps binds only for max|y| below ~1e-310
    tol = dict(rtol=1e-13, atol=max(1e-13 * np.abs(y).max(),
                                    4 * np.finfo(float).smallest_subnormal))
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
@example(([1.0, 1.0], [0, 0, 2.2250738585e-313]))  # subnormal data: one ulp apart
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
    dist = fading_distribution(5.0)
    gx = dist.gx

    def eta_u(b, g):
        return 1.0 / (1.0 + g) * b / (1.0 + b)

    for beta in FIG3_BETAS:
        for gdb in FIG3_GDB:
            gamma = db_to_linear(gdb) / beta
            got = eta_mixture(dist, beta, gamma, eta_u)
            assert got == pytest.approx(quad_mixture(gx, beta, gamma, eta_u), rel=1e-5)


def test_mixture_fixed_rule_matches_tight_quad_table():
    dist = fading_distribution(5.0)
    gx = dist.gx
    spans = mixture_span([dist], (0.2, 0.8), (db_to_linear(-10), db_to_linear(30)))
    table = build_eta_table(2, 8, *spans, beta_nodes=10, gamma_nodes=16, trials=4, seed=5)
    for beta in (0.2, 0.8):
        for gdb in (-10, 10, 30):
            gamma = db_to_linear(gdb) / beta
            # the table's knots, where its interpolant has a second-derivative jump
            knots = [*(beta / table.beta_grid), *(table.gamma_grid / gamma)]
            got = eta_mixture(dist, beta, gamma, table)
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

    assert 0.0 < eta_mixture(gx_distribution(gx, 0.75, d=2), 0.4, 3.0, eta_u) < 1.0
    assert len(calls) == 1
    assert calls[0] == gx.nodes_weights()[0].shape


def test_mixture_accepts_scalar_returning_eta_u():
    fading = fading_distribution(5.0)
    assert eta_mixture(fading, 0.4, 3.0, lambda b, g: 0.2) == pytest.approx(0.2, rel=1e-12)
    hist = GxEmpirical(edges=np.array([0.5, 1.0, 1.5, 2.0]), masses=np.array([0.4, 0.0, 0.6]))
    assert eta_mixture(gx_distribution(hist, 0.5, d=2), 0.4, 3.0, lambda b, g: 0.2) == pytest.approx(0.6)
    assert hist.nodes_weights()[0].tolist() == [0.75, 1.75]


def test_discrete_atoms_reject_nonpositive_y():
    gx = GxDiscreteAtoms(atoms=((0.0, 0.5), (2.0, 0.5)))
    with pytest.raises(ValueError):
        eta_mixture(gx_distribution(gx, d=2), 0.4, 3.0, lambda b, g: 0.2)


# ---------------------------------------------------------------------------
# mixture_span


@st.composite
def mixture_requests(draw):
    """d = 2 distributions (uniform, fading at 0..12 dB, quadrant CSMA at
    random loads), aspect ratios with beta/y <= 8 at every g_x node, so that
    an n = 3 table (n^d = 9) realizes every beta, and positive SNRs."""
    kinds = st.one_of(
        st.just(uniform_distribution(2)),
        st.floats(0.0, 12.0).map(fading_distribution),
        st.lists(st.floats(0.0, 5e-3), min_size=4, max_size=4).map(
            lambda loads: csma_success_profile(quadrant_hierarchy(loads)).distribution),
    )
    dists = draw(st.lists(kinds, min_size=1, max_size=3))
    y_lo = min(dist.gx.support[0] for dist in dists)
    betas = [8 * y_lo * u for u in draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))]
    gammas = draw(st.lists(st.floats(1e-3, 1e5), min_size=1, max_size=4))
    return dists, betas, gammas


@settings(max_examples=50, deadline=None)
@given(mixture_requests())
def test_mixture_span_covers_every_query(request):
    dists, betas, gammas = request
    (b_lo, b_hi), (g_lo, g_hi) = spans = mixture_span(dists, betas, gammas)
    queries = []

    def eta_u(b, g):
        queries.append((b, g))
        return np.ones(np.shape(b))

    for dist in dists:
        for beta in betas:
            for gamma in gammas:
                asymptotic_mse(dist, beta, gamma, eta_u)
    b, g = (np.concatenate(q) for q in zip(*queries))
    assert b_lo <= b.min() and b.max() <= b_hi
    assert g_lo <= g.min() and g.max() <= g_hi
    # a tiny table built on the spans answers every query without a range error
    table = build_eta_table(2, 3, *spans, beta_nodes=3, gamma_nodes=3, trials=1, seed=0)
    for dist in dists:
        for beta in betas:
            for gamma in gammas:
                assert 0.0 < asymptotic_mse(dist, beta, gamma, table) <= 1.0 + 1e-12
