import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanspec import moments, partitions
from vanspec.partitions import (
    P_MAX,
    LatticeFitError,
    SetPartition,
    _fit_coefficient,
    _leading_coefficient,
    canonical,
    coefficient_table,
    enumerate_partitions,
    is_noncrossing,
    lattice_count,
    vandermonde_coefficient,
)

from helpers import (
    bell_number,
    lattice_count_bruteforce,
    partition_from_blocks,
    partition_from_labels,
    stirling2,
)


def part(*blocks):
    return partition_from_blocks(blocks)


# ---------------------------------------------------------------------------
# enumeration


def bell_oracle(p):
    # independent recursion: B(p) = sum_k C(p-1, k) B(k)
    import math

    b = [1]
    for m in range(1, p + 1):
        b.append(sum(math.comb(m - 1, k) * b[k] for k in range(m)))
    return b[p]


def test_enumerate_single_element():
    parts = enumerate_partitions(1)
    assert len(parts) == 1
    assert parts[0].labels == (1,)


def test_enumerate_counts_p4():
    assert len(enumerate_partitions(4, 2)) == 7 == stirling2(4, 2)
    assert len(enumerate_partitions(4)) == 15 == bell_number(4)


@pytest.mark.parametrize("p", range(1, P_MAX + 1))
def test_enumerate_matches_bell_and_stirling(p):
    parts = enumerate_partitions(p)
    assert len(parts) == bell_number(p) == bell_oracle(p)
    assert len(set(q.labels for q in parts)) == len(parts)
    by_k = {k: len(enumerate_partitions(p, k)) for k in range(1, p + 1)}
    assert by_k == {k: stirling2(p, k) for k in range(1, p + 1)}
    assert sum(by_k.values()) == bell_number(p)


def test_enumerate_canonical_labels():
    for q in enumerate_partitions(5):
        assert q.labels[0] == 1
        seen = 0
        for lab in q.labels:
            assert lab <= seen + 1
            seen = max(seen, lab)


def test_enumerate_rejects_bad_p():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(P_MAX + 1)


def test_partition_construction_and_str():
    q = part([1, 3], [2, 4])
    assert q.labels == (1, 2, 1, 2)
    assert q.p == 4 and q.k == 2
    assert str(q) == "{1,3}{2,4}"
    with pytest.raises(ValueError):
        SetPartition((2, 1))
    with pytest.raises(ValueError):
        partition_from_blocks([[1, 2], [2, 3]])


# ---------------------------------------------------------------------------
# noncrossing


def test_noncrossing_examples():
    assert is_noncrossing(part([1], [2], [3]))
    assert not is_noncrossing(part([1, 3], [2, 4]))
    assert is_noncrossing(part([1, 4], [2, 3]))


def crossing_oracle(q):
    w = q.labels
    for a, b, c, d in itertools.combinations(range(len(w)), 4):
        if w[a] == w[c] != w[b] and w[b] == w[d]:
            return False
    return True


@pytest.mark.parametrize("p", range(1, 7))
def test_noncrossing_against_oracle(p):
    for q in enumerate_partitions(p):
        assert is_noncrossing(q) == crossing_oracle(q)


# ---------------------------------------------------------------------------
# lattice counts


def test_lattice_count_examples():
    assert lattice_count(part([1, 2]), 5) == 25
    assert lattice_count(part([1], [2]), 5) == 5
    assert lattice_count(part([1, 3], [2, 4]), 5) == 85


def test_crossing_count_closed_form():
    # constraint t1+t3 = t2+t4 gives (2n^3 + n)/3
    q = part([1, 3], [2, 4])
    for n in range(1, 9):
        assert lattice_count(q, n) == (2 * n ** 3 + n) // 3


@pytest.mark.parametrize("p,n", [(2, 6), (3, 6), (4, 5), (5, 4), (6, 3)])
def test_lattice_count_against_bruteforce(p, n):
    for q in enumerate_partitions(p):
        assert lattice_count(q, n) == lattice_count_bruteforce(q, n)


def test_lattice_count_singletons_equals_n():
    for p in range(1, 6):
        q = SetPartition(tuple(range(1, p + 1)))
        for n in (1, 2, 5, 9):
            assert lattice_count(q, n) == n


def test_lattice_count_single_block_is_n_to_p():
    for p in range(1, 6):
        q = SetPartition((1,) * p)
        assert lattice_count(q, 4) == 4 ** p


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(2, 5), st.data())
def test_lattice_count_cyclic_rotation_invariant(p, n, data):
    # the coefficient table relies on both: one count per dihedral orbit
    parts = enumerate_partitions(p)
    q = data.draw(st.sampled_from(parts))
    r = data.draw(st.integers(1, p - 1))
    rotated = partition_from_labels(q.labels[r:] + q.labels[:r])
    reversed_ = partition_from_labels(q.labels[::-1])
    assert lattice_count(q, n) == lattice_count(rotated, n)
    assert lattice_count(q, n) == lattice_count(reversed_, n)


def test_lattice_count_at_n_one_is_one():
    # L_Q(0) = 1: only t = 0 lies in {0}^p
    for p in range(1, P_MAX + 1):
        for q in enumerate_partitions(p):
            assert lattice_count(q, 1) == 1


def test_lattice_count_rejects_bad_n():
    with pytest.raises(ValueError):
        lattice_count(part([1, 2]), 0)


# ---------------------------------------------------------------------------
# coefficients


def test_coefficient_examples():
    assert vandermonde_coefficient(part([1], [2], [3])) == 1
    assert vandermonde_coefficient(part([1, 2, 3, 4])) == 1
    c = vandermonde_coefficient(part([1, 3], [2, 4]))
    assert c == Fraction(2, 3)
    assert isinstance(c, Fraction)


@pytest.fixture
def counted(monkeypatch):
    """(labels, n) of every lattice count made by cold coefficient tables."""
    calls = []

    def counting(q, n):
        calls.append((q.labels, n))
        return lattice_count(q, n)

    monkeypatch.setattr(partitions, "lattice_count", counting)
    coefficient_table.cache_clear()
    yield calls
    coefficient_table.cache_clear()


def test_counting_runs_after_shortcut(counted):
    # no 3-block partition of {1..4} crosses, so its table counts nothing
    assert vandermonde_coefficient(part([1, 2], [3], [4])) == 1
    assert not counted
    # the 2-block table counts its one crossing orbit, and only that
    assert vandermonde_coefficient(part([1, 2], [3, 4])) == 1
    assert {labels for labels, _ in counted} == {(1, 2, 1, 2)}


@pytest.mark.parametrize("p", range(1, P_MAX + 1))
def test_noncrossing_coefficients_are_one_and_all_in_unit_interval(p):
    # counted, not read from the table: v = 1 on every noncrossing orbit
    noncrossing = {canonical(q.labels) for q in enumerate_partitions(p) if is_noncrossing(q)}
    assert all(_fit_coefficient(SetPartition(labels)) == 1 for labels in noncrossing)
    for q in enumerate_partitions(p):
        c = vandermonde_coefficient(q)
        assert 0 < c <= 1
        if is_noncrossing(q):
            assert c == 1


def test_crossing_coefficient_values_p5():
    # the three crossing types at p=5 all reduce to 2/3 by symmetry of the
    # single crossing pair; spot-check one with an extra inert element
    c = vandermonde_coefficient(part([1, 3], [2, 4], [5]))
    assert 0 < c < 1


def dihedral_images(labels):
    rotations = [labels[r:] + labels[:r] for r in range(len(labels))]
    return rotations + [rot[::-1] for rot in rotations]


@pytest.mark.parametrize("p", range(1, P_MAX + 1))
def test_canonical_is_one_representative_per_orbit(p):
    for q in enumerate_partitions(p):
        rep = canonical(q.labels)
        assert SetPartition(rep).p == p
        assert canonical(rep) == rep
        images = dihedral_images(q.labels)
        assert len(images) == 2 * p
        assert {canonical(img) for img in images} == {rep}
        assert rep in {partition_from_labels(img).labels for img in images}


def test_crossing_orbit_counts():
    orbits = {
        p: len({canonical(q.labels) for q in enumerate_partitions(p) if not is_noncrossing(q)})
        for p in range(4, P_MAX + 1)
    }
    assert orbits == {4: 1, 5: 2, 6: 13, 7: 44}
    # the noncrossing ones, each counted by the unit-interval test above
    noncrossing = {canonical(q.labels) for p in range(1, P_MAX + 1)
                   for q in enumerate_partitions(p) if is_noncrossing(q)}
    assert len(noncrossing) == 95


def test_table_holds_every_partition_under_its_orbit_value():
    sizes = 0
    for p in range(1, P_MAX + 1):
        for k in range(1, p + 1):
            table = coefficient_table(p, k)
            assert sorted(table) == [q.labels for q in enumerate_partitions(p, k)]
            assert all(v == table[canonical(labels)] for labels, v in table.items())
            sizes += len(table)
    assert sizes == sum(bell_number(p) for p in range(1, P_MAX + 1)) == 1155


def test_direct_fit_matches_orbit_value(counted):
    # every crossing partition with p <= 6 is counted as itself, with no
    # canonicalisation, and must agree with the value its orbit carries in
    # the table
    crossing = [q for p in range(1, 7) for q in enumerate_partitions(p) if not is_noncrossing(q)]
    assert len(crossing) == 82
    direct = [_fit_coefficient(q) for q in crossing]
    assert coefficient_table.cache_info().currsize == 0
    counted.clear()
    assert direct == [vandermonde_coefficient(q) for q in crossing]
    assert len({labels for labels, _ in counted}) == 1 + 2 + 13


def test_cold_moment_sums_count_one_partition_per_orbit(counted):
    for p in range(1, P_MAX + 1):
        for k in range(1, p + 1):
            moments._omega_sum(p, k, 1)
    assert len(counted) == 208
    labels_counted = {labels for labels, _ in counted}
    assert len(labels_counted) == 60
    # each orbit is counted at its representative, and no noncrossing one is
    assert all(canonical(labels) == labels for labels in labels_counted)
    assert not any(is_noncrossing(SetPartition(labels)) for labels in labels_counted)
    # the fit window is n = 1..ceil(D/2)+1, D = p - k + 1, so n <= 4 at p <= 7
    assert all(n <= (len(labels) - max(labels) + 2) // 2 + 1 for labels, n in counted)
    assert max(n for _, n in counted) == 4


def _interpolant(points):
    """The exact polynomial through points {x: y}, as a function (Lagrange form)."""
    def value(x):
        total = Fraction(0)
        for xi, yi in points.items():
            term = Fraction(yi)
            for xj in points:
                if xj != xi:
                    term *= Fraction(x - xj, xi - xj)
            total += term
        return total
    return value


def test_counts_obey_ehrhart_macdonald_reciprocity():
    # the degree-D interpolant of the counts at n = 1..D+1 vanishes at n = 0
    # and has count(-n) = (-1)^D count(n) for n = 1..D+2: the shape the fit
    # takes as given, on all 155 orbits at p <= 7, noncrossing ones included
    orbits = {canonical(q.labels) for p in range(1, P_MAX + 1) for q in enumerate_partitions(p)}
    assert len(orbits) == 155
    for labels in orbits:
        q = SetPartition(labels)
        degree = q.p - q.k + 1
        counts = {n: lattice_count(q, n) for n in range(1, degree + 3)}
        count = _interpolant({n: counts[n] for n in range(1, degree + 2)})
        assert count(0) == 0, labels
        assert all(count(-n) == (-1) ** degree * c for n, c in counts.items()), labels


def test_ehrhart_fit_matches_fit_at_large_n():
    # the fit from n = 1 agrees with one on the window n = 8..D+9, where the
    # counts are far from the small-n corner, on all 60 crossing orbits
    orbits = {canonical(q.labels) for p in range(4, P_MAX + 1)
              for q in enumerate_partitions(p) if not is_noncrossing(q)}
    assert len(orbits) == 60
    for labels in orbits:
        q = SetPartition(labels)
        degree = q.p - q.k + 1
        xs = list(range(8, degree + 10))
        far = _leading_coefficient(xs, [lattice_count(q, n) for n in xs], degree)
        assert _fit_coefficient(q) == far


def test_fit_rejects_counts_off_the_polynomial(monkeypatch):
    # a count that leaves the degree-D polynomial at one n is an error, not a refit
    def perturbed(q, n):
        return lattice_count(q, n) + (n == 3)

    monkeypatch.setattr(partitions, "lattice_count", perturbed)
    with pytest.raises(LatticeFitError):
        _fit_coefficient(part([1, 3], [2, 4]))


def test_coefficient_keeps_callers_partition():
    q = part([1, 4], [2, 5], [3])  # crossing, not its orbit's representative
    assert canonical(q.labels) != q.labels
    assert vandermonde_coefficient(q) == vandermonde_coefficient(SetPartition(canonical(q.labels)))
