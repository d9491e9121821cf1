"""Set partitions of {1..p} and their lattice-count coefficients.

The p-th asymptotic moment of V V^H is a sum over set partitions, each
weighted by a rational coefficient v(omega) in (0, 1] (Ryan & Debbah, IEEE
Trans. IT 55(7), 2009).  Expanding each Dirichlet-kernel factor of the torus
integral that defines v(omega) reduces it to counting t in {0..n-1}^p with
A t = 0, one balance row per block, and v(omega) is the leading coefficient
of that count in n.  Noncrossing partitions always carry coefficient 1.

Column i of A is +1 at block labels[i] and -1 at block labels[i+1], so A is
the incidence matrix of a directed multigraph and totally unimodular.  The
polytope Q = {x in [0,1]^p : A x = 0} is then integral, and the count is its
Ehrhart polynomial L_Q(n - 1): a polynomial, never a quasi-polynomial, for
every n >= 1, with L_Q(0) = 1, of degree D = dim Q = p - k + 1 (the cycle
visits every block, and x = 1/2 is interior; Beck & Robins, Computing the
Continuous Discretely, 2007, ch. 3).

Q lies in [0,1]^p and holds 0 and 1 (A 1 = 0), so the lattice points in the
relative interior of tQ are those of (t-2)Q shifted by 1.  Ehrhart-Macdonald
reciprocity (Macdonald, J. London Math. Soc. 4, 1971; Beck & Robins, ch. 4)
then gives count(-n) = (-1)^D count(n) and count(0) = 0, so the count is
n^e R(n^2) with e = 2 - D % 2, R of degree ceil(D/2) - 1 and v(omega) the
leading coefficient of R.

v(omega) is constant on each dihedral orbit of partitions.  The moment is a
trace over a cyclic index sequence: rotating the partition is a cyclic shift
of the trace, and reversing it is the conjugate transpose, which leaves the
(real) trace unchanged.  So `coefficient_table` fixes v once per orbit, and
counts only crossing orbits, each at its `canonical` representative.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

# Full enumeration / counting cap: Bell(7) = 877 partitions.
P_MAX = 7


class LatticeFitError(RuntimeError):
    """Lattice counts failed to fit their Ehrhart polynomial exactly."""


def _first_occurrence(labels) -> tuple[int, ...]:
    """Relabel blocks 1, 2, ... in order of first occurrence."""
    remap: dict = {}
    return tuple(remap.setdefault(lab, len(remap) + 1) for lab in labels)


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..p}, stored as block labels in first-occurrence order.

    labels[i] is the (1-based) block index of element i+1.  Canonical
    labeling means labels[0] == 1 and every new block takes the next unused
    index, so structural equality of labels is partition equality.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("empty partition")
        seen_max = 0
        for lab in self.labels:
            if not isinstance(lab, int) or lab < 1:
                raise ValueError(f"bad block label {lab!r}")
            if lab > seen_max + 1:
                raise ValueError(
                    f"labels {self.labels} not in canonical first-occurrence order"
                )
            seen_max = max(seen_max, lab)

    @property
    def p(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        return max(self.labels)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as tuples of 1-based element positions, ordered by label."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for i, lab in enumerate(self.labels):
            out[lab - 1].append(i + 1)
        return tuple(tuple(b) for b in out)

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks())


def enumerate_partitions(p: int, k: int | None = None) -> list[SetPartition]:
    """All partitions of {1..p}, optionally restricted to k blocks.

    Partitions are emitted in lexicographic order of their canonical
    (restricted-growth) label strings; the count is Bell(p), or S(p, k)
    when k is given.
    """
    if p < 1 or p > P_MAX:
        raise ValueError(f"p must be in 1..{P_MAX}, got {p}")
    if k is not None and not 1 <= k <= p:
        raise ValueError(f"k must be in 1..p, got {k}")

    out: list[SetPartition] = []
    labels = [1] * p

    def rec(i: int, used: int):
        if i == p:
            if k is None or used == k:
                out.append(SetPartition(tuple(labels)))
            return
        for lab in range(1, used + 2):
            labels[i] = lab
            rec(i + 1, max(used, lab))

    rec(1, 1)
    return out


def is_noncrossing(part: SetPartition) -> bool:
    """True iff no indices a<b<c<d exist with w_a = w_c != w_b = w_d."""
    w = part.labels
    p = len(w)
    for a, b, c, d in itertools.combinations(range(p), 4):
        if w[a] == w[c] and w[b] == w[d] and w[a] != w[b]:
            return False
    return True


def lattice_count(part: SetPartition, n: int) -> int:
    """Count t in {0..n-1}^p with, per block b, sum over entries of b minus
    sum over cyclic predecessors of b equal to zero.

    Exact integer arithmetic throughout; counts above the int64-safe range
    fall back to Python integers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = part.labels
    p = len(labels)

    # Blocks touched only by self-loop positions impose no constraint; each
    # self-loop position contributes a free factor n.  remaining[b] counts
    # the positions still to move block b's balance.
    moves = [(labels[i], labels[(i + 1) % p]) for i in range(p)]
    remaining = Counter(b for bp, bm in moves if bp != bm for b in (bp, bm))
    scale = 1
    dtype: type | np.dtype = np.int64 if n ** p < 2 ** 62 else object

    # state[idx_1, ..., idx_r] = number of prefixes with the open blocks'
    # balances at (idx - offset); axes[j] is the block of axis j.
    state = np.ones((), dtype=dtype)
    axes: list[int] = []
    offs: dict[int, int] = {}

    for bp, bm in moves:
        if bp == bm:
            scale *= n
            continue
        for b in (bp, bm):
            if b not in offs:
                state = state[..., np.newaxis]
                axes.append(b)
                offs[b] = 0
        ax_p, ax_m = axes.index(bp), axes.index(bm)
        shape = list(state.shape)
        wp, wm = shape[ax_p], shape[ax_m]
        shape[ax_p] += n - 1
        shape[ax_m] += n - 1
        offs[bm] += n - 1
        new = np.zeros(shape, dtype=dtype)
        for t in range(n):
            sl = [slice(None)] * len(shape)
            sl[ax_p] = slice(t, t + wp)
            sl[ax_m] = slice(n - 1 - t, n - 1 - t + wm)
            new[tuple(sl)] += state
        state = new

        # A block whose last position has moved keeps only its zero balance.
        for b in (bp, bm):
            remaining[b] -= 1
            if remaining[b] == 0:
                ax = axes.index(b)
                state = np.take(state, offs.pop(b), axis=ax)
                axes.pop(ax)

    assert state.ndim == 0
    return int(state) * scale


def _leading_coefficient(xs: list[int], ys: list[int | Fraction], degree: int) -> Fraction:
    """Leading coefficient of the degree-d interpolant through (xs, ys),
    validated against the extra supplied points.  Exact rationals."""
    coeffs = [Fraction(y) for y in ys]
    # Divided-difference table; f[x0..xj] lands in coeffs[j].
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    lead = coeffs[degree]
    # Any divided difference beyond the fitted degree must vanish if the
    # data really is a degree-d polynomial.
    for j in range(degree + 1, len(xs)):
        if coeffs[j] != 0:
            raise LatticeFitError(f"values at x={xs} are not a degree-{degree} polynomial")
    return lead


def _orbit(labels: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Dihedral orbit: first-occurrence forms of the p rotations and p reflections."""
    rotations = [labels[r:] + labels[:r] for r in range(len(labels))]
    return {_first_occurrence(image) for image in rotations + [rot[::-1] for rot in rotations]}


def canonical(labels: tuple[int, ...]) -> tuple[int, ...]:
    """Representative of the dihedral orbit of a labelling: its least member."""
    return min(_orbit(labels))


def _fit_coefficient(part: SetPartition) -> Fraction:
    """v(omega) of this very partition, uncached: the leading coefficient of R
    (module docstring), fit on the counts at n = 1..ceil(D/2) and checked at
    n = ceil(D/2) + 1; counts off it raise LatticeFitError."""
    if part.p > P_MAX:
        raise ValueError(f"p={part.p} above counting cap {P_MAX}")
    degree = part.p - part.k + 1
    half, e = (degree + 1) // 2, 2 - degree % 2
    ns = range(1, half + 2)
    lead = _leading_coefficient([n * n for n in ns],
                                [Fraction(lattice_count(part, n), n ** e) for n in ns], half - 1)
    if not 0 < lead <= 1:
        raise LatticeFitError(f"v({part}) = {lead} outside (0, 1]; counting bug suspected")
    return lead


@functools.cache
def coefficient_table(p: int, k: int) -> MappingProxyType:
    """v(omega) of every k-block partition of {1..p}, keyed by its labels.

    In enumeration (lexicographic) order the first member met of each orbit
    is its `canonical` representative: v is fixed there, 1 if noncrossing and
    counted (`_fit_coefficient`) otherwise, and stored under the whole orbit.
    """
    table: dict[tuple[int, ...], Fraction] = {}
    for part in enumerate_partitions(p, k):
        if part.labels not in table:
            v = Fraction(1) if is_noncrossing(part) else _fit_coefficient(part)
            table.update(dict.fromkeys(_orbit(part.labels), v))
    return MappingProxyType(table)


def vandermonde_coefficient(part: SetPartition) -> Fraction:
    """Coefficient v(omega) = lim_n lattice_count / n^(p-k+1), exactly: this
    partition's entry in `coefficient_table`."""
    return coefficient_table(part.p, part.k)[part.labels]
