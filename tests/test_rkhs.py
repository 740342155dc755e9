"""Tests for kernel-space models and Berezin functionals.

The Berezin number is cross-checked against a Gram-ratio brute force that
works on unnormalized kernel columns, and the rotation identity of the
symbol modulus is checked at a finite grid.
"""

import math
import re

import numpy as np
import pytest

from berlab import numlin, rkhs, theorems
from berlab.errors import (
    BadParams,
    BerlabError,
    DimensionMismatch,
    DuplicatePoints,
    IllConditioned,
)


def cgauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_space(rng, n):
    tag = ("identity", "szego", "gaussian")[int(rng.integers(3))]
    if tag == "identity":
        return rkhs.identity_space(n)
    if tag == "szego":
        pts = 0.8 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        return rkhs.build_space(rkhs.KernelFamily("szego"), [[complex(z) for z in pts]])[0]
    pts = rng.normal(0.0, 2.0, n)
    return rkhs.build_space(rkhs.KernelFamily("gaussian", {"sigma": 1.0}),
                            [[float(x) for x in pts]])[0]


def gram_ratio_ber(space, a):
    """Brute-force ber(A) from unnormalized kernel columns."""
    best = 0.0
    for j in range(space.dim):
        k = space.chart[:, j]
        best = max(best, abs(np.conj(k) @ (a @ k)) / (np.conj(k) @ k).real)
    return best


# ---------------------------------------------------------------------------
# construction


def test_identity_space():
    sp = rkhs.identity_space(3)
    assert np.allclose(sp.gram, np.eye(3))
    assert np.allclose(sp.chart.conj().T @ sp.chart, np.eye(3))
    # built once per n and shared, so none of its arrays can be written
    assert rkhs.identity_space(3) is sp
    for arr in (sp.gram, sp.chart, sp.normalized_chart()):
        with pytest.raises(ValueError):
            arr[0, 0] = 2.0


def test_szego_gram_by_hand():
    [sp] = rkhs.build_space(rkhs.KernelFamily("szego"), [[0.0, 0.5]])
    assert np.allclose(sp.gram, [[1.0, 1.0], [1.0, 4.0 / 3.0]])


def test_szego_single_point():
    [sp] = rkhs.build_space(rkhs.KernelFamily("szego"), [[0.0]])
    assert np.allclose(sp.gram, [[1.0]])


def test_chart_reproduces_gram():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sp = random_space(rng, int(rng.integers(1, 7)))
        defect = numlin.operator_norm(sp.chart.conj().T @ sp.chart - sp.gram)
        assert defect <= 1e-10 * max(1.0, numlin.operator_norm(sp.gram))


def test_normalized_kernels_unit_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sp = random_space(rng, int(rng.integers(1, 7)))
        khat = sp.normalized_chart()
        norms = np.linalg.norm(khat, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        for j in range(sp.dim):
            col = sp.chart[:, j]
            assert np.allclose(col / np.linalg.norm(col), khat[:, j])


def gram_by_pairs(family, points):
    """The Gram matrix from the per-pair scalar kernel formula, one entry at
    a time, as the pinned reports computed it."""
    n = len(points)
    sigma = family.params.get("sigma", 1.0)
    gram = np.empty((n, n), dtype=np.complex128)
    for i, z in enumerate(points):
        for j, w in enumerate(points):
            if family.tag == "identity":
                gram[i, j] = 1.0 if z == w else 0.0
            elif family.tag == "szego":
                gram[i, j] = 1.0 / (1.0 - z * np.conj(w))
            elif family.tag == "bergman":
                gram[i, j] = 1.0 / (1.0 - z * np.conj(w)) ** 2
            else:
                gram[i, j] = math.exp(-((z - w) ** 2) / (2.0 * sigma**2))
    return gram


def test_gram_matches_per_pair_formula_bit_for_bit():
    # 240 seeded draws; complex * and ** on arrays and np.exp each move
    # last bits here
    rng = np.random.default_rng(73)
    families = (rkhs.KernelFamily("identity"), rkhs.KernelFamily("szego"),
                rkhs.KernelFamily("bergman"), rkhs.KernelFamily("gaussian", {"sigma": 1.0}),
                rkhs.KernelFamily("gaussian", {"sigma": 0.7}))
    for n in range(1, 17):
        for family in families:
            point_sets, wants = [], []
            for _ in range(3):
                if family.tag == "gaussian":
                    points = [float(x) for x in rng.normal(0.0, 2.0, n)]
                else:  # the campaign's disk draw; identity ignores the values
                    pts = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
                    points = [complex(z) for z in pts]
                got = family.gram(points)
                want = gram_by_pairs(family, points)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                # Hermitian bit for bit, so build_space needs no symmetrizing pass
                assert ((got + got.conj().T) / 2.0).tobytes() == got.tobytes()
                point_sets.append(points)
                wants.append(want)
            # a stack of point sets gives each set's matrix, bit for bit
            stacked = family.gram(point_sets)
            assert stacked.shape == (3, n, n)
            assert [g.tobytes() for g in stacked] == [w.tobytes() for w in wants]


def test_stacked_build_matches_lone_builds_bit_for_bit():
    # one Gram stack, one eigh and one chart for many point sets: each slot
    # is its space in a batch of one, or the same error
    rng = np.random.default_rng(79)
    fams = (rkhs.KernelFamily("szego"), rkhs.KernelFamily("bergman"),
            rkhs.KernelFamily("gaussian", {"sigma": 1.0}))
    for n in (1, 2, 3, 5, 8, 12, 16):
        for family in fams:
            sets = []
            for _ in range(12):
                if family.tag == "gaussian":
                    sets.append([float(x) for x in rng.normal(0.0, 2.0, n)])
                else:
                    pts = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
                    sets.append([complex(z) for z in pts])
            bad = {}
            if n > 1:  # a duplicate point, a near-duplicate, a point off the disk
                sets[1][1] = sets[1][0]
                sets[2][1] = sets[2][0] + 1e-14
                bad = {1: DuplicatePoints, 2: IllConditioned}
            if family.tag != "gaussian":
                sets[3][0] = 1.5
                bad[3] = BadParams
            got = rkhs.build_space(family, sets)
            assert len(got) == len(sets)
            for points, space in zip(sets, got):
                [want] = rkhs.build_space(family, [points])
                if isinstance(want, BerlabError):
                    assert type(space) is type(want) and str(space) == str(want)
                    continue
                assert space.points == want.points
                for a, b in ((space.gram, want.gram), (space.chart, want.chart),
                             (space.normalized_chart(), want.normalized_chart())):
                    assert a.strides == b.strides and a.tobytes() == b.tobytes()
                    assert not a.flags.writeable
            assert {k: type(got[k]) for k in bad} == bad


def test_build_space_errors():
    # a bad point set is a slot holding its error, never a raise
    fam = rkhs.KernelFamily("szego")
    got = rkhs.build_space(fam, [[0.1, 0.1], [0.5, 1.2], [0.5, 0.5 + 1e-14], [0.0, 0.5]])
    assert [type(slot) for slot in got] == [DuplicatePoints, BadParams, IllConditioned,
                                            rkhs.KernelSpace]
    assert str(got[0]) == "sample points must be pairwise distinct"
    assert str(got[1]) == "szego points must satisfy |p| < 1"
    assert re.fullmatch(r"gram spectrum \[\S+, \S+\] below cond floor", str(got[2]))
    [empty] = rkhs.build_space(fam, [[]])
    assert type(empty) is BadParams and str(empty) == "need at least one sample point"
    with pytest.raises(BadParams):
        rkhs.KernelFamily("gaussian", {"sigma": 0.0})
    with pytest.raises(BadParams):
        rkhs.KernelFamily("nosuch")


@pytest.mark.parametrize("sigma", ("1", None, float("nan"), -1.0))
def test_gaussian_sigma_must_be_a_positive_real(sigma):
    # a sigma that is not a real number is the same one-line error as a
    # nonpositive one, not a TypeError from comparing it with 0
    with pytest.raises(BadParams, match=r"^gaussian kernel needs sigma > 0$"):
        rkhs.KernelFamily("gaussian", {"sigma": sigma})


# ---------------------------------------------------------------------------
# Berezin symbols and numbers


def test_symbol_identity_space_is_diagonal():
    rng = np.random.default_rng(7)
    a = cgauss(rng, (3, 3))
    sp = rkhs.identity_space(3)
    for j in range(3):
        assert abs(rkhs.berezin_symbols(sp, a)[j] - a[j, j]) <= 1e-12


def test_symbol_of_identity_operator():
    rng = np.random.default_rng(9)
    sp = random_space(rng, 4)
    for j in range(4):
        assert abs(rkhs.berezin_symbols(sp, np.eye(4))[j] - 1.0) <= 1e-12


def test_symbol_gram_ratio_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        sp = random_space(rng, int(rng.integers(1, 7)))
        a = cgauss(rng, (sp.dim, sp.dim))
        for j in range(sp.dim):
            k = sp.chart[:, j]
            want = (np.conj(k) @ (a @ k)) / (np.conj(k) @ k).real
            assert abs(rkhs.berezin_symbols(sp, a)[j] - want) <= 1e-10 * (1.0 + abs(want))


def test_berezin_number_examples():
    sp = rkhs.identity_space(2)
    assert rkhs.berezin_number(sp, np.diag([1.0, 2.0])) == 2.0
    assert rkhs.berezin_number(sp, np.zeros((2, 2))) == 0.0


def test_berezin_number_brute_force_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        sp = random_space(rng, int(rng.integers(1, 7)))
        a = cgauss(rng, (sp.dim, sp.dim))
        got = rkhs.berezin_number(sp, a)
        want = gram_ratio_ber(sp, a)
        assert abs(got - want) <= 1e-10 * (1.0 + want)
        # the peak is the symbol of largest modulus
        moduli = np.abs(rkhs.berezin_symbols(sp, a))
        assert moduli[np.argmax(moduli)] == got


def test_berezin_dimension_mismatch():
    sp = rkhs.identity_space(2)
    with pytest.raises(DimensionMismatch):
        rkhs.berezin_number(sp, np.eye(3))


# ---------------------------------------------------------------------------
# ber axioms


def test_homogeneity():
    rng = np.random.default_rng(17)
    for _ in range(30):
        sp = random_space(rng, int(rng.integers(1, 6)))
        a = cgauss(rng, (sp.dim, sp.dim))
        alpha = complex(cgauss(rng, ()))
        lhs = rkhs.berezin_number(sp, alpha * a)
        rhs = abs(alpha) * rkhs.berezin_number(sp, a)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


def test_subadditivity_and_norm_bound():
    rng = np.random.default_rng(19)
    for _ in range(30):
        sp = random_space(rng, int(rng.integers(1, 6)))
        a = cgauss(rng, (sp.dim, sp.dim))
        b = cgauss(rng, (sp.dim, sp.dim))
        assert (rkhs.berezin_number(sp, a + b)
                <= rkhs.berezin_number(sp, a) + rkhs.berezin_number(sp, b) + 1e-10)
        assert rkhs.berezin_number(sp, a) <= numlin.operator_norm(a) + 1e-10


# ---------------------------------------------------------------------------
# per-kernel operator inequalities (Jensen and mixed Schwarz)


def test_jensen_power_inequalities():
    # PSD T, unit kernel: <Tk,k>^r <= <T^r k,k> for r >= 1, reversed for r <= 1
    rng = np.random.default_rng(23)
    for _ in range(30):
        sp = random_space(rng, int(rng.integers(1, 6)))
        g = cgauss(rng, (sp.dim, sp.dim))
        t = g.conj().T @ g
        khat = sp.normalized_chart()
        for r in (1.0, 1.5, 2.0, 3.0):
            tr = numlin.matrix_power_psd(t, r)
            tinv = numlin.matrix_power_psd(t, 1.0 / r)
            for j in range(sp.dim):
                k = khat[:, j]
                base = (np.conj(k) @ (t @ k)).real
                assert max(base, 0.0) ** r <= (np.conj(k) @ (tr @ k)).real + 1e-10
                assert (np.conj(k) @ (tinv @ k)).real <= max(base, 0.0) ** (1.0 / r) + 1e-10


def test_mixed_schwarz():
    # |<Tx,y>|^2 <= <|T|^{2p} x,x> <|T*|^{2(1-p)} y,y>
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        t = cgauss(rng, (n, n))
        x, y = cgauss(rng, n), cgauss(rng, n)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            f2 = numlin.matrix_power_psd(numlin.matrix_abs(t), 2.0 * p)
            g2 = numlin.matrix_power_psd(numlin.matrix_abs(t.conj().T), 2.0 * (1.0 - p))
            lhs = abs(np.conj(y) @ (t @ x)) ** 2
            rhs = (np.conj(x) @ (f2 @ x)).real * (np.conj(y) @ (g2 @ y)).real
            assert lhs <= rhs + 1e-10 * (1.0 + rhs)


# ---------------------------------------------------------------------------
# rotation identity


def test_rotations_hermitian_psd_attained_at_zero():
    rng = np.random.default_rng(31)
    g = cgauss(rng, (3, 3))
    a = g.conj().T @ g
    sp = rkhs.identity_space(3)
    got = rkhs.ber_via_rotations(sp, a, 720)
    assert abs(got - rkhs.berezin_number(sp, a)) <= 1e-4 * (1.0 + got)


def test_rotations_skew_identity():
    sp = rkhs.identity_space(2)
    got = rkhs.ber_via_rotations(sp, 1j * np.eye(2), 720)
    assert abs(got - 1.0) <= 1e-4


def test_rotations_monotone_and_bounded():
    rng = np.random.default_rng(37)
    for _ in range(10):
        sp = random_space(rng, int(rng.integers(1, 6)))
        a = cgauss(rng, (sp.dim, sp.dim))
        ber = rkhs.berezin_number(sp, a)
        prev = 0.0
        for grid in (4, 8, 16, 64, 720):
            cur = rkhs.ber_via_rotations(sp, a, grid)
            assert cur >= prev - 1e-15
            assert cur <= ber + 1e-12
            prev = cur
        assert abs(prev - ber) <= 1e-4 * (1.0 + ber)


def space_of_dim(n):
    """A space of the family picked by n, with well-separated points."""
    if n % 3 == 0:
        return rkhs.identity_space(n)
    if n % 3 == 1:
        pts = [0.7 * np.exp(2j * np.pi * j / n) if j else 0.0 for j in range(n)]
        return rkhs.build_space(rkhs.KernelFamily("szego"), [pts])[0]
    return rkhs.build_space(rkhs.KernelFamily("gaussian"), [[1.5 * j for j in range(n)]])[0]


def test_rotation_sweep_matches_per_angle_loop_bit_for_bit():
    rng = np.random.default_rng(71)
    for n in range(1, 9):
        sp = space_of_dim(n)
        g = cgauss(rng, (n, n))
        for a in (g, np.asfortranarray(g), g.T):
            for grid in (4, 7, 720):
                thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
                want = max(rkhs.berezin_number(sp, numlin.re_rotation(a, t))
                           for t in thetas)
                assert rkhs.ber_via_rotations(sp, a, grid) == want


def test_berezin_symbols_of_a_stack_match_per_slice():
    rng = np.random.default_rng(73)
    for n in range(1, 9):
        sp = space_of_dim(n)
        stack = cgauss(rng, (5, n, n))
        got = rkhs.berezin_symbols(sp, stack)
        assert got.shape == (5, n)
        for row, a in zip(got, stack):
            assert np.array_equal(row, rkhs.berezin_symbols(sp, a))
        with pytest.raises(DimensionMismatch):
            rkhs.berezin_symbols(sp, np.zeros((5, n + 1, n + 1)))
        # a stack's Berezin numbers are its slices', bit for bit
        assert rkhs.berezin_number(sp, stack) == [rkhs.berezin_number(sp, a)
                                                  for a in stack]


def test_a_stacked_space_hands_back_each_chart():
    # a stacked space holds its slices' charts as they are, not as one
    # stacked array, which no evaluation reads; unstack_space and a
    # checker's sub-stack (theorems._take) still hand back each slice's
    # chart, read-only and bit for bit
    rng = np.random.default_rng(83)
    for n in (1, 3, 4):
        spaces = [space_of_dim(n), rkhs.identity_space(n)] + [random_space(rng, n)
                                                              for _ in range(3)]
        stacked = rkhs.stack_spaces(spaces)
        assert all(mine is sp.chart for mine, sp in zip(stacked.chart, spaces))
        for got, want in [(rkhs.unstack_space(stacked, 5), spaces),
                          ([theorems._take(stacked, [k]) for k in range(5)], spaces)] + [
                (rkhs.unstack_space(theorems._take(stacked, ks), 3), [spaces[k] for k in ks])
                for ks in ([0, 2, 4], [1, 2, 3])]:  # a sub-stack, and a run of slices
            for mine, sp in zip(got, want, strict=True):
                assert mine.points == sp.points and mine.gram.ndim == 2
                for a, b in ((sp.gram, mine.gram), (sp.chart, mine.chart),
                             (sp.normalized_chart(), mine.normalized_chart())):
                    assert (b.strides, b.tobytes()) == (a.strides, a.tobytes())
                    assert not b.flags.writeable


def test_stack_spaces_keeps_each_normalized_chart_layout():
    # a normalized chart slice is F-ordered, strides (16, 16 n): np.stack keeps
    # that layout, while np.array would copy it C-ordered, and berezin_symbols'
    # einsum then rounds differently. The stacked space keeps each slice's
    # strides and bytes, and its symbols are each lone space's, bit for bit
    rng = np.random.default_rng(101)
    for n in (2, 3, 4, 6):
        spaces = [random_space(rng, n) for _ in range(5)] + [rkhs.identity_space(n)]
        stacked, ops = rkhs.stack_spaces(spaces), cgauss(rng, (6, n, n))
        for mine, sp in zip(stacked.normalized_chart(), spaces, strict=True):
            want = sp.normalized_chart()
            assert want.strides == (16, 16 * n)
            assert (mine.strides, mine.tobytes()) == (want.strides, want.tobytes())
        assert rkhs.berezin_symbols(stacked, ops).tobytes() == b"".join(
            rkhs.berezin_symbols(sp, a).tobytes() for sp, a in zip(spaces, ops))


def test_rotations_grid_minimum():
    with pytest.raises(BadParams):
        rkhs.ber_via_rotations(rkhs.identity_space(1), np.eye(1), 3)


def test_rotation_sweep_of_a_stack_matches_lone_calls():
    # a stack with one grid per slice, over a stacked or a shared space,
    # gives each slice's lone sweep bit for bit; unstack_space hands each
    # slice its own space back
    rng = np.random.default_rng(79)
    grids = [4, 7, 720, 16]
    for n in (1, 2, 4):
        spaces = [space_of_dim(n), rkhs.identity_space(n)] + [random_space(rng, n)
                                                              for _ in range(2)]
        stack = cgauss(rng, (4, n, n))
        stacked = rkhs.stack_spaces(spaces)
        for space, own in ((stacked, spaces), (spaces[1], [spaces[1]] * 4)):
            slices = rkhs.unstack_space(space, 4)
            for mine, sp in zip(slices, own):
                assert mine.points == sp.points
                for a, b in ((sp.gram, mine.gram), (sp.normalized_chart(),
                                                    mine.normalized_chart())):
                    assert (b.strides, b.tobytes()) == (a.strides, a.tobytes())
            assert rkhs.ber_via_rotations(space, stack, grids) == [
                rkhs.ber_via_rotations(sp, a, g) for sp, a, g in zip(own, stack, grids)]
        assert all(sp is spaces[1] for sp in rkhs.unstack_space(spaces[1], 4))
        with pytest.raises(BadParams):
            rkhs.ber_via_rotations(stacked, stack, [4, 3, 4, 4])
