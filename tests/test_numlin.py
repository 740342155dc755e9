"""Tests for the dense linear-algebra primitives.

Derived quantities are checked against independent oracles: power iteration
for the operator norm, Newton-Schulz iteration for the matrix absolute
value, trace preservation for the Hermitian eigendecomposition, and direct
multiplication for the spectral functional calculus.
"""

import math

import numpy as np
import pytest

from berlab import numlin, theorems
from berlab.errors import NotHermitian, NotPSD


def cgauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def power_iteration_norm(a, iters=2000, seed=0):
    """sqrt of the top eigenvalue of A*A by plain power iteration."""
    rng = np.random.default_rng(seed)
    gram = a.conj().T @ a
    v = cgauss(rng, gram.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return math.sqrt(lam)


def newton_schulz_sqrt(a, iters=60):
    """Matrix square root of a PSD matrix by the Newton-Schulz iteration."""
    n = a.shape[0]
    scale = np.linalg.norm(a, 2)
    if scale == 0.0:
        return np.zeros_like(a)
    y = a / scale
    z = np.eye(n, dtype=np.complex128)
    for _ in range(iters):
        t = (3.0 * np.eye(n) - z @ y) / 2.0
        y = y @ t
        z = t @ z
    return y * math.sqrt(scale)


# ---------------------------------------------------------------------------
# operator_norm


def test_operator_norm_examples():
    assert numlin.operator_norm(np.diag([3.0, 4.0])) == 4.0
    assert numlin.operator_norm([[0, 1], [0, 0]]) == 1.0


def test_operator_norm_power_iteration_oracle():
    rng = np.random.default_rng(11)
    for i in range(25):
        a = cgauss(rng, (4, 4))
        got = numlin.operator_norm(a)
        want = power_iteration_norm(a, seed=i)
        assert abs(got - want) <= 1e-8 * max(1.0, want)


def test_operator_norm_adjoint_invariant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = cgauss(rng, (rng.integers(1, 6), rng.integers(1, 6)))
        na, nb = numlin.operator_norm(a), numlin.operator_norm(a.conj().T)
        assert abs(na - nb) <= 1e-12 * max(1.0, na)


def test_operator_norm_is_numpys_two_norm_bit_for_bit():
    rng = np.random.default_rng(19)
    for n in range(17):
        cols = sorted({n, max(n - 1, 0), min(n + 2, 16), 16 - n})
        for m in cols:
            g = cgauss(rng, (n, m))
            u, v = cgauss(rng, (n, 1)), cgauss(rng, (1, m))
            big = cgauss(rng, (2 * m + 1, 2 * n + 1))
            # plain, rank-one, zero and two strided adjoint views
            for a in (g, u @ v, np.zeros((n, m), dtype=np.complex128),
                      big.conj().T[::2, 1::2][:n, :m], cgauss(rng, (m, n)).conj().T):
                assert a.shape == (n, m)
                assert numlin.operator_norm(a) == np.linalg.norm(a, 2), (n, m)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        numlin.as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        numlin.as_matrix([1.0, 2.0])  # not 2-d
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(2, dtype=np.complex128)
        m[0, 1] = complex(0.0, bad)  # finite real part, non-finite imaginary part
        assert np.isfinite(m.real).all()
        with pytest.raises(ValueError):
            numlin.as_matrix(m)


def test_as_matrix_stacks_only_on_request():
    stack = np.zeros((3, 2, 2), dtype=np.complex128)
    assert numlin.as_matrix(stack, stack=True).shape == (3, 2, 2)
    with pytest.raises(ValueError):
        numlin.as_matrix(stack)
    with pytest.raises(ValueError):
        numlin.as_matrix([1.0, 2.0], stack=True)
    stack[1, 0, 1] = complex(0.0, np.inf)
    with pytest.raises(ValueError):
        numlin.as_matrix(stack, stack=True)


# ---------------------------------------------------------------------------
# hermitian_eig


def test_hermitian_eig_examples():
    w, _ = numlin.hermitian_eig(np.diag([2.0, 1.0]))
    assert np.allclose(w, [1.0, 2.0])
    w, _ = numlin.hermitian_eig(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])


def test_hermitian_eig_trace_reconstruction_unitarity():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = cgauss(rng, (5, 5))
        a = (g + g.conj().T) / 2.0
        w, q = numlin.hermitian_eig(a)
        # trace oracle: sum of eigenvalues equals the trace
        assert abs(np.sum(w) - np.trace(a).real) <= 1e-10 * max(
            1.0, abs(np.trace(a).real))
        scale = max(1.0, numlin.operator_norm(a))
        assert numlin.operator_norm((q * w) @ q.conj().T - a) <= 1e-10 * scale
        assert numlin.operator_norm(q.conj().T @ q - np.eye(5)) <= 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        numlin.hermitian_eig([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        numlin.hermitian_eig(np.zeros((2, 3)))


def test_hermitian_eig_defect_tolerance():
    # inputs that are Hermitian only up to rounding take the norm check:
    # H + d*E has defect ||d*(E - E*)|| = d for E the 2x2 shift
    h = np.diag([1.0, 2.0]).astype(np.complex128)
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    tol = numlin.HERM_TOL * numlin.operator_norm(h)
    w, _ = numlin.hermitian_eig(h + 0.5 * tol * shift)
    assert np.allclose(w, [1.0, 2.0])
    with pytest.raises(NotHermitian):
        numlin.hermitian_eig(h + 2.0 * tol * shift)


# ---------------------------------------------------------------------------
# matrix_abs / spectral functions


def test_matrix_abs_examples():
    assert np.allclose(numlin.matrix_abs([[0, 2], [0, 0]]), np.diag([0.0, 2.0]))
    assert np.allclose(numlin.matrix_abs(-np.eye(3)), np.eye(3))


def test_matrix_abs_newton_schulz_oracle():
    rng = np.random.default_rng(19)
    for _ in range(20):
        t = cgauss(rng, (4, 4))
        gram = t.conj().T @ t
        got = numlin.matrix_abs(t)
        want = newton_schulz_sqrt((gram + gram.conj().T) / 2.0)
        assert numlin.operator_norm(got - want) <= 1e-8 * max(1.0, numlin.operator_norm(want))


def test_matrix_abs_square_matches_gram():
    rng = np.random.default_rng(23)
    for _ in range(20):
        t = cgauss(rng, (rng.integers(1, 6), rng.integers(1, 6)))
        ab = numlin.matrix_abs(t)
        gram = t.conj().T @ t
        assert numlin.operator_norm(ab @ ab - gram) <= 1e-9 * max(1.0, numlin.operator_norm(gram))


def test_matrix_abs_idempotent_on_psd():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = cgauss(rng, (4, 4))
        a = g.conj().T @ g
        once = numlin.matrix_abs(a)
        twice = numlin.matrix_abs(once)
        assert numlin.operator_norm(once - twice) <= 1e-9 * max(1.0, numlin.operator_norm(a))


def test_apply_spectral_function_examples():
    rng = np.random.default_rng(31)
    g = cgauss(rng, (3, 3))
    a = g.conj().T @ g
    assert numlin.operator_norm(
        numlin.apply_spectral_function(a, lambda t: t) - a) <= 1e-12 * numlin.operator_norm(a)
    assert np.allclose(
        numlin.apply_spectral_function(np.diag([4.0, 9.0]), np.sqrt), np.diag([2.0, 3.0]))


def test_apply_spectral_function_square_oracle():
    rng = np.random.default_rng(37)
    for _ in range(15):
        g = cgauss(rng, (4, 4))
        a = g.conj().T @ g
        sq = numlin.apply_spectral_function(a, lambda t: t * t)
        assert numlin.operator_norm(sq - a @ a) <= 1e-10 * max(1.0, numlin.operator_norm(a @ a))


def test_apply_spectral_function_rejects_negative():
    with pytest.raises(NotPSD):
        numlin.apply_spectral_function(np.diag([1.0, -0.5]), np.sqrt)


def test_spectral_power_pair_contract():
    # f(t) = t^p, g(t) = t^(1-p): f(|T|) g(|T|) = |T|
    rng = np.random.default_rng(41)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = cgauss(rng, (4, 4))
        ab = numlin.matrix_abs(t)
        prod = numlin.matrix_power_psd(ab, p) @ numlin.matrix_power_psd(ab, 1.0 - p)
        assert numlin.operator_norm(prod - ab) <= 1e-9 * max(1.0, numlin.operator_norm(ab))


def test_power_function_zero_conventions():
    a = np.diag([0.0, 3.0])
    # A^0 is the full identity under the general convention
    assert np.array_equal(numlin.matrix_power_psd(a, 0.0), np.eye(2))
    # and the projection onto range(A) on the support only
    assert np.array_equal(numlin.matrix_power_psd(a, 0.0, support=True), np.diag([0.0, 1.0]))


# Reference copies of the two power kernels the pinned reports were computed
# with. The full power applies Python's pow to each eigenvalue and the
# support power numpy's array power; the two differ in the last bit on some
# inputs, so each kernel is compared to its own formula with ==.

def full_power_formula(a, p):
    w, q = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    vals = np.asarray([float(x) ** p if not (x == 0.0 and p == 0) else 1.0 for x in w],
                      dtype=np.float64)
    out = (q * vals) @ q.conj().T
    return (out + out.conj().T) / 2.0


def support_power_formula(a, t):
    w, q = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    wmax = float(np.max(w)) if w.size else 0.0
    support = w > 1e-12 * wmax if wmax > 0 else np.zeros_like(w, dtype=bool)
    vals = np.where(support, np.where(support, w, 1.0) ** t, 0.0)
    out = (q * vals) @ q.conj().T
    return (out + out.conj().T) / 2.0


def grid_exponents():
    """Every exponent the checkers raise a modulus to on the default grid."""
    unit = theorems.PARAM_GRID["p"]  # also the t, nu and e grid
    rs = theorems.PARAM_GRID["r"]
    out = {x for u in unit for x in (u, 1.0 - u, 2.0 * u, 2.0 * (1.0 - u))}
    out |= {x for r in rs for x in (r, 1.0 / r)}
    out |= {2.0 * r * u for r in rs for u in unit}
    out |= {e * s * r for e in unit for pair in theorems.CONJUGATE_PAIRS for s in pair
            for r in rs}
    return sorted(out)


def psd_inputs(rng, n):
    """Moduli of full-rank and rank-deficient operators, plus a diagonal with zeros."""
    g = cgauss(rng, (n, n))
    cut = g.copy()
    cut[:, : max(1, n // 2)] = 0.0  # kernel of dimension max(1, n/2)
    rank_one = np.outer(cgauss(rng, n), cgauss(rng, n).conj())
    diag = np.diag(np.where(np.arange(n) % 2 == 0, 0.0, rng.random(n) * 4.0))
    return [numlin.matrix_abs(g), numlin.matrix_abs(cut), numlin.matrix_abs(rank_one),
            numlin.polar_decompose(cut)[1], numlin.polar_decompose(np.triu(g, 1))[1],
            g.conj().T @ g, diag.astype(np.complex128)]


def test_matrix_power_kernels_bit_for_bit():
    rng = np.random.default_rng(67)
    exponents = grid_exponents()
    for n in range(1, 9):
        for a in psd_inputs(rng, n):
            for p in exponents:
                assert np.array_equal(numlin.matrix_power_psd(a, p), full_power_formula(a, p))
                assert np.array_equal(numlin.matrix_power_psd(a, p, support=True),
                                      support_power_formula(a, p))


def abs_formula(t):
    """|T| written out for one matrix, as the pinned reports computed it."""
    gram = t.conj().T @ t
    w, q = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    out = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.conj().T
    return (out + out.conj().T) / 2.0


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_spectral_stack_matches_per_slice_bit_for_bit():
    # callers stack X with Y* and Y with X*; the adjoints are strided views
    # when called one at a time and C-contiguous slices in a stack
    rng = np.random.default_rng(71)
    exponents = sorted({0.0, 0.5, 1.0, 2.0, *grid_exponents()})
    shapes = [(n, n) for n in range(1, 17)] + [(1, 4), (3, 2), (5, 8), (12, 10)]
    for n1, n2 in shapes:
        x = cgauss(rng, (n1, n2))
        y = np.outer(cgauss(rng, n2), cgauss(rng, n1).conj())  # rank one
        ops = [x, y.conj().T, np.zeros((n1, n2), dtype=np.complex128)]
        moduli = numlin.matrix_abs(np.stack(ops))
        assert moduli.shape == (3, n2, n2)
        for op, mod in zip(ops, moduli):
            assert same_bits(mod, numlin.matrix_abs(op))
            assert same_bits(mod, abs_formula(op))
        for p in exponents:
            mixed = [p, 0.5 * p, 2.0 * p]
            for support, formula in ((False, full_power_formula),
                                     (True, support_power_formula)):
                for exps in ([p] * 3, mixed, p):
                    powers = numlin.matrix_power_psd(moduli, exps, support=support)
                    for mod, e, got in zip(moduli, np.broadcast_to(exps, 3), powers):
                        e = float(e)
                        assert same_bits(got, numlin.matrix_power_psd(mod, e, support=support))
                        assert same_bits(got, formula(mod, e))
    # the support power takes one array power per distinct exponent, over all the
    # rows that share it: the bits of one array power per row, stacks of 1-64
    # slices of full-rank, rank-one and zero moduli, exponents mixed per slice
    support_grid = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    for k in range(1, 65):
        n = 1 + k % 5
        ops = [(cgauss(rng, (n, n)), np.outer(cgauss(rng, n), cgauss(rng, n).conj()),
                np.zeros((n, n), dtype=np.complex128))[j % 3] for j in range(k)]
        moduli = numlin.matrix_abs(np.stack(ops))
        exps = [support_grid[int(i)] for i in rng.integers(len(support_grid), size=k)]
        w, _ = np.linalg.eigh(moduli)
        w = np.maximum(w, 0.0)
        assert same_bits(numlin._power((k,), exps, True)(w), support_rows_per_slice(w, exps))
        powers = numlin.matrix_power_psd(moduli, exps, support=True)
        for mod, e, got in zip(moduli, exps, powers):
            assert same_bits(got, support_power_formula(mod, e))


def support_rows_per_slice(w, exps):
    """The support power's eigenvalue map as the pinned reports spelled it: one
    numpy array power per row, with that row's Python-float exponent."""
    vals = np.empty_like(w)
    for row, e, out in zip(w, exps, vals):
        keep = row > numlin.RANK_TOL * (float(row[-1]) if row.size else 0.0)
        out[...] = np.where(keep, np.where(keep, row, 1.0) ** e, 0.0)
    return vals


def test_spectral_stack_error_paths():
    good = np.diag([1.0, 2.0]).astype(np.complex128)
    not_psd = np.diag([1.0, -1.0]).astype(np.complex128)
    not_herm = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=np.complex128)
    # a bad slice raises the error and message of the lone matrix
    with pytest.raises(NotPSD) as lone:
        numlin.matrix_power_psd(not_psd, 0.5)
    with pytest.raises(NotPSD) as stacked:
        numlin.matrix_power_psd(np.stack([good, not_psd, good]), 0.5)
    assert str(stacked.value) == str(lone.value)
    with pytest.raises(NotHermitian) as lone:
        numlin.hermitian_eig(not_herm)
    with pytest.raises(NotHermitian) as stacked:
        numlin.hermitian_eig(np.stack([good, not_herm]))
    assert str(stacked.value) == str(lone.value)
    # a 2-d input is an unstacked call and gives 2-d results
    assert numlin.hermitian_eig(good)[0].shape == (2,)
    assert numlin.matrix_abs(good).shape == (2, 2)
    assert numlin.apply_spectral_function(good, np.sqrt).shape == (2, 2)
    assert numlin.matrix_power_psd(good, 0.5, support=True).shape == (2, 2)
    # an exponent per slice, never broadcast from a wrong-length sequence
    stack = np.stack([good, good, good])
    for exps in ([0.5, 1.0], [0.5] * 4, [[0.5, 1.0, 2.0]]):
        with pytest.raises(ValueError):
            numlin.matrix_power_psd(stack, exps)
    with pytest.raises(ValueError):
        numlin.matrix_power_psd(good, [0.5])


def test_fused_abs_power_matches_two_step_bit_for_bit():
    # matrix_abs(t, p, support) powers the modulus it has just built without
    # checking it again; the bits are those of the checked two-step call
    rng = np.random.default_rng(79)
    exps = [0.0, 0.5, 1.0, 1.5, 2.0]
    shapes = [(n, n) for n in range(9)] + [(0, 3), (3, 0), (1, 4), (4, 1), (3, 2),
                                           (2, 3), (8, 5), (5, 8)]
    for n1, n2 in shapes:
        ops = np.stack([cgauss(rng, (n1, n2)),
                        np.outer(cgauss(rng, n1), cgauss(rng, n2).conj()),  # rank one
                        np.zeros((n1, n2), dtype=np.complex128),
                        1e-3 * cgauss(rng, (n1, n2)),
                        cgauss(rng, (n1, n2))])
        for support in (False, True):
            for p in exps + [exps]:
                two_step = numlin.matrix_power_psd(numlin.matrix_abs(ops), p, support)
                assert same_bits(numlin.matrix_abs(ops, p, support), two_step)
            for op, e in zip(ops, exps):
                two_step = numlin.matrix_power_psd(numlin.matrix_abs(op), e, support)
                assert same_bits(numlin.matrix_abs(op, e, support), two_step)


def test_fused_abs_power_error_paths(monkeypatch):
    # T*T can overflow where T is finite: the same ValueError as today
    huge = np.full((2, 2), 1e200, dtype=np.complex128)
    for p in (None, 0.5):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            numlin.matrix_abs(huge, p)
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        numlin.matrix_abs([[np.nan, 0.0]], 0.5)
    # a wrong exponent shape is rejected before any eigh runs
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or eigh(a))
    stack = np.stack([np.eye(2, dtype=np.complex128)] * 3)
    for exps in ([0.5, 1.0], [0.5] * 4, [[0.5, 1.0, 2.0]]):
        with pytest.raises(ValueError, match="^exponents of shape"):
            numlin.matrix_abs(stack, exps)
    with pytest.raises(ValueError, match="^exponents of shape"):
        numlin.matrix_abs(stack[0], [0.5])
    assert eighs == []
    assert numlin.matrix_abs(stack, [0.5, 1.0, 2.0]).shape == (3, 2, 2)
    assert len(eighs) == 2  # one for the moduli, one for the powers


def test_finite_checks_reject_what_all_rejected():
    # as_matrix counts the finite entries in C; it must reject exactly the
    # arrays that `not np.isfinite(m).all()` rejected: NaN or an infinity in
    # either part, and no signed zero or empty stack
    nan, inf = float("nan"), float("inf")
    cases = [np.zeros((0, 0)), np.zeros((0, 2, 2)), np.zeros((3, 0, 4)), -np.zeros((2, 2)),
             np.array([[complex(-0.0, -0.0)]]), np.eye(3), np.array([[1.0, nan]]),
             np.array([[complex(0.0, nan)]]), np.array([[inf, 0.0]]), np.array([[-inf]]),
             np.array([[complex(1.0, -inf)]]), np.full((2, 3, 3), nan)]
    for a in cases:
        m = np.asarray(a, dtype=np.complex128)
        rejected = not np.isfinite(m).all()
        if rejected:
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                numlin.as_matrix(a, stack=True)
        else:
            assert numlin.as_matrix(a, stack=True).tobytes() == m.tobytes()
    # the polar isometry's full-rank test is keep.all(), also on an empty stack
    for t in (np.zeros((0, 3, 3)), np.eye(2), np.diag([1.0, 0.0]), np.zeros((2, 2))):
        iso, _ = numlin.polar_decompose(t)
        u, s, vh = np.linalg.svd(np.asarray(t, dtype=np.complex128))
        keep = s > numlin.RANK_TOL * s[..., :1]
        if keep.all():
            assert same_bits(iso, u @ vh)


# ---------------------------------------------------------------------------
# polar decomposition


def test_polar_examples():
    u, mod = numlin.polar_decompose(np.diag([2.0, 0.0]))
    assert np.allclose(u, np.diag([1.0, 0.0]))
    assert np.allclose(mod, np.diag([2.0, 0.0]))
    rng = np.random.default_rng(43)
    w, _ = numlin.polar_decompose(cgauss(rng, (3, 3)))  # a random unitary
    u, mod = numlin.polar_decompose(w)
    assert numlin.operator_norm(u - w) <= 1e-10
    assert numlin.operator_norm(mod - np.eye(3)) <= 1e-10


def test_polar_invariants_random_and_rank_deficient():
    rng = np.random.default_rng(47)
    for i in range(40):
        n = int(rng.integers(1, 6))
        t = cgauss(rng, (n, n))
        if i % 3 == 0 and n > 1:
            t[:, 0] = 0.0  # force a kernel
        u, mod = numlin.polar_decompose(t)
        scale = 1.0 + numlin.operator_norm(t)
        assert numlin.operator_norm(u @ mod - t) <= 1e-9 * scale
        assert numlin.operator_norm(u @ u.conj().T @ u - u) <= 1e-9
        # U*U is the projection onto range(|T|)
        proj = u.conj().T @ u
        assert numlin.operator_norm(proj @ mod - mod) <= 1e-9 * scale
        assert numlin.operator_norm(proj @ proj - proj) <= 1e-9


def test_polar_and_norm_of_a_stack_match_per_slice_bit_for_bit():
    # one SVD for a stack; a rank-deficient slice drops only its own null
    # directions
    rng = np.random.default_rng(53)
    for n in (1, 2, 3, 6, 16):
        t = cgauss(rng, (9, n, n))
        t[4] = 0.0
        if n > 1:
            t[2, :, 0] = 0.0
        iso, mod = numlin.polar_decompose(t)
        norms = numlin.operator_norm(t)
        assert iso.shape == mod.shape == t.shape and norms.shape == (9,)
        for k in range(9):
            u1, m1 = numlin.polar_decompose(t[k])
            assert iso[k].tobytes() == u1.tobytes() and mod[k].tobytes() == m1.tobytes()
            assert norms[k] == numlin.operator_norm(t[k])


# ---------------------------------------------------------------------------
# re_rotation


def test_re_rotation_examples():
    rng = np.random.default_rng(53)
    g = cgauss(rng, (3, 3))
    h = (g + g.conj().T) / 2.0
    assert numlin.operator_norm(numlin.re_rotation(h, 0.0) - h) <= 1e-12
    assert numlin.operator_norm(numlin.re_rotation(1j * np.eye(2), 0.0)) <= 1e-12


def rotation_by_formula(a, theta):
    """Re(e^{i theta} A) for one angle, written out with a scalar phase."""
    z = np.exp(1j * theta)
    h = (z * a + np.conj(z) * a.conj().T) / 2.0
    return (h + h.conj().T) / 2.0


def test_re_rotation_stack_matches_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(61)
    for n in range(1, 9):
        g = cgauss(rng, (n, n))
        for a in (g, np.asfortranarray(g), g.T):
            for grid in (4, 7, 720):
                thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
                stack = numlin.re_rotation(a, thetas)
                assert stack.shape == (grid, n, n)
                assert stack.flags.c_contiguous
                scalar = np.stack([numlin.re_rotation(a, t) for t in thetas])
                assert np.array_equal(stack, scalar)
                formula = np.stack([rotation_by_formula(a, t) for t in thetas])
                assert np.array_equal(stack, formula)


def test_re_rotation_direct_formula():
    rng = np.random.default_rng(59)
    a = cgauss(rng, (4, 4))
    want = (1j * a - 1j * a.conj().T) / 2.0
    got = numlin.re_rotation(a, math.pi / 2.0)
    assert numlin.operator_norm(got - want) <= 1e-12 * max(1.0, numlin.operator_norm(a))
    assert numlin.operator_norm(got - got.conj().T) <= 1e-14
