"""Tests for the dense linear-algebra primitives.

Derived quantities are checked against independent oracles: power iteration
for the operator norm, Newton-Schulz iteration for the matrix absolute
value, trace preservation for the Hermitian eigendecomposition, and direct
multiplication for the spectral functional calculus.
"""

import math

import numpy as np
import pytest

from berlab import harness, numlin, theorems
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
    eig = numlin.hermitian_eig(np.diag([2.0, 1.0]))
    assert np.allclose(eig.eigenvalues, [1.0, 2.0])
    eig = numlin.hermitian_eig(np.eye(3))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])


def test_hermitian_eig_trace_reconstruction_unitarity():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = cgauss(rng, (5, 5))
        a = (g + g.conj().T) / 2.0
        eig = numlin.hermitian_eig(a)
        # trace oracle: sum of eigenvalues equals the trace
        assert abs(np.sum(eig.eigenvalues) - np.trace(a).real) <= 1e-10 * max(
            1.0, abs(np.trace(a).real))
        scale = max(1.0, numlin.operator_norm(a))
        q = eig.eigenvectors
        assert numlin.operator_norm((q * eig.eigenvalues) @ q.conj().T - a) <= 1e-10 * scale
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
    eig = numlin.hermitian_eig(h + 0.5 * tol * shift)
    assert np.allclose(eig.eigenvalues, [1.0, 2.0])
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
    unit = harness.DEFAULT_PARAM_GRID["p"]  # also the t, nu and e grid
    rs = harness.DEFAULT_PARAM_GRID["r"]
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
            numlin.polar_decompose(cut).modulus, numlin.polar_decompose(np.triu(g, 1)).modulus,
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


# ---------------------------------------------------------------------------
# polar decomposition


def test_polar_examples():
    parts = numlin.polar_decompose(np.diag([2.0, 0.0]))
    assert np.allclose(parts.isometry, np.diag([1.0, 0.0]))
    assert np.allclose(parts.modulus, np.diag([2.0, 0.0]))
    rng = np.random.default_rng(43)
    w = numlin.polar_decompose(cgauss(rng, (3, 3))).isometry  # a random unitary
    parts = numlin.polar_decompose(w)
    assert numlin.operator_norm(parts.isometry - w) <= 1e-10
    assert numlin.operator_norm(parts.modulus - np.eye(3)) <= 1e-10


def test_polar_invariants_random_and_rank_deficient():
    rng = np.random.default_rng(47)
    for i in range(40):
        n = int(rng.integers(1, 6))
        t = cgauss(rng, (n, n))
        if i % 3 == 0 and n > 1:
            t[:, 0] = 0.0  # force a kernel
        parts = numlin.polar_decompose(t)
        u, mod = parts.isometry, parts.modulus
        scale = 1.0 + numlin.operator_norm(t)
        assert numlin.operator_norm(u @ mod - t) <= 1e-9 * scale
        assert numlin.operator_norm(u @ u.conj().T @ u - u) <= 1e-9
        # U*U is the projection onto range(|T|)
        proj = u.conj().T @ u
        assert numlin.operator_norm(proj @ mod - mod) <= 1e-9 * scale
        assert numlin.operator_norm(proj @ proj - proj) <= 1e-9


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
