"""Property tests for the laws the checkers rely on.

Each law is checked on operators from the campaign's own ensembles
(``harness._draw_gaussians``, then ``harness._build_operators``), drawn by
hypothesis with a fixed derandomized search so the suite stays reproducible.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berlab import blockops, harness, numlin, rkhs
from berlab.errors import IllConditioned

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

kinds = st.sampled_from(harness.OPERATOR_KINDS)
dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
exponents = st.floats(min_value=0.0, max_value=3.0)
families = st.sampled_from(harness.DEFAULT_FAMILIES)
block_shapes = st.sampled_from(("diag", "offdiag", "full"))


def operator(kind, n, seed):
    [op] = harness._build_operators([harness._draw_gaussians(np.random.default_rng(seed), kind, n)])
    return op


def modulus(kind, n, seed):
    return numlin.matrix_abs(operator(kind, n, seed))


def scale_of(a):
    return 1.0 + numlin.operator_norm(a)


@PROPERTY_SETTINGS
@given(kind=kinds, n=dims, seed=seeds, p=exponents, q=exponents, support=st.booleans())
def test_powers_of_the_modulus_add(kind, n, seed, p, q, support):
    # |T|^p |T|^q = |T|^(p+q), for the full and the support power alike
    ab = modulus(kind, n, seed)
    prod = (numlin.matrix_power_psd(ab, p, support=support)
            @ numlin.matrix_power_psd(ab, q, support=support))
    want = numlin.matrix_power_psd(ab, p + q, support=support)
    assert numlin.operator_norm(prod - want) <= 1e-9 * scale_of(ab) ** (p + q)


@PROPERTY_SETTINGS
@given(kind=kinds, n=dims, seed=seeds)
def test_support_power_zero_is_the_range_projection(kind, n, seed):
    ab = modulus(kind, n, seed)
    proj = numlin.matrix_power_psd(ab, 0.0, support=True)
    assert numlin.operator_norm(proj @ proj - proj) <= 1e-12
    assert numlin.operator_norm(proj - proj.conj().T) <= 1e-12
    assert numlin.operator_norm(proj @ ab - ab) <= 1e-9 * scale_of(ab)


def draw_space(family, n, seed):
    [space] = harness.draw_space([np.random.default_rng(seed)], family, n)
    assume(not isinstance(space, IllConditioned))
    return space


@PROPERTY_SETTINGS
@given(family=families, kind=kinds, n=dims, seed=seeds,
       alpha_re=st.floats(-3.0, 3.0), alpha_im=st.floats(-3.0, 3.0))
def test_berezin_number_is_absolutely_homogeneous(family, kind, n, seed, alpha_re, alpha_im):
    space = draw_space(family, n, seed)
    a = operator(kind, n, seed)
    alpha = complex(alpha_re, alpha_im)
    got = rkhs.berezin_number(space, alpha * a)
    want = abs(alpha) * rkhs.berezin_number(space, a)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(alpha)) * scale_of(a)


@PROPERTY_SETTINGS
@given(family=families, kind=kinds, n=dims, seed=seeds)
def test_berezin_number_of_the_adjoint(family, kind, n, seed):
    space = draw_space(family, n, seed)
    a = operator(kind, n, seed)
    got = rkhs.berezin_number(space, a.conj().T)
    assert abs(got - rkhs.berezin_number(space, a)) <= 1e-12 * scale_of(a)


@PROPERTY_SETTINGS
@given(family=families, kind=kinds, n=dims, seed=seeds)
def test_berezin_number_is_at_most_the_norm(family, kind, n, seed):
    space = draw_space(family, n, seed)
    a = operator(kind, n, seed)
    assert rkhs.berezin_number(space, a) <= numlin.operator_norm(a) * (1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(kind=kinds, n=dims, seed=seeds, t=st.floats(min_value=0.0, max_value=1.0))
def test_aluthge_transform_keeps_the_spectrum(kind, n, seed, t):
    # the traces of all powers up to n fix the spectrum, and unlike the
    # eigenvalues of a non-normal T they are well conditioned
    a = operator(kind, n, seed)
    tilde = blockops.aluthge_general(a, t)
    for k in range(1, n + 1):
        want = np.trace(np.linalg.matrix_power(a, k))
        got = np.trace(np.linalg.matrix_power(tilde, k))
        assert abs(got - want) <= 1e-9 * (1.0 + numlin.operator_norm(a) ** k)


def random_block(shape, family, kind, n1, n2, seed):
    """A block of ``shape`` over two drawn spaces; the blocks it leaves out are 0."""
    space1, space2 = draw_space(family, n1, seed), draw_space(family, n2, seed + 1)
    n = max(n1, n2)
    s, r = operator(kind, n1, seed), operator(kind, n2, seed + 1)
    x, y = operator(kind, n, seed + 2)[:n1, :n2], operator(kind, n, seed + 3)[:n2, :n1]
    if shape == "diag":
        x, y = np.zeros_like(x), np.zeros_like(y)
    if shape == "offdiag":
        s, r = np.zeros_like(s), np.zeros_like(r)
    return blockops.BlockOperator(S=s, X=x, Y=y, R=r, space1=space1, space2=space2)


@PROPERTY_SETTINGS
@given(shape=block_shapes, family=families, kind=kinds, n1=dims, n2=dims, seed=seeds)
def test_block_conventions_against_the_assembled_operator(shape, family, kind, n1, n2, seed):
    # the joint convention is |<T u, u>| for the unit vector u = (k1 + k2)/sqrt(2)
    # that puts the normalized kernels of a pair side by side, on the dense
    # assembled T, maximized over the pairs; pair is twice joint at that pair
    block = random_block(shape, family, kind, n1, n2, seed)
    dense = blockops.assemble(block)
    k1, k2 = block.space1.normalized_chart(), block.space2.normalized_chart()
    values = np.empty((n1, n2))
    for j1 in range(n1):
        for j2 in range(n2):
            u = np.concatenate([k1[:, j1], k2[:, j2]]) / math.sqrt(2.0)
            values[j1, j2] = abs(np.vdot(u, dense @ u))
    joint, (j1, j2) = blockops.ber_block(block, "joint")
    tol = 1e-12 * (1.0 + abs(joint))
    assert abs(joint - values[j1, j2]) <= tol
    assert abs(joint - values.max()) <= tol
    assert blockops.ber_block(block, "pair") == (2.0 * joint, (j1, j2))


def full_sweep(space, a, grid):
    """max over the grid of ber(Re(e^{i theta} A)), every angle rotated in one stack."""
    theta = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    return float(np.abs(rkhs.berezin_symbols(space, numlin.re_rotation(a, theta))).max())


@pytest.mark.parametrize("grid", (4, 7, 720, 721))
@pytest.mark.parametrize("family", harness.DEFAULT_FAMILIES, ids=lambda f: f.tag)
def test_pruned_rotation_sweep_is_the_full_sweep_bit_for_bit(family, grid):
    # an odd grid has no angle theta + pi, so a single angle often survives
    # the bound, and the second angle rotated with it keeps einsum's rounding
    rng = np.random.default_rng(grid)
    for n in range(1, 9):
        [space] = harness.draw_space([rng], family, n)
        assert isinstance(space, rkhs.KernelSpace)
        for kind in harness.OPERATOR_KINDS:
            a = operator(kind, n, int(rng.integers(2**32)))
            for t in (a, 1e-8 * a, 1e8 * a, np.zeros_like(a)):
                assert rkhs.ber_via_rotations(space, t, grid) == full_sweep(space, t, grid)
