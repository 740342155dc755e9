"""Property tests for the laws the checkers rely on.

Each law is checked on operators from the campaign's own ensembles
(``harness._draw_gaussians``, then ``harness._build_operators``), drawn by
hypothesis with a fixed derandomized search so the suite stays reproducible.
"""

import numpy as np
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


def operator(kind, n, seed):
    op = harness._draw_gaussians(np.random.default_rng(seed), kind, n)
    mask = None if op.mask is None else op.mask[None]
    return harness._build_operators(kind, op.g[None], mask)[0]


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
