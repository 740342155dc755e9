"""2x2 block operators over a pair of kernel spaces.

Includes the two Berezin conventions for kernel pairs and the
(generalized) Aluthge transform, both directly and through the closed-form
off-diagonal construction.
"""

from dataclasses import dataclass

import numpy as np

from . import numlin, rkhs
from .errors import BadParams, DimensionMismatch

CONVENTIONS = ("pair", "joint")


@dataclass(frozen=True)
class BlockOperator:
    """T = [[S, X], [Y, R]] over spaces (space1, space2).

    The four blocks may also be stacks along the same leading axes: one
    block operator per slice, over the same two spaces or, with stacked
    spaces (``rkhs.stack_spaces``), each over its own slice of them.
    """

    S: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    R: np.ndarray
    space1: rkhs.KernelSpace
    space2: rkhs.KernelSpace

    def __post_init__(self):
        n1, n2 = self.space1.dim, self.space2.dim
        lead = self.S.shape[:-2]
        want = (lead + (n1, n1), lead + (n1, n2), lead + (n2, n1), lead + (n2, n2))
        got = (self.S.shape, self.X.shape, self.Y.shape, self.R.shape)
        if got != want:  # one comparison; the first mismatched block names itself
            name, got, want = next(m for m in zip("SXYR", got, want) if m[1] != m[2])
            raise DimensionMismatch(f"block {name} is {got}, expected {want}")


def offdiag_block(x, y, space1=None, space2=None):
    """Convenience constructor for [[0, X], [Y, 0]]."""
    x = numlin.as_matrix(x)
    y = numlin.as_matrix(y)
    n1, n2 = x.shape
    space1 = space1 if space1 is not None else rkhs.identity_space(n1)
    space2 = space2 if space2 is not None else rkhs.identity_space(n2)
    zero1 = np.zeros((n1, n1), dtype=np.complex128)
    zero2 = np.zeros((n2, n2), dtype=np.complex128)
    return BlockOperator(S=zero1, X=x, Y=y, R=zero2, space1=space1, space2=space2)


def assemble(block):
    """Dense (n1+n2) x (n1+n2) matrix of the block operator."""
    top = np.hstack([block.S, block.X])
    bottom = np.hstack([block.Y, block.R])
    return np.vstack([top, bottom])


def _pair_values(block):
    """Component-normalized kernel-pair evaluations, as an n1 x n2 array.

    Entry (j1, j2) is <S k1, k1> + <X k2, k1> + <Y k1, k2> + <R k2, k2>
    with each kernel individually normalized; a stacked block gives one
    such array per slice. A zero S or R block is not summed: its terms are
    signed zeros, which the caller's abs drops.
    """
    k1 = block.space1.normalized_chart()
    k2 = block.space2.normalized_chart()
    # the terms keep the order (s + x) + y.T + r: another order moves bits
    vals = k1.conj().mT @ block.X @ k2
    if np.count_nonzero(block.S):
        vals = rkhs.berezin_symbols(block.space1, block.S)[..., :, None] + vals
    vals = vals + (k2.conj().mT @ block.Y @ k1).mT
    if np.count_nonzero(block.R):
        vals = vals + rkhs.berezin_symbols(block.space2, block.R)[..., None, :]
    return vals


def ber_block(block, conv):
    """Berezin functional of a block operator under a named convention.

    Returns (value, (j1, j2)), the peak and the kernel pair attaining it.
    For a tuple of conventions it returns one such pair per convention, in
    order, all read off one kernel-pair grid. A stacked block gives a list
    with one such result per slice.
    """
    convs = conv if isinstance(conv, tuple) else (conv,)
    for c in convs:
        if c not in CONVENTIONS:
            raise BadParams(f"unknown convention {c!r}")
    vals = np.abs(_pair_values(block))
    # the first peak of each slice's grid, in row-major order
    grids = vals.reshape((-1, vals.shape[-2] * vals.shape[-1]))
    per_slice = []
    for k, pair in zip(grids.argmax(axis=1).tolist(),
                       np.maximum.reduce(grids, axis=1).tolist()):
        j1, j2 = divmod(k, vals.shape[-1])
        # the joint convention halves the pair peak at the same kernel pair
        peaks = [(pair / 2.0 if c == "joint" else pair, (j1, j2)) for c in convs]
        per_slice.append(peaks if isinstance(conv, tuple) else peaks[0])
    return per_slice if vals.ndim > 2 else per_slice[0]


def _support_power(moduli, exps):
    """|T|^t on its support only, for a list of stacks of already-PSD moduli; a modulus
    listed more than once (the same object) takes one eigh.

    A name of its own so that perfbench's layer trace counts the powers the
    Aluthge transforms take.
    """
    return numlin._powers_once(moduli, exps, True, numlin.hermitian_eig)


def _exponents(t, lead):
    """The Aluthge exponent ``t`` as an array shaped like a stack's leading axes."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != lead or not ((0.0 <= t) & (t <= 1.0)).all():
        raise BadParams("aluthge exponent must lie in [0, 1], one per slice of a stack")
    return t


def aluthge_general(t_mat, t):
    """Generalized Aluthge transform |T|^t U |T|^(1-t); also of a stack of T,
    with ``t`` one exponent per slice, each slice with the bits of its lone one."""
    t = _exponents(t, np.shape(t_mat)[:-2])
    iso, modulus = numlin.polar_decompose(t_mat)
    left, right = _support_power([modulus] * 2, [t, 1.0 - t])
    return left @ iso @ right


def aluthge_offdiag(x, y, t, space1=None, space2=None):
    """Closed-form Aluthge transform of [[0, X], [Y, 0]] with square blocks.

    Returns the block [[0, |Y|^t U |X|^(1-t)], [|X|^t V |Y|^(1-t), 0]] with
    X = U|X| and Y = V|Y| the polar decompositions of the blocks. Stacks of
    X and Y, with ``t`` one exponent per slice shaped like their leading
    axes, give the stacked block, each slice with the bits of its lone one.
    """
    x = numlin.as_matrix(x, stack=True)
    y = numlin.as_matrix(y, stack=True)
    if x.shape[-2] != x.shape[-1] or y.shape != x.shape:
        raise DimensionMismatch("aluthge_offdiag needs square X, Y of equal size")
    t = _exponents(t, x.shape[:-2])
    u, abs_x = numlin.polar_decompose(x)
    v, abs_y = numlin.polar_decompose(y)
    y_t, x_s, x_t, y_s = _support_power(
        [abs_y, abs_x, abs_x, abs_y], [t, 1.0 - t, t, 1.0 - t])
    n = x.shape[-1]
    return BlockOperator(S=np.zeros_like(x), X=y_t @ u @ x_s, Y=x_t @ v @ y_s,
                         R=np.zeros_like(x), space1=space1 or rkhs.identity_space(n),
                         space2=space2 or rkhs.identity_space(n))
