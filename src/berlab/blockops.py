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
    """T = [[S, X], [Y, R]] over spaces (space1, space2)."""

    S: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    R: np.ndarray
    space1: rkhs.KernelSpace
    space2: rkhs.KernelSpace

    def __post_init__(self):
        n1, n2 = self.space1.dim, self.space2.dim
        shapes = {
            "S": (self.S.shape, (n1, n1)),
            "X": (self.X.shape, (n1, n2)),
            "Y": (self.Y.shape, (n2, n1)),
            "R": (self.R.shape, (n2, n2)),
        }
        for name, (got, want) in shapes.items():
            if got != want:
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
    with each kernel individually normalized.
    """
    k1 = block.space1.normalized_chart()
    k2 = block.space2.normalized_chart()
    s = np.einsum("ji,jk,ki->i", k1.conj(), block.S, k1)
    r = np.einsum("ji,jk,ki->i", k2.conj(), block.R, k2)
    x = k1.conj().T @ block.X @ k2
    y = k2.conj().T @ block.Y @ k1
    return s[:, None] + x + y.T + r[None, :]


def ber_block(block, conv):
    """Berezin functional of a block operator under a named convention.

    Returns (value, (j1, j2)), the peak and the kernel pair attaining it.
    For a tuple of conventions it returns one such pair per convention, in
    order, all read off one kernel-pair grid.
    """
    convs = conv if isinstance(conv, tuple) else (conv,)
    for c in convs:
        if c not in CONVENTIONS:
            raise BadParams(f"unknown convention {c!r}")
    vals = np.abs(_pair_values(block))
    j1, j2 = np.unravel_index(int(np.argmax(vals)), vals.shape)
    pair = float(vals[j1, j2])
    # the joint convention halves the pair peak at the same kernel pair
    peaks = [(pair / 2.0 if c == "joint" else pair, (int(j1), int(j2)))
             for c in convs]
    return peaks if isinstance(conv, tuple) else peaks[0]


def _support_power(moduli, exps):
    """|T|^t on its support only, for a stack of already-PSD moduli.

    A name of its own so that perfbench's layer trace counts the powers the
    Aluthge transforms take.
    """
    return numlin.matrix_power_psd(np.stack(moduli), exps, support=True)


def aluthge_general(t_mat, t):
    """Generalized Aluthge transform |T|^t U |T|^(1-t)."""
    if not 0.0 <= t <= 1.0:
        raise BadParams("aluthge exponent must lie in [0, 1]")
    iso, modulus = numlin.polar_decompose(t_mat)
    left, right = _support_power([modulus] * 2, [t, 1.0 - t])
    return left @ iso @ right


def aluthge_offdiag(x, y, t, space1=None, space2=None):
    """Closed-form Aluthge transform of [[0, X], [Y, 0]] with square blocks.

    Returns the block [[0, |Y|^t U |X|^(1-t)], [|X|^t V |Y|^(1-t), 0]] with
    X = U|X| and Y = V|Y| the polar decompositions of the blocks.
    """
    x = numlin.as_matrix(x)
    y = numlin.as_matrix(y)
    if x.shape[0] != x.shape[1] or y.shape != x.shape:
        raise DimensionMismatch("aluthge_offdiag needs square X, Y of equal size")
    if not 0.0 <= t <= 1.0:
        raise BadParams("aluthge exponent must lie in [0, 1]")
    u, abs_x = numlin.polar_decompose(x)
    v, abs_y = numlin.polar_decompose(y)
    y_t, x_s, x_t, y_s = _support_power(
        [abs_y, abs_x, abs_x, abs_y], [t, 1.0 - t, t, 1.0 - t])
    top = y_t @ u @ x_s
    bottom = x_t @ v @ y_s
    return offdiag_block(top, bottom, space1=space1, space2=space2)
