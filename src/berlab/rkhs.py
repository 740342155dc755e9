"""Finite-dimensional kernel-space models and Berezin functionals.

A space is built from a finite point set and a positive-definite Gram
matrix. Operators act in an orthonormal coordinate chart, so all inner
products are the ordinary complex dot product. The Berezin supremum is the
exact maximum over the finite point set, which is the whole index set of
the model by construction.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numlin
from .errors import (
    BadParams,
    DimensionMismatch,
    DuplicatePoints,
    IllConditioned,
    IndexOutOfRange,
)

COND_FLOOR = 1e-10

FAMILY_TAGS = ("identity", "szego", "bergman", "gaussian")


@dataclass(frozen=True)
class KernelFamily:
    """A named reproducing kernel with family-specific parameters."""

    tag: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise BadParams(f"unknown kernel family {self.tag!r}")
        if self.tag == "gaussian":
            sigma = self.params.get("sigma", 1.0)
            if not sigma > 0:
                raise BadParams("gaussian kernel needs sigma > 0")

    def gram(self, points):
        """The matrix k(p_i, p_j) over a sequence of sample points.

        Each entry keeps the bits of the scalar formula k(z, w): complex array
        ``*``/``**`` and ``np.exp`` round differently, so products are spelled
        out in real arithmetic and the exponential stays ``math.exp``.
        """
        n = len(points)
        if self.tag == "identity":
            return np.eye(n, dtype=np.complex128)
        if self.tag == "gaussian":
            x = np.asarray(points, dtype=np.float64)
            den = 2.0 * self.params.get("sigma", 1.0) ** 2
            vals = [math.exp(-(v ** 2) / den)
                    for v in np.subtract.outer(x, x).ravel().tolist()]
            return np.array(vals, dtype=np.complex128).reshape(n, n)
        # d = 1 - z conj(w), with zi the imaginary part of z and wi that of conj(w)
        z = np.asarray(points, dtype=np.complex128)
        zr, zi = z.real[:, None], z.imag[:, None]
        wr, wi = z.real[None, :], -z.imag[None, :]
        re = 1.0 - (zr * wr - zi * wi)
        im = 0.0 - (zr * wi + zi * wr)
        if self.tag == "bergman":
            re, im = re * re - im * im, re * im + im * re
        d = np.empty((n, n), dtype=np.complex128)
        d.real, d.imag = re, im
        return np.divide(1.0, d)


@dataclass(frozen=True)
class KernelSpace:
    """Finite model of a functional Hilbert space.

    ``gram[i, j] = k(p_i, p_j)`` and column j of ``chart`` holds the
    coordinates of the kernel at point j in an orthonormal basis, so
    ``chart* chart == gram``.
    """

    points: tuple
    gram: np.ndarray
    chart: np.ndarray
    _khat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # read-only arrays, so that a shared space cannot be mutated
        self.gram.flags.writeable = False
        self.chart.flags.writeable = False
        norms = np.sqrt(np.einsum("ij,ij->j", self.chart.conj(), self.chart).real)
        khat = self.chart / norms[None, :]
        khat.flags.writeable = False
        object.__setattr__(self, "_khat", khat)

    @property
    def dim(self):
        return len(self.points)

    def kernel_column(self, j):
        """Unnormalized kernel coordinates at point j."""
        if not 0 <= j < self.dim:
            raise IndexOutOfRange(f"point index {j} outside 0..{self.dim - 1}")
        return self.chart[:, j].copy()

    def normalized_chart(self):
        """Read-only matrix whose column j is the normalized kernel at point j."""
        return self._khat

    def check_operator(self, a, stack=False):
        """A as a validated dim x dim matrix (or, with ``stack``, a stack of them)."""
        a = numlin.as_matrix(a, stack=stack)
        if a.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"operator is {a.shape}, space has dim {self.dim}"
            )
        return a


def build_space(family, points):
    """Construct a KernelSpace for a family over distinct sample points."""
    points = tuple(points)
    if len(points) == 0:
        raise BadParams("need at least one sample point")
    if len(set(points)) != len(points):
        raise DuplicatePoints("sample points must be pairwise distinct")
    if family.tag in ("szego", "bergman"):
        if any(abs(p) >= 1.0 for p in points):
            raise BadParams(f"{family.tag} points must satisfy |p| < 1")
    gram = family.gram(points)
    gram = (gram + gram.conj().T) / 2.0
    w, q = np.linalg.eigh(gram)
    if w[-1] <= 0 or w[0] < COND_FLOOR * w[-1]:
        raise IllConditioned(
            f"gram spectrum [{w[0]:.3e}, {w[-1]:.3e}] below cond floor"
        )
    chart = (np.sqrt(w)[:, None]) * q.conj().T
    return KernelSpace(points=points, gram=gram, chart=chart)


@functools.lru_cache(maxsize=32)
def identity_space(n):
    """Orthonormal-kernel space on n abstract indices, built once per n."""
    return build_space(KernelFamily("identity"), range(n))


def berezin_symbols(space, a):
    """All Berezin symbols of A at once, as a length-dim complex array.

    A stack of operators of shape (..., dim, dim) gives shape (..., dim).
    """
    a = space.check_operator(a, stack=True)
    khat = space.normalized_chart()
    return np.einsum("ji,...jk,ki->...i", khat.conj(), a, khat)


def berezin_peak(space, a):
    """(ber(A), argmax point index)."""
    vals = np.abs(berezin_symbols(space, a))
    if vals.ndim != 1:
        raise ValueError(f"expected one operator, got a stack of shape {np.shape(a)}")
    j = int(np.argmax(vals))
    return float(vals[j]), j


def berezin_number(space, a):
    """Maximum modulus of the Berezin symbol over the point set."""
    return berezin_peak(space, a)[0]


def ber_via_rotations(space, a, grid):
    """max over a uniform theta grid of ber(Re(e^{i theta} A))."""
    if grid < 4:
        raise BadParams("rotation grid must have at least 4 points")
    a = space.check_operator(a)
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    return float(np.abs(berezin_symbols(space, numlin.re_rotation(a, thetas))).max())
