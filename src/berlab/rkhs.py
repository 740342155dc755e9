"""Finite-dimensional kernel-space models and Berezin functionals.

A space is built from a finite point set and a positive-definite Gram
matrix. Operators act in an orthonormal coordinate chart, so all inner
products are the ordinary complex dot product. The Berezin supremum is the
exact maximum over the finite point set, which is the whole index set of
the model by construction.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import numlin
from .errors import (
    BadParams,
    DimensionMismatch,
    DuplicatePoints,
    IllConditioned,
)

COND_FLOOR = 1e-10

FAMILY_TAGS = ("identity", "szego", "bergman", "gaussian")


@functools.lru_cache(maxsize=64)
def _triangle(n):
    """Rows and columns of the pairs i <= j of an n x n matrix, and their flat
    positions (i, j) and (j, i)."""
    rows, cols = np.triu_indices(n)
    return rows, cols, rows * n + cols, cols * n + rows


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
            if not (isinstance(sigma, numbers.Real) and sigma > 0):
                raise BadParams("gaussian kernel needs sigma > 0")

    def gram(self, points):
        """The matrix k(p_i, p_j) over a sequence of sample points.

        A stack of point sequences, shape (..., n), gives a (..., n, n)
        stack with one matrix per sequence. Each entry keeps the bits of the
        scalar formula k(z, w): complex array ``*``/``**`` and ``np.exp``
        round differently, so products are spelled out in real arithmetic
        and the exponential stays ``math.exp``.
        """
        if self.tag == "identity":
            lead, n = np.shape(points)[:-1], np.shape(points)[-1]
            return np.broadcast_to(np.eye(n, dtype=np.complex128), lead + (n, n)).copy()
        if self.tag == "gaussian":
            x = np.asarray(points, dtype=np.float64)
            n = x.shape[-1]
            rows, cols, upper, lower = _triangle(n)
            den = 2.0 * self.params.get("sigma", 1.0) ** 2
            # x_i - x_j = -(x_j - x_i) exactly: one exp per pair i <= j, mirrored
            diffs = (x[..., rows] - x[..., cols]).ravel().tolist()
            vals = np.array([math.exp(-(v ** 2) / den) for v in diffs], dtype=np.complex128)
            out = np.empty(x.shape[:-1] + (n * n,), dtype=np.complex128)
            out[..., upper] = out[..., lower] = vals.reshape(x.shape[:-1] + (len(rows),))
            return out.reshape(x.shape + (n,))
        # d = 1 - z conj(w), with zi the imaginary part of z and wi that of conj(w)
        z = np.asarray(points, dtype=np.complex128)
        zr, zi = z.real[..., :, None], z.imag[..., :, None]
        wr, wi = z.real[..., None, :], -z.imag[..., None, :]
        re = 1.0 - (zr * wr - zi * wi)
        im = 0.0 - (zr * wi + zi * wr)
        if self.tag == "bergman":
            re, im = re * re - im * im, re * im + im * re
        d = np.empty(re.shape, dtype=np.complex128)
        d.real, d.imag = re, im
        return np.divide(1.0, d)


@dataclass(frozen=True)
class KernelSpace:
    """Finite model of a functional Hilbert space.

    ``gram[i, j] = k(p_i, p_j)`` and column j of ``chart`` holds the
    coordinates of the kernel at point j in an orthonormal basis, so
    ``chart* chart == gram``.

    A stacked space (``stack_spaces``) is one model per slice: ``points``
    and ``chart`` hold each slice's points and chart, and ``gram`` and the
    normalized chart are ``(K, n, n)`` stacks of the slices' own arrays.
    """

    points: tuple
    gram: np.ndarray
    chart: np.ndarray
    _khat: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        # read-only arrays, so that a shared space cannot be mutated (the views
        # of a stack that build_space froze are read-only already)
        charts = self.chart if self.gram.ndim == 3 else (self.chart,)
        for a in (self.gram, *charts, self._khat):
            if a.flags.writeable:
                a.setflags(write=False)

    @property
    def dim(self):
        return self.gram.shape[-1]

    def normalized_chart(self):
        """Read-only matrix whose column j is the normalized kernel at point j."""
        return self._khat

    def check_operator(self, a):
        """A as a validated dim x dim matrix, or a stack of them."""
        a = numlin.as_matrix(a, stack=True)
        if a.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(f"operator is {a.shape}, space has dim {self.dim}")
        return a


def build_space(family, point_sets):
    """The KernelSpaces of a family, one per sequence of distinct sample points.

    The sequences share one length and are built with one Gram stack, one
    eigh and one chart. The result holds, per sequence, its space or the
    BerlabError that rules it out; it never raises one. Each space keeps the
    bits of its build in a batch of one.
    """
    sets = [tuple(p) for p in point_sets]
    out = [None] * len(sets)
    for k, pts in enumerate(sets):
        if len(pts) == 0:
            out[k] = BadParams("need at least one sample point")
        elif len(set(pts)) != len(pts):
            out[k] = DuplicatePoints("sample points must be pairwise distinct")
        elif family.tag in ("szego", "bergman") and any(abs(p) >= 1.0 for p in pts):
            out[k] = BadParams(f"{family.tag} points must satisfy |p| < 1")
    todo = [k for k, err in enumerate(out) if err is None]
    if todo:
        gram = family.gram([sets[k] for k in todo])  # Hermitian bit for bit: no symmetrizing pass
        w, q = np.linalg.eigh(gram)
        good = []
        for j, (lo, hi) in enumerate(zip(w[:, 0].tolist(), w[:, -1].tolist())):
            if hi <= 0 or lo < COND_FLOOR * hi:
                out[todo[j]] = IllConditioned(
                    f"gram spectrum [{lo:.3e}, {hi:.3e}] below cond floor")
            else:
                good.append(j)
        if len(good) < len(todo):
            w, q = w[good], q[good]
        chart = np.sqrt(w)[..., :, None] * q.conj().mT
        norms = np.sqrt(np.einsum("...ij,...ij->...j", chart.conj(), chart).real)
        khat = chart / norms[..., None, :]
        for a in (gram, chart, khat):  # frozen once: each space holds views of them
            a.setflags(write=False)
        for i, j in enumerate(good):
            out[todo[j]] = KernelSpace(sets[todo[j]], gram[j], chart[i], khat[i])
    return out


def stack_spaces(spaces):
    """One space over which a stack of operators acts, slice k over ``spaces[k]``.

    Spaces that are all one object, such as a shared ``identity_space(n)``,
    give that space. Otherwise each slice keeps its own Gram matrix, chart
    and normalized chart, bit for bit; the charts, which no evaluation reads,
    are not stacked. np.stack keeps each normalized chart's F order: np.array
    would make it C order, and the symbols' einsum would round differently.
    """
    first = spaces[0]
    if all(space is first for space in spaces):
        return first
    return KernelSpace(points=tuple(space.points for space in spaces),
                       gram=np.array([space.gram for space in spaces]),
                       chart=tuple(space.chart for space in spaces),
                       _khat=np.stack([space.normalized_chart() for space in spaces]))


def unstack_space(space, count):
    """The inverse of ``stack_spaces``: the space of each of ``count`` slices."""
    if space.gram.ndim == 2:
        return [space] * count
    return [KernelSpace(*slices) for slices in
            zip(space.points, space.gram, space.chart, space.normalized_chart())]


@functools.lru_cache(maxsize=32)
def identity_space(n):
    """Orthonormal-kernel space on n abstract indices, built once per n."""
    return build_space(KernelFamily("identity"), [range(n)])[0]


@functools.lru_cache(maxsize=8)
def _angles(g):
    """The uniform grid of ``g`` angles in [0, 2 pi) and its phases, read-only, once per g."""
    theta = np.linspace(0.0, 2.0 * math.pi, g, endpoint=False)
    phases = np.exp(1j * theta)
    for a in (theta, phases):
        a.setflags(write=False)
    return theta, phases


def berezin_symbols(space, a):
    """All Berezin symbols of A at once, as a length-dim complex array.

    A stack of operators of shape (..., dim, dim) gives shape (..., dim); a
    stacked space gives slice k the symbols of operator k over its slice.
    """
    a = space.check_operator(a)
    khat = space.normalized_chart()
    return np.einsum("...ji,...jk,...ki->...i", khat.conj(), a, khat)


def berezin_number(space, a):
    """Maximum modulus of the Berezin symbol over the point set.

    A stack of operators gives a list with one number per slice.
    """
    return np.maximum.reduce(np.abs(berezin_symbols(space, a)), axis=-1).tolist()


def ber_via_rotations(space, a, grid):
    """max over a uniform theta grid of ber(Re(e^{i theta} A)).

    A stack of operators, with one grid size per slice, gives one maximum
    per slice, holding one slice's rotations at a time.

    Only the angles that can reach the maximum are rotated. With s holding
    A's symbols, F(theta) = max_j |Re(e^{i theta} s_j)| differs from an
    angle's rotated value by less than delta = 8 (n^2 + 4) 2**-53 ||A||_F
    (README), so an angle with F < max F - 2 delta is skipped, and the
    result is the full sweep's float. At least two angles are rotated:
    einsum over a one-matrix stack can round differently.
    """
    a = space.check_operator(a)
    if a.ndim == 2:
        return ber_via_rotations(space, a[None], [grid])[0]
    if min(grid) < 4:
        raise BadParams("rotation grid must have at least 4 points")
    out = []
    for sp, op, s, g in zip(unstack_space(space, len(a)), a, berezin_symbols(space, a), grid):
        theta, phases = _angles(g)
        form = np.abs((phases[:, None] * s).real).max(axis=1)
        delta = 8.0 * (len(s) ** 2 + 4) * 2.0**-53 * np.linalg.norm(op)
        cut = np.minimum(form.max() - 2.0 * delta, np.partition(form, -2)[-2])
        # ~(form < cut), not form >= cut: a NaN or infinite bound keeps every angle
        out.append(float(np.abs(berezin_symbols(sp, numlin.re_rotation(
            op, theta[~(form < cut)]))).max()))
    return out
