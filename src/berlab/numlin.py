"""Dense complex linear algebra primitives.

Everything here works on plain numpy arrays of complex128. Matrices are
validated to be finite on entry; all tolerances are relative to the input
norm, so a zero input meets each of them exactly.
"""

import math

import numpy as np

from .errors import NotHermitian, NotPSD

HERM_TOL = 1e-10
PSD_TOL = 1e-10
RANK_TOL = 1e-12


def as_matrix(a, stack=False):
    """Coerce to a 2-d complex128 array and reject non-finite entries.

    With ``stack`` the array may also hold a stack of matrices along
    leading axes, shape (..., rows, cols).
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise ValueError(f"expected a 2-d array, got ndim={m.ndim}")
    if np.count_nonzero(np.isfinite(m)) != m.size:  # a C count: .all() is a Python call
        raise ValueError("matrix has non-finite entries")
    return m


def operator_norm(a):
    """Largest singular value; a stack (..., m, n) gives an array of one per slice."""
    m = as_matrix(a, stack=True)
    if m.size == 0:
        norms = np.zeros(m.shape[:-2])
    else:  # np.linalg.norm(m, 2) without its wrapping: the same singular values
        norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return norms if m.ndim > 2 else float(norms)


def hermitian_eig(a):
    """(w, q): ascending eigenvalues and unitary eigenvector columns of Hermitian A.

    One eigh for a matrix or a stack (..., n, n). Raises NotHermitian when
    a slice has ||A - A*|| > HERM_TOL * ||A||.
    """
    m = as_matrix(a, stack=True)
    if m.shape[-2] != m.shape[-1]:
        raise NotHermitian(f"matrix is {m.shape[-2]}x{m.shape[-1]}, not square")
    # an exactly Hermitian matrix has defect 0, which no tolerance rejects
    if not np.array_equal(m, m.conj().mT):
        for s in m.reshape((-1,) + m.shape[-2:]):
            tol = HERM_TOL * operator_norm(s)
            defect = operator_norm(s - s.conj().T)
            if defect > tol:
                raise NotHermitian(
                    f"Hermitian defect {defect:.3e} exceeds tolerance {tol:.3e}")
    w, q = np.linalg.eigh(m)
    return w, q


def matrix_abs(t, p=None, support=False):
    """|T| = (T*T)^(1/2), cols x cols for rectangular T; also per slice of a stack.

    With ``p`` it returns ``matrix_power_psd(matrix_abs(t), p, support)``,
    bit for bit, from one check of T: T*T and |T| are Hermitian by
    construction, so they go straight to eigh.
    """
    m = as_matrix(t, stack=True)
    phi = None if p is None else _power(m.shape[:-2], p, support)
    gram = m.conj().mT @ m
    gram = (gram + gram.conj().mT) / 2.0
    if np.count_nonzero(np.isfinite(gram)) != gram.size:  # T*T can overflow where T does not
        raise ValueError("matrix has non-finite entries")
    modulus = _spectral(*np.linalg.eigh(gram), np.sqrt)
    return modulus if phi is None else _spectral(*np.linalg.eigh(modulus), phi)


def _spectral(w, q, phi):
    """phi(A) from the eigh ``(w, q)`` of a Hermitian A or stack; A is not checked."""
    if w.size:
        # eigh sorts ascending, so the extremes sit at the two ends
        ends = w.reshape(-1, w.shape[-1])
        for lo, hi in zip(ends[:, 0].tolist(), ends[:, -1].tolist()):
            floor = -PSD_TOL * max(abs(lo), abs(hi))
            if lo < floor:
                raise NotPSD(f"eigenvalue {lo:.3e} below {floor:.3e}")
    vals = np.asarray(phi(np.maximum(w, 0.0)), dtype=np.float64)
    out = (q * vals[..., None, :]) @ q.conj().mT
    return (out + out.conj().mT) / 2.0


def apply_spectral_function(a, phi):
    """phi(A) for positive semidefinite A, or a stack of them, via eigh.

    Eigenvalues in [-PSD_TOL*||A||, 0) are clipped to zero, then ``phi``
    maps the ascending eigenvalues, shape (..., n), to the new ones;
    anything more negative raises NotPSD.
    """
    return _spectral(*hermitian_eig(a), phi)


def _power(lead, p, support):
    """The ``phi`` of ``matrix_power_psd`` for a stack with leading axes ``lead``."""
    exps = np.asarray(p, dtype=np.float64)
    if exps.shape not in ((), lead):
        raise ValueError(f"exponents of shape {exps.shape} for a stack of {lead}")
    exps = exps.ravel().tolist() if exps.ndim else [float(exps)] * math.prod(lead)
    # the support power takes numpy's array power and the full power Python's
    # pow per eigenvalue, each with a Python-float exponent per slice, as the
    # pinned reports did: the two kernels differ in the last bit on some
    # inputs, and an exponent array would skip numpy's scalar fast paths
    def phi(w):
        rows = w.reshape(len(exps), w.shape[-1])
        if not support:
            return np.array([x ** e for row, e in zip(rows.tolist(), exps)
                             for x in row]).reshape(w.shape)
        keep = rows > RANK_TOL * rows[:, -1:]
        base, vals = np.where(keep, rows, 1.0), np.empty_like(rows)
        for e in dict.fromkeys(exps):  # the rows of one exponent take one array power
            ks = [k for k, x in enumerate(exps) if x == e or x is e]  # x is e: a NaN
            vals[ks] = base[ks] ** e
        return np.where(keep, vals, 0.0).reshape(w.shape)
    return phi


def _powers_once(mats, p, support, eig):
    """``_spectral(*eig(np.stack(mats)), phi)``, phi the power ``p``, for a list of stacks;
    a stack listed more than once (the same object) goes through ``eig`` once."""
    phi = _power((len(mats),) + np.shape(mats[0])[:-2], p, support)
    distinct = {id(m): m for m in mats}
    w, q = eig(np.stack(list(distinct.values())))
    if len(distinct) < len(mats):
        idx = [list(distinct).index(id(m)) for m in mats]
        w, q = w.take(idx, axis=0), q.take(idx, axis=0)
    return _spectral(w, q, phi)


def matrix_power_psd(a, p, support=False):
    """A**p for PSD A, or for each slice of a stack.

    ``p`` is one exponent, or one per slice in an array shaped like the
    stack's leading axes. A**0 is the identity. With ``support``,
    eigenvalues <= RANK_TOL times the largest count as 0, so A**0 is the
    projection onto range(A), the initial space of the polar isometry.
    """
    return apply_spectral_function(a, _power(np.shape(a)[:-2], p, support))


def polar_decompose(t):
    """Polar factors (U, |T|) of a square matrix T = U |T|, from its SVD.

    Singular directions with sigma <= RANK_TOL * sigma_max are dropped from
    U, so ker U = ker |T| and U*U is the projection onto range(|T|). A
    stack (..., n, n) gives each slice's factors, bit for bit, from one SVD.
    """
    iso, s, vh = _polar_svd(t)
    modulus = (vh.conj().mT * s[..., None, :]) @ vh
    modulus = (modulus + modulus.conj().mT) / 2.0
    return iso, modulus


def _polar_svd(t):
    """(U, s, vh): the isometry of ``polar_decompose(t)`` and the SVD factors of |T|."""
    m = as_matrix(t, stack=True)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError("polar_decompose requires a square matrix")
    u, s, vh = np.linalg.svd(m)
    keep = s > RANK_TOL * s[..., :1]
    if np.count_nonzero(keep) == keep.size:
        iso = u @ vh
    else:  # each slice drops its own null directions
        iso = np.empty_like(u)
        for i in np.ndindex(m.shape[:-2]):
            iso[i] = u[i][:, keep[i]] @ vh[i][keep[i], :]
    return iso, s, vh


def re_rotation(a, theta):
    """(e^{i theta} A + e^{-i theta} A*)/2, Hermitian by construction.

    For a 1-d array of angles the result is a C-contiguous stack of shape
    (len(theta), n, n), one rotation per angle.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("re_rotation requires a square matrix")
    z = np.exp(1j * np.asarray(theta))[..., None, None]
    # h is Hermitian bit for bit, but the broadcast may leave it F-ordered or
    # transposed; einsum sums in an order set by operand strides, and C order
    # keeps each rotation's Berezin symbols bit-identical to a lone matrix's
    h = (z * m + np.conj(z) * m.conj().T) / 2.0
    return np.ascontiguousarray(h)
