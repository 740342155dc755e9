"""Dense complex linear algebra primitives.

Everything here works on plain numpy arrays of complex128. Matrices are
validated to be finite on entry; all tolerances are relative to the input
norm, falling back to an absolute 1e-14 when the norm vanishes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD

HERM_TOL = 1e-10
PSD_TOL = 1e-10
RANK_TOL = 1e-12
ABS_FLOOR = 1e-14


def as_matrix(a, stack=False):
    """Coerce to a 2-d complex128 array and reject non-finite entries.

    With ``stack`` the array may also hold a stack of matrices along
    leading axes, shape (..., rows, cols).
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise ValueError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def operator_norm(a):
    """Largest singular value."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` ascending, ``eigenvectors`` unitary with column j the
    eigenvector of eigenvalue j.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a):
    """Eigendecomposition of a (numerically) Hermitian matrix.

    Raises NotHermitian when ||A - A*|| > HERM_TOL * ||A||.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotHermitian(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    # an exactly Hermitian matrix has defect 0, which no tolerance rejects
    if not np.array_equal(m, m.conj().T):
        scale = operator_norm(m)
        tol = HERM_TOL * scale if scale > 0 else ABS_FLOOR
        defect = operator_norm(m - m.conj().T)
        if defect > tol:
            raise NotHermitian(
                f"Hermitian defect {defect:.3e} exceeds tolerance {tol:.3e}")
    w, q = np.linalg.eigh(m)
    return HermitianEigen(eigenvalues=w, eigenvectors=q)


def matrix_abs(t):
    """|T| = (T*T)^(1/2); for rectangular T the result is cols x cols."""
    m = as_matrix(t)
    gram = m.conj().T @ m
    return apply_spectral_function((gram + gram.conj().T) / 2.0, np.sqrt)


def apply_spectral_function(a, phi):
    """phi(A) for positive semidefinite A via eigendecomposition.

    Eigenvalues in [-PSD_TOL*||A||, 0) are clipped to zero, then ``phi``
    maps the ascending array of eigenvalues to the array of new ones;
    anything more negative raises NotPSD.
    """
    eig = hermitian_eig(a)
    w = eig.eigenvalues
    if w.size:
        # eigh sorts ascending, so the extremes sit at the two ends
        scale = max(abs(float(w[0])), abs(float(w[-1])))
        floor = -PSD_TOL * scale if scale > 0 else -ABS_FLOOR
        if w[0] < floor:
            raise NotPSD(f"eigenvalue {float(w[0]):.3e} below {floor:.3e}")
    vals = np.asarray(phi(np.clip(w, 0.0, None)), dtype=np.float64)
    q = eig.eigenvectors
    out = (q * vals) @ q.conj().T
    return (out + out.conj().T) / 2.0


def matrix_power_psd(a, p, support=False):
    """A**p for PSD A.

    A**0 is the identity. With ``support``, eigenvalues <= RANK_TOL times
    the largest count as 0, so A**0 is the projection onto range(A), the
    initial space of the polar isometry.
    """
    # the support power takes numpy's array power and the full power
    # Python's pow per eigenvalue; the two differ in the last bit on some
    # inputs, and the pinned reports were computed this way
    if support:
        def phi(w):
            wmax = float(w[-1]) if w.size else 0.0
            keep = w > RANK_TOL * wmax if wmax > 0 else np.zeros_like(w, dtype=bool)
            return np.where(keep, np.where(keep, w, 1.0) ** p, 0.0)
    else:
        def phi(w):
            return [float(x) ** p for x in w]
    return apply_spectral_function(a, phi)


@dataclass(frozen=True)
class PolarParts:
    """Polar factors T = U |T| with U a partial isometry."""

    isometry: np.ndarray
    modulus: np.ndarray


def polar_decompose(t):
    """Polar decomposition of a square matrix from its SVD.

    Singular directions with sigma <= RANK_TOL * sigma_max are dropped from
    U, so ker U = ker |T| and U*U is the projection onto range(|T|).
    """
    m = as_matrix(t)
    if m.shape[0] != m.shape[1]:
        raise ValueError("polar_decompose requires a square matrix")
    u, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    keep = s > RANK_TOL * smax if smax > 0 else np.zeros_like(s, dtype=bool)
    iso = u[:, keep] @ vh[keep, :]
    modulus = (vh.conj().T * s) @ vh
    modulus = (modulus + modulus.conj().T) / 2.0
    return PolarParts(isometry=iso, modulus=modulus)


def re_rotation(a, theta):
    """(e^{i theta} A + e^{-i theta} A*)/2, Hermitian by construction.

    For a 1-d array of angles the result is a C-contiguous stack of shape
    (len(theta), n, n), one rotation per angle.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("re_rotation requires a square matrix")
    z = np.exp(1j * np.asarray(theta))[..., None, None]
    h = (z * m + np.conj(z) * m.conj().T) / 2.0
    h = (h + np.swapaxes(h.conj(), -1, -2)) / 2.0
    # einsum sums in an order set by operand strides: this layout keeps
    # each rotation's Berezin symbols bit-identical to a lone 2-d matrix's
    return np.ascontiguousarray(h)
