"""Small complex linear algebra: Kronecker products of broadcasting 2x2 stacks,
a Hermiticity check, and the spectral decomposition by LAPACK ``eigh``.

Everything in this package lives in dimension 2 or 4, so no attempt is made
at generality beyond that; products and adjoints are numpy's ``@`` and
``.conj().swapaxes(-1, -2)``, which take stacks (..., n, n). Functions are
pure; returned arrays are freshly allocated and safe to share between
threads. The eigensolver's independent check is the characteristic-polynomial
route in the test oracles (Faddeev-LeVerrier, roots by Ferrari).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within the requested tolerance."""


class EigenConvergenceError(RuntimeError):
    """The eigensolver did not converge."""


def _as_square(m, max_dim: int | None = None) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if max_dim is not None and a.shape[-1] > max_dim:
        raise ValueError(f"matrix dimension {a.shape[-1]} exceeds supported maximum {max_dim}")
    return a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of 2x2 matrices, first factor on the slow index.

    The resulting 4x4 basis order is |x x>, |x y>, |y x>, |y y> with the
    first factor's label leading; every 4x4 object in this package uses it.
    Factors of shape (..., 2, 2) broadcast together to products (..., 4, 4).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        raise ValueError(f"tensor_product expects 2x2 factors, got shapes {a.shape} and {b.shape}")
    t = a[..., :, None, :, None] * b[..., None, :, None, :]
    return t.reshape(t.shape[:-4] + (4, 4))


def is_hermitian(m, tol: float = 1e-12) -> bool:
    """True iff every entry of |m - m^dagger| is at most tol, for every matrix of a stack."""
    a = _as_square(m)
    return bool(np.all(np.abs(a - a.conj().swapaxes(-1, -2)) <= tol))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) with paired orthonormal eigenvectors.

    ``eigenvectors[..., :, i]`` belongs to ``eigenvalues[..., i]``. For degenerate
    eigenvalues only the spanned subspace is well defined, so tests on
    near-degenerate clusters should compare projectors, not vectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def projector(self, indices) -> np.ndarray:
        """Orthogonal projector onto the span of the selected eigenvectors."""
        v = self.eigenvectors[..., :, list(indices)]
        return v @ v.conj().swapaxes(-1, -2)


def hermitian_eigen(m) -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian matrix by LAPACK ``eigh``.

    Takes one matrix or a stack of shape (..., n, n), n <= 4, and decomposes
    the symmetrised input (m + m^dagger)/2. Eigenvalues come back
    ascending and both arrays are read-only; inside a degenerate cluster
    the eigenvectors are an orthonormal basis of the cluster's subspace.
    Raises NonHermitianError if the input fails :func:`is_hermitian` at its
    default 1e-12, and EigenConvergenceError if LAPACK does not converge.
    """
    a = _as_square(m, max_dim=4)
    if not is_hermitian(a):
        raise NonHermitianError("matrix is not Hermitian within 1e-12")
    try:
        w, v = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)
