"""Small complex linear algebra: Kronecker products, a Hermiticity check,
and the spectral decomposition of Hermitian matrices by LAPACK ``eigh``.

Everything in this package lives in dimension 2 or 4, so no attempt is made
at generality beyond that; plain matrix products and adjoints are written
with numpy's ``@`` and ``.conj().T``. All functions are pure; returned
arrays are freshly allocated and safe to share between threads. The
independent check of the eigensolver is the characteristic-polynomial
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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if max_dim is not None and a.shape[0] > max_dim:
        raise ValueError(f"matrix dimension {a.shape[0]} exceeds supported maximum {max_dim}")
    return a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, first factor on the slow index.

    The resulting 4x4 basis order is |x x>, |x y>, |y x>, |y y> with the
    first factor's label leading; every 4x4 object in this package uses it.
    """
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("tensor_product expects two 2x2 matrices")
    return np.kron(a, b)


def is_hermitian(m, tol: float = 1e-12) -> bool:
    """True iff the largest entry of |m - m^dagger| is at most tol."""
    a = _as_square(m)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) with paired orthonormal eigenvectors.

    ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``. For degenerate
    eigenvalues only the spanned subspace is well defined, so tests on
    near-degenerate clusters should compare projectors, not vectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def projector(self, indices) -> np.ndarray:
        """Orthogonal projector onto the span of the selected eigenvectors."""
        v = self.eigenvectors[:, list(indices)]
        return v @ v.conj().T


def hermitian_eigen(m, tol: float = 1e-12) -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian matrix by LAPACK ``eigh``.

    Decomposes the symmetrised input (m + m^dagger)/2. Eigenvalues come back
    ascending and both arrays are read-only; inside a degenerate cluster
    the eigenvectors are an orthonormal basis of the cluster's subspace.
    Raises NonHermitianError if the input fails the Hermiticity check at
    ``tol``, and EigenConvergenceError if LAPACK does not converge.
    """
    a = _as_square(m, max_dim=4)
    if not is_hermitian(a, tol):
        raise NonHermitianError(f"matrix is not Hermitian within {tol}")
    try:
        w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)
