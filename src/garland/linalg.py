"""Symmetric eigenproblems and small-matrix utilities.

Everything downstream funnels through `sym_eigs`, the one eigensolver seam:
it validates symmetry, then calls LAPACK's symmetric solvers through
`numpy.linalg.eigvalsh`/`eigh`, which return eigenvalues in ascending order
and eigenvectors orthonormal to working precision (Golub and Van Loan,
Matrix Computations, sections 8.3 and 8.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError

SYMMETRY_TOL = 1e-12
RESIDUAL_SCALE = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, with eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


@dataclass(frozen=True)
class DefinitenessClass:
    """Sign classification of a symmetric matrix.

    `kind` is one of "positive_definite", "positive_semidefinite",
    "indefinite".  `corank` counts eigenvalues within the zero tolerance and
    is 0 unless `kind` is "positive_semidefinite".
    """

    kind: str
    corank: int

    @property
    def is_positive_definite(self) -> bool:
        return self.kind == "positive_definite"

    @property
    def is_positive_semidefinite(self) -> bool:
        return self.kind == "positive_semidefinite"


def max_abs(m: np.ndarray) -> float:
    """Largest absolute entry of an array (0.0 for an empty one)."""
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def as_symmetric(matrix, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate and return a float64 copy of a symmetric square matrix.

    Entries must be finite and the asymmetry max |M - M^T| must not exceed
    `tol`; the returned copy is exactly symmetrized so later arithmetic never
    sees the stray low-order bits.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValidationError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    if max_abs(m - m.T) > tol:
        raise ValidationError(
            f"matrix is not symmetric within {tol:g}: max |M - M^T| = {max_abs(m - m.T):g}"
        )
    return (m + m.T) / 2.0


def sym_eigs(matrix, want_vectors: bool = False) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Returns eigenvalues ascending; when `want_vectors` is set the columns of
    `eigenvectors` are the matching orthonormal eigenvectors.
    """
    m = as_symmetric(matrix)
    if want_vectors:
        w, v = np.linalg.eigh(m)
        return Spectrum(eigenvalues=w, eigenvectors=v)
    return Spectrum(eigenvalues=np.linalg.eigvalsh(m))


def default_zero_tol(matrix: np.ndarray) -> float:
    """Scale-aware tolerance used to call an eigenvalue zero."""
    return RESIDUAL_SCALE * max(1.0, max_abs(matrix))


def classify_definiteness(matrix, zero_tol: float | None = None) -> DefinitenessClass:
    """Classify a symmetric matrix by the sign of its spectrum.

    Positive definite when the smallest eigenvalue exceeds `zero_tol`;
    positive semidefinite when it is at least `-zero_tol`, with corank the
    number of eigenvalues within `zero_tol` of zero; indefinite otherwise.
    """
    m = as_symmetric(matrix)
    if zero_tol is None:
        zero_tol = default_zero_tol(m)
    w = sym_eigs(m).eigenvalues
    smallest = w[0]
    if smallest > zero_tol:
        return DefinitenessClass(kind="positive_definite", corank=0)
    if smallest >= -zero_tol:
        corank = int(np.count_nonzero(np.abs(w) <= zero_tol))
        return DefinitenessClass(kind="positive_semidefinite", corank=corank)
    return DefinitenessClass(kind="indefinite", corank=0)


def matrix_leq(a, b) -> bool:
    """Exact entrywise comparison a <= b for same-shaped symmetric matrices."""
    ma = as_symmetric(a)
    mb = as_symmetric(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return bool(np.all(ma <= mb))


def orthonormalize(
    vectors,
    rank_tol: float | None = None,
    ambient_dim: int | None = None,
) -> tuple[np.ndarray, int]:
    """Orthonormalize a list of row vectors by modified Gram-Schmidt.

    Each vector is orthogonalized against the basis found so far, twice, and
    kept only if its residual norm exceeds `rank_tol` (default: 1e-8 times
    the largest input vector norm).  Returns `(basis, rank)` where `basis`
    has orthonormal columns, shape `(ambient_dim, rank)`.

    An empty vector list is legal and yields rank 0, but then `ambient_dim`
    must be supplied since it cannot be inferred.  Entries must be finite,
    and so must every vector's norm, from which the default `rank_tol` comes.
    """
    arr = np.array(vectors, dtype=float)
    if arr.size == 0:
        if ambient_dim is None:
            if arr.ndim == 2 and arr.shape[1] > 0:
                ambient_dim = arr.shape[1]
            else:
                raise ValidationError(
                    "ambient_dim is required to orthonormalize an empty vector list"
                )
        if ambient_dim < 1:
            raise ValidationError("ambient dimension must be at least 1")
        return np.zeros((ambient_dim, 0)), 0
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-d array of row vectors, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("vector entries must be finite")
    d = arr.shape[1]
    if d < 1:
        raise ValidationError("ambient dimension must be at least 1")
    if ambient_dim is not None and ambient_dim != d:
        raise DimensionMismatchError(f"vectors have dimension {d}, expected {ambient_dim}")
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(arr * arr, axis=1))
    overflow = np.flatnonzero(~np.isfinite(norms))
    if overflow.size:
        raise ValidationError(f"the norm of vector {overflow[0]} overflows the float range")
    if rank_tol is None:
        rank_tol = 1e-8 * float(np.max(norms))
    basis: list[np.ndarray] = []
    for row in arr:
        w = row.copy()
        for _ in range(2):  # second pass mops up cancellation error
            for b in basis:
                w -= (b @ w) * b
        nrm = float(np.linalg.norm(w))
        if nrm > rank_tol:
            basis.append(w / nrm)
    if not basis:
        return np.zeros((d, 0)), 0
    return np.column_stack(basis), len(basis)
