"""Symmetric eigenproblems, orthonormal spans and small-matrix utilities.

Everything downstream funnels through `sym_eigs`, the one eigensolver seam:
it validates symmetry, then calls LAPACK's symmetric solvers through
`numpy.linalg.eigvalsh`/`eigh`, which return eigenvalues in ascending order
and eigenvectors orthonormal to working precision (Golub and Van Loan,
Matrix Computations, sections 8.3 and 8.5).  `classify_definiteness`
validates its matrix once and makes the same LAPACK call.  `left_singular`
is the one singular value decomposition (section 8.6): `orthonormalize` and
the subspace lattice cut its rank.  No other module calls `numpy.linalg` to
factor a matrix.
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


def as_symmetric(matrix) -> np.ndarray:
    """Validate and return a float64 copy of a symmetric matrix, or of a
    stack of them with shape (..., k, k).

    Every matrix must be square with k >= 1, entries must be finite, and the
    asymmetry max |M - M^T| must not exceed `SYMMETRY_TOL`; the returned copy
    is exactly symmetrized so later arithmetic never sees the stray low-order
    bits.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise ValidationError("matrix dimension must be at least 1")
    if m.size == 0:
        raise ValidationError(f"a stack needs at least one matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    mt = m.swapaxes(-1, -2)
    asymmetry = max_abs(m - mt)
    if asymmetry > SYMMETRY_TOL:
        raise ValidationError(
            f"matrix is not symmetric within {SYMMETRY_TOL:g}: max |M - M^T| = {asymmetry:g}"
        )
    return (m + mt) / 2.0


def as_symmetric_matrix(matrix) -> np.ndarray:
    """`as_symmetric` for callers that take one matrix: a stack is refused."""
    m = as_symmetric(matrix)
    if m.ndim != 2:
        raise ValidationError(f"expected one square matrix, got a stack of shape {m.shape}")
    return m


def sym_eigs(matrix, want_vectors: bool = False) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix, or of each matrix of a
    stack (..., k, k).

    Returns eigenvalues ascending along the last axis; when `want_vectors` is
    set the columns of `eigenvectors` are the matching orthonormal
    eigenvectors.  A stack is one LAPACK call per matrix inside numpy, with
    no Python loop.
    """
    m = as_symmetric(matrix)
    if want_vectors:
        w, v = np.linalg.eigh(m)
        return Spectrum(eigenvalues=w, eigenvectors=v)
    return Spectrum(eigenvalues=np.linalg.eigvalsh(m))


def classify_definiteness(matrix) -> DefinitenessClass:
    """Classify a symmetric matrix by the sign of its spectrum.

    Positive definite when the smallest eigenvalue exceeds the zero tolerance
    `RESIDUAL_SCALE` * max(1, max |entry|); positive semidefinite when it is
    at least minus that tolerance, with corank the number of eigenvalues
    within it of zero; indefinite otherwise.
    """
    m = as_symmetric_matrix(matrix)
    zero_tol = RESIDUAL_SCALE * max(1.0, max_abs(m))
    w = np.linalg.eigvalsh(m)  # m is validated already; sym_eigs would check it again
    smallest = w[0]
    if smallest > zero_tol:
        return DefinitenessClass(kind="positive_definite", corank=0)
    if smallest >= -zero_tol:
        corank = int(np.count_nonzero(np.abs(w) <= zero_tol))
        return DefinitenessClass(kind="positive_semidefinite", corank=corank)
    return DefinitenessClass(kind="indefinite", corank=0)


def left_singular(matrix: np.ndarray, complete: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and descending singular values of a finite
    (m, k) matrix, unvalidated; the vectors are min(m, k) columns, or all m
    when `complete` is set, the trailing ones spanning the complement."""
    left, singular, _ = np.linalg.svd(matrix, full_matrices=complete)
    return left, singular


def orthonormalize(vectors, ambient_dim: int | None = None) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the span of a list of row vectors, by SVD.

    The basis is the left singular vectors of the matrix whose columns are
    the vectors, keeping those whose singular value exceeds 1e-8 times the
    largest input vector norm.  Returns `(basis, rank)` where `basis` has
    orthonormal columns, shape `(ambient_dim, rank)`.

    An empty vector list is legal and yields rank 0, but then `ambient_dim`
    must be supplied since it cannot be inferred.  Entries must be finite,
    and so must every vector's norm, from which the rank cut comes.
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
    left, singular = left_singular(arr.T)
    rank = int(np.count_nonzero(singular > 1e-8 * float(np.max(norms))))
    return left[:, :rank], rank
