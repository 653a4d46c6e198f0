"""Symmetric eigenproblems, orthonormal spans and small-matrix utilities.

Every eigensolve funnels through `sym_eigs`, the one eigensolver seam: it
validates symmetry, then calls LAPACK's symmetric solver through
`numpy.linalg.eigvalsh`, which returns the eigenvalues in ascending order
(Golub and Van Loan, Matrix Computations, section 8.3), and nothing else.
`classify_definiteness` validates and solves its input in one call to it;
`definiteness_of` is its rule, applied by a `CosineMatrix` to its spectrum.
`left_singular` is the one singular value decomposition (section 8.6):
`orthonormalize` and the subspace lattice cut its rank, and the principal
cosines of two subspaces are its singular values.  No other module calls
`numpy.linalg` to factor a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError

SYMMETRY_TOL = 1e-12
RANK_TOL = 1e-8  # singular values up to this, relative to the matrix scale, count as 0
RESIDUAL_SCALE = 1e-9


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


def sym_eigs(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each matrix of a stack
    (..., k, k), ascending along the last axis.

    A stack is one LAPACK call per matrix inside numpy, with no Python loop.
    """
    return np.linalg.eigvalsh(as_symmetric(matrix))


def definiteness_of(m: np.ndarray, eigenvalues: np.ndarray) -> DefinitenessClass:
    """The rule of `classify_definiteness`, for a validated symmetric matrix
    and its ascending eigenvalues."""
    zero_tol = RESIDUAL_SCALE * max(1.0, max_abs(m))
    smallest = eigenvalues[0]
    if smallest > zero_tol:
        return DefinitenessClass(kind="positive_definite", corank=0)
    if smallest >= -zero_tol:
        corank = int(np.count_nonzero(np.abs(eigenvalues) <= zero_tol))
        return DefinitenessClass(kind="positive_semidefinite", corank=corank)
    return DefinitenessClass(kind="indefinite", corank=0)


def classify_definiteness(matrix) -> DefinitenessClass:
    """Classify a symmetric matrix by the sign of its spectrum.

    Positive definite when the smallest eigenvalue exceeds the zero tolerance
    `RESIDUAL_SCALE` * max(1, max |entry|); positive semidefinite when it is
    at least minus that tolerance, with corank the number of eigenvalues
    within it of zero; indefinite otherwise.  The spectrum comes from one
    `sym_eigs` call, which validates the input, and a stack is refused by the
    shape of its spectrum.
    """
    eigenvalues = sym_eigs(matrix)
    if eigenvalues.ndim != 1:
        raise ValidationError(f"expected one matrix, got a stack of shape {np.shape(matrix)}")
    return definiteness_of(np.asarray(matrix, dtype=float), eigenvalues)


def left_singular(matrix: np.ndarray, complete: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and descending singular values of a finite
    (m, k) matrix, or of each matrix of a stack (..., m, k), unvalidated;
    the vectors are min(m, k) columns, or all m when `complete` is set, the
    trailing ones spanning the complement.  A stack is one LAPACK call per
    matrix inside numpy, with no Python loop, and gives each matrix the bits
    of its one-matrix call."""
    left, singular, _ = np.linalg.svd(matrix, full_matrices=complete)
    return left, singular


def orthonormalize(vectors, ambient_dim: int | None = None) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the span of a list of row vectors, by SVD.

    The basis is the left singular vectors of the matrix whose columns are
    the vectors, keeping those whose singular value exceeds RANK_TOL times the
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
    rank = int(np.count_nonzero(singular > RANK_TOL * float(np.max(norms))))
    return left[:, :rank], rank
