"""Finite-dimensional subspace geometry.

Subspaces carry orthonormal column bases.  The angle between two subspaces is
0 when one contains the other and otherwise the largest correlation between
unit vectors taken orthogonally to the intersection; families of subspaces
get a cosine matrix with unit diagonal and -cos(angle) off the diagonal.

Both the intersection and the angle read the principal cosines of U and V,
the singular values of B_U^T B_V (Bjorck and Golub, Math. Comp. 27, 1973;
Golub and Van Loan, Matrix Computations, section 6.4.3): the principal
vectors whose cosine is within `INTERSECT_TOL` of 1 span the intersection,
and the angle cosine is the largest principal cosine below that cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularityError, ValidationError
from .linalg import as_symmetric_matrix, max_abs, orthonormalize, sym_eigs

INTERSECT_TOL = 1e-8
GRAM_TOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^ambient_dim with an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValidationError("ambient dimension must be at least 1")
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValidationError(
                f"basis must be shaped ({self.ambient_dim}, k), got {b.shape}"
            )
        if b.shape[1] > 0:
            gram = b.T @ b
            if max_abs(gram - np.eye(b.shape[1])) > GRAM_TOL:
                raise ValidationError("basis columns are not orthonormal within 1e-10")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors) -> "Subspace":
        """Build the span of arbitrary vectors (rows) with `orthonormalize`
        and its rank cut; an empty list gives the zero subspace."""
        basis, _ = orthonormalize(vectors, ambient_dim=ambient_dim)
        return cls(ambient_dim, basis)


@dataclass(frozen=True)
class SubspaceFamily:
    """An ordered family V_0, ..., V_n of subspaces of one ambient space."""

    ambient_dim: int
    members: tuple[Subspace, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValidationError("a family needs at least one member (n >= 0)")
        for i, sub in enumerate(members):
            if sub.ambient_dim != self.ambient_dim:
                raise DimensionMismatchError(
                    f"member {i} has ambient dimension {sub.ambient_dim}, "
                    f"family expects {self.ambient_dim}"
                )
        object.__setattr__(self, "members", members)

    @property
    def n(self) -> int:
        return len(self.members) - 1


@dataclass(frozen=True)
class CosineMatrix:
    """Symmetric matrix with unit diagonal and off-diagonal entries in [-1, 0]."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_symmetric_matrix(self.matrix)
        d = np.diag(m)
        if not np.all(d == 1.0):
            raise ValidationError("cosine matrix diagonal must be exactly 1")
        off = m - np.diag(d)
        if np.any(off > 0.0) or np.any(off < -1.0):
            raise ValidationError("cosine matrix off-diagonal entries must lie in [-1, 0]")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def min_eigenvalue(self) -> float:
        return float(sym_eigs(self.matrix).eigenvalues[0])


def _principal_cosines(u: Subspace, v: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Squared principal cosines of U against V, ascending, one per basis
    vector of U, with the matching U-side principal vectors as columns."""
    cross = u.basis.T @ v.basis
    spec = sym_eigs(cross @ cross.T, want_vectors=True)
    return spec.eigenvalues, u.basis @ spec.eigenvectors


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection of two subspaces.

    Spanned by the principal vectors of U whose principal cosine against V
    is at least 1 - `INTERSECT_TOL`, the cut `angle_cos` applies.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    cos2, vectors = _principal_cosines(u, v)
    return Subspace(u.ambient_dim, vectors[:, cos2 >= (1.0 - INTERSECT_TOL) ** 2])


def angle_cos(u: Subspace, v: Subspace) -> float:
    """Cosine of the angle between two subspaces, in [0, 1].

    The largest principal cosine of U and V below the cut of `intersect`,
    1 - `INTERSECT_TOL`, so the shared directions are removed first; 0 when
    there is none, in particular when one subspace contains the other (the
    zero subspace is contained in everything).  The cosines are read from
    the cross-Gram on the side of the smaller subspace, so swapping two
    arguments of different dimensions gives the same bits.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
    if u.dim > v.dim:
        u, v = v, u
    if u.dim == 0:
        return 0.0
    cos2, _ = _principal_cosines(u, v)
    below = cos2[cos2 < (1.0 - INTERSECT_TOL) ** 2]
    return math.sqrt(max(float(below[-1]), 0.0)) if below.size else 0.0


def cosine_matrix_of_family(family: SubspaceFamily) -> CosineMatrix:
    """Cosine matrix of a family: unit diagonal, -angle_cos off the diagonal."""
    k = family.n + 1
    a = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            c = -angle_cos(family.members[i], family.members[j])
            a[i, j] = c
            a[j, i] = c
    return CosineMatrix(a)


def kassabov_delta(l12: float, l13: float, l23: float) -> float:
    """Bound on the angle cosine of (V1 cut with V3, V2 cut with V3).

    delta = (l12 + l13*l23) / (sqrt(1 - l13^2) * sqrt(1 - l23^2)), where the
    l's are pairwise angle cosines.  l13 and l23 must stay below 1.
    """
    for name, value in (("l12", l12), ("l13", l13), ("l23", l23)):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    if l13 == 1.0 or l23 == 1.0:
        raise SingularityError("kassabov_delta denominator vanishes at cosine 1")
    return (l12 + l13 * l23) / (math.sqrt(1.0 - l13 * l13) * math.sqrt(1.0 - l23 * l23))


def kassabov_reduced(a: CosineMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce an (n+1)x(n+1) cosine matrix to the n-subspace matrix A'.

    Reading lambda_ij = -A[i][j], the reduced matrix has unit diagonal and
    off-diagonal entries -delta_ij with delta_ij = kassabov_delta applied to
    (lambda_ij, lambda_in, lambda_jn).  Also returns the unscaled form A''
    (diagonal 1 - lambda_in^2, off-diagonal -(lambda_ij + lambda_in*lambda_jn))
    and the diagonal scaling D with D_ii = 1/sqrt(1 - lambda_in^2), so that
    A' = D A'' D holds exactly.
    """
    if not isinstance(a, CosineMatrix):
        a = CosineMatrix(np.asarray(a, dtype=float))
    m = a.matrix
    n = m.shape[0] - 1
    if n < 1:
        raise ValidationError("reduction needs at least a 2x2 cosine matrix")
    lam = -m
    lam_last = lam[:n, n]
    if np.any(lam_last >= 1.0):
        raise SingularityError("reduction undefined: some angle cosine with V_n equals 1")
    scale = 1.0 / np.sqrt(1.0 - lam_last**2)
    a_prime = np.eye(n)
    a_dprime = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                a_dprime[i, j] = 1.0 - lam_last[i] ** 2
            else:
                a_dprime[i, j] = -(lam[i, j] + lam_last[i] * lam_last[j])
                a_prime[i, j] = -kassabov_delta(lam[i, j], lam_last[i], lam_last[j])
    return a_prime, a_dprime, np.diag(scale)


def spherical_face_family(vertices) -> SubspaceFamily:
    """Face subspaces of a spherical simplex with the given unit vertices.

    Vertex i's opposite face subspace V_i' is spanned by all the other
    vertices.  Vertices must be unit length and linearly independent.
    """
    arr = np.array(vertices, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValidationError("expected a nonempty list of vertex row vectors")
    count, d = arr.shape
    with np.errstate(over="ignore"):  # an overflowing norm is not 1 either
        norms = np.sqrt(np.sum(arr * arr, axis=1))
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        raise ValidationError("simplex vertices must be unit vectors within 1e-10")
    _, rank = orthonormalize(arr)
    if rank != count:
        raise ValidationError("vertices are not in general position (linearly dependent)")
    members = []
    for i in range(count):
        rest = np.delete(arr, i, axis=0)
        members.append(Subspace.from_spanning(d, rest))
    return SubspaceFamily(d, tuple(members))
