"""Finite-dimensional subspace geometry.

Subspaces carry orthonormal column bases.  The angle between two subspaces is
0 when one contains the other and otherwise the largest correlation between
unit vectors taken orthogonally to the intersection; families of subspaces
get a cosine matrix with unit diagonal and -cos(angle) off the diagonal.

Both the intersection and the angle read the principal cosines of U and V,
the singular values of B_U^T B_V (Bjorck and Golub, Math. Comp. 27, 1973;
Golub and Van Loan, Matrix Computations, section 6.4.3): the principal
vectors whose cosine is within `INTERSECT_TOL` of 1 span the intersection,
and the angle cosine is the largest principal cosine below that cut.  A
cosine that is 0 in exact arithmetic reads as round-off, about 1e-16, not
as its square root.  Pairs of equal dimensions share one stacked SVD:
`intersect` also takes two sequences of subspaces, and
`cosine_matrix_of_family` reads all its pairs at once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (
    DefinitenessClass,
    as_symmetric,
    definiteness_of,
    left_singular,
    max_abs,
    orthonormalize,
    sym_eigs,
)

INTERSECT_TOL = 1e-8
GRAM_TOL = 1e-10
# a simplex of k vertices in R^d has k (k - 1) / 2 face pairs, each a
# (k-1) x (k-1) cross product of two d x (k-1) bases in one stacked SVD, so
# the SVDs grow as k^4 and the stacked bases as k^3 d: k random unit vertices
# in R^k take, through the CLI in process on a 2-CPU machine, 0.05 to 0.08 s
# and 52 MB at k = 32, 0.27 to 0.41 s and 116 MB at k = 48 and 0.8 s and
# 288 MB at k = 64; 32 of them take 0.24 s and 171 MB in R^512 and 0.34 s and
# 298 MB in R^1024
MAX_SIMPLEX_VERTICES = 32
# a family's lattice work grows about as ambient_dim^3: three random planes in
# R^512 take 0.09-0.11 s to build and verify and in R^1024 0.59-0.69 s, and
# the identity matrix of the full space alone needs 8 * ambient_dim^2 bytes;
# a simplex's stacked bases grow linearly in it
MAX_AMBIENT_DIM = 1024


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^ambient_dim with an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValidationError("ambient dimension must be at least 1")
        # one memory layout for every basis: BLAS may round a product of
        # differently laid out operands differently, and the stacked kernels
        # must give each pair the bits of its one-pair call
        b = np.array(self.basis, dtype=float, order="C")
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValidationError(
                f"basis must be shaped ({self.ambient_dim}, k), got {b.shape}"
            )
        if b.shape[1] > 0:
            # a NaN fails no tolerance comparison, so it is refused by name
            if not np.all(np.isfinite(b)):
                raise ValidationError("basis entries must be finite")
            gram = b.T @ b
            if max_abs(gram - np.eye(b.shape[1])) > GRAM_TOL:
                raise ValidationError(f"basis columns are not orthonormal within {GRAM_TOL:g}")
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
    """Symmetric matrix with unit diagonal and off-diagonal entries in [-1, 0].

    Its spectrum is solved once, by `sym_eigs` on first use, and
    `min_eigenvalue` and `definiteness` read it; a report that passes one
    `CosineMatrix` along solves it once.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_symmetric(self.matrix)
        if m.ndim != 2:
            raise ValidationError(f"expected one square matrix, got a stack of shape {m.shape}")
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

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues in ascending order, read-only."""
        w = sym_eigs(self.matrix)
        w.flags.writeable = False
        return w

    @cached_property
    def definiteness(self) -> DefinitenessClass:
        """`classify_definiteness` of the matrix, from the kept spectrum."""
        return definiteness_of(self.matrix, self.eigenvalues)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])


# cos(pi/m), correctly rounded, where it is a closed form in square roots;
# math.cos(math.pi / m) is one ulp above it at m = 3 and m = 6
_COS_PI_OVER = {2: 0.0, 3: 0.5, 4: math.sqrt(0.5), 5: (1.0 + math.sqrt(5.0)) / 4.0,
                6: math.sqrt(3.0) / 2.0, 8: math.sqrt(2.0 + math.sqrt(2.0)) / 2.0}


def cos_pi_over(m) -> float:
    """cos(pi/m) for an integer m >= 1 or inf: the table above, or else
    `math.cos(math.pi / m)`, which is exactly -1 at m = 1 and 1 at m = inf."""
    cos = _COS_PI_OVER.get(m)
    return math.cos(math.pi / m) if cos is None else cos


def _principal_cosines(pairs):
    """Principal cosines of each U against its V, for pairs (U, V); a pair
    with a zero-dimensional side has none and is skipped.

    The pairs are grouped by their pair of dimensions, and each group is one
    stacked `left_singular` of the cross products B_U^T B_V.  Yields, per
    group, the indices of its pairs, their cosines (one row per pair,
    descending, min(dim U, dim V) of them) and the matching U-side principal
    vectors as columns.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for k, (u, v) in enumerate(pairs):
        if u.dim and v.dim:
            groups.setdefault((u.dim, v.dim), []).append(k)
    for ks in groups.values():
        us = np.stack([pairs[k][0].basis for k in ks])
        cross = us.transpose(0, 2, 1) @ np.stack([pairs[k][1].basis for k in ks])
        left, singular = left_singular(cross)
        # LAPACK may return -0.0, and a cosine matrix entry -c must stay -0.0
        yield ks, np.abs(singular), us @ left


def _check_ambient(u: Subspace, v: Subspace, where: str = "") -> None:
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError(
            f"{where}ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )


def intersect(
    u: Subspace | Sequence[Subspace], v: Subspace | Sequence[Subspace]
) -> Subspace | list[Subspace]:
    """Intersection of two subspaces, or of each pair of two equal-length
    sequences of subspaces (a list of intersections).

    Spanned by the principal vectors of U whose principal cosine against V
    is at least 1 - `INTERSECT_TOL`, the cut `angle_cos` applies.  A
    sequence makes one stacked SVD per pair of dimensions, and one pair is
    its one-element case, so both give the same bits.
    """
    one = isinstance(u, Subspace)
    if one != isinstance(v, Subspace):
        raise ValidationError("intersect takes two subspaces or two sequences of subspaces")
    us, vs = ([u], [v]) if one else (list(u), list(v))
    if len(us) != len(vs):
        raise DimensionMismatchError(f"sequences differ in length: {len(us)} vs {len(vs)}")
    for k, (a, b) in enumerate(zip(us, vs)):
        _check_ambient(a, b, "" if one else f"pair {k}: ")
    out = [None] * len(us)
    for ks, cosines, vectors in _principal_cosines(list(zip(us, vs))):
        keep = cosines >= 1.0 - INTERSECT_TOL
        for k, row, vec, meets in zip(ks, keep, vectors, keep.any(axis=-1).tolist()):
            if meets:
                out[k] = Subspace(vec.shape[0], vec[:, row])
    # the empty intersections in one ambient space share one zero subspace
    zeros = {d: Subspace.zero(d) for d in {a.ambient_dim for a, w in zip(us, out) if w is None}}
    out = [zeros[a.ambient_dim] if w is None else w for a, w in zip(us, out)]
    return out[0] if one else out


def _angle_cosines(pairs) -> list[float]:
    """`angle_cos` of each pair (U, V), already ordered smaller side first."""
    out = [0.0] * len(pairs)
    cut = 1.0 - INTERSECT_TOL
    for ks, cosines, _ in _principal_cosines(pairs):
        # each row descends, so the cosines at or above the cut are a prefix
        for k, row, above in zip(ks, cosines, np.count_nonzero(cosines >= cut, axis=-1)):
            if above < len(row):
                out[k] = float(row[above])
    return out


def _smaller_first(u: Subspace, v: Subspace) -> tuple[Subspace, Subspace]:
    return (v, u) if (u.dim, u.basis.tobytes()) > (v.dim, v.basis.tobytes()) else (u, v)


def angle_cos(u: Subspace, v: Subspace) -> float:
    """Cosine of the angle between two subspaces, in [0, 1].

    The largest principal cosine of U and V below the cut of `intersect`,
    1 - `INTERSECT_TOL`, so the shared directions are removed first; 0 when
    there is none, in particular when one subspace contains the other (the
    zero subspace is contained in everything).  The cosines are read from
    the cross product on the side of the smaller subspace, the one whose
    basis bytes come first between equal dimensions, so swapping the two
    arguments gives the same bits.
    """
    _check_ambient(u, v)
    return _angle_cosines([_smaller_first(u, v)])[0]


def cosine_matrix_of_family(family: SubspaceFamily) -> CosineMatrix:
    """Cosine matrix of a family: unit diagonal, -angle_cos off the diagonal,
    with the cosines of all pairs of one shape from one stacked SVD."""
    members = family.members
    k = len(members)
    index = [(i, j) for i in range(k) for j in range(i + 1, k)]
    cosines = _angle_cosines([_smaller_first(members[i], members[j]) for i, j in index])
    a = np.eye(k)
    for (i, j), c in zip(index, cosines):
        a[i, j] = a[j, i] = -c
    return CosineMatrix(a)


def spherical_face_family(vertices) -> SubspaceFamily:
    """Face subspaces of a spherical simplex with the given unit vertices.

    Vertex i's opposite face subspace V_i' is spanned by all the other
    vertices.  Vertices must be unit length and linearly independent, and
    there are at most `MAX_SIMPLEX_VERTICES` of them, in R^d with d at most
    `MAX_AMBIENT_DIM`.
    """
    arr = np.array(vertices, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValidationError("expected a nonempty list of vertex row vectors")
    count, d = arr.shape
    if count > MAX_SIMPLEX_VERTICES:
        raise ValidationError(
            f"a simplex of more than {MAX_SIMPLEX_VERTICES} vertices is not supported, "
            f"got {count}"
        )
    if d > MAX_AMBIENT_DIM:
        raise ValidationError(f"ambient dimension must be at most {MAX_AMBIENT_DIM}, got {d}")
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
