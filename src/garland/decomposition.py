"""Subspace lattices and the direct-sum decomposition verifier.

For a family V_0, ..., V_n the lattice assigns to every index set tau the
space H_tau (intersection of the V_i with i outside tau, the full space when
tau is everything) and the component H^tau (the part of H_tau orthogonal to
every smaller H_eta).  The verifier checks numerically that the H^eta over
eta inside tau really decompose H_tau as a direct sum.

`build_lattice` fills H_tau from the top down: the full index set gets the
full space, an index set missing one index i gets V_i, and every other tau
gets H_{tau + hi} cut with V_hi, hi being the highest index outside tau.
That is one intersection for each index set with two or more indices
outside it, and each H_tau comes out as the left-to-right intersection of
the V_i outside tau.

H_eta lies in H_{tau - i} whenever eta lies in tau - i, so the smaller H_eta
together span what the |tau| maximal ones H_{tau - i} span, and only those
are stacked for H^tau.  Each component and each check is one singular value
decomposition (Golub and Van Loan, Matrix Computations, section 8.6): the
component is the complement of that span in coordinates of H_tau, and the
verifier reads the smallest singular value and the projection of H_tau off
the stacked H^eta.

Index sets are bitmasks; helpers accept any iterable of indices as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import _json_int, _number_table
from .errors import InputFormatError, ValidationError
from .linalg import left_singular, orthonormalize
from .subspaces import Subspace, SubspaceFamily, intersect

# the lattice has 2^(n+1) index sets.  Building it and verifying every index
# set takes 0.17-0.40 s at n = 13 for n+1 lines or planes of R^(n+1), on a
# 2-CPU machine.  Families whose H_tau are all nonzero cost about twice as
# much per step of n: n+1 hyperplanes of R^(n+1) take 0.6-1.2 s at n = 11,
# 1.4-2.4 s at n = 12 and 2.8-5.2 s at n = 13, so the cap bounds n, not the
# work
MAX_FAMILY_N = 13
# the work grows about as ambient_dim^3: three random planes in R^512 take
# 0.11-0.17 s to build and verify and in R^1024 0.7-0.9 s, and the identity
# matrix of the full space alone needs 8 * ambient_dim^2 bytes
MAX_AMBIENT_DIM = 1024
VERIFY_TOL = 1e-7


def as_mask(tau, n: int) -> int:
    """Normalize an index set (bitmask or iterable of indices) over {0..n}."""
    if isinstance(tau, (int, np.integer)):
        mask = int(tau)
        if mask < 0 or mask >= (1 << (n + 1)):
            raise ValidationError(f"index mask {mask} out of range for n = {n}")
        return mask
    mask = 0
    for i in tau:
        idx = int(i)
        if idx < 0 or idx > n:
            raise ValidationError(f"index {idx} out of range for n = {n}")
        mask |= 1 << idx
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class SubspaceLattice:
    """H_tau (`h_lower`) and H^tau (`h_upper`) for every index set tau.

    `components` lists the masks whose H^tau is nonzero, ascending; it is
    derived from `h_upper` when the lattice is made.
    """

    family: SubspaceFamily
    h_lower: dict[int, Subspace]
    h_upper: dict[int, Subspace]
    components: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        nonzero = tuple(mask for mask in sorted(self.h_upper) if self.h_upper[mask].dim)
        object.__setattr__(self, "components", nonzero)

    @property
    def n(self) -> int:
        return self.family.n


def _h_sup_tau(lower: Subspace, maximal: list[np.ndarray]) -> Subspace:
    """H^tau: the part of H_tau (`lower`) orthogonal to every smaller H_eta.

    `maximal` holds the bases of the |tau| maximal proper subsets tau - i,
    whose spaces span every smaller H_eta.  Their stack is projected into
    coordinates of H_tau, so marginal containment error cannot leak outside
    it, and the complement of its column space there, taken from the
    complete left singular factor, is orthonormal by construction.
    """
    if lower.dim == 0 or not any(basis.shape[1] for basis in maximal):
        return lower
    left, singular = left_singular(lower.basis.T @ np.hstack(maximal), complete=True)
    rank = int(np.count_nonzero(singular > 1e-8))
    return Subspace(lower.ambient_dim, lower.basis @ left[:, rank:])


def build_lattice(family: SubspaceFamily) -> SubspaceLattice:
    """Populate H_tau (top down, see the module docstring) and H^tau for
    every subset; both are keyed in increasing cardinality order, then by
    mask."""
    n = family.n
    if n > MAX_FAMILY_N:
        raise ValidationError(
            f"families with n > {MAX_FAMILY_N} are not supported, got n = {n} "
            f"({1 << (n + 1)} index sets)"
        )
    full = (1 << (n + 1)) - 1
    masks = sorted(range(full + 1), key=lambda m: (m.bit_count(), m))
    top_down: dict[int, Subspace] = {}
    for mask in reversed(masks):
        outside = full ^ mask
        hi = outside.bit_length() - 1
        if outside == 0:
            top_down[mask] = Subspace.full(family.ambient_dim)
        elif outside == 1 << hi:
            top_down[mask] = family.members[hi]
        else:
            top_down[mask] = intersect(top_down[mask | 1 << hi], family.members[hi])
    lower = {mask: top_down[mask] for mask in masks}
    upper = {}
    for mask, h in lower.items():
        # a zero H_tau is its own H^tau, and most H_tau of sparse families are
        # zero, so their maximal lists are not built
        maximal = [lower[mask ^ 1 << i].basis for i in indices_of(mask)] if h.dim else []
        upper[mask] = _h_sup_tau(h, maximal)
    return SubspaceLattice(family=family, h_lower=lower, h_upper=upper)


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of checking H_tau = direct sum of H^eta over eta inside tau."""

    tau: tuple[int, ...]
    holds: bool
    dim_h_tau: int
    sum_of_component_dims: int
    min_singular_value_of_stacked_bases: float | None
    max_reconstruction_residual: float | None
    tol: float


def verify_decomposition(
    lattice: SubspaceLattice, tau, tol: float = VERIFY_TOL
) -> DecompositionReport:
    """Check three conditions for the decomposition of H_tau.

    (a) the component dimensions sum to dim H_tau, (b) the concatenated
    component bases have smallest singular value above `tol` (direct sum,
    not necessarily orthogonal), and (c) projecting every basis vector of
    H_tau onto the left singular vectors whose singular value is above `tol`
    reproduces it within `tol`.  Both are read from one thin SVD of the
    stacked bases; a stack with more columns than rows has smallest singular
    value 0.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValidationError(f"tol must be a positive finite number, got {tol}")
    mask = as_mask(tau, lattice.n)
    target = lattice.h_lower[mask]
    # the nonzero H^eta of the submasks eta, ascending, so mask comes last
    columns = [lattice.h_upper[sub].basis for sub in lattice.components if sub | mask == mask]
    total = sum(b.shape[1] for b in columns)
    dims_ok = total == target.dim
    if total == 0:
        holds = dims_ok  # nothing to span: holds only for a zero H_tau
        return DecompositionReport(
            tau=indices_of(mask),
            holds=holds,
            dim_h_tau=target.dim,
            sum_of_component_dims=0,
            min_singular_value_of_stacked_bases=None,
            max_reconstruction_residual=None,
            tol=tol,
        )
    stacked = np.hstack(columns)
    left, singular = left_singular(stacked)
    smallest_sv = float(singular[-1]) if total <= stacked.shape[0] else 0.0
    sv_ok = smallest_sv > tol

    max_residual = 0.0
    if target.dim > 0:
        span = left[:, singular > tol]
        resid = target.basis - span @ (span.T @ target.basis)
        max_residual = float(np.max(np.sqrt(np.sum(resid * resid, axis=0))))
    span_ok = max_residual <= tol

    return DecompositionReport(
        tau=indices_of(mask),
        holds=bool(dims_ok and sv_ok and span_ok),
        dim_h_tau=target.dim,
        sum_of_component_dims=total,
        min_singular_value_of_stacked_bases=smallest_sv,
        max_reconstruction_residual=max_residual,
        tol=tol,
    )


def random_family(seed: int, ambient_dim: int, n: int, member_dims) -> SubspaceFamily:
    """Seeded family of orthonormalized standard Gaussian frames.

    Draws whose frames come out rank-deficient are redrawn from the next
    derived seed, so the result is deterministic in `seed` and always has the
    requested member dimensions.
    """
    dims = list(member_dims)
    if n < 0 or len(dims) != n + 1:
        raise ValidationError(f"member_dims must list n+1 = {n + 1} dimensions")
    if ambient_dim < 1:
        raise ValidationError("ambient dimension must be at least 1")
    for k in dims:
        if not 0 <= k <= ambient_dim:
            raise ValidationError(f"member dimension {k} infeasible in R^{ambient_dim}")
    for attempt in range(64):
        rng = np.random.default_rng([int(seed), attempt])
        members = []
        for k in dims:
            frame = rng.standard_normal((k, ambient_dim))
            basis, rank = orthonormalize(frame, ambient_dim=ambient_dim)
            if rank != k:
                members = None
                break
            members.append(Subspace(ambient_dim, basis))
        if members is not None:
            return SubspaceFamily(ambient_dim, tuple(members))
    raise ValidationError("could not draw a full-rank family (implausible for Gaussian frames)")


def load_family(data) -> SubspaceFamily:
    """Build a family from a dict with ambient_dim and raw spanning sets."""
    if not isinstance(data, dict):
        raise InputFormatError("family document must be a mapping")
    if "ambient_dim" not in data:
        raise InputFormatError("family document needs an integer field 'ambient_dim'")
    ambient_dim = _json_int(data["ambient_dim"], "ambient_dim")
    if ambient_dim < 1:
        raise InputFormatError(f"ambient_dim must be at least 1, got {ambient_dim}")
    if ambient_dim > MAX_AMBIENT_DIM:
        raise InputFormatError(f"ambient_dim must be at most {MAX_AMBIENT_DIM}, got {ambient_dim}")
    spans = data.get("subspaces")
    if not isinstance(spans, list) or not spans:
        raise InputFormatError("family document needs a nonempty list field 'subspaces'")
    members = []
    for idx, vectors in enumerate(spans):
        rows = _number_table(vectors, f"subspaces[{idx}]", width=ambient_dim)
        try:
            members.append(Subspace.from_spanning(ambient_dim, rows))
        except ValidationError as exc:
            raise InputFormatError(f"subspaces[{idx}]: {exc}") from None
    return SubspaceFamily(ambient_dim, tuple(members))
