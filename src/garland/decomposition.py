"""Subspace lattices and the direct-sum decomposition verifier.

For a family V_0, ..., V_n the lattice assigns to every index set tau the
space H_tau (intersection of the V_i with i outside tau, the full space when
tau is everything) and the component H^tau (the part of H_tau orthogonal to
every smaller H_eta).  The verifier checks numerically that the H^eta over
eta inside tau really decompose H_tau as a direct sum.

Index sets are bitmasks; helpers accept any iterable of indices as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import _json_int, _number_table
from .errors import InputFormatError, ValidationError
from .linalg import orthonormalize, sym_eigs
from .subspaces import Subspace, SubspaceFamily, intersect, residual_complement

# the lattice has 2^(n+1) index sets and its work grows about threefold per
# step of n: at n = 13, building it and verifying every index set takes about
# 10 s on a 2-CPU machine
MAX_FAMILY_N = 13
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


def proper_submasks(mask: int):
    """All submasks of `mask` except `mask` itself, ascending (starts at 0)."""
    sub = 0
    while sub != mask:
        yield sub
        sub = (sub - mask) & mask


@dataclass(frozen=True)
class SubspaceLattice:
    family: SubspaceFamily
    h_lower: dict[int, Subspace]
    h_upper: dict[int, Subspace]

    @property
    def n(self) -> int:
        return self.family.n


def h_tau(family: SubspaceFamily, tau) -> Subspace:
    """H_tau: intersection of the members NOT indexed by tau (full space if none)."""
    n = family.n
    mask = as_mask(tau, n)
    outside = [i for i in range(n + 1) if not mask >> i & 1]
    if not outside:
        return Subspace.full(family.ambient_dim)
    result = family.members[outside[0]]
    for i in outside[1:]:
        result = intersect(result, family.members[i])
    return result


def h_sup_tau(family: SubspaceFamily, tau, lattice_so_far: dict[int, Subspace]) -> Subspace:
    """H^tau: the part of H_tau orthogonal to every H_eta with eta a proper subset.

    `lattice_so_far` must already hold h_lower entries for tau and all of its
    subsets.  The span of the smaller H_eta is projected into H_tau before
    complementing, so marginal containment error cannot leak outside H_tau.
    """
    n = family.n
    mask = as_mask(tau, n)
    lower = lattice_so_far[mask]
    if mask == 0:
        return lower
    columns = [lattice_so_far[sub].basis for sub in proper_submasks(mask)]
    stacked = np.hstack(columns)
    if stacked.shape[1] == 0 or lower.dim == 0:
        return lower
    projected = lower.basis @ (lower.basis.T @ stacked)
    basis, _ = orthonormalize(projected.T, rank_tol=1e-8, ambient_dim=family.ambient_dim)
    # residual_complement, not complement_within: near-degenerate families can
    # make the rank bookkeeping marginal, and the verifier should report that
    # as a failed decomposition rather than refuse to build the lattice
    return residual_complement(lower, Subspace(family.ambient_dim, basis))


def build_lattice(family: SubspaceFamily) -> SubspaceLattice:
    """Populate H_tau and H^tau for every subset, in increasing cardinality order."""
    n = family.n
    if n > MAX_FAMILY_N:
        raise ValidationError(
            f"families with n > {MAX_FAMILY_N} are not supported, got n = {n} "
            f"({1 << (n + 1)} index sets)"
        )
    masks = sorted(range(1 << (n + 1)), key=lambda m: (m.bit_count(), m))
    lower: dict[int, Subspace] = {}
    upper: dict[int, Subspace] = {}
    for mask in masks:
        lower[mask] = h_tau(family, mask)
        upper[mask] = h_sup_tau(family, mask, lower)
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
    source: SubspaceFamily | SubspaceLattice,
    tau,
    tol: float = VERIFY_TOL,
) -> DecompositionReport:
    """Check three conditions for the decomposition of H_tau.

    (a) the component dimensions sum to dim H_tau, (b) the concatenated
    component bases have smallest singular value above `tol` (direct sum,
    not necessarily orthogonal), and (c) solving the least-squares system
    over those bases reproduces every basis vector of H_tau within `tol`.
    """
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    lattice = source if isinstance(source, SubspaceLattice) else build_lattice(source)
    n = lattice.n
    mask = as_mask(tau, n)
    target = lattice.h_lower[mask]
    submasks = list(proper_submasks(mask)) + [mask]
    columns = [lattice.h_upper[sub].basis for sub in submasks]
    stacked = np.hstack(columns)
    total = stacked.shape[1]
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
    gram = stacked.T @ stacked
    spec = sym_eigs(gram, want_vectors=True)
    smallest_sv = float(np.sqrt(max(spec.eigenvalues[0], 0.0)))
    sv_ok = smallest_sv > tol

    max_residual = 0.0
    if target.dim > 0:
        # least squares through the Gram eigendecomposition already in hand
        keep = spec.eigenvalues > (tol * tol)
        vecs = spec.eigenvectors[:, keep]
        inv = vecs @ np.diag(1.0 / spec.eigenvalues[keep]) @ vecs.T
        coeff = inv @ (stacked.T @ target.basis)
        resid = stacked @ coeff - target.basis
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
