"""Subspace lattices and the direct-sum decomposition verifier.

For a family V_0, ..., V_n the lattice assigns to every index set tau the
space H_tau (intersection of the V_i with i outside tau, the full space when
tau is everything) and the component H^tau (the part of H_tau orthogonal to
every smaller H_eta).  The verifier checks numerically that the H^eta over
eta inside tau really decompose H_tau as a direct sum.

`build_lattice` fills H_tau from the top down: the full index set gets the
full space, an index set missing one index i gets V_i, and every other tau
gets H_{tau + hi} cut with V_hi, hi being the highest index outside tau.
Each H_tau comes out as the left-to-right intersection of the V_i outside
tau.  These parents form a tree, walked one level (count of indices outside)
at a time with one `intersect` call that stacks the level's pairs.  Every
H_tau below a zero one is zero, so the walk never enters the subtree of a
zero H_tau, and all zero H_tau are one shared zero subspace: n+1 lines of
R^(n+1) intersect their C(n+1, 2) pairs only, where n+1 hyperplanes
intersect one pair for each of the 2^(n+1) - n - 2 index sets with two or
more indices outside them.

H_eta lies in H_{tau - i} whenever eta lies in tau - i, so the smaller H_eta
together span what the |tau| maximal ones H_{tau - i} span, and only those
are stacked for H^tau.  Each component and each check is one singular value
decomposition (Golub and Van Loan, Matrix Computations, section 8.6): the
component is the complement of that span in coordinates of H_tau, and the
verifier reads the smallest singular value and the projection of H_tau off
the stacked H^eta.  The build groups the nonzero H_tau by the shape of their
projected stacks and factors each group with one stacked SVD, which gives
every matrix the bits of its own call.

The verifier's dimension count, the sum of dim H^eta over the submasks eta
of tau, is one table over all masks, filled by an exact integer pass per
index i that adds each mask without i into the mask with i: (n+1) * 2^n
additions, however many components there are.  A tau whose count is 0 needs
no linear algebra, and only the others scan the nonzero components.

Index sets are bitmasks; `as_mask` also takes an iterable of int indices.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .complexes import _json_int, _number_table
from .errors import InputFormatError, ValidationError
from .linalg import RANK_TOL, left_singular
from .subspaces import MAX_AMBIENT_DIM, Subspace, SubspaceFamily, intersect

# the lattice has 2^(n+1) index sets.  At n = 13, n+1 lines or planes of
# R^(n+1) take 0.003-0.016 s to build and 0.065-0.12 s to verify every index
# set on a 2-CPU machine: the build stops at the zero pairwise intersections,
# and the verifier decides a zero H_tau from its component count alone.
# Families whose H_tau are all nonzero cost about twice as much per step of
# n: n+1 hyperplanes of R^(n+1) take 0.32-0.42 s to build and 0.20-0.33 s to
# verify at n = 11, 0.69-0.95 s and 0.40-0.64 s at n = 12 and 2.0-2.3 s and
# 1.0-1.4 s at n = 13, so the cap bounds n, not the work
MAX_FAMILY_N = 13
VERIFY_TOL = 1e-7


def _is_index(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_mask(tau, n: int) -> int:
    """Normalize an index set over {0..n}: a bitmask, or an iterable of
    indices, each a non-bool int; anything else is a ValidationError."""
    if type(tau) is int or _is_index(tau):
        mask = int(tau)
        if mask < 0 or mask >= (1 << (n + 1)):
            raise ValidationError(f"index mask {mask} out of range for n = {n}")
        return mask
    if isinstance(tau, (str, bytes)) or not isinstance(tau, Iterable):
        raise ValidationError(
            f"an index set is an int mask or an iterable of int indices, got {type(tau).__name__}"
        )
    mask = 0
    for i in tau:
        if not _is_index(i):
            raise ValidationError(f"index {i!r} is not an int")
        idx = int(i)
        if idx < 0 or idx > n:
            raise ValidationError(f"index {idx} out of range for n = {n}")
        mask |= 1 << idx
    return mask


@functools.lru_cache(maxsize=1 << (MAX_FAMILY_N + 1))
def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@functools.cache
def _mask_order(n: int) -> tuple[int, ...]:
    """Every mask over {0..n} in increasing cardinality order, then by mask."""
    return tuple(sorted(range(1 << (n + 1)), key=lambda m: (m.bit_count(), m)))


@dataclass(frozen=True)
class SubspaceLattice:
    """H_tau (`h_lower`) and H^tau (`h_upper`) for every index set tau.

    `components` lists the masks whose H^tau is nonzero, ascending, and
    `component_totals[tau]` is the sum of dim H^eta over the submasks eta of
    tau; `build_lattice` computes both.
    """

    family: SubspaceFamily
    h_lower: dict[int, Subspace]
    h_upper: dict[int, Subspace]
    components: tuple[int, ...] = field(repr=False)
    component_totals: list[int] = field(repr=False)
    n: int = field(init=False, repr=False)  # the family's n, which every check reads

    def __post_init__(self):
        object.__setattr__(self, "n", self.family.n)


def _h_sup_taus(entries) -> list[Subspace]:
    """H^tau for each pair (H_tau, maximal): the part of H_tau orthogonal to
    every smaller H_eta.

    `maximal` holds the bases of the |tau| maximal proper subsets tau - i,
    whose spaces span every smaller H_eta.  Their stack is projected into
    coordinates of H_tau, so marginal containment error cannot leak outside
    it, and the complement of its column space there, taken from the
    complete left singular factor, is orthonormal by construction.  The
    projected stacks of one shape share one stacked SVD, and one pair is its
    one-element case, so both give the same bits.
    """
    out = [lower for lower, _ in entries]
    by_shape: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
    for k, (lower, maximal) in enumerate(entries):
        if lower.dim and any(basis.shape[1] for basis in maximal):
            cross = lower.basis.T @ np.hstack(maximal)
            by_shape.setdefault(cross.shape, []).append((k, cross))
    for group in by_shape.values():
        left, singular = left_singular(np.stack([cross for _, cross in group]), complete=True)
        ranks = np.count_nonzero(singular > RANK_TOL, axis=-1).tolist()
        for (k, _), u, rank in zip(group, left, ranks):
            lower = entries[k][0]
            out[k] = Subspace(lower.ambient_dim, lower.basis @ u[:, rank:])
    return out


def _submask_sums(values: np.ndarray, n: int) -> list[int]:
    """For every mask over {0..n}, the sum of `values` over its submasks.

    One exact integer pass per index i adds each mask without i into the
    mask with i, (n+1) * 2^n additions in all.
    """
    table = values.copy()
    for i in range(n + 1):
        pairs = table.reshape(-1, 2, 1 << i)  # [:, 0] lacks bit i, [:, 1] has it
        pairs[:, 1] += pairs[:, 0]
    return table.tolist()


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
    members = family.members
    full = (1 << (n + 1)) - 1
    zero = Subspace.zero(family.ambient_dim)
    nonzero = {full: Subspace.full(family.ambient_dim)}
    # (mask, hi) for each nonzero H_tau of the current level, hi being the
    # highest index outside tau; its children drop one index above hi
    level = []
    for i, member in enumerate(members):
        if member.dim:
            nonzero[full ^ 1 << i] = member
            level.append((full ^ 1 << i, i))
    while children := [(mask, j) for mask, hi in level for j in range(hi + 1, n + 1)]:
        spaces = intersect(
            [nonzero[mask] for mask, _ in children], [members[j] for _, j in children]
        )
        level = []
        for (mask, j), h in zip(children, spaces):
            if h.dim:
                nonzero[mask ^ 1 << j] = h
                level.append((mask ^ 1 << j, j))
    # a zero H_tau is its own H^tau
    lower = dict.fromkeys(_mask_order(n), zero)
    lower.update(nonzero)
    upper = dict(lower)
    entries = [
        (h, [lower[mask ^ 1 << i].basis for i in indices_of(mask)]) for mask, h in nonzero.items()
    ]
    upper.update(zip(nonzero, _h_sup_taus(entries)))
    components = tuple(sorted(mask for mask in nonzero if upper[mask].dim))
    dims = np.zeros(full + 1, dtype=np.int64)
    dims[list(components)] = [upper[mask].dim for mask in components]
    return SubspaceLattice(
        family=family,
        h_lower=lower,
        h_upper=upper,
        components=components,
        component_totals=_submask_sums(dims, n),
    )


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
    dim = target.dim
    total = lattice.component_totals[mask]
    dims_ok = total == dim
    if total == 0:
        return DecompositionReport(
            tau=indices_of(mask),
            holds=dims_ok,  # nothing to span: holds only for a zero H_tau
            dim_h_tau=dim,
            sum_of_component_dims=0,
            min_singular_value_of_stacked_bases=None,
            max_reconstruction_residual=None,
            tol=tol,
        )
    # the nonzero H^eta of the submasks eta, ascending, so mask comes last
    columns = [lattice.h_upper[sub].basis for sub in lattice.components if sub | mask == mask]
    stacked = np.hstack(columns)
    left, singular = left_singular(stacked)
    smallest_sv = float(singular[-1]) if total <= stacked.shape[0] else 0.0
    sv_ok = smallest_sv > tol

    max_residual = 0.0
    if dim > 0:
        span = left[:, singular > tol]
        resid = target.basis - span @ (span.T @ target.basis)
        max_residual = float(np.max(np.sqrt(np.sum(resid * resid, axis=0))))
    span_ok = max_residual <= tol

    return DecompositionReport(
        tau=indices_of(mask),
        holds=bool(dims_ok and sv_ok and span_ok),
        dim_h_tau=dim,
        sum_of_component_dims=total,
        min_singular_value_of_stacked_bases=smallest_sv,
        max_reconstruction_residual=max_residual,
        tol=tol,
    )


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
