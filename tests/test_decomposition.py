"""Lattice construction and direct-sum verification tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import garland as g
from garland import decomposition
from garland.decomposition import (
    DecompositionReport,
    _h_sup_taus,
    as_mask,
    build_lattice,
    indices_of,
    verify_decomposition,
)
from garland.errors import GarlandError, InputFormatError, ValidationError
from garland.linalg import max_abs

from conftest import json_scalars, json_values, load_fixture, pd_families, random_family


def test_mask_helpers():
    assert as_mask((0, 2), 2) == 0b101
    assert as_mask(5, 2) == 5
    assert indices_of(0b1011) == (0, 1, 3)
    assert list(proper_submasks(0b101)) == [0b000, 0b001, 0b100]
    assert list(proper_submasks(0)) == []
    with pytest.raises(ValidationError):
        as_mask((3,), 2)
    with pytest.raises(ValidationError):
        as_mask(8, 2)
    assert as_mask(np.int64(5), 2) == 5
    assert as_mask(np.array([0, 2]), 2) == 0b101
    assert as_mask(range(3), 2) == 0b111


@pytest.mark.parametrize(
    "tau, message",
    [
        ("12", "got str"),  # not the indices {1, 2}
        (b"\x01", "got bytes"),
        (True, "got bool"),  # not the mask 1
        (np.bool_(True), "got bool"),
        (1.5, "got float"),
        (None, "got NoneType"),
        ((1.7,), "index 1.7 is not an int"),  # not truncated to 1
        ((True,), "index True is not an int"),
        ([0, "1"], "index '1' is not an int"),
    ],
)
def test_as_mask_refuses_malformed_index_sets(tau, message):
    with pytest.raises(ValidationError, match=message):
        as_mask(tau, 3)


def coordinate_axes_family():
    e = np.eye(3)
    return g.SubspaceFamily(
        3, tuple(g.Subspace.from_spanning(3, [e[i]]) for i in range(3))
    )


def test_h_tau_on_axes():
    h_lower = build_lattice(coordinate_axes_family()).h_lower
    assert h_lower[0b000].dim == 0  # meet of all three axes
    assert h_lower[0b011].dim == 1  # equals the remaining axis
    assert h_lower[0b111].dim == 3  # empty meet is everything
    v2 = h_lower[0b011]
    assert abs(abs(v2.basis[2, 0]) - 1.0) <= 1e-12


def test_lattice_on_axes_decomposes():
    fam = coordinate_axes_family()
    lattice = build_lattice(fam)
    full = 0b111
    # components of pair sets are the axes; the top component is trivial
    assert lattice.h_upper[0b011].dim == 1
    assert lattice.h_upper[full].dim == 0
    for mask in range(8):
        assert verify_decomposition(lattice, mask).holds


def test_single_member_family():
    fam = g.SubspaceFamily(
        2, (g.Subspace.from_spanning(2, [[0.0, 1.0]]),)
    )
    lattice = build_lattice(fam)
    assert lattice.h_upper[0b1].dim == 1  # orthogonal complement of the member
    report = verify_decomposition(lattice, (0,))
    assert report.holds
    assert report.dim_h_tau == 2
    assert report.sum_of_component_dims == 2
    assert report.min_singular_value_of_stacked_bases == pytest.approx(1.0)


def test_component_structure_invariants():
    for fam, _ in pd_families(12, seed0=900):
        lattice = build_lattice(fam)
        n = fam.n
        for mask in range(1 << (n + 1)):
            upper = lattice.h_upper[mask]
            lower = lattice.h_lower[mask]
            assert containment_residual(lower, upper) <= 1e-6
            for sub in proper_submasks(mask):
                other = lattice.h_upper[sub]
                if upper.dim and other.dim:
                    assert max_abs(upper.basis.T @ other.basis) <= 1e-6


def test_three_lines_in_plane_fails_cleanly():
    fam = g.load_family(load_fixture("three_lines_plane.json"))
    cm = g.cosine_matrix_of_family(fam)
    assert not g.classify_definiteness(cm.matrix).is_positive_definite
    report = verify_decomposition(build_lattice(fam), (0, 1, 2))
    assert not report.holds
    assert report.dim_h_tau == 2
    assert report.sum_of_component_dims == 3


def test_doubled_plane_reports():
    fam = g.load_family(load_fixture("doubled_plane.json"))
    lattice = build_lattice(fam)
    # the twin members collapse: H_{0} = H_{1} = the plane, components vanish
    assert lattice.h_upper[0b01].dim == 0
    assert lattice.h_upper[0b10].dim == 0
    assert lattice.h_upper[0b11].dim == 1
    for mask in range(4):
        assert verify_decomposition(lattice, mask).holds


def test_random_family_is_deterministic():
    a = random_family(123, 9, 2, (2, 3, 2))
    b = random_family(123, 9, 2, (2, 3, 2))
    assert all(
        max_abs(x.basis - y.basis) == 0.0 for x, y in zip(a.members, b.members)
    )
    assert [s.dim for s in a.members] == [2, 3, 2]
    with pytest.raises(ValidationError):
        random_family(0, 4, 1, (5, 1))  # member dim exceeds ambient


def test_load_family_errors():
    with pytest.raises(InputFormatError):
        g.load_family({"subspaces": [[[1.0, 0.0]]]})
    with pytest.raises(InputFormatError):
        g.load_family({"ambient_dim": 2, "subspaces": "nope"})
    with pytest.raises(InputFormatError):
        g.load_family({"ambient_dim": 2, "subspaces": [[[1.0, 0.0, 0.0]]]})


def test_load_family_keeps_an_empty_spanning_list():
    fam = g.load_family({"ambient_dim": 2, "subspaces": [[], [[0, 1]]]})
    assert [s.dim for s in fam.members] == [0, 1]


def test_verify_rejects_bad_tol():
    lattice = build_lattice(coordinate_axes_family())
    for tol in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="positive finite"):
            verify_decomposition(lattice, 0, tol=tol)


def lattice_families():
    """Hyperplanes, lines and planes in R^(n+1), a positive-definite draw, a
    family with a zero member and three lines in a plane."""
    out = [
        random_family(31 + n + k, n + 1, n, [k] * (n + 1))
        for n in (3, 5)
        for k in (n, 1, 2)
    ]
    out.append(pd_families(1, seed0=70)[0][0])
    drawn = random_family(7, 4, 2, (1, 2, 3))
    out.append(g.SubspaceFamily(4, (g.Subspace.zero(4), *drawn.members)))
    out.append(g.load_family(load_fixture("three_lines_plane.json")))
    return out


def test_lattice_bases_equal_the_one_mask_functions_bit_for_bit():
    # sparse lines, whose zero pairs cut off every deeper intersection, and
    # an empty spanning list, a zero member from the start
    lines = random_family(11, 8, 7, [1] * 8)
    empty_listed = g.load_family(
        {
            "ambient_dim": 3,
            "subspaces": [[[1, 0, 0], [0, 1, 0]], [], [[0, 1, 1]], [[1, 1, 0], [0, 0, 1]]],
        }
    )
    for fam in [*lattice_families(), lines, empty_listed]:
        lattice = build_lattice(fam)
        masks = sorted(range(1 << (fam.n + 1)), key=lambda m: (m.bit_count(), m))
        assert list(lattice.h_lower) == masks
        assert list(lattice.h_upper) == masks
        for mask in masks:
            lower = lattice.h_lower[mask]
            assert np.array_equal(lower.basis, reference_h_tau(fam, mask).basis)
            maximal = [lattice.h_lower[mask ^ 1 << i].basis for i in indices_of(mask)]
            alone = _h_sup_taus([(lower, maximal)])[0]
            assert np.array_equal(lattice.h_upper[mask].basis, alone.basis)


def reference_h_tau(fam, mask: int) -> g.Subspace:
    """H_tau one mask at a time: the members outside tau intersected left to
    right, the full space when there are none."""
    outside = [i for i in range(fam.n + 1) if not mask >> i & 1]
    if not outside:
        return g.Subspace.full(fam.ambient_dim)
    result = fam.members[outside[0]]
    for i in outside[1:]:
        result = g.intersect(result, fam.members[i])
    return result


def containment_residual(h: g.Subspace, u: g.Subspace) -> float:
    """Largest distance of a basis vector of U from H; 0 when U is zero."""
    if u.dim == 0:
        return 0.0
    resid = u.basis - h.basis @ (h.basis.T @ u.basis)
    return float(np.max(np.sqrt(np.sum(resid * resid, axis=0))))


def proper_submasks(mask: int):
    """All submasks of `mask` except `mask` itself, ascending (starts at 0)."""
    sub = 0
    while sub != mask:
        yield sub
        sub = (sub - mask) & mask


def reference_verify(lattice, mask, tol=1e-7):
    """The verifier with every submask's H^eta stacked, zero-width ones too.

    It makes the same thin SVD as `verify_decomposition`, so that the two
    agree bit for bit exactly when the zero-width H^eta add nothing.
    """
    target = lattice.h_lower[mask]
    submasks = [*proper_submasks(mask), mask]
    stacked = np.hstack([lattice.h_upper[sub].basis for sub in submasks])
    total = stacked.shape[1]
    if total == 0:
        return DecompositionReport(
            indices_of(mask), target.dim == 0, target.dim, 0, None, None, tol
        )
    left, singular, _ = np.linalg.svd(stacked, full_matrices=False)
    smallest = float(singular[-1]) if total <= stacked.shape[0] else 0.0
    residual = 0.0
    if target.dim > 0:
        span = left[:, singular > tol]
        resid = target.basis - span @ (span.T @ target.basis)
        residual = float(np.max(np.sqrt(np.sum(resid * resid, axis=0))))
    holds = total == target.dim and smallest > tol and residual <= tol
    return DecompositionReport(
        indices_of(mask), bool(holds), target.dim, total, smallest, residual, tol
    )


def reference_component(lattice, mask):
    """H^tau from every proper submask's H_eta, by two SVDs with two rank
    cuts: span the stack projected into H_tau, then the residual of H_tau
    off that span."""
    lower = lattice.h_lower[mask]
    columns = [lattice.h_lower[sub].basis for sub in proper_submasks(mask)]
    if lower.dim == 0 or not any(c.shape[1] for c in columns):
        return lower
    stacked = np.hstack(columns)
    projected = lower.basis @ (lower.basis.T @ stacked)
    span = left_singular_span(projected)
    resid = lower.basis - span @ (span.T @ lower.basis)
    return g.Subspace(lower.ambient_dim, left_singular_span(resid))


def left_singular_span(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, cut at singular value 1e-8:
    the columns are projections of unit vectors, so an absolute cut is the
    right scale."""
    left, singular, _ = np.linalg.svd(columns, full_matrices=False)
    return left[:, singular > 1e-8]


def test_components_match_the_two_svd_reference_over_every_submask():
    families = lattice_families() + [fam for fam, _ in pd_families(12, seed0=900)]
    for fam in families:
        lattice = build_lattice(fam)
        for mask in range(1 << (fam.n + 1)):
            mine = lattice.h_upper[mask]
            ref = reference_component(lattice, mask)
            assert mine.dim == ref.dim
            projector_gap = mine.basis @ mine.basis.T - ref.basis @ ref.basis.T
            assert max_abs(projector_gap) <= 1e-10


def test_component_totals_are_the_brute_force_sums_over_components():
    fams = [
        coordinate_axes_family(),
        g.load_family(load_fixture("doubled_plane.json")),
        *lattice_families(),
    ]
    zero_masks = 0
    for fam in fams:
        lattice = build_lattice(fam)
        assert lattice.components == tuple(
            sorted(m for m, h in lattice.h_upper.items() if h.dim)
        )
        assert len(lattice.component_totals) == 1 << (fam.n + 1)
        for mask in range(1 << (fam.n + 1)):
            brute = sum(
                lattice.h_upper[sub].dim for sub in lattice.components if sub | mask == mask
            )
            assert lattice.component_totals[mask] == brute
            assert type(lattice.component_totals[mask]) is int
            zero_masks += lattice.h_lower[mask].dim == 0
    assert zero_masks > 0


def test_verify_resolves_the_dependent_full_index_set_of_three_lines():
    # three component lines in a plane: the stack has 3 columns in R^2, so
    # its smallest singular value is exactly 0; a Gram matrix of the stack
    # has a round-off eigenvalue of about 3e-16, which passes tol^2 at
    # tol = 1e-12 and would be inverted
    lattice = build_lattice(g.load_family(load_fixture("three_lines_plane.json")))
    report = verify_decomposition(lattice, (0, 1, 2))
    assert report.min_singular_value_of_stacked_bases <= 1e-15
    tight = verify_decomposition(lattice, (0, 1, 2), tol=1e-12)
    assert not tight.holds
    assert tight.max_reconstruction_residual <= 1e-12


def test_verify_equals_the_reference_that_stacks_every_submask():
    verdicts = set()
    for fam in lattice_families():
        lattice = build_lattice(fam)
        for mask in range(1 << (fam.n + 1)):
            report = verify_decomposition(lattice, mask)
            assert report == reference_verify(lattice, mask)
            verdicts.add(report.holds)
    assert verdicts == {True, False}


def intersected_pairs(monkeypatch, fam) -> list[int]:
    """The number of pairs of each `intersect` call `build_lattice` makes."""
    calls = []
    real = decomposition.intersect

    def counted(us, vs):
        calls.append(len(us))
        return real(us, vs)

    monkeypatch.setattr(decomposition, "intersect", counted)
    build_lattice(fam)
    return calls


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_build_lattice_intersects_every_pair_of_a_dense_family(monkeypatch, n):
    # n+1 hyperplanes of R^(n+1): every H_tau is nonzero, so every index set
    # with at least two indices outside it is one intersected pair
    calls = intersected_pairs(monkeypatch, random_family(n, n + 1, n, [n] * (n + 1)))
    assert sum(calls) == 2 ** (n + 1) - n - 2
    assert len(calls) <= n  # one call per level with two or more outside


@pytest.mark.parametrize("n", [1, 3, 9])
def test_build_lattice_skips_the_subtrees_of_zero_intersections(monkeypatch, n):
    # n+1 lines of R^(n+1) meet pairwise in 0, so below the pairs nothing is
    # intersected: C(n+1, 2) pairs, 45 at n = 9 against 1013 index sets
    fam = random_family(40 + n, n + 1, n, [1] * (n + 1))
    calls = intersected_pairs(monkeypatch, fam)
    assert calls == [math.comb(n + 1, 2)]
    lattice = build_lattice(fam)
    zeros = {id(h) for h in lattice.h_lower.values() if h.dim == 0}
    assert len(zeros) == 1  # one shared zero subspace


_rows = st.lists(st.lists(json_scalars, min_size=1, max_size=3), max_size=3)
_family_docs = st.fixed_dictionaries(
    {
        "ambient_dim": st.one_of(st.integers(1, 3), json_values),
        "subspaces": st.one_of(st.lists(_rows, max_size=3), json_values),
    }
)


@settings(deadline=None)
@given(_family_docs)
def test_load_family_fails_only_with_garland_errors(doc):
    try:
        g.load_family(doc)
    except GarlandError:
        pass
