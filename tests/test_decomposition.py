"""Lattice construction and direct-sum verification tests."""

from __future__ import annotations

import numpy as np
import pytest

import garland as g
from garland.decomposition import (
    as_mask,
    build_lattice,
    h_sup_tau,
    h_tau,
    indices_of,
    proper_submasks,
    random_family,
    verify_decomposition,
)
from garland.errors import InputFormatError, ValidationError
from garland.linalg import max_abs

from conftest import load_fixture, pd_families


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


def coordinate_axes_family():
    e = np.eye(3)
    return g.SubspaceFamily(
        3, tuple(g.Subspace.from_spanning(3, [e[i]]) for i in range(3))
    )


def test_h_tau_on_axes():
    fam = coordinate_axes_family()
    assert h_tau(fam, ()).dim == 0  # meet of all three axes
    assert h_tau(fam, (0, 1)).dim == 1  # equals the remaining axis
    assert h_tau(fam, (0, 1, 2)).dim == 3  # empty meet is everything
    v2 = h_tau(fam, (0, 1))
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
            assert lower.contains(upper, tol=1e-6)
            for sub in proper_submasks(mask):
                other = lattice.h_upper[sub]
                if upper.dim and other.dim:
                    assert max_abs(upper.basis.T @ other.basis) <= 1e-6


def test_verify_accepts_family_or_lattice():
    fam, _ = pd_families(1, seed0=50)[0]
    direct = verify_decomposition(fam, 0)
    via_lattice = verify_decomposition(build_lattice(fam), 0)
    assert direct.holds == via_lattice.holds
    assert direct.dim_h_tau == via_lattice.dim_h_tau


def test_three_lines_in_plane_fails_cleanly():
    fam = g.load_family(load_fixture("three_lines_plane.json"))
    cm = g.cosine_matrix_of_family(fam)
    assert not g.classify_definiteness(cm.matrix).is_positive_definite
    report = verify_decomposition(fam, (0, 1, 2))
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


def test_h_sup_tau_needs_lower_entries():
    fam = coordinate_axes_family()
    lower = {0: h_tau(fam, 0)}
    with pytest.raises(KeyError):
        h_sup_tau(fam, 0b11, lower)


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
    fam = coordinate_axes_family()
    with pytest.raises(ValidationError):
        verify_decomposition(fam, 0, tol=-1.0)
