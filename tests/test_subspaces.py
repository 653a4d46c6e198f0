"""Subspace geometry tests: intersections, angles, reductions, face families.

The projection-operator identity cos = ||P1 P2 - P_intersection|| gives an
independent oracle for the angle computation (spectral norm via numpy SVD,
used only here).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import garland as g
from garland import subspaces
from garland.complexes import _number_table
from garland.errors import GarlandError, SingularityError, ValidationError
from garland.linalg import max_abs
from garland.subspaces import INTERSECT_TOL

from conftest import intersecting_family, json_scalars, json_values


def projector(s: g.Subspace) -> np.ndarray:
    return s.basis @ s.basis.T


def angle_via_projectors(u: g.Subspace, v: g.Subspace) -> float:
    w = g.intersect(u, v)
    gap = projector(u) @ projector(v) - projector(w)
    return float(np.linalg.norm(gap, 2))


def test_subspace_validation():
    with pytest.raises(ValidationError):
        g.Subspace(3, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))  # not orthonormal
    with pytest.raises(ValidationError):
        g.Subspace(2, np.eye(3))
    s = g.Subspace.from_spanning(3, [[2.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    assert s.dim == 1
    assert g.Subspace.zero(5).dim == 0
    assert g.Subspace.full(5).dim == 5


def test_subspace_basis_is_frozen():
    s = g.Subspace.from_spanning(2, [[1.0, 0.0]])
    with pytest.raises(ValueError):
        s.basis[0, 0] = 2.0


def contains(h: g.Subspace, u: g.Subspace) -> bool:
    """Whether U lies in H: intersecting keeps all of U."""
    return g.intersect(h, u).dim == u.dim


def test_contains():
    plane = g.Subspace.from_spanning(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    line = g.Subspace.from_spanning(3, [[1.0, 1.0, 0.0]])
    tilted = g.Subspace.from_spanning(3, [[1.0, 0.0, 1.0]])
    assert contains(plane, line)
    assert not contains(plane, tilted)
    assert contains(plane, g.Subspace.zero(3))
    assert contains(g.Subspace.full(3), plane)
    assert g.angle_cos(plane, line) == 0.0
    assert abs(g.angle_cos(plane, tilted) - math.sqrt(0.5)) <= 1e-12


def test_intersect_coordinate_planes():
    xy = g.Subspace.from_spanning(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    yz = g.Subspace.from_spanning(3, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    w = g.intersect(xy, yz)
    assert w.dim == 1
    assert abs(abs(w.basis[1, 0]) - 1.0) <= 1e-12


def test_intersect_trivial_and_self():
    xy = g.Subspace.from_spanning(4, [[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    zw = g.Subspace.from_spanning(4, [[0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    assert g.intersect(xy, zw).dim == 0
    again = g.intersect(xy, xy)
    assert again.dim == 2
    assert max_abs(projector(again) - projector(xy)) <= 1e-10


def test_intersect_generic_dimension_count():
    rng = np.random.default_rng(5)
    u = g.Subspace.from_spanning(8, rng.standard_normal((5, 8)))
    v = g.Subspace.from_spanning(8, rng.standard_normal((5, 8)))
    # generic 5+5 in dim 8 meets in dimension 2
    assert g.intersect(u, v).dim == 2


def test_angle_cos_hand_values():
    line1 = g.Subspace.from_spanning(3, [[1.0, 0.0, 0.0]])
    line2 = g.Subspace.from_spanning(3, [[1.0, 1.0, 0.0]])
    assert abs(g.angle_cos(line1, line2) - math.sqrt(0.5)) <= 1e-12
    # containment in either direction is angle zero
    plane = g.Subspace.from_spanning(3, [[1.0, 0, 0], [0, 1.0, 0]])
    assert g.angle_cos(plane, line1) == 0.0
    assert g.angle_cos(line1, plane) == 0.0
    assert g.angle_cos(line1, g.Subspace.zero(3)) == 0.0


def test_angle_cos_orthogonal_planes():
    xy = g.Subspace.from_spanning(4, [[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    zw = g.Subspace.from_spanning(4, [[0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    assert g.angle_cos(xy, zw) <= 1e-12


def test_angle_cos_removes_intersection_first():
    # planes sharing the x axis, tilted by angle t in the yz directions
    t = 0.3
    u = g.Subspace.from_spanning(3, [[1.0, 0, 0], [0, 1.0, 0]])
    v = g.Subspace.from_spanning(3, [[1.0, 0, 0], [0, math.cos(t), math.sin(t)]])
    assert abs(g.angle_cos(u, v) - math.cos(t)) <= 1e-12


def test_angle_cos_matches_projector_oracle():
    rng = np.random.default_rng(17)
    for trial in range(30):
        d = int(rng.integers(3, 9))
        pu = int(rng.integers(1, d))
        pv = int(rng.integers(1, d))
        u = g.Subspace.from_spanning(d, rng.standard_normal((pu, d)))
        v = g.Subspace.from_spanning(d, rng.standard_normal((pv, d)))
        if contains(u, v) or contains(v, u):
            continue
        assert abs(g.angle_cos(u, v) - angle_via_projectors(u, v)) <= 1e-9
    # designed nontrivial intersections as well
    for seed in range(20):
        fam = intersecting_family(seed, 10, 2, (2, 1))
        u, v = fam.members[0], fam.members[2]
        assert abs(g.angle_cos(u, v) - angle_via_projectors(u, v)) <= 1e-9


def test_angle_cos_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = g.Subspace.from_spanning(6, rng.standard_normal((3, 6)))
        v = g.Subspace.from_spanning(6, rng.standard_normal((2, 6)))
        assert g.angle_cos(u, v) == g.angle_cos(v, u)


@pytest.mark.parametrize("gap, shared", [(0.5, True), (2.0, False)])
def test_intersect_and_angle_cos_share_one_cut(gap, shared):
    # V tilts e1 toward e3 by t with 1 - cos t = gap * INTERSECT_TOL: below
    # the cut the tilted direction is shared, above it it is the angle
    c = 1.0 - gap * INTERSECT_TOL
    e = np.eye(4)
    u = g.Subspace.from_spanning(4, [e[0], e[1]])
    v = g.Subspace.from_spanning(4, [c * e[0] + math.sqrt(1.0 - c * c) * e[2], e[3]])
    for a, b in ((u, v), (v, u)):
        assert g.intersect(a, b).dim == (1 if shared else 0)
        if shared:
            assert g.angle_cos(a, b) == 0.0
        else:
            assert abs(g.angle_cos(a, b) - c) <= 1e-12


def test_intersect_and_angle_cos_make_one_eigensolve(monkeypatch):
    calls = []
    real = subspaces.sym_eigs

    def counted(matrix, want_vectors=False):
        calls.append(1)
        return real(matrix, want_vectors)

    def refused(*args, **kwargs):
        raise AssertionError("intersect and angle_cos read the principal cosines only")

    monkeypatch.setattr(subspaces, "sym_eigs", counted)
    monkeypatch.setattr(subspaces, "orthonormalize", refused)
    monkeypatch.setattr(g.Subspace, "from_spanning", refused)
    t = 0.3
    u = g.Subspace(3, np.eye(3)[:, :2])
    v = g.Subspace(3, np.array([[1.0, 0.0], [0.0, math.cos(t)], [0.0, math.sin(t)]]))
    assert g.intersect(u, v).dim == 1
    assert len(calls) == 1
    assert abs(g.angle_cos(u, v) - math.cos(t)) <= 1e-12
    assert len(calls) == 2


def test_cosine_matrix_validation():
    with pytest.raises(ValidationError):
        g.CosineMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))  # positive off-diagonal
    with pytest.raises(ValidationError):
        g.CosineMatrix(np.array([[0.9, -0.5], [-0.5, 1.0]]))
    with pytest.raises(ValidationError):
        g.CosineMatrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))
    m = g.CosineMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    assert abs(m.min_eigenvalue() - 0.5) <= 1e-12


def test_cosine_matrix_of_family():
    e = np.eye(3)
    fam = g.SubspaceFamily(
        3,
        (
            g.Subspace.from_spanning(3, [e[0]]),
            g.Subspace.from_spanning(3, [e[0] + e[1]]),
        ),
    )
    cm = g.cosine_matrix_of_family(fam)
    assert abs(cm.matrix[0, 1] + math.sqrt(0.5)) <= 1e-12


def test_kassabov_delta_values():
    assert abs(g.kassabov_delta(0.0, 0.5, 0.5) - 1.0 / 3.0) <= 1e-12
    assert abs(g.kassabov_delta(0.5, 0.0, 0.0) - 0.5) <= 1e-15
    with pytest.raises(ValidationError):
        g.kassabov_delta(-0.1, 0.5, 0.5)
    with pytest.raises(ValidationError):
        g.kassabov_delta(0.5, 1.5, 0.5)
    with pytest.raises(SingularityError):
        g.kassabov_delta(0.5, 1.0, 0.5)


def test_kassabov_reduced_identity_and_errors():
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        upper = np.triu(-rng.uniform(0.0, 0.3, size=(k, k)), 1)
        a = g.CosineMatrix(upper + upper.T + np.eye(k))
        a_prime, a_dprime, d = g.kassabov_reduced(a)
        assert a_prime.shape == (k - 1, k - 1)
        assert max_abs(a_prime - d @ a_dprime @ d) <= 1e-12
        assert np.allclose(np.diag(a_prime), 1.0, atol=1e-12)
    singular = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(SingularityError):
        g.kassabov_reduced(singular)


def test_kassabov_reduced_smallest_case():
    a_prime, a_dprime, d = g.kassabov_reduced(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    assert a_prime.shape == (1, 1)
    assert abs(a_prime[0, 0] - 1.0) <= 1e-12


def test_spherical_face_family_orthonormal_is_identity():
    fam = g.spherical_face_family(np.eye(3))
    cm = g.cosine_matrix_of_family(fam)
    assert max_abs(cm.matrix - np.eye(3)) <= 1e-9


def test_spherical_face_family_two_vertices():
    t = 0.7
    fam = g.spherical_face_family([[1.0, 0.0], [math.cos(t), math.sin(t)]])
    cm = g.cosine_matrix_of_family(fam)
    assert abs(cm.matrix[0, 1] + math.cos(t)) <= 1e-12


def test_spherical_face_family_errors():
    with pytest.raises(ValidationError):
        g.spherical_face_family([[1.0, 0.0], [2.0, 0.0]])  # not unit
    with pytest.raises(ValidationError):
        g.spherical_face_family([[1.0, 0.0], [-1.0, 0.0]])  # dependent


@settings(deadline=None)
@given(st.one_of(st.lists(st.lists(json_scalars, max_size=3), max_size=3), json_values))
def test_spherical_simplex_input_fails_only_with_garland_errors(vertices):
    try:
        g.spherical_face_family(_number_table(vertices, "vertices"))
    except GarlandError:
        pass
