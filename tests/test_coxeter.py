"""Coxeter matrix, geometric representation, and complex generation tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

import garland as g
from garland import coxeter
from garland.coxeter import (
    ROOT_MATCH_TOL,
    build_coxeter_complex,
    coxeter_complex_cosine_check,
    generator_matrices,
    root_system,
)
from garland.errors import GroupEnumerationError, InputFormatError, ValidationError
from garland.linalg import max_abs, sym_eigs

from conftest import load_fixture


def cox_of(name):
    return g.load_coxeter_matrix(load_fixture(name))


def test_matrix_validation():
    with pytest.raises(ValidationError):
        g.CoxeterMatrix(rank=2, m=((1, 3), (4, 1)))  # not symmetric
    with pytest.raises(ValidationError):
        g.CoxeterMatrix(rank=2, m=((2, 3), (3, 1)))  # diagonal must be 1
    with pytest.raises(ValidationError):
        g.CoxeterMatrix(rank=2, m=((1, 1), (1, 1)))  # off-diagonal below 2
    with pytest.raises(ValidationError):
        g.CoxeterMatrix(rank=3, m=((1, 3), (3, 1)))


def test_loader():
    cox = cox_of("infinite_dihedral.json")
    assert cox.m[0][1] == math.inf
    with pytest.raises(InputFormatError):
        g.load_coxeter_matrix({"m": [[1, 3], [3, 1]]})  # missing rank
    with pytest.raises(InputFormatError):
        g.load_coxeter_matrix([1, 2])
    for rank in ("2", 2.7, True):
        with pytest.raises(InputFormatError, match="rank must be an integer"):
            g.load_coxeter_matrix({"rank": rank, "m": [[1, 3], [3, 1]]})


def test_cosine_values():
    c = g.coxeter_cosine(cox_of("a2.json"))
    assert max_abs(c.matrix - np.array([[1.0, -0.5], [-0.5, 1.0]])) <= 1e-15
    c3 = g.coxeter_cosine(cox_of("a3.json"))
    assert c3.matrix[0, 2] == 0.0  # m = 2 is exactly orthogonal
    cinf = g.coxeter_cosine(cox_of("infinite_dihedral.json"))
    assert cinf.matrix[0, 1] == -1.0
    cb = g.coxeter_cosine(cox_of("b2.json"))
    assert abs(cb.matrix[0, 1] + math.sqrt(0.5)) <= 1e-15


def test_classification():
    for name in ("a2.json", "b2.json", "g2.json", "a3.json", "b3.json", "h3.json"):
        assert g.classify_coxeter(cox_of(name)) == "spherical"
    for name in ("affine_a2.json", "affine_a3.json", "affine_c2.json", "affine_g2.json"):
        assert g.classify_coxeter(cox_of(name)) == "affine"
    assert g.classify_coxeter(cox_of("infinite_dihedral.json")) == "affine"
    assert g.classify_coxeter(cox_of("hyperbolic_rank4.json")) == "other"


def test_generators_satisfy_relations():
    for name in ("a2.json", "b3.json", "h3.json"):
        cox = cox_of(name)
        gens = generator_matrices(cox)
        r = cox.rank
        for i in range(r):
            assert max_abs(gens[i] @ gens[i] - np.eye(r)) <= 1e-12
            for j in range(i + 1, r):
                word = gens[i] @ gens[j]
                power = np.linalg.matrix_power(word, int(cox.m[i][j]))
                assert max_abs(power - np.eye(r)) <= 1e-8


def test_group_orders():
    expected = {
        "a2.json": 6,
        "b2.json": 8,
        "g2.json": 12,
        "a3.json": 24,
        "b3.json": 48,
        "h3.json": 120,
    }
    for name, order in expected.items():
        assert g.enumerate_group(cox_of(name)).order == order


def dynkin(rank, edges):
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, mij in edges:
        m[i][j] = m[j][i] = mij
    return g.CoxeterMatrix(rank=rank, m=tuple(map(tuple, m)))


H4 = dynkin(4, ((0, 1, 5), (1, 2, 3), (2, 3, 3)))
E6 = dynkin(6, ((0, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (1, 3, 3)))


def test_large_group_orders():
    assert g.enumerate_group(H4, cap=60000).order == 14400
    assert g.enumerate_group(E6, cap=60000).order == 51840


def test_elements_are_distinct_rows_of_root_indices():
    for name in ("a2.json", "b3.json", "h3.json"):
        cox = cox_of(name)
        group = g.enumerate_group(cox)
        roots = root_system(cox)
        assert group.elements[0] == bytes(range(cox.rank))
        assert len(set(group.elements)) == group.order
        assert all(max(row) < len(roots.vectors) for row in group.elements)


def compose(p, q):
    return tuple(p[k] for k in q)


def test_generator_permutations_are_exact():
    for name in ("a2.json", "b3.json", "h3.json"):
        cox = cox_of(name)
        roots = root_system(cox)
        count = len(roots.vectors)
        identity = tuple(range(count))
        gram = roots.vectors @ g.coxeter_cosine(cox).matrix
        for i, perm in enumerate(roots.permutations):
            assert sorted(perm) == list(identity)
            assert compose(perm, perm) == identity
            # s_i sends its simple root to its negative and fixes exactly the
            # roots orthogonal to it: none in a2, some for every generator of
            # b3 and h3
            assert max_abs(roots.vectors[perm[i]] + roots.vectors[i]) <= 1e-12
            fixed = [k for k in identity if perm[k] == k]
            assert fixed == [k for k in identity if abs(gram[k, i]) <= 1e-9]
            assert bool(fixed) == (name != "a2.json")
            for j in range(i + 1, cox.rank):
                word = compose(perm, roots.permutations[j])
                power = word
                for _ in range(cox.m[i][j] - 1):
                    assert power != identity
                    power = compose(word, power)
                assert power == identity


def test_root_margins():
    for name in ("a2.json", "b2.json", "g2.json", "a3.json", "b3.json", "h3.json"):
        group = g.enumerate_group(cox_of(name))
        assert 0.0 <= group.root_match_distance <= 1e-12
        assert group.root_separation >= 0.25
    group = g.enumerate_group(H4, cap=20000)
    assert group.root_match_distance <= 1e-12
    assert group.root_separation == pytest.approx((math.sqrt(5) - 1) / 2)


def test_roots_must_be_well_separated(monkeypatch):
    # a tolerance whose safety factor would demand roots 1000 apart
    monkeypatch.setattr(coxeter, "ROOT_SEPARATION_FACTOR", 1e3 / ROOT_MATCH_TOL)
    with pytest.raises(GroupEnumerationError, match="not well separated"):
        g.enumerate_group(cox_of("a2.json"))


def test_finite_group_over_cap_says_finite():
    with pytest.raises(GroupEnumerationError) as info:
        g.enumerate_group(H4)
    message = str(info.value)
    assert "finite" in message and "likely infinite" not in message
    assert "10000 elements" in message and "120 roots" in message


def test_more_roots_than_a_byte_row_holds():
    with pytest.raises(GroupEnumerationError, match="258 roots"):
        g.enumerate_group(g.CoxeterMatrix(rank=2, m=((1, 129), (129, 1))))


def test_infinite_group_hits_cap():
    with pytest.raises(GroupEnumerationError, match="root orbit passed 64 roots"):
        g.enumerate_group(cox_of("infinite_dihedral.json"), cap=64)
    with pytest.raises(GroupEnumerationError, match="more than 100 elements"):
        g.enumerate_group(cox_of("affine_a2.json"), cap=100)
    # a finite orbit over a small cap gets the same message: more than `cap`
    # elements is all that is known, and A1 (order 2) and A2 (order 6) are finite
    a1 = g.CoxeterMatrix(rank=1, m=((1,),))
    for cox, cap in ((a1, 1), (cox_of("a2.json"), 5)):
        with pytest.raises(GroupEnumerationError) as info:
            g.enumerate_group(cox, cap=cap)
        message = str(info.value)
        assert f"root orbit passed {cap} roots, so it has more than {cap} elements" in message
        assert "infinite" not in message


def test_hexagon_complex():
    cc = build_coxeter_complex(cox_of("a2.json"))
    x = cc.complex
    assert x.n == 1
    assert len(x.facets) == 6
    assert len(x.vertex_types) == 6
    graph = g.link_graph(x)
    degrees = graph.degrees()
    assert all(d == 2 for d in degrees.values())


def test_a3_complex_shape():
    x = build_coxeter_complex(cox_of("a3.json")).complex
    assert x.n == 2
    assert len(x.facets) == 24
    assert len(x.vertex_types) == 14
    assert g.thickness(x) == 2  # thin: every panel lies in exactly two chambers
    counts = sorted(
        sum(1 for t in x.vertex_types.values() if t == i) for i in range(3)
    )
    assert counts == [4, 4, 6]
    assert g.validate_complex(x).b2_links_gallery_connected


def test_h4_complex_shape():
    x = build_coxeter_complex(H4, cap=20000).complex
    assert len(x.facets) == 14400
    counts = [sum(1 for t in x.vertex_types.values() if t == i) for i in range(4)]
    assert counts == [600, 1200, 720, 120]
    assert g.thickness(x) == 2


def test_cosine_check_report():
    cox = cox_of("b2.json")
    check = coxeter_complex_cosine_check(cox)
    assert check.max_deviation <= 1e-9
    assert check.links_ok
    assert check.link_checks[(0, 1)].expected_length == 8
    assert max_abs(check.cosine_matrix.matrix - g.coxeter_cosine(cox).matrix) <= 1e-12


def test_affine_cosine_spectrum():
    c = g.coxeter_cosine(cox_of("affine_a2.json"))
    eigs = sym_eigs(c.matrix).eigenvalues
    assert abs(eigs[0]) <= 1e-12
    assert np.allclose(eigs[1:], 1.5, atol=1e-12)
