"""Partite complex, link, walk spectrum, and complex cosine matrix tests."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import garland as g
from garland.complexes import (
    bfs_distances,
    cycle_complex,
    gallery_connected,
    graph_diameter,
    is_cycle,
    link_of,
    random_walk_second_eig,
)
from garland.errors import GarlandError, InputFormatError, ValidationError
from garland.linalg import max_abs

from conftest import json_values, load_fixture


def octahedron():
    return g.load_complex(load_fixture("octahedron.json"))


def test_complex_validation_errors():
    with pytest.raises(ValidationError):
        g.PartiteComplex({0: 0, 1: 1}, (frozenset({0, 1}), frozenset({0, 1})))  # dup facet
    with pytest.raises(ValidationError):
        g.PartiteComplex({0: 0, 1: 0}, (frozenset({0, 1}),))  # repeated type in facet
    with pytest.raises(ValidationError):
        g.PartiteComplex({0: 0}, (frozenset({0, 7}),))  # undeclared vertex
    with pytest.raises(ValidationError):
        g.PartiteComplex({0: 0, 1: 1}, ())  # no facets


def test_loader_errors():
    doc = load_fixture("octahedron.json")
    bad = dict(doc, n=3)
    with pytest.raises(InputFormatError):
        g.load_complex(bad)
    with pytest.raises(InputFormatError):
        g.load_complex({"n": 1})


def test_simplex_counts():
    x = octahedron()
    assert x.n == 2
    assert len(x.simplices(-1)) == 1
    assert len(x.simplices(0)) == 6
    assert len(x.simplices(1)) == 12
    assert len(x.simplices(2)) == 8
    assert len(x.simplices(3)) == 0


def test_links():
    x = octahedron()
    whole = link_of(x, frozenset())
    assert whole is x
    vertex_link = link_of(x, frozenset({0}))
    assert vertex_link.n == 1
    assert len(vertex_link.facets) == 4
    edge_link = link_of(x, frozenset({0, 2}))
    assert edge_link.n == 0
    assert len(edge_link.facets) == 2


def test_gallery_connectivity():
    assert gallery_connected(octahedron())
    pinched = g.load_complex(load_fixture("pinched_octahedron.json"))
    assert gallery_connected(pinched)  # the complex itself still is
    bowtie = g.load_complex(load_fixture("bowtie.json"))
    assert not gallery_connected(bowtie)


def test_validate_complex_reports():
    v = g.validate_complex(octahedron())
    assert v.partite and v.pure
    assert v.orphan_vertices == ()
    assert v.b1_links_finite
    assert v.b2_links_gallery_connected
    assert v.b2_offender is None
    assert v.b3_links_contractible is None
    assert v.b4_transitive_action is None

    pinched = g.validate_complex(g.load_complex(load_fixture("pinched_octahedron.json")))
    assert not pinched.b2_links_gallery_connected
    assert pinched.b2_offender == (0,)

    bowtie = g.validate_complex(g.load_complex(load_fixture("bowtie.json")))
    assert bowtie.b2_offender == ()


def test_thickness():
    assert g.thickness(octahedron()) == 2
    assert g.thickness(g.load_complex(load_fixture("heawood.json"))) == 3


def test_heawood_walk_diameter_and_cycle():
    x = g.load_complex(load_fixture("heawood.json"))
    assert {len(x.star({v})) for v in x.vertex_types} == {3}
    lam = random_walk_second_eig(x)
    assert abs(lam - math.sqrt(2.0) / 3.0) <= 1e-12
    assert graph_diameter(x) == 3
    assert not is_cycle(x)


def test_cycle_complexes():
    x = cycle_complex(8)
    assert is_cycle(x)
    assert abs(random_walk_second_eig(x) - math.cos(math.pi / 4)) <= 1e-12
    # 4-cycle: walk spectrum {1, 0, 0, -1}
    assert abs(random_walk_second_eig(cycle_complex(4))) <= 1e-12
    with pytest.raises(ValidationError):
        cycle_complex(5)
    with pytest.raises(ValidationError):
        cycle_complex(2)


def test_walk_rejects_disconnected():
    two_edges = g.PartiteComplex(
        {0: 0, 1: 1, 2: 0, 3: 1}, (frozenset({0, 1}), frozenset({2, 3}))
    )
    with pytest.raises(ValidationError, match="B2"):
        random_walk_second_eig(two_edges)
    with pytest.raises(ValidationError, match="not connected"):
        graph_diameter(two_edges)
    assert not is_cycle(two_edges)


def test_walk_rejects_zero_degree_vertices():
    # vertex 2 is declared but lies in no facet
    x = g.PartiteComplex({0: 0, 1: 1, 2: 0}, (frozenset({0, 1}),))
    with pytest.raises(ValidationError, match=r"zero-degree vertices \[2\]"):
        random_walk_second_eig(x)


@pytest.mark.parametrize("fn", [random_walk_second_eig, graph_diameter, is_cycle])
def test_walk_functions_need_dimension_1(fn):
    with pytest.raises(ValidationError, match="expected a 1-dimensional complex, got dim"):
        fn(octahedron())


def test_cosine_matrix_of_octahedron():
    report = g.cosine_matrix_of_complex(octahedron())
    assert max_abs(report.matrix.matrix - np.eye(3)) <= 1e-12
    assert report.definiteness.is_positive_definite
    assert not report.degenerate
    assert report.per_pair[(0, 1)].second_eigenvalue <= 1e-12
    assert report.per_pair[(0, 1)].link_diameter == 2


def test_cosine_matrix_of_generated_complex_matches_direct():
    x = g.load_complex(load_fixture("sigma_a3.json"))
    report = g.cosine_matrix_of_complex(x)
    cox = g.load_coxeter_matrix(load_fixture("a3.json"))
    assert max_abs(report.matrix.matrix - g.coxeter_cosine(cox).matrix) <= 1e-9
    for spec in report.per_pair.values():
        assert spec.max_disagreement <= 1e-9


def test_cosine_matrix_error_paths():
    pinched = g.load_complex(load_fixture("pinched_octahedron.json"))
    with pytest.raises(ValidationError, match=r"link of \[0\]"):
        g.cosine_matrix_of_complex(pinched)
    bowtie = g.load_complex(load_fixture("bowtie.json"))
    with pytest.raises(ValidationError, match="complex itself"):
        g.cosine_matrix_of_complex(bowtie)


def test_heawood_cosine_degenerate():
    x = g.load_complex(load_fixture("heawood.json"))
    report = g.cosine_matrix_of_complex(x)
    assert report.degenerate
    assert report.matrix.dim == 2
    assert abs(report.matrix.matrix[0, 1] + math.sqrt(2.0) / 3.0) <= 1e-12
    # the one codimension-2 simplex is the empty one, whose link is the graph
    assert report.per_pair[(0, 1)].link_lengths == (14,)
    assert not report.per_pair[(0, 1)].all_cycles


def index_test_complexes():
    chambers = [
        g.build_coxeter_complex(g.load_coxeter_matrix(load_fixture(name))).complex
        for name in ("a3.json", "b3.json", "h3.json")
    ]
    return chambers + [octahedron(), g.load_complex(load_fixture("heawood.json"))]


@pytest.mark.parametrize("x", index_test_complexes(), ids=["A3", "B3", "H3", "octahedron", "heawood"])
def test_facet_index_matches_brute_force(x):
    facets = x.facets
    for size in range(len(x.types) + 1):
        for ts in itertools.combinations(x.types, size):
            expected = {}
            for f in facets:
                face = frozenset(v for v in f if x.vertex_types[v] in ts)
                expected[face] = [i for i, h in enumerate(facets) if face <= h]
            assert x.faces(ts) == expected
    for k in range(-1, x.n + 2):
        expected = {frozenset(c) for f in facets for c in itertools.combinations(f, k + 1)}
        assert x.simplices(k) == expected
    assert x.simplices(-2) == frozenset()
    candidates = [frozenset(c) for k in range(3) for c in itertools.combinations(x.vertex_types, k)]
    candidates.append(frozenset({max(x.vertex_types) + 1}))
    for sigma in candidates:
        assert x.contains(sigma) == any(sigma <= f for f in facets)
    panels = {frozenset(c) for f in facets for c in itertools.combinations(f, x.n)}
    assert g.thickness(x) == min(sum(p <= f for f in facets) for p in panels)


def test_link_of_undeclared_vertex_raises():
    with pytest.raises(ValidationError, match="not a simplex"):
        link_of(octahedron(), frozenset({0, 99}))


def test_bfs_distances():
    path = {0: [1], 1: [0, 2], 2: [1], 3: []}
    assert bfs_distances(0, path.__getitem__) == {0: 0, 1: 1, 2: 2}
    assert bfs_distances(3, path.__getitem__) == {3: 0}


_complex_docs = st.fixed_dictionaries(
    {
        "vertices": st.lists(
            st.one_of(st.fixed_dictionaries({"id": json_values, "type": json_values}), json_values),
            max_size=4,
        ),
        "facets": st.lists(json_values, max_size=4),
    },
    optional={"n": json_values},
)


@settings(deadline=None)
@given(_complex_docs)
def test_load_complex_fails_only_with_garland_errors(doc):
    try:
        g.load_complex(doc)
    except GarlandError:
        pass
