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
    _walk_spectra,
    bfs_distances,
    cycle_complex,
    gallery_connected,
    link_of,
)
from garland.errors import GarlandError, InputFormatError, ValidationError
from garland.linalg import max_abs

from conftest import json_values, load_fixture


def octahedron():
    return g.load_complex(load_fixture("octahedron.json"))


def test_complex_validation_errors():
    with pytest.raises(ValidationError, match=r"duplicate facet \[0, 1\]"):
        g.PartiteComplex({0: 0, 1: 1}, (frozenset({0, 1}), frozenset({0, 1})))
    with pytest.raises(ValidationError, match="exactly one vertex of each type"):
        g.PartiteComplex({0: 0, 1: 0}, (frozenset({0, 1}),))  # repeated type in facet
    with pytest.raises(ValidationError, match=r"undeclared vertices \[7\]"):
        g.PartiteComplex({0: 0}, (frozenset({0, 7}),))
    with pytest.raises(ValidationError, match="at least one facet"):
        g.PartiteComplex({0: 0, 1: 1}, ())


def test_complex_validation_names_the_first_bad_facet():
    vt = {0: 0, 1: 1, 2: 0, 3: 1}
    ok, other = frozenset({0, 1}), frozenset({2, 3})
    # facets are checked in order, each for duplication first
    with pytest.raises(ValidationError, match=r"undeclared vertices \[7\]"):
        g.PartiteComplex(vt, (ok, frozenset({0, 7}), ok))
    with pytest.raises(ValidationError, match=r"duplicate facet \[0, 1\]"):
        g.PartiteComplex(vt, (ok, ok, frozenset({0, 7})))
    with pytest.raises(ValidationError, match=r"facet \[1, 3\] must have exactly one"):
        g.PartiteComplex(vt, (ok, other, frozenset({1, 3}), other))


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


def walk(x):
    """Second walk eigenvalue, diameter and cycle flag of one 1-dimensional
    complex, from the walk pass on a stack of one."""
    second, diameter, cycle = _walk_spectra([x])
    return float(second[0]), int(diameter[0]), bool(cycle[0])


# One reader per column of the walk pass, each on a stack of one.
def random_walk_second_eig(x):
    return walk(x)[0]


def graph_diameter(x):
    return walk(x)[1]


def is_cycle(x):
    return walk(x)[2]


def test_heawood_walk_diameter_and_cycle():
    x = g.load_complex(load_fixture("heawood.json"))
    assert {len(x.star({v})) for v in x.vertex_types} == {3}
    lam, diameter, cycle = walk(x)
    assert abs(lam - math.sqrt(2.0) / 3.0) <= 1e-12
    assert diameter == 3
    assert not cycle


def test_cycle_complexes():
    x = cycle_complex(8)
    lam, diameter, cycle = walk(x)
    assert cycle
    assert diameter == 4
    assert abs(lam - math.cos(math.pi / 4)) <= 1e-12
    # 4-cycle: walk spectrum {1, 0, 0, -1}
    assert abs(walk(cycle_complex(4))[0]) <= 1e-12
    with pytest.raises(ValidationError):
        cycle_complex(5)
    with pytest.raises(ValidationError):
        cycle_complex(2)


def test_walk_rejects_disconnected():
    two_edges = g.PartiteComplex(
        {0: 0, 1: 1, 2: 0, 3: 1}, (frozenset({0, 1}), frozenset({2, 3}))
    )
    # every degree is 2, but the two squares are apart
    squares = g.PartiteComplex(
        {v: v % 2 for v in range(8)},
        tuple(frozenset({base + i, base + (i + 1) % 4}) for base in (0, 4) for i in range(4)),
    )
    for x in (two_edges, squares):
        # the pass flags the link, and the cosine matrix refuses it
        assert walk(x)[1:] == (-1, False)
        with pytest.raises(ValidationError, match="complex itself is not gallery connected"):
            g.cosine_matrix_of_complex(x)


def test_walk_rejects_zero_degree_vertices():
    # vertex 2 is declared but lies in no facet
    x = g.PartiteComplex({0: 0, 1: 1, 2: 0}, (frozenset({0, 1}),))
    with pytest.raises(ValidationError, match=r"orphan vertices \(2,\)"):
        g.cosine_matrix_of_complex(x)


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


def index_test_complexes():
    chambers = [
        g.build_coxeter_complex(g.load_coxeter_matrix(load_fixture(name))).complex
        for name in ("a3.json", "b3.json", "h3.json")
    ]
    return chambers + [octahedron(), g.load_complex(load_fixture("heawood.json"))]


def reference_walk(link):
    """Second walk eigenvalue, diameter and cycle flag of a connected
    1-dimensional complex by loops: one walk matrix and a breadth-first
    search from every vertex."""
    nbrs = {v: [] for v in sorted(link.vertex_types)}
    for a, b in link.facets:
        nbrs[a].append(b)
        nbrs[b].append(a)
    pos = {v: i for i, v in enumerate(nbrs)}
    walk = np.zeros((len(nbrs), len(nbrs)))
    for a, b in link.facets:
        walk[pos[a], pos[b]] = walk[pos[b], pos[a]] = 1.0 / np.sqrt(len(nbrs[a]) * len(nbrs[b]))
    distances = [bfs_distances(v, nbrs.__getitem__) for v in nbrs]
    assert all(len(dist) == len(nbrs) for dist in distances)
    diameter = max(max(dist.values()) for dist in distances)
    return float(np.linalg.eigvalsh(walk)[-2]), diameter, all(len(n) == 2 for n in nbrs.values())


def assert_walk_pass_matches_one_link(x, report):
    """Every per-pair summary equals what the walk pass on each link alone
    and the loop reference give, links taken in faces() order; floats compare
    exactly, as the arithmetic is the same."""
    for (ti, tj), spec in report.per_pair.items():
        links = [link_of(x, sigma) for sigma in x.faces(t for t in x.types if t not in (ti, tj))]
        lambdas, diameters, cycles = map(list, zip(*map(walk, links)))
        assert list(zip(lambdas, diameters, cycles)) == [reference_walk(link) for link in links]
        stacked = _walk_spectra(links)  # what the pass read, link by link
        assert [list(column) for column in stacked] == [lambdas, diameters, cycles]
        assert spec.second_eigenvalue == max(max(lambdas), 0.0)
        assert spec.max_disagreement == max(lambdas) - min(lambdas)
        assert spec.link_diameter == max(diameters)
        assert spec.link_lengths == tuple(len(link.vertex_types) for link in links)
        assert spec.all_cycles == all(cycles)
        assert spec.representatives == len(links)


def apexes_over_a_bipartite_graph():
    """Apex 0 (type 0) joined to the edges u1-{w1, w2, w3}, u2-{w1, w2} and
    apex 1 to u1-{w1, w3}, u2-w1 (u of type 1, w of type 2): links of one
    cotype have different vertex counts and different spectra."""
    u1, u2, w1, w2, w3 = 10, 11, 20, 21, 22
    vt = {0: 0, 1: 0, u1: 1, u2: 1, w1: 2, w2: 2, w3: 2}
    edges = {
        0: [(u1, w1), (u1, w2), (u1, w3), (u2, w1), (u2, w2)],
        1: [(u1, w1), (u1, w3), (u2, w1)],
    }
    return g.PartiteComplex(
        vt, tuple(frozenset({a, u, w}) for a, pairs in edges.items() for u, w in pairs)
    )


def test_walk_pass_over_links_of_several_sizes_matches_one_link_calls():
    x = apexes_over_a_bipartite_graph()
    report = g.cosine_matrix_of_complex(x)
    sizes = {pair: sorted(spec.link_lengths) for pair, spec in report.per_pair.items()}
    assert sizes == {(0, 1): [3, 3, 4], (0, 2): [4, 5], (1, 2): [4, 5]}
    assert report.per_pair[(0, 2)].max_disagreement > 0.05
    assert report.per_pair[(1, 2)].max_disagreement > 0.05
    assert_walk_pass_matches_one_link(x, report)


@pytest.mark.parametrize("x", index_test_complexes(), ids=["A3", "B3", "H3", "octahedron", "heawood"])
def test_walk_pass_matches_one_link_calls(x):
    assert_walk_pass_matches_one_link(x, g.cosine_matrix_of_complex(x))


def test_heawood_cosine_degenerate():
    x = g.load_complex(load_fixture("heawood.json"))
    report = g.cosine_matrix_of_complex(x)
    assert report.degenerate
    assert report.matrix.dim == 2
    assert abs(report.matrix.matrix[0, 1] + math.sqrt(2.0) / 3.0) <= 1e-12
    # the one codimension-2 simplex is the empty one, whose link is the graph
    assert report.per_pair[(0, 1)].link_lengths == (14,)
    assert not report.per_pair[(0, 1)].all_cycles


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
        x = g.load_complex(doc)
        report = g.cosine_matrix_of_complex(x)
    except GarlandError:
        return
    assert_walk_pass_matches_one_link(x, report)


# facets drawn from the 27 triples of a 3 x 3 x 3 vertex grid; vertex v has type v // 3
_grid_facets = st.lists(
    st.sampled_from([[a, 3 + b, 6 + c] for a in range(3) for b in range(3) for c in range(3)]),
    min_size=6,
    max_size=27,
    unique_by=tuple,
)


@settings(deadline=None)
@given(_grid_facets)
def test_walk_pass_matches_one_link_calls_on_random_complexes(facets):
    used = sorted(set().union(*facets))
    doc = {"vertices": [{"id": v, "type": v // 3} for v in used], "facets": facets}
    x = g.load_complex(doc)
    try:
        report = g.cosine_matrix_of_complex(x)
    except GarlandError:
        return  # not B2, or a link too thin for a cosine matrix
    assert_walk_pass_matches_one_link(x, report)
