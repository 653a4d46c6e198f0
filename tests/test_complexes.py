"""Partite complex, link, walk spectrum, and complex cosine matrix tests."""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import garland as g
from garland.complexes import MAX_TYPES, _codimension_2_links, _link_classes, _walk_spectra
from garland.coxeter import bfs_distances
from garland.errors import GarlandError, InputFormatError, ValidationError
from garland.linalg import max_abs

from conftest import (
    FIXTURES,
    IRREDUCIBLE,
    cycle_complex,
    facet_array_by_facets,
    faces,
    gallery_connected,
    json_values,
    link_of,
    load_fixture,
    star,
)


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


def test_facet_array_constructor():
    vt = {10**30: 0, -7: 1, 2: 0, 3: 1}  # indices by id: -7, 2, 3, 10**30
    rows = np.array([[1, 0], [3, 2]])
    x = g.PartiteComplex.from_facet_array(vt, rows)
    assert x.facets == (frozenset({2, -7}), frozenset({10**30, 3}))
    assert x.types == (0, 1)
    # the complex keeps a read-only copy, and the caller's array stays writable
    assert np.array_equal(x.facet_array, rows)
    assert not x.facet_array.flags.writeable and rows.flags.writeable
    assert np.array_equal(g.PartiteComplex(vt, x.facets).facet_array, rows)


def test_facet_array_constructor_errors():
    vt = {0: 0, 1: 1, 2: 0, 3: 1}
    build = g.PartiteComplex.from_facet_array
    with pytest.raises(ValidationError, match=r"^duplicate facet \[2, 3\]$"):
        build(vt, [[0, 1], [2, 3], [0, 3], [2, 3]])
    # vertex 2, of type 0, in the column of type 1
    message = "facet [0, 2] must have exactly one vertex of each type [0, 1], got types [0, 0]"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build(vt, [[0, 1], [0, 2]])
    for index in (4, -1):
        message = f"facet row 1 [2, {index}] has vertex indices outside 0..3"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(vt, [[0, 1], [2, index]])
    with pytest.raises(ValidationError, match="at least one facet"):
        build(vt, np.empty((0, 2), dtype=int))
    for rows, shape in (([[0, 1, 3]], (1, 3)), ([0, 1], (2,)), ([[0.0, 1.0]], (1, 2))):
        message = (
            "a facet array is an int array with one column per type [0, 1], "
            f"got shape {shape}"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(vt, rows)
    # the first bad row is named, whatever its fault: here a foreign row
    # before a row out of range
    message = "facet [0, 2] must have exactly one vertex of each type [0, 1], got types [0, 0]"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build(vt, [[0, 1], [0, 2], [2, 9]])


def test_both_constructors_cap_the_type_count():
    # B2's work grows as 2^types, so a wide facet is refused before any check
    for width, ok in ((MAX_TYPES, True), (MAX_TYPES + 1, False)):
        vt = {i: i for i in range(width)}
        builds = (
            lambda: g.PartiteComplex(vt, [range(width)]),
            lambda: g.PartiteComplex.from_facet_array(vt, [range(width)]),
        )
        for build in builds:
            if ok:
                assert build().types == tuple(range(width))
            else:
                message = f"more than {MAX_TYPES} types is not supported, got {width}"
                with pytest.raises(ValidationError, match=message):
                    build()


# ids that no vertex of `_faulty_facet_lists` has
UNDECLARED = (21, -21, 10**40)


@st.composite
def _faulty_facet_lists(draw):
    """Typed vertices and a list of facets with one vertex of each type, in
    which a few faults are planted: an undeclared vertex, a facet one vertex
    short or long, two vertices of one type, a repeated facet."""
    types = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    ids = draw(
        st.lists(
            st.integers(-20, 20) | st.sampled_from([2**63, 10**30]),
            min_size=len(types),
            max_size=9,
            unique=True,
        )
    )
    vt = {v: types[k % len(types)] for k, v in enumerate(ids)}
    of_type = [st.sampled_from([v for v in ids if vt[v] == t]) for t in types]
    facets = draw(st.lists(st.tuples(*of_type).map(set), min_size=1, max_size=8))
    faults = st.sampled_from(["undeclared", "short", "long", "twice", "repeat"])
    for fault, k in draw(st.lists(st.tuples(faults, st.integers(0, 7)), max_size=3)):
        k %= len(facets)
        f = set(facets[k])
        if not f:  # a facet of one vertex, cut short
            continue
        v = draw(st.sampled_from(sorted(f)))
        others = [w for w in ids if w not in f]
        unlike = [w for w in others if vt[w] != vt.get(v)]  # a second of their type
        if fault == "undeclared":
            f = f - {v} | {draw(st.sampled_from(UNDECLARED))}
        elif fault == "short":
            f.discard(v)
        elif fault == "long" and others:
            f.add(draw(st.sampled_from(others)))
        elif fault == "twice" and unlike:
            f = f - {v} | {draw(st.sampled_from(unlike))}
        elif fault == "repeat":
            facets.insert(draw(st.integers(k + 1, len(facets))), f)
        facets[k] = f
    return vt, facets


@seed(20261021)
@settings(deadline=None, max_examples=200)
@given(_faulty_facet_lists())
def test_constructor_matches_the_per_facet_check(case):
    """The column checks of the constructor give the facet array of the
    per-facet reference, or its error for the first bad facet."""
    vt, facets = case
    try:
        expected = facet_array_by_facets(vt, facets)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            g.PartiteComplex(vt, facets)
    else:
        got = g.PartiteComplex(vt, facets).facet_array
        assert got.shape == expected.shape and np.array_equal(got, expected)


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
    counts = [
        sum(len(faces(x, ts)) for ts in itertools.combinations(x.types, k + 1))
        for k in range(-1, 3)
    ]
    assert counts == [1, 6, 12, 8]


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


def two_pinched_octahedra(shared):
    """Two pinched octahedra, the second listed first.  The first is the
    fixture, whose vertex 0 has a disconnected link; the second is its copy
    with vertex v renamed 10 + v, except that the vertices in `shared` are
    kept, so its failing vertex 10 is the larger one."""
    doc = load_fixture("pinched_octahedron.json")
    rename = {v: v if v in shared else 10 + v for v in range(6)}
    vt = {entry["id"]: entry["type"] for entry in doc["vertices"]}
    vt.update((rename[v], t) for v, t in list(vt.items()))
    copy = [frozenset(map(rename.get, f)) for f in doc["facets"]]
    return g.PartiteComplex(vt, (*copy, *map(frozenset, doc["facets"])))


def test_b2_offender_is_the_smallest_failing_simplex():
    x = two_pinched_octahedra(shared={1, 2})  # glued along the edge {1, 2}
    assert next(iter(faces(x, [0]))) == frozenset({10})  # met before {0}
    assert gallery_connected(x)
    v = g.validate_complex(x)
    assert not v.b2_links_gallery_connected
    assert v.b2_offender == (0,)
    apart = g.validate_complex(two_pinched_octahedra(shared=set()))
    assert apart.b2_offender == ()


def b2_by_links(x):
    """B2 and its offender by links: every face, lowest size first, is asked
    for `gallery_connected(link_of(x, sigma))`, and the offender is the
    smallest failing sorted vertex list of the lowest failing size."""
    for size in range(x.n):
        failing = [
            sorted(sigma)
            for ts in itertools.combinations(x.types, size)
            for sigma in faces(x, ts)
            if not gallery_connected(link_of(x, sigma))
        ]
        if failing:
            return False, tuple(min(failing))
    return True, None


def assert_b2_matches_links(x):
    v = g.validate_complex(x)
    assert (v.b2_links_gallery_connected, v.b2_offender) == b2_by_links(x)


# new ids for the vertices of the grid complexes (0..8) and of the two
# pinched octahedra (0..5, 10, 13..15), out of id order, past the int64
# range, and with the failing vertices 0 and 10 renamed 10**30 and -7
WIDE_IDS = {
    0: 10**30, 1: 2**63, 2: -(10**40), 3: 3, 4: 0, 5: 10**30 + 1, 6: -1, 7: 5,
    8: 2**64, 10: -7, 13: 6, 14: -2, 15: 7,
}


def renamed(x, ids):
    """x with vertex v renamed ids[v]."""
    return g.PartiteComplex(
        {ids[v]: t for v, t in x.vertex_types.items()},
        tuple(frozenset(map(ids.__getitem__, f)) for f in x.facets),
    )


def coned_octahedra():
    """The pinched octahedron coned from apex -7 and the octahedron coned
    from apex 10**30, both apexes of type 3.  Every vertex link is gallery
    connected, and the one failing link is that of the edge {0, -7}: the two
    edges of the pinched vertex 0."""
    pinched, whole = load_fixture("pinched_octahedron.json"), load_fixture("octahedron.json")
    vt = {entry["id"]: entry["type"] for entry in whole["vertices"]} | {-7: 3, 10**30: 3}
    cones = ((-7, pinched), (10**30, whole))
    return g.PartiteComplex(
        vt, tuple(frozenset(f) | {apex} for apex, doc in cones for f in doc["facets"])
    )


def complex_fixtures():
    docs = {path.stem: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}
    return {name: g.load_complex(doc) for name, doc in docs.items() if "facets" in doc}


def b2_test_complexes():
    chambers = {
        name: g.build_coxeter_complex(IRREDUCIBLE[name][0]).complex
        for name in ("A3", "B3", "H3", "A4", "D4", "B4", "F4")
    }
    pinched = two_pinched_octahedra(shared={1, 2})
    return {
        **complex_fixtures(),
        "two pinched octahedra, glued": pinched,
        "two pinched octahedra, apart": two_pinched_octahedra(shared=set()),
        "two pinched octahedra, wide ids": renamed(pinched, WIDE_IDS),
        "coned octahedra": coned_octahedra(),
        **chambers,
    }


B2_COMPLEXES = b2_test_complexes()


@pytest.mark.parametrize("x", B2_COMPLEXES.values(), ids=B2_COMPLEXES.keys())
def test_b2_by_residues_matches_b2_by_links(x):
    assert_b2_matches_links(x)
    assert g.thickness(x) == brute_thickness(x)
    # built from its facets, the complex has the per-facet reference's array
    expected = facet_array_by_facets(x.vertex_types, x.facets)
    assert np.array_equal(g.PartiteComplex(x.vertex_types, x.facets).facet_array, expected)
    assert np.array_equal(x.facet_array, expected)


def test_b2_offender_with_wide_ids():
    x = renamed(two_pinched_octahedra(shared={1, 2}), WIDE_IDS)
    v = g.validate_complex(x)
    assert v.b2_offender == (-7,)  # vertex 10, met before vertex 0's 10**30
    assert (v.b2_links_gallery_connected, v.b2_offender) == b2_by_links(x)
    # a sorted vertex list, not one in type order
    assert g.validate_complex(coned_octahedra()).b2_offender == (-7, 0)


B2_PASSING = {
    name: x for name, x in B2_COMPLEXES.items() if g.validate_complex(x).b2_links_gallery_connected
}


def assert_no_link_surface():
    # B2 and the walk pass read the facet array; the link helpers are the
    # test-side references in conftest
    for name in ("link_of", "gallery_connected", "bfs_distances"):
        assert not hasattr(g.complexes, name) and not hasattr(g, name)
    for name in ("faces", "star", "_last_faces"):
        assert not hasattr(g.PartiteComplex, name) and not hasattr(octahedron(), name)


def test_validate_complex_takes_no_link():
    assert_no_link_surface()
    for x in B2_COMPLEXES.values():
        assert_b2_matches_links(x)


def test_cosine_matrix_takes_no_link():
    assert {"octahedron", "heawood", "sigma_a3", "A3", "F4"} <= B2_PASSING.keys()
    assert_no_link_surface()
    for x in B2_PASSING.values():
        for pair, spec in g.cosine_matrix_of_complex(x).per_pair.items():
            simplices = faces(x, [t for t in x.types if t not in pair])
            lengths = tuple(len(link_of(x, sigma).vertex_types) for sigma in simplices)
            assert spec.link_lengths == lengths


def test_thickness():
    assert g.thickness(octahedron()) == 2
    assert g.thickness(g.load_complex(load_fixture("heawood.json"))) == 3


def walk_arrays(links):
    """The walk pass's arrays for a list of 1-dimensional complexes: each
    one's vertex count, and for each facet, taken as an edge, the index of
    its complex and the rows of its two ends, a vertex's row being its rank
    among its complex's sorted ids."""
    sizes, owner, rows, cols = [], [], [], []
    for k, x in enumerate(links):
        if x.n != 1:
            raise ValidationError(f"expected a 1-dimensional complex, got dimension {x.n}")
        pos = {v: i for i, v in enumerate(sorted(x.vertex_types))}
        sizes.append(len(pos))
        for a, b in x.facets:
            owner.append(k)
            rows.append(pos[a])
            cols.append(pos[b])
    return tuple(np.array(column, dtype=np.intp) for column in (sizes, owner, rows, cols))


def walk(x):
    """Second walk eigenvalue, diameter and cycle flag of one 1-dimensional
    complex, from the walk pass on a stack of one."""
    second, diameter, cycle = _walk_spectra(*walk_arrays([x]))
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
    assert {len(star(x, {v})) for v in x.vertex_types} == {3}
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


def record_stack_shapes(monkeypatch):
    """Wrap the walk pass's `sym_eigs` so that each call appends the shape
    of its stack to the returned list."""
    shapes = []
    original = g.complexes.sym_eigs

    def recording_sym_eigs(m, *args, **kwargs):
        shapes.append(m.shape)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(g.complexes, "sym_eigs", recording_sym_eigs)
    return shapes


def test_walk_pass_slices_its_stacks(monkeypatch):
    # 8-vertex links: three 8-cycles under different ids, K_{4,4}, and two
    # squares apart; the ids of the cycles keep their order, so the three
    # have one adjacency matrix and are solved once
    cycles = [renamed(cycle_complex(8), [v + shift for v in range(8)]) for shift in (0, 3, 90)]
    k44 = g.PartiteComplex(
        {v: v % 2 for v in range(8)},
        tuple(frozenset({a, b}) for a in range(0, 8, 2) for b in range(1, 8, 2)),
    )
    squares = g.PartiteComplex(
        {v: v % 2 for v in range(8)},
        tuple(frozenset({base + i, base + (i + 1) % 4}) for base in (0, 4) for i in range(4)),
    )
    links = [*cycles, k44, squares]
    unsliced = _walk_spectra(*walk_arrays(links))
    monkeypatch.setattr(g.complexes, "MAX_LINK_VERTICES", 8)
    shapes = record_stack_shapes(monkeypatch)
    sliced = _walk_spectra(*walk_arrays(links))
    assert shapes == [(1, 8, 8)] * 3
    for before, after in zip(unsliced, sliced):
        assert before.tolist() == after.tolist()
    assert sliced[1].tolist() == [4, 4, 4, 2, -1]
    assert sliced[2].tolist() == [True, True, True, False, False]


def test_walk_pass_solves_each_distinct_link_once(monkeypatch):
    # F4 has 1392 codimension-2 links, and those of one cotype are one
    # cycle under vertex indices of the same order: a 4-, a 6- and an 8-cycle
    x = g.build_coxeter_complex(IRREDUCIBLE["F4"][0]).complex
    shapes = record_stack_shapes(monkeypatch)
    report = g.cosine_matrix_of_complex(x)
    assert sum(len(spec.link_lengths) for spec in report.per_pair.values()) == 1392
    assert sorted(shapes) == [(1, 4, 4), (1, 6, 6), (1, 8, 8)]


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


def undirected_edges(owner, rows, cols):
    return sorted(zip(owner.tolist(), np.minimum(rows, cols).tolist(), np.maximum(rows, cols).tolist()))


def assert_walk_pass_matches_one_link(x, report):
    """Every per-pair summary equals what the walk pass on each link alone
    and the loop reference give, links taken in order of their first facets,
    which is faces() order; floats compare exactly, as the arithmetic is the
    same.  The links the pass reads off the facet array are those faces and
    their links, edge for edge."""
    ids = sorted(x.vertex_types)
    ranges, read, read_sizes, read_link, *read_ends = _codimension_2_links(x)
    assert len(ranges) == len(report.per_pair)
    for ((i, j), own), ((ti, tj), spec) in zip(ranges.items(), report.per_pair.items()):
        assert (ti, tj) == (x.types[i], x.types[j])
        simplices = faces(x, [t for t in x.types if t not in (ti, tj)])
        links = [link_of(x, sigma) for sigma in simplices]
        assert [sorted(ids[v] for v in face) for face in read[own]] == list(map(sorted, simplices))
        arrays = walk_arrays(links)
        assert read_sizes[own].tolist() == arrays[0].tolist()
        mine = (own.start <= read_link) & (read_link < own.stop)
        assert undirected_edges(read_link[mine] - own.start, *(e[mine] for e in read_ends)) == (
            undirected_edges(*arrays[1:])
        )
        lambdas, diameters, cycles = map(list, zip(*map(walk, links)))
        assert list(zip(lambdas, diameters, cycles)) == [reference_walk(link) for link in links]
        stacked = _walk_spectra(*arrays)  # the pass on these links alone
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


def test_link_order_is_faces_order_not_id_order(monkeypatch):
    # negated ids reverse the id order, and so the order of sorted face rows,
    # while faces() still lists each face at its first facet
    x = renamed(apexes_over_a_bipartite_graph(), {v: -v for v in range(23)})
    report = g.cosine_matrix_of_complex(x)
    ids = sorted(x.vertex_types)
    # the same id order with ids below and past the int64 range
    wide = renamed(x, dict(zip(ids, [-7, -3, 0, 5, 2**63, 10**29, 10**30])))
    assert g.cosine_matrix_of_complex(wide).per_pair == report.per_pair
    assert_walk_pass_matches_one_link(x, report)
    for pair, spec in report.per_pair.items():
        simplices = faces(x, [t for t in x.types if t not in pair])
        lengths = [len(link_of(x, sigma).vertex_types) for sigma in simplices]
        assert spec.link_lengths == tuple(lengths)
        by_id = sorted(zip(map(sorted, simplices), lengths))
        assert [length for _, length in by_id] != lengths
    # at a cap of 2 every link is over it; the refusal names the first face
    # of the first pair in faces() order, not the first in id order
    monkeypatch.setattr(g.complexes, "MAX_LINK_VERTICES", 2)
    for y in (x, wide):
        first = next(iter(faces(y, [2])))  # pair {0, 1} comes first
        assert first != min(faces(y, [2]), key=sorted)
        size = len(link_of(y, first).vertex_types)
        message = f"link of {sorted(first)} has {size} vertices; the walk pass takes at most 2"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            g.cosine_matrix_of_complex(y)


def test_cosine_matrix_refuses_a_cotype_of_single_edge_links():
    # every codimension-2 link of one triangle is a single edge, whose second
    # walk eigenvalue is -1
    triangle = g.PartiteComplex({0: 0, 1: 1, 2: 2}, (frozenset({0, 1, 2}),))
    with pytest.raises(
        ValidationError,
        match=r"^pair \{0,1\}: walk eigenvalue -1 is negative \(a single-edge link; too thin",
    ):
        g.cosine_matrix_of_complex(triangle)


def test_single_edge_links_beside_a_longer_one_are_accepted():
    # cotype {0, 1}: the link of c is the path a-b-a2-b2, with second walk
    # eigenvalue cos(pi/3) = 1/2, and the link of c2 is the single edge a-b,
    # at -1; the pair reads the maximum
    a, a2, b, b2, c, c2 = range(6)
    x = g.PartiteComplex(
        {a: 0, a2: 0, b: 1, b2: 1, c: 2, c2: 2},
        tuple(map(frozenset, ((a, b, c), (a2, b, c), (a2, b2, c), (a, b, c2)))),
    )
    report = g.cosine_matrix_of_complex(x)
    spec = report.per_pair[(0, 1)]
    assert spec.link_lengths == (4, 2)
    assert spec.second_eigenvalue == pytest.approx(0.5, abs=1e-12)
    assert spec.max_disagreement == pytest.approx(1.5, abs=1e-12)
    assert report.matrix.matrix[0, 1] == -spec.second_eigenvalue
    assert_walk_pass_matches_one_link(x, report)


@pytest.mark.parametrize("x", B2_PASSING.values(), ids=B2_PASSING.keys())
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
            assert faces(x, ts) == expected
    candidates = [frozenset(c) for k in range(3) for c in itertools.combinations(x.vertex_types, k)]
    candidates.append(frozenset({max(x.vertex_types) + 1}))
    for sigma in candidates:
        assert star(x, sigma) == [i for i, f in enumerate(facets) if sigma <= f]
    assert g.thickness(x) == brute_thickness(x)


def brute_thickness(x):
    """The smallest count of facets over every codimension-1 simplex."""
    panels = {frozenset(c) for f in x.facets for c in itertools.combinations(f, x.n)}
    return min(sum(p <= f for f in x.facets) for p in panels)


def test_link_of_undeclared_vertex_raises():
    with pytest.raises(ValidationError, match="not a simplex"):
        link_of(octahedron(), frozenset({0, 99}))


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
def test_b2_and_thickness_on_random_complexes(facets):
    x = g.PartiteComplex({v: v // 3 for v in set().union(*facets)}, tuple(map(frozenset, facets)))
    for y in (x, renamed(x, WIDE_IDS)):
        assert_b2_matches_links(y)
        assert g.thickness(y) == brute_thickness(y)


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
    # every link again under shifted ids, which keep their order and so the
    # adjacency matrix, and under negated ids, which reverse it: the pass
    # solves each class once and still equals the loop reference link by link
    links = [
        link_of(x, sigma)
        for pair in report.per_pair
        for sigma in faces(x, [t for t in x.types if t not in pair])
    ]
    copies = links + [
        renamed(link, {v: shift + sign * v for v in link.vertex_types})
        for sign, shift in ((1, 100), (-1, 0))
        for link in links
    ]
    arrays = walk_arrays(copies)
    leader = _link_classes(*arrays)
    assert np.array_equal(leader[len(links):2 * len(links)], leader[:len(links)])
    walks = zip(*(column.tolist() for column in _walk_spectra(*arrays)))
    assert list(walks) == [reference_walk(link) for link in copies]
