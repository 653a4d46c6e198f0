"""Coxeter matrix, geometric representation, and complex generation tests."""

from __future__ import annotations

import decimal
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import garland as g
from garland import coxeter
from garland.coxeter import bfs_distances, build_coxeter_complex, coxeter_complex_cosine_check, root_system
from garland.errors import GarlandError, GroupEnumerationError, InputFormatError, ValidationError
from garland.linalg import classify_definiteness, max_abs, sym_eigs

from conftest import (
    AFFINE,
    E6,
    E8,
    H4,
    IRREDUCIBLE,
    dynkin,
    json_scalars,
    json_values,
    labelling,
    load_fixture,
    star,
)


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
    for bad in (math.nan, -math.inf, 2.5):
        with pytest.raises(ValidationError, match=rf"m\[0\]\[1\] = {bad} is not an integer or inf"):
            g.CoxeterMatrix(rank=2, m=((1, bad), (bad, 1)))


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


def exact_cos_pi_over(m):
    """cos(pi/m) from 70-digit series, Machin's formula for pi and Taylor's
    for cos, cut to 50 decimal places so that cos(pi/2) reads 0; float() of
    a Decimal is correctly rounded."""
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=70)):
        eps = D(10) ** -68

        def arctan_of_inverse(n):
            total, power, k = D(0), D(1) / n, 0
            while power > eps:
                total += (-1) ** k * power / (2 * k + 1)
                power /= n * n
                k += 1
            return total

        x = 4 * (4 * arctan_of_inverse(5) - arctan_of_inverse(239)) / m
        total, term, k = D(0), D(1), 0
        while abs(term) > eps:
            total += term
            term *= -x * x / ((2 * k + 1) * (2 * k + 2))
            k += 1
        return float(total.quantize(D(10) ** -50))


def test_cosine_values():
    c = g.coxeter_cosine(cox_of("a2.json"))
    assert np.array_equal(c.matrix, [[1.0, -0.5], [-0.5, 1.0]])
    assert c.min_eigenvalue() == 0.5
    c3 = g.coxeter_cosine(cox_of("a3.json"))
    assert c3.matrix[0, 2] == 0.0  # m = 2 is exactly orthogonal
    assert math.copysign(1.0, c3.matrix[0, 2]) == 1.0  # and +0.0, which prints as 0
    # the orders with a square-root closed form give the correctly rounded
    # cosine, and the others are within 1 ulp of it
    for m in (2, 3, 4, 5, 6, 8, 7, 10, 12):
        entries = g.coxeter_cosine(g.CoxeterMatrix(rank=2, m=((1, m), (m, 1)))).matrix
        exact = exact_cos_pi_over(m)
        assert entries[0, 1] == entries[1, 0]
        if m in (7, 10, 12):
            assert abs(entries[0, 1] + exact) <= math.ulp(exact), m
        else:
            assert entries[0, 1] == -exact, m
            assert math.copysign(1.0, entries[0, 1]) == (1.0 if m == 2 else -1.0), m
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


def table(m):
    return g.CoxeterMatrix(rank=len(m), m=tuple(tuple(row) for row in m))


def dihedral(order):
    return [[1, order], [order, 1]]


def with_a1(rank2):
    """The rank-2 system rank2 beside a commuting A1."""
    return [rank2[0] + [2], rank2[1] + [2], [2, 2, 1]]


@pytest.mark.parametrize("system, label", [
    # the smallest eigenvalue 1 - cos(pi/m) is under the zero tolerance here
    (dihedral(10**5), "spherical"),
    (dihedral(10**8), "spherical"),
    (with_a1(dihedral(10**5)), "spherical"),
    (dihedral(math.inf), "affine"),
    (with_a1(dihedral(math.inf)), "other"),
    ([[1]], "spherical"),
    ([[1, 2], [2, 1]], "spherical"),
])
def test_classification_by_component(system, label):
    assert g.classify_coxeter(table(system)) == label


@pytest.mark.parametrize("name", list(IRREDUCIBLE))
def test_cosine_spectrum_of_a_spherical_type_is_read_off_its_exponents(name):
    # the cosine matrix has eigenvalues 1 - cos(pi e_i / h), over the
    # exponents e_i = d_i - 1 and the Coxeter number h, the largest degree
    # (Humphreys, Reflection Groups and Coxeter Groups, sections 3.16-3.19)
    cox, degrees = IRREDUCIBLE[name]
    h = max(degrees)
    expected = sorted(1.0 - math.cos(math.pi * (d - 1) / h) for d in degrees)
    spectrum = sym_eigs(g.coxeter_cosine(cox).matrix)
    assert max_abs(spectrum - expected) <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_cosine_spectrum_of_the_affine_cycle(n):
    # A~n is a cycle of n + 1 nodes, so its cosine matrix is I - A / 2, with A
    # the cycle's adjacency matrix, whose eigenvalues are 2 cos(2 pi k / (n + 1))
    cox = AFFINE[f"A~{n}"]
    expected = sorted(1.0 - math.cos(2.0 * math.pi * k / (n + 1)) for k in range(n + 1))
    spectrum = sym_eigs(g.coxeter_cosine(cox).matrix)
    assert max_abs(spectrum - expected) <= 1e-14


def test_bfs_distances():
    path = {0: [1], 1: [0, 2], 2: [1], 3: []}
    assert bfs_distances(0, path.__getitem__) == {0: 0, 1: 1, 2: 2}
    assert bfs_distances(3, path.__getitem__) == {3: 0}


def reference_components(cox):
    """Each component of the Coxeter graph, sorted, with its label by the
    classical test (Humphreys, sections 2.7 and 4.7), which checks every
    condition on its own: a component of rank 1 is spherical, one of rank 2
    affine for m = inf and spherical otherwise, and a larger one spherical
    when its cosine matrix is positive definite, affine when it is positive
    semidefinite of corank 1 with every maximal proper principal submatrix
    positive definite, and other otherwise."""
    c = g.coxeter_cosine(cox).matrix
    seen, labelled = set(), []
    for start in range(cox.rank):
        if start in seen:
            continue
        comp = sorted(bfs_distances(
            start, lambda i: [j for j in range(cox.rank) if cox.m[i][j] not in (1, 2)]
        ))
        seen.update(comp)
        sub = c[np.ix_(comp, comp)]
        cls = classify_definiteness(sub)
        if len(comp) <= 2:
            infinite = len(comp) == 2 and cox.m[comp[0]][comp[1]] == math.inf
            label = "affine" if infinite else "spherical"
        elif cls.is_positive_definite:
            label = "spherical"
        elif cls.is_positive_semidefinite and cls.corank == 1 and all(
            classify_definiteness(np.delete(np.delete(sub, k, 0), k, 1)).is_positive_definite
            for k in range(len(comp))
        ):
            label = "affine"
        else:
            label = "other"
        labelled.append((sub, label))
    return labelled


def assert_classification_matches_the_reference(systems):
    """classify_coxeter agrees with the classical test on every system; in
    every affine component, each proper principal submatrix is definite
    (Perron-Frobenius).  Returns the labels seen."""
    seen = set()
    for cox in systems:
        labelled = reference_components(cox)
        labels = [label for _, label in labelled]
        if all(label == "spherical" for label in labels):
            expected = "spherical"
        else:
            expected = "affine" if labels == ["affine"] else "other"
        assert g.classify_coxeter(cox) == expected, cox.m
        seen.add(expected)
        for sub, label in labelled:
            if label != "affine":
                continue
            for size in range(1, len(sub)):
                for keep in itertools.combinations(range(len(sub)), size):
                    assert sym_eigs(sub[np.ix_(keep, keep)])[0] > 1e-6, cox.m
    return seen


def test_classification_matches_the_reference_on_every_rank_3_labelling():
    labels = (2, 3, 4, 5, 6, 7, 8, 12, 10**5, math.inf)
    systems = [labelling(3, choice) for choice in itertools.product(labels, repeat=3)]
    assert len(systems) == 1000
    assert assert_classification_matches_the_reference(systems) == {
        "spherical", "affine", "other"
    }


@pytest.mark.parametrize("rank, labels", [
    (4, (2, 3, 4, 5, 6, math.inf)),
    (5, (2, 3, 4, 6)),
], ids=["rank4", "rank5"])
def test_classification_matches_the_reference_on_a_sample(rank, labels):
    # a pair commutes with probability 1/2, or almost every system is other;
    # few are one affine component even so, and the affine types of this
    # rank join the sample
    rng = random.Random(rank)
    weights = [len(labels) - 1] + [1] * (len(labels) - 1)
    pairs = rank * (rank - 1) // 2
    systems = [labelling(rank, rng.choices(labels, weights, k=pairs)) for _ in range(1000)]
    systems += [cox for cox in AFFINE.values() if cox.rank == rank]
    assert assert_classification_matches_the_reference(systems) == {
        "spherical", "affine", "other"
    }


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


def test_large_group_orders():
    assert g.enumerate_group(H4, cap=60000).order == 14400
    assert g.enumerate_group(E6, cap=60000).order == 51840


def test_elements_are_distinct_rows_of_root_indices():
    for name in ("a2.json", "b3.json", "h3.json"):
        cox = cox_of(name)
        group = g.enumerate_group(cox)
        roots = root_system(cox)
        assert np.array_equal(group.elements[0], np.arange(cox.rank))
        assert len(np.unique(group.elements, axis=0)) == group.order
        assert group.elements.max() < len(roots.keys)
        for array in (group.elements, group.adjacency, group.lengths):
            assert len(array) == group.order
            assert not array.flags.writeable


def reference_closure(cox, cap=coxeter.DEFAULT_GROUP_CAP):
    """The one-at-a-time closure: a breadth-first queue of byte rows, composed
    by `bytes.translate` and deduplicated by a dict (at most 256 roots)."""
    roots = root_system(cox, cap=cap)
    count = len(roots.keys)
    tables = [bytes(perm) + bytes(256 - count) for perm in roots.permutations]
    identity = bytes(range(cox.rank))
    elements = [identity]
    index = {identity: 0}
    adjacency = []
    for row in elements:
        adjacency.append([])
        for table in tables:
            image = row.translate(table)
            nxt = index.get(image)
            if nxt is None:
                if len(elements) >= cap:
                    raise GroupEnumerationError(
                        f"group is finite but has more than {cap} elements "
                        f"(its {count} roots close); raise the cap"
                    )
                nxt = len(elements)
                elements.append(image)
                index[image] = nxt
            adjacency[-1].append(nxt)
    return [list(row) for row in elements], adjacency


def reference_cosets(adjacency, rank):
    """Vertex types and facets by a breadth-first scan of each parabolic
    coset, numbered in order of the scan."""
    count = len(adjacency)
    vertex_types = {}
    coset_of = []
    next_id = 0
    for omitted in range(rank):
        kept = [s for s in range(rank) if s != omitted]
        label = [-1] * count
        for start in range(count):
            if label[start] != -1:
                continue
            for w in bfs_distances(start, lambda w: [adjacency[w][s] for s in kept]):
                label[w] = next_id
            vertex_types[next_id] = omitted
            next_id += 1
        coset_of.append(label)
    facets = tuple(frozenset(coset_of[i][w] for i in range(rank)) for w in range(count))
    return vertex_types, facets


# Dynkin diagrams with the degrees of their basic invariants (Humphreys,
# Reflection Groups and Coxeter Groups, section 3.7, Table 3.1) and a cap
# at or above the order, the product of the degrees
SPHERICAL = {
    "A3": (dynkin(3, ((0, 1, 3), (1, 2, 3))), (2, 3, 4), 10_000),
    "B3": (dynkin(3, ((0, 1, 4), (1, 2, 3))), (2, 4, 6), 10_000),
    "H3": (dynkin(3, ((0, 1, 5), (1, 2, 3))), (2, 6, 10), 10_000),
    "A4": (dynkin(4, ((0, 1, 3), (1, 2, 3), (2, 3, 3))), (2, 3, 4, 5), 10_000),
    "D4": (dynkin(4, ((0, 1, 3), (1, 2, 3), (1, 3, 3))), (2, 4, 4, 6), 10_000),
    "B4": (dynkin(4, ((0, 1, 4), (1, 2, 3), (2, 3, 3))), (2, 4, 6, 8), 10_000),
    "F4": (dynkin(4, ((0, 1, 3), (1, 2, 4), (2, 3, 3))), (2, 6, 8, 12), 10_000),
    "H4": (H4, (2, 12, 20, 30), 20_000),
    "D5": (dynkin(5, ((0, 1, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3))), (2, 4, 5, 6, 8), 60_000),
    "E6": (E6, (2, 5, 6, 8, 9, 12), 60_000),
    "A1^10": (dynkin(10, ()), (2,) * 10, 10_000),  # rank above 8
    "A1^14": (dynkin(14, ()), (2,) * 14, 16_384),  # rank 14, the widest rows
    "I2(5)": (dynkin(2, ((0, 1, 5),)), (2, 5), 10_000),
    # products take the degrees of their factors, so their orders are
    # 8 * 14 * 2 = 224 and 120 * 12 = 1440
    "B2xI2(7)xA1": (dynkin(5, ((0, 1, 4), (2, 3, 7))), (2, 4, 2, 7, 2), 10_000),
    "H3xG2": (dynkin(5, ((0, 1, 5), (1, 2, 3), (3, 4, 6))), (2, 6, 10, 2, 6), 10_000),
}


@pytest.mark.parametrize("name", list(SPHERICAL))
def test_layered_closure_matches_the_reference(name):
    cox, _, cap = SPHERICAL[name]
    group = g.enumerate_group(cox, cap=cap)
    elements, adjacency = reference_closure(cox, cap=cap)
    assert group.elements.tolist() == elements
    assert group.adjacency.tolist() == adjacency


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "D4", "B4", "F4", "H4"])
def test_coset_labels_match_the_reference(name):
    cox, _, cap = SPHERICAL[name]
    built = build_coxeter_complex(cox, cap=cap)
    vertex_types, facets = reference_cosets(built.group.adjacency.tolist(), cox.rank)
    assert list(built.complex.vertex_types.items()) == list(vertex_types.items())
    assert built.complex.facets == facets


@pytest.mark.parametrize("name", ["A3", "F4", "H4", "A1^10", "H3xG2"])
def test_chamber_array_gives_the_complex_its_facets_give(name):
    cox, _, cap = SPHERICAL[name]
    built = build_coxeter_complex(cox, cap=cap).complex
    chambers = built.facet_array.tolist()  # vertex ids are 0 .. V-1
    from_facets = g.PartiteComplex(built.vertex_types, tuple(map(frozenset, chambers)))
    assert built.facets == from_facets.facets
    assert built.types == from_facets.types
    assert np.array_equal(built.facet_array, from_facets.facet_array)


@pytest.mark.parametrize("name", list(SPHERICAL))
def test_lengths_follow_the_poincare_polynomial(name):
    cox, degrees, cap = SPHERICAL[name]
    lengths = g.enumerate_group(cox, cap=cap).lengths
    poincare = np.ones(1, dtype=np.int64)
    for d in degrees:
        poincare = np.convolve(poincare, np.ones(d, dtype=np.int64))
    assert np.array_equal(np.bincount(lengths), poincare)
    assert np.all(np.diff(lengths) >= 0)
    assert lengths.max() == sum(d - 1 for d in degrees)  # the positive roots


@pytest.mark.parametrize("name", list(SPHERICAL))
def test_each_generator_moves_one_layer_and_back(name):
    cox, _, cap = SPHERICAL[name]
    group = g.enumerate_group(cox, cap=cap)
    adjacency, lengths = group.adjacency, group.lengths
    # l(s w) = l(w) +- 1, and s (s w) = w
    assert np.all(np.abs(lengths[adjacency] - lengths[:, None]) == 1)
    back = adjacency[adjacency, np.arange(cox.rank)]
    assert np.array_equal(back, np.repeat(np.arange(group.order)[:, None], cox.rank, axis=1))


@pytest.mark.parametrize("name", ["B3", "F4", "H4"])
def test_cap_at_the_order(name):
    cox, degrees, _ = SPHERICAL[name]
    order = math.prod(degrees)
    assert g.enumerate_group(cox, cap=order).order == order
    roots = len(root_system(cox).keys)
    with pytest.raises(GroupEnumerationError) as info:
        g.enumerate_group(cox, cap=order - 1)
    assert str(info.value) == (
        f"group is finite but has more than {order - 1} elements "
        f"(its {roots} roots close); raise the cap"
    )


def test_cap_bounds_the_sorted_rows(monkeypatch):
    sorted_rows = []
    original = np.lexsort

    def counting_lexsort(keys, *args, **kwargs):
        order = original(keys, *args, **kwargs)
        sorted_rows.append(len(order))
        return order

    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    with pytest.raises(GroupEnumerationError, match="more than 1000 elements"):
        g.enumerate_group(E6, cap=1000)
    # each layer sorts one row per ascent, at most rank per element, and
    # every layer whose images are sorted lies within the cap, so E6's 51840
    # elements are never reached
    assert sorted_rows
    assert sum(sorted_rows) <= 6 * 1000


def compose(p, q):
    return tuple(p[k] for k in q)


def test_generator_permutations_are_exact():
    # each simple reflection s_i fixes exactly the roots orthogonal to its
    # root: none in A2; in B3, with simple roots e3, e2 - e3 and e1 - e2,
    # those are +-e1, +-e2, +-e1 +- e2 for e3 and four for either long root;
    # in H3 each reflection commutes with two others, whose roots are its four
    fixed_counts = {"a2.json": [0, 0], "b3.json": [8, 4, 4], "h3.json": [4, 4, 4]}
    for name, fixed in fixed_counts.items():
        cox = cox_of(name)
        roots = root_system(cox)
        identity = tuple(range(len(roots.keys)))
        assert len(set(roots.keys)) == len(identity)
        for i, perm in enumerate(roots.permutations):
            assert sorted(perm) == list(identity)
            assert compose(perm, perm) == identity
            assert perm[i] != i
            assert sum(perm[k] == k for k in identity) == fixed[i]
            for j in range(i + 1, cox.rank):
                word = compose(perm, roots.permutations[j])
                power = word
                for _ in range(cox.m[i][j] - 1):
                    assert power != identity
                    power = compose(word, power)
                assert power == identity


# the spherical types, and more whose root systems alone are checked, with
# the degrees of their basic invariants
ROOT_TYPES = {
    **{name: (cox, degrees, 10_000) for name, (cox, degrees) in IRREDUCIBLE.items()},
    **SPHERICAL,
    "I2(129)": (dynkin(2, ((0, 1, 129),)), (2, 129), 10_000),
    "I2(1000)": (dynkin(2, ((0, 1, 1000),)), (2, 1000), 10_000),
}


@pytest.mark.parametrize("name", list(ROOT_TYPES))
def test_root_count_is_twice_the_positive_roots(name):
    # |Phi| = 2 N, with N = sum(d_i - 1) reflections (Humphreys, Reflection
    # Groups and Coxeter Groups, section 3.9); the root orbit needs no cap
    # beyond its own size
    cox, degrees, cap = ROOT_TYPES[name]
    count = 2 * sum(d - 1 for d in degrees)
    assert len(root_system(cox, cap=cap).keys) == count
    assert len(root_system(cox, cap=count).keys) == count


def test_finite_group_over_cap_says_finite():
    for cox, roots in ((H4, 120), (E8, 240)):
        with pytest.raises(GroupEnumerationError) as info:
            g.enumerate_group(cox)
        message = str(info.value)
        assert "finite" in message and "likely infinite" not in message
        assert "10000 elements" in message and f"{roots} roots" in message


def test_dihedral_group_past_256_roots():
    cox = g.CoxeterMatrix(rank=2, m=((1, 129), (129, 1)))
    assert len(root_system(cox).keys) == 258
    assert g.enumerate_group(cox).order == 258
    check = coxeter_complex_cosine_check(cox)
    assert check.link_checks[(0, 1)].observed_lengths == (258,)  # one 258-cycle
    assert check.max_deviation <= 1e-12
    assert check.links_ok


def test_infinite_group_hits_cap():
    with pytest.raises(GroupEnumerationError, match="root orbit passed 64 roots"):
        g.enumerate_group(cox_of("infinite_dihedral.json"), cap=64)
    with pytest.raises(GroupEnumerationError, match="more than 100 elements"):
        g.enumerate_group(cox_of("affine_a2.json"), cap=100)
    # the (2, 5, 5) triangle group has its labels in Z[phi], and its orbit
    # passes the cap; the (2, 3, 7) triangle group has a label 7 on a rank-3
    # component, which no finite group has, so it is refused before any root
    # is found, whatever the cap
    triangle_255 = table([[1, 5, 2], [5, 1, 5], [2, 5, 1]])
    triangle_237 = table([[1, 3, 2], [3, 1, 7], [2, 7, 1]])
    for cox, cap in ((triangle_255, 100), (triangle_237, 100), (triangle_237, 10**12)):
        with pytest.raises(GroupEnumerationError) as info:
            g.enumerate_group(cox, cap=cap)
        assert str(info.value) == (
            f"group not enumerated: its root orbit passed {cap} roots, "
            f"so it has more than {cap} elements"
        )
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
    assert all(len(star(x, {v})) == 2 for v in x.vertex_types)


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


def test_h4_cosine_check():
    check = coxeter_complex_cosine_check(H4, cap=20000)
    assert check.complex_report.validation.b2_links_gallery_connected
    assert check.links_ok
    assert check.max_deviation <= 1e-12


def test_cosine_check_report():
    cox = cox_of("b2.json")
    check = coxeter_complex_cosine_check(cox)
    assert check.max_deviation <= 1e-9
    assert check.links_ok
    assert check.link_checks[(0, 1)].expected_length == 8
    assert max_abs(check.cosine_matrix.matrix - g.coxeter_cosine(cox).matrix) <= 1e-12


def test_cosine_check_builds_each_link_once_per_pass():
    cox = cox_of("a3.json")
    check = coxeter_complex_cosine_check(cox)
    # the walk pass reads each link as one group of facet rows, and the
    # cycle check reads what the walk pass saw
    assert check.links_ok
    for (i, j), link in check.link_checks.items():
        spec = check.complex_report.per_pair[(i, j)]
        assert link.observed_lengths == spec.link_lengths
        assert link.all_cycles == spec.all_cycles
        assert len(link.observed_lengths) == 24 // (2 * cox.m[i][j])  # one link per coset of W_ij


def test_affine_cosine_spectrum():
    c = g.coxeter_cosine(cox_of("affine_a2.json"))
    eigs = sym_eigs(c.matrix)
    assert abs(eigs[0]) <= 1e-12
    assert np.allclose(eigs[1:], 1.5, atol=1e-12)


@st.composite
def _coxeter_docs(draw):
    # a symmetric table with 1 on the diagonal when the draw allows, so that
    # entries reach coxeter_cosine as well as the loader
    rank = draw(st.integers(1, 3))
    upper = {(i, j): draw(json_scalars) for i in range(rank) for j in range(i + 1, rank)}
    table = [
        [1 if i == j else upper[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)
    ]
    return {
        "rank": draw(st.one_of(st.just(rank), json_values)),
        "m": draw(st.one_of(st.just(table), json_values)),
    }


@settings(deadline=None)
@given(_coxeter_docs())
def test_load_coxeter_matrix_fails_only_with_garland_errors(doc):
    try:
        g.coxeter_cosine(g.load_coxeter_matrix(doc))
    except GarlandError:
        pass
