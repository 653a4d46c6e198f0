"""Acceptance suite: ten end-to-end checks with pinned tolerances.

The conftest terminal summary prints one PASS/FAIL line per test here.
"""

from __future__ import annotations

import math
import time

import numpy as np

import garland as g
from garland.coxeter import coxeter_complex_cosine_check, enumerate_group
from garland.decomposition import build_lattice, verify_decomposition
from garland.linalg import max_abs, sym_eigs

from conftest import (
    cycle_complex,
    intersecting_family,
    kassabov_delta,
    kassabov_reduced,
    load_fixture,
    pd_families,
)


def test_criterion_01_rank4_hyperbolic_reproduction():
    cox = g.load_coxeter_matrix(load_fixture("hyperbolic_rank4.json"))
    c = g.coxeter_cosine(cox)
    assert abs(c.min_eigenvalue() - (1.0 - math.sqrt(2.0)) / 2.0) <= 1e-9
    assert g.min_thickness(c.min_eigenvalue()) == 4

    at4 = g.vanishing_report(cox, 4)
    assert at4.criterion_met
    asserted = sorted(
        v.degree for v in at4.verdicts if v.kind == "building_cohomology" and v.asserted
    )
    assert asserted == [1, 2]

    at3 = g.vanishing_report(cox, 3)
    assert not at3.criterion_met
    assert not any(v.asserted for v in at3.verdicts)


def test_criterion_02_spherical_complex_agreement():
    systems = (
        ("a2.json", 3, 6),
        ("b2.json", 4, 8),
        ("g2.json", 6, 12),
        ("a3.json", None, 24),
        ("b3.json", None, 48),
        ("h3.json", None, 120),
    )
    for name, _, order in systems:
        cox = g.load_coxeter_matrix(load_fixture(name))
        assert enumerate_group(cox).order == order
        check = coxeter_complex_cosine_check(cox)
        assert check.max_deviation <= 1e-9
        assert check.links_ok
        for (i, j), link in check.link_checks.items():
            assert link.expected_length == 2 * cox.m[i][j]
            assert link.all_cycles
            assert all(length == 2 * cox.m[i][j] for length in link.observed_lengths)


def walk_eigenvalue(x) -> float:
    """The walk eigenvalue of a 1-dimensional complex, as `analyze-complex`
    reports it: its one type pair's entry of the cosine matrix report."""
    (spec,) = g.cosine_matrix_of_complex(x).per_pair.values()
    return spec.second_eigenvalue


def test_criterion_03_even_cycle_walk_law():
    for m in (2, 3, 4, 6, 8):
        lam = walk_eigenvalue(cycle_complex(2 * m))
        assert abs(lam - math.cos(math.pi / m)) <= 1e-9


def test_criterion_04_heawood_fixture():
    x = g.load_complex(load_fixture("heawood.json"))
    lam = walk_eigenvalue(x)
    assert abs(lam - math.sqrt(2.0) / 3.0) <= 1e-9
    assert g.thickness(x) == 3
    assert abs(lam - g.feit_higman_bound(3, 2)) <= 1e-9


def test_criterion_05_affine_corank_and_threshold():
    for name in ("affine_a2.json", "affine_a3.json", "affine_c2.json", "affine_g2.json"):
        cox = g.load_coxeter_matrix(load_fixture(name))
        assert g.classify_coxeter(cox) == "affine"
        c = g.coxeter_cosine(cox)
        eigs = sym_eigs(c.matrix)
        kind = g.classify_definiteness(c.matrix)
        assert kind.kind == "positive_semidefinite"
        assert kind.corank == 1
        assert abs(eigs[0]) <= 1e-9
        assert eigs[1] > 1e-6
        report = g.vanishing_report(cox, 2)
        assert report.criterion_met
        assert any(v.kind == "group_cohomology_affine" and v.asserted for v in report.verdicts)


def test_criterion_06_decomposition_property_suite():
    t0 = time.perf_counter()
    for fam, _ in pd_families(200):
        lattice = build_lattice(fam)
        for mask in range(1 << (fam.n + 1)):
            report = verify_decomposition(lattice, mask, tol=1e-7)
            assert report.holds, (fam.ambient_dim, fam.n, mask)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_intersection_angle_bound():
    shapes = ((1, 1), (2, 1), (1, 0), (2, 2), (0, 0))
    checked = 0
    seed = 0
    while checked < 500:
        extra = shapes[seed % len(shapes)]
        ambient = 12 if seed % 2 == 0 else 9
        fam = intersecting_family(seed, ambient, 2, extra)
        seed += 1
        v0, v1, v2 = fam.members
        l01 = g.angle_cos(v0, v1)
        l02 = g.angle_cos(v0, v2)
        l12 = g.angle_cos(v1, v2)
        if l02 >= 1.0 or l12 >= 1.0:
            continue
        lhs = g.angle_cos(g.intersect(v0, v2), g.intersect(v1, v2))
        assert lhs <= kassabov_delta(l01, l02, l12) + 1e-9
        checked += 1


def test_criterion_08_entrywise_order_monotonicity():
    rng = np.random.default_rng(8)
    for _ in range(500):
        k = int(rng.integers(2, 7))
        upper = np.triu(-rng.uniform(0.0, 1.0, size=(k, k)), 1)
        a2 = upper + upper.T + np.eye(k)
        drop = np.triu(rng.uniform(0.0, 1.0, size=(k, k)) * rng.integers(0, 2, size=(k, k)), 1)
        a1 = np.clip(a2 - (drop + drop.T), -1.0, None)
        np.fill_diagonal(a1, 1.0)
        assert np.all(a1 <= a2)
        m1 = g.CosineMatrix(a1)
        m2 = g.CosineMatrix(a2)
        assert m1.min_eigenvalue() <= m2.min_eigenvalue() + 1e-12


def test_criterion_09_reduction_and_intersected_family():
    shapes = ((1, 1, 0), (1, 1, 1), (2, 1, 0), (1, 0, 0))
    count = 0
    seed = 0
    while count < 200:
        extra = shapes[seed % len(shapes)]
        fam = intersecting_family(seed, 12, 3, extra)
        seed += 1
        cm = g.cosine_matrix_of_family(fam)
        if not g.classify_definiteness(cm.matrix).is_positive_definite:
            continue
        count += 1
        mu = cm.min_eigenvalue()
        a_prime, a_dprime, d = kassabov_reduced(cm)
        assert mu <= float(sym_eigs(a_prime)[0]) + 1e-9
        assert max_abs(a_prime - d @ a_dprime @ d) <= 1e-12
        last = fam.members[3]
        cut = g.SubspaceFamily(
            fam.ambient_dim,
            tuple(g.intersect(fam.members[i], last) for i in range(3)),
        )
        assert g.cosine_matrix_of_family(cut).min_eigenvalue() >= mu - 1e-9


def test_criterion_10_closed_form_bounds():
    for m in (2, 3, 4, 6, 8):
        for q in range(2, 65):
            expected = math.cos(math.pi / m) * 2.0 * math.sqrt(q) / (q + 1)
            assert abs(g.feit_higman_bound(m, q) - expected) <= 1e-12
    for name in ("a3.json", "b3.json", "hyperbolic_rank4.json"):
        c = g.coxeter_cosine(g.load_coxeter_matrix(load_fixture(name)))
        base = sym_eigs(c.matrix)
        for q in (2, 3, 4, 9, 64):
            scale = 2.0 * math.sqrt(q) / (q + 1)
            shifted = sym_eigs(g.building_cosine_lower_bound(c, q))
            assert max_abs(shifted - (scale * base + (1.0 - scale))) <= 1e-12
