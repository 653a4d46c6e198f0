"""Threshold, generalized-polygon bounds, and verdict report tests."""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import random
import time

import numpy as np
import pytest

import garland as g
from garland.criterion import ALLOWED_GONALITIES, _pass_test
from garland.errors import (
    CriterionInapplicableError,
    FeitHigmanExcludedError,
    ValidationError,
)
from garland.linalg import max_abs, sym_eigs

from conftest import AFFINE, COXETER_FIXTURES, labelling, load_fixture


def cox_of(name):
    return g.load_coxeter_matrix(load_fixture(name))


def test_threshold_values():
    assert abs(g.threshold(2) - (1.0 - 3.0 / (2.0 * math.sqrt(2.0)))) <= 1e-15
    assert g.threshold(4) == pytest.approx(-0.25)
    values = [g.threshold(q) for q in range(2, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))  # strictly decreasing
    with pytest.raises(ValidationError):
        g.threshold(1)
    with pytest.raises(ValidationError):
        g.threshold(2.5)
    a3 = cox_of("a3.json")
    for bad in (math.inf, -math.inf, math.nan):
        for call in (g.threshold, lambda q: g.feit_higman_bound(3, q),
                     lambda q: g.vanishing_report(a3, q)):
            with pytest.raises(ValidationError, match=f"q must be an integer, got {bad}"):
                call(bad)


def test_feit_higman_values():
    assert g.feit_higman_bound(2, 7) == 0.0
    assert abs(g.feit_higman_bound(3, 2) - math.sqrt(2.0) / 3.0) <= 1e-15
    assert abs(g.feit_higman_bound(4, 2) - 2.0 / 3.0) <= 1e-15
    assert abs(
        g.feit_higman_bound(8, 2) - math.sqrt(2.0 + math.sqrt(2.0)) * math.sqrt(2.0) / 3.0
    ) <= 1e-15
    for bad in (5, 7, 12):
        with pytest.raises(FeitHigmanExcludedError):
            g.feit_higman_bound(bad, 2)
    # 2 cos(pi/m) in square roots: doubling the table's cosine is exact, so
    # the bound keeps these bits
    two_cos = {
        2: 0.0, 3: 1.0, 4: math.sqrt(2.0), 6: math.sqrt(3.0), 8: math.sqrt(2.0 + math.sqrt(2.0)),
    }
    assert tuple(two_cos) == ALLOWED_GONALITIES
    for m, doubled in two_cos.items():
        for q in range(2, 61):
            assert g.feit_higman_bound(m, q) == doubled * (math.sqrt(q) / (q + 1)), (m, q)


def test_the_two_encodings_of_the_per_link_bound_agree():
    # the lower bound's off-diagonal entry on I2(m) is minus the Feit-Higman bound
    for m in ALLOWED_GONALITIES:
        c = g.coxeter_cosine(g.CoxeterMatrix(rank=2, m=((1, m), (m, 1))))
        for q in range(2, 61):
            entry = g.building_cosine_lower_bound(c, q)[0, 1]
            assert abs(entry + g.feit_higman_bound(m, q)) <= 1e-15, (m, q)


def test_lower_bound_matrix():
    c = g.coxeter_cosine(cox_of("a3.json"))
    bound = g.building_cosine_lower_bound(c, 3)
    scale = 2.0 * math.sqrt(3.0) / 4.0
    assert max_abs(bound - (scale * c.matrix + (1 - scale) * np.eye(3))) <= 1e-15
    # the original matrix sits below the bound entrywise
    assert np.all(c.matrix <= bound)
    lam = sym_eigs(bound)[0]
    direct = scale * c.min_eigenvalue() + 1.0 - scale
    assert abs(lam - direct) <= 1e-12


def test_min_thickness():
    for name, q in (("hyperbolic_rank4.json", 4), ("a2.json", 2), ("affine_a2.json", 2)):
        assert g.min_thickness(g.coxeter_cosine(cox_of(name)).min_eigenvalue()) == q, name
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match=f"mu must be a finite number, got {bad}"):
            g.min_thickness(bad)


@functools.cache
def exact_threshold(q):
    """1 - (q+1)/(2 sqrt q) to 80 digits: exact for a square q, and otherwise
    more than 1e-50 from every float this file tries, since a float mu = n/d
    makes 4 (d - n)^2 q and (q+1)^2 d^2 unequal integers."""
    with decimal.localcontext(decimal.Context(prec=80)):
        return 1 - (q + 1) / (2 * decimal.Decimal(q).sqrt())


def exact_passes(mu, q):
    return decimal.Decimal(float(mu)) > exact_threshold(q)  # the float's exact value


def linear_min_thickness(mu):
    q = 2
    while not exact_passes(mu, q):
        q += 1
    return q


def test_min_thickness_matches_the_linear_search():
    # the mus include the float thresholds and their neighbours, where the
    # exact test and a float comparison part
    at_thresholds = [g.threshold(q) for q in range(2, 51)]
    mus = [*np.linspace(-30.0, 1.5, 1001), *at_thresholds]
    mus += [np.nextafter(t, side) for t in at_thresholds for side in (-np.inf, np.inf)]
    for mu in mus:
        assert g.min_thickness(mu) == linear_min_thickness(mu), mu


def walked_min_thickness(mu):
    """The least passing q by walking from the larger real root of
    4 a^2 q = (q+1)^2, a = 1 - mu, computed to 80 digits: down while q - 1
    passes, then up while q fails."""
    with decimal.localcontext(decimal.Context(prec=80)):
        a = 1 - decimal.Decimal(float(mu))
        root = 2 * a * a - 1 + 2 * a * (a * a - 1).sqrt()
    q = max(2, int(root))
    while q > 2 and exact_passes(mu, q - 1):
        q -= 1
    while not exact_passes(mu, q):
        q += 1
    return q


def test_min_thickness_on_a_log_grid():
    # past q = 1e15 the float threshold is not monotone in q, and a float
    # comparison there returned 5075736694144155 at this mu; the exact least
    # q is two below it
    assert g.min_thickness(-35622101.317747034) == 5075736694144153
    for mu in -np.logspace(0.0, math.log10(2.5e14), 20001):
        assert g.min_thickness(mu) == walked_min_thickness(mu), mu


def test_min_thickness_work_grows_like_log_q():
    g.min_thickness(0.0)  # first-call costs stay out of the timing
    start = time.perf_counter()
    q = g.min_thickness(-1e6)
    assert time.perf_counter() - start < 0.01
    assert exact_passes(-1e6, q) and not exact_passes(-1e6, q - 1)
    with pytest.raises(ValidationError, match="beyond the float range"):
        g.min_thickness(-1e160)


def test_the_exact_test_agrees_with_the_float_one_on_the_fixtures():
    # so the exact test moves no verdict or search result of the corpus
    qs = [*range(2, 200), *(10**k for k in range(3, 15))]
    for name in COXETER_FIXTURES:
        mu = g.coxeter_cosine(cox_of(f"{name}.json")).min_eigenvalue()
        passes = _pass_test(mu)
        for q in qs:
            assert passes(q) == (mu > g.threshold(q)) == exact_passes(mu, q), (name, q)


def test_vanishing_report_fields():
    cox = cox_of("hyperbolic_rank4.json")
    report = g.vanishing_report(cox, 4)
    assert report.coxeter_class == "other"
    assert report.building_dim == 3
    assert report.q == 4
    assert report.criterion_met
    assert not report.borderline
    assert report.mu_tilde == pytest.approx((1.0 - math.sqrt(2.0)) / 2.0, abs=1e-9)
    assert report.threshold_value == pytest.approx(-0.25)
    assert abs(
        report.lower_bound_min_eig
        - (0.8 * report.mu_tilde + 0.2)
    ) <= 1e-12  # scale 2*sqrt(4)/5 = 0.8
    kinds = {v.kind for v in report.verdicts}
    assert kinds == {"building_cohomology", "group_cohomology"}
    conditional = [v for v in report.verdicts if v.kind == "group_cohomology"]
    assert all(v.unverified_hypotheses for v in conditional)
    assert any("1764" in note for note in report.notes)


def test_vanishing_report_affine_branch():
    report = g.vanishing_report(cox_of("affine_a2.json"), 2)
    assert report.coxeter_class == "affine"
    affine = [v for v in report.verdicts if v.kind == "group_cohomology_affine"]
    assert [v.degree for v in affine] == [1]
    assert all(v.asserted for v in affine)


def test_vanishing_report_inapplicable_inputs():
    with pytest.raises(CriterionInapplicableError):
        g.vanishing_report(cox_of("a2.json"), 4)  # building dimension 1
    with pytest.raises(CriterionInapplicableError):
        g.vanishing_report(cox_of("infinite_dihedral.json"), 4)
    free_edge = g.CoxeterMatrix(rank=3, m=((1, math.inf, 2), (math.inf, 1, 3), (2, 3, 1)))
    with pytest.raises(CriterionInapplicableError, match="infinite"):
        g.vanishing_report(free_edge, 4)
    for m in (5, 7, 12):
        excluded = g.CoxeterMatrix(rank=3, m=((1, m, 2), (m, 1, 3), (2, 3, 1)))
        with pytest.raises(FeitHigmanExcludedError, match=rf"m\[0\]\[1\] = {m} excluded"):
            g.vanishing_report(excluded, 4)
    with pytest.raises(ValidationError):
        g.vanishing_report(cox_of("a3.json"), 1)


@pytest.mark.parametrize("name", list(AFFINE))
def test_affine_types_pass_at_the_smallest_thickness(name):
    # an affine cosine matrix is semidefinite, so mu = 0 lies above every
    # threshold and q = 2 already passes, with every verdict asserted
    cox = AFFINE[name]
    assert g.classify_coxeter(cox) == "affine"
    assert g.min_thickness(g.coxeter_cosine(cox).min_eigenvalue()) == 2
    report = g.vanishing_report(cox, 2)
    assert report.coxeter_class == "affine"
    assert abs(report.mu_tilde) <= 1e-14
    assert report.criterion_met and not report.borderline
    assert report.lower_bound_min_eig > 0
    kinds = [v.kind for v in report.verdicts]
    for kind in ("building_cohomology", "group_cohomology", "group_cohomology_affine"):
        assert kinds.count(kind) == report.building_dim - 1
    assert all(v.asserted for v in report.verdicts)


def test_lower_bound_eigenvalue_is_the_shifted_mu():
    # every rank-3 labelling with buildable labels and a seeded sample of
    # rank 4: the report's closed form s (mu - threshold) is the smallest
    # eigenvalue of its lower-bound matrix; no input here is borderline, and
    # outside that band it is positive exactly when the criterion is met
    labels = (2, 3, 4, 6, 8)
    systems = [labelling(3, choice) for choice in itertools.product(labels, repeat=3)]
    rng = random.Random(4)
    systems += [labelling(4, rng.choices(labels, k=6)) for _ in range(200)]
    met = set()
    for cox in systems:
        for q in (2, 3, 4, 7, 16, 29):
            report = g.vanishing_report(cox, q)
            assert report.criterion_met == (report.lower_bound_min_eig > 0), (cox.m, q)
            direct = sym_eigs(report.lower_bound_matrix)[0]
            assert abs(report.lower_bound_min_eig - direct) <= 1e-14, (cox.m, q)
            met.add(report.criterion_met)
    assert met == {True, False}


def test_criterion_monotone_in_q():
    cox = cox_of("hyperbolic_rank4.json")
    met = [g.vanishing_report(cox, q).criterion_met for q in range(2, 10)]
    assert met == sorted(met)  # False before True, never back
