"""Threshold, generalized-polygon bounds, and verdict report tests."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import garland as g
from garland.errors import (
    CriterionInapplicableError,
    FeitHigmanExcludedError,
    ValidationError,
)
from garland.linalg import max_abs, sym_eigs

from conftest import load_fixture


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


def test_lower_bound_matrix():
    c = g.coxeter_cosine(cox_of("a3.json"))
    bound = g.building_cosine_lower_bound(c, 3)
    scale = 2.0 * math.sqrt(3.0) / 4.0
    assert max_abs(bound - (scale * c.matrix + (1 - scale) * np.eye(3))) <= 1e-15
    # the original matrix sits below the bound entrywise
    assert np.all(c.matrix <= bound)
    lam = sym_eigs(bound).eigenvalues[0]
    direct = scale * c.min_eigenvalue() + 1.0 - scale
    assert abs(lam - direct) <= 1e-12


def test_min_thickness():
    assert g.min_thickness(g.coxeter_cosine(cox_of("hyperbolic_rank4.json"))) == 4
    assert g.min_thickness(g.coxeter_cosine(cox_of("a2.json"))) == 2
    assert g.min_thickness(g.coxeter_cosine(cox_of("affine_a2.json"))) == 2


def linear_min_thickness(mu):
    q = 2
    while mu <= g.threshold(q):
        q += 1
    return q


def test_min_thickness_matches_the_linear_search():
    at_thresholds = [g.threshold(q) for q in range(2, 51)]
    mus = [*np.linspace(-30.0, 1.5, 1001), *at_thresholds]
    mus += [np.nextafter(t, side) for t in at_thresholds for side in (-np.inf, np.inf)]
    for mu in mus:
        assert g.min_thickness(np.array([[mu]])) == linear_min_thickness(mu), mu


def test_min_thickness_work_grows_like_log_q():
    g.min_thickness(np.array([[0.0]]))  # first-call costs stay out of the timing
    start = time.perf_counter()
    q = g.min_thickness(np.array([[-1e6]]))
    assert time.perf_counter() - start < 0.01
    assert g.threshold(q) < -1e6 <= g.threshold(q - 1)
    with pytest.raises(ValidationError, match="beyond the float range"):
        g.min_thickness(np.array([[-1e160]]))


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
    pentagon = g.CoxeterMatrix(rank=3, m=((1, 5, 2), (5, 1, 3), (2, 3, 1)))
    with pytest.raises(FeitHigmanExcludedError):
        g.vanishing_report(pentagon, 4)
    with pytest.raises(ValidationError):
        g.vanishing_report(cox_of("a3.json"), 1)


def test_criterion_monotone_in_q():
    cox = cox_of("hyperbolic_rank4.json")
    met = [g.vanishing_report(cox, q).criterion_met for q in range(2, 10)]
    assert met == sorted(met)  # False before True, never back
