"""Thickness thresholds and cohomology-vanishing verdicts for buildings.

A building of type M with thickness q+1 has a complex cosine matrix bounded
below (in the entrywise order) by a shifted copy of the Coxeter cosine matrix
C, so the smallest eigenvalue mu of C decides the criterion: cohomology
vanishes in intermediate degrees once mu > 1 - (q+1)/(2*sqrt(q)).  That
comparison is decided exactly, in integers, from the float mu, so the passing
q are exactly those from the least one up; the float threshold is reported,
and the `borderline` flag and the lower-bound eigenvalue are read from it.  A
caller that holds C passes it along, and one report solves it once.  Verdicts
are emitted as statement templates with their hypotheses spelled out; nothing
here computes cohomology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coxeter import CoxeterMatrix, classify_coxeter, coxeter_cosine
from .errors import (
    CriterionInapplicableError,
    FeitHigmanExcludedError,
    ValidationError,
)
from .subspaces import CosineMatrix, cos_pi_over

# the gonalities m that Feit-Higman allows a thick finite generalized m-gon
# (J. Algebra 1, 1964)
ALLOWED_GONALITIES = (2, 3, 4, 6, 8)
BORDERLINE_TOL = 1e-12


def _check_q(q) -> int:
    # nan and the infinities have no int(), and nan alone differs from itself
    if q != q or q in (math.inf, -math.inf) or q != int(q):
        raise ValidationError(f"q must be an integer, got {q}")
    q = int(q)
    if q < 2:
        raise ValidationError(f"q must be at least 2, got {q}")
    try:
        float(q + 1)  # the thresholds and bounds take sqrt(q) and q + 1 as floats
    except OverflowError:
        raise ValidationError("q is beyond the float range") from None
    return q


def threshold(q: int) -> float:
    """Criterion threshold 1 - (q+1)/(2*sqrt(q)); strictly decreasing in q."""
    q = _check_q(q)
    return 1.0 - (q + 1) / (2.0 * math.sqrt(q))


def feit_higman_bound(m: int, q: int) -> float:
    """Upper bound for the walk eigenvalue of a thick generalized m-gon.

    Only the m in ALLOWED_GONALITIES admit thick finite generalized m-gons;
    the bound is cos(pi/m) * 2*sqrt(q)/(q+1).
    """
    q = _check_q(q)
    if m not in ALLOWED_GONALITIES:
        raise FeitHigmanExcludedError(
            f"gonality {m} excluded by Feit-Higman: no thick finite generalized {m}-gon exists"
        )
    return 2.0 * cos_pi_over(m) * (math.sqrt(q) / (q + 1))


def _lower_bound_scale(q: int) -> float:
    """s = 2*sqrt(q)/(q+1), the weight of C in the lower-bound matrix; the
    threshold is 1 - 1/s."""
    return 2.0 * math.sqrt(q) / (q + 1)


def building_cosine_lower_bound(c: CosineMatrix, q: int) -> np.ndarray:
    """The matrix s C + (1 - s) I, with s = 2*sqrt(q)/(q+1).

    Any building of type C with thickness q+1 has a complex cosine matrix at
    least this one in the entrywise order; the shift moves the spectrum of C
    affinely, so its smallest eigenvalue is s (mu - threshold(q)), mu that of C.
    """
    q = _check_q(q)
    scale = _lower_bound_scale(q)
    return scale * c.matrix + (1.0 - scale) * np.eye(c.dim)


def _pass_test(mu: float):
    """The exact test of mu > threshold(q), as a function of q.

    With a = 1 - mu, mu taken as the exact rational value of the float, q
    passes when a <= 0 or 4 a^2 q < (q+1)^2: both sides of
    a < (q+1)/(2 sqrt(q)) squared.  mu = n/d as integers, so the test is
    4 (d - n)^2 q < (q+1)^2 d^2 with no rounding, and since (q+1)^2/(4q)
    increases for q >= 1, the passing q are exactly those from the least up.
    """
    n, d = float(mu).as_integer_ratio()
    a = d - n
    return lambda q: a <= 0 or 4 * a * a * q < (q + 1) ** 2 * d * d


def min_thickness(mu: float) -> int:
    """Smallest q >= 2 whose threshold lies strictly below mu, a cosine
    matrix's smallest eigenvalue, decided exactly by `_pass_test`.

    Exists for every finite mu, since the threshold decreases without bound.
    Passing is monotone in q, so the search doubles q from 2 until it passes
    and bisects back; its work grows like log q.  A q past the float range,
    where `threshold` cannot be evaluated, is refused as it is there.
    """
    if not math.isfinite(mu):
        raise ValidationError(f"mu must be a finite number, got {mu}")
    passes = _pass_test(mu)
    # `above` passes once the gallop ends; `below` fails, or is 1, under the
    # smallest q allowed
    below, above = 1, 2
    while not passes(above):
        below, above = above, _check_q(2 * above)
    while above - below > 1:
        mid = (above + below) // 2
        if passes(mid):
            above = mid
        else:
            below = mid
    return above


@dataclass(frozen=True)
class DegreeVerdict:
    """One statement template: asserted only when every hypothesis is in force.

    Entries in `unverified_hypotheses` are conditions the cosine data cannot
    see (they depend on the actual building, not its type); an asserted
    verdict carrying them is conditional on the caller checking them.
    """

    kind: str
    degree: int
    statement: str
    asserted: bool
    hypotheses: tuple[str, ...]
    unverified_hypotheses: tuple[str, ...] = ()


_BASE_HYPOTHESES = (
    "X is an n-dimensional building of this type with n = {n}",
    "all 1-dimensional links of X are finite",
    "X has thickness at least q+1 = {q1}",
    "G is the BN-pair group acting on X",
)
# The verdict families in report order, each stated for every intermediate
# degree k: (kind, statement, hypotheses, unverified hypotheses), as templates
# in k, n and q1 = q + 1.  The affine family applies to affine types only,
# where every proper link of the building is finite.
_VERDICT_FAMILIES = (
    (
        "building_cohomology",
        "H^{k}(X, pi) = 0 for every continuous unitary representation pi of G",
        _BASE_HYPOTHESES,
        (),
    ),
    (
        "group_cohomology",
        "H^i(G, pi) = 0 for every 1 <= i <= {k} and every continuous "
        "unitary representation pi of G",
        _BASE_HYPOTHESES,
        (
            "all {k}-dimensional links of X are finite "
            "(building data; not derivable from the relation orders)",
        ),
    ),
    (
        "group_cohomology_affine",
        "H^{k}(G, pi) = 0 for every continuous unitary representation pi of G",
        (
            "X is the n-dimensional affine building of the BN-pair of G, n = {n}",
            "X is non-thin (thickness at least q+1 = {q1} >= 3)",
        ),
        (),
    ),
)


@dataclass(frozen=True)
class VanishingReport:
    coxeter_class: str
    building_dim: int
    q: int
    mu_tilde: float
    threshold_value: float
    criterion_met: bool
    borderline: bool
    lower_bound_matrix: np.ndarray
    lower_bound_min_eig: float
    verdicts: tuple[DegreeVerdict, ...]
    notes: tuple[str, ...]


def vanishing_report(cox: CoxeterMatrix, q: int, c: CosineMatrix | None = None) -> VanishingReport:
    """Evaluate the vanishing criterion for buildings of the given type.

    The report covers three template families over the intermediate degrees
    1..n-1: vanishing of the building's cohomology H^k(X, pi), the group
    version H^i(G, pi) conditional on finite k-dimensional links, and the
    unconditional group version available for affine systems (where every
    proper link of the building is finite).

    mu is the smallest eigenvalue of the cosine matrix C, and
    `criterion_met` is the exact test of `_pass_test`; `borderline` flags a
    mu within `BORDERLINE_TOL` of the float `threshold_value`.  The
    lower-bound matrix s C + (1 - s) I shifts the spectrum of C affinely,
    and threshold(q) = 1 - 1/s, so its smallest eigenvalue
    `lower_bound_min_eig` is s (mu - threshold(q)), in floats.  Its sign and
    `criterion_met` can disagree only where mu lies within a few rounding
    errors of the float threshold, which for q below about 1e6 is inside the
    `borderline` band: mu = threshold(2) passes at q = 2 with
    `lower_bound_min_eig` 0.  A caller that has built C = `coxeter_cosine(cox)`
    passes it, and C is solved once; `classify_coxeter` solves only the
    blocks of a reducible system.
    """
    q = _check_q(q)
    n = cox.rank - 1
    if n < 2:
        raise CriterionInapplicableError(
            f"building dimension {n} is below 2; the criterion needs intermediate degrees"
        )
    for i in range(cox.rank):
        for j in range(i + 1, cox.rank):
            mij = cox.m[i][j]
            if mij == math.inf:
                raise CriterionInapplicableError(
                    f"m[{i}][{j}] is infinite, so 1-dimensional links of a thick "
                    "building of this type cannot be finite"
                )
            if mij not in ALLOWED_GONALITIES:
                raise FeitHigmanExcludedError(
                    f"m[{i}][{j}] = {mij} excluded by Feit-Higman: no thick building "
                    "of this type exists"
                )
    c = coxeter_cosine(cox) if c is None else c
    mu = c.min_eigenvalue()
    thr = threshold(q)
    met = _pass_test(mu)(q)
    borderline = abs(mu - thr) < BORDERLINE_TOL
    lower = building_cosine_lower_bound(c, q)
    lower_min = _lower_bound_scale(q) * (mu - thr)
    coxeter_class = classify_coxeter(cox, c)

    verdicts = [
        DegreeVerdict(
            kind=kind,
            degree=k,
            statement=statement.format(k=k),
            asserted=met,
            hypotheses=tuple(h.format(n=n, q1=q + 1) for h in hypotheses),
            unverified_hypotheses=tuple(h.format(k=k) for h in unverified),
        )
        for kind, statement, hypotheses, unverified in _VERDICT_FAMILIES
        if kind != "group_cohomology_affine" or coxeter_class == "affine"
        for k in range(1, n)
    ]

    classical = 1764.0**n / 25.0
    notes = [
        "verdicts are statement templates backed by cited theory; "
        "no cohomology is computed here",
        f"the classical spectral-gap route would need thickness about (1/25)*1764^n "
        f"= {classical:.6g}; this criterion needs only {q + 1}",
    ]
    if borderline:
        notes.append(
            f"mu_tilde sits within {BORDERLINE_TOL:g} of the threshold; the strict "
            "comparison is numerically marginal"
        )
    return VanishingReport(
        coxeter_class=coxeter_class,
        building_dim=n,
        q=q,
        mu_tilde=mu,
        threshold_value=thr,
        criterion_met=met,
        borderline=borderline,
        lower_bound_matrix=lower,
        lower_bound_min_eig=lower_min,
        verdicts=tuple(verdicts),
        notes=tuple(notes),
    )
