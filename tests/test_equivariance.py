"""Equivariance: a report depends on the object, not on how its document
lists it.

Renumbering the generators of a Coxeter system permutes its cosine matrix
by the same permutation, so its spectrum, class label, least passing
thickness and every verdict are unchanged; only the bits of mu may move,
since the eigensolver sees the entries in another order.
"""

from __future__ import annotations

import random

import numpy as np

import garland as g
from garland.criterion import _pass_test

LABELS = (2, 3, 4, 6, 8)  # the orders a thick building's rank-2 residues allow
QS = range(2, 9)
SAMPLE = 2000
MU_TOL = 1e-14


def random_system(rng: random.Random) -> g.CoxeterMatrix:
    rank = rng.choice((3, 4))
    m = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            m[i][j] = m[j][i] = rng.choice(LABELS)
    return g.CoxeterMatrix(rank=rank, m=m)


def renumbered(cox: g.CoxeterMatrix, perm: list[int]) -> g.CoxeterMatrix:
    """The system whose generator i is generator perm[i] of `cox`."""
    return g.CoxeterMatrix(rank=cox.rank, m=[[cox.m[a][b] for b in perm] for a in perm])


def verdicts(cox: g.CoxeterMatrix, report_q: int):
    """The cosine matrix, mu, and what must not move: the class label, the
    least passing q, and `criterion_met` for each q in QS.

    `criterion_met` is the report's exact test `_pass_test(mu)(q)`; one full
    `vanishing_report`, at `report_q`, is checked to read the same, which
    keeps the sample within the tier-1 budget.
    """
    c = g.coxeter_cosine(cox)
    mu = c.min_eigenvalue()
    met = tuple(map(_pass_test(mu), QS))
    assert g.vanishing_report(cox, report_q, c).criterion_met == met[report_q - QS[0]]
    return c.matrix, mu, (g.classify_coxeter(cox, c), g.min_thickness(mu), met)


def test_renumbered_generators_give_the_same_verdicts():
    # 2000 pairs take about 0.7 s on a 2-CPU machine
    rng = random.Random(36)
    for _ in range(SAMPLE):
        cox = random_system(rng)
        perm = rng.sample(range(cox.rank), cox.rank)
        q = rng.choice(QS)
        matrix, mu, exact = verdicts(cox, q)
        moved_matrix, moved_mu, moved_exact = verdicts(renumbered(cox, perm), q)
        assert np.array_equal(moved_matrix, matrix[np.ix_(perm, perm)]), (cox.m, perm)
        assert moved_exact == exact, (cox.m, perm)
        assert abs(moved_mu - mu) <= MU_TOL, (cox.m, perm)
