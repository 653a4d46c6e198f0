"""Eigensolver, definiteness classification, and orthonormalization tests.

`sym_eigs` is a validated seam over LAPACK (numpy's eigvalsh), so a
comparison with np.linalg.eigvalsh checks validation and ordering only.  The
independent oracles are closed-form spectra: the A_n Coxeter cosine matrix,
the random walk on an even cycle, and an intersection whose answer is known.
"""

from __future__ import annotations

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import garland as g
from garland import linalg
from garland.errors import ValidationError
from garland.linalg import (
    as_symmetric,
    classify_definiteness,
    max_abs,
    orthonormalize,
    sym_eigs,
)

from conftest import cycle_complex


def random_symmetric(rng, k, scale=1.0):
    m = rng.standard_normal((k, k)) * scale
    return (m + m.T) / 2.0


def test_sym_eigs_hand_example():
    eigs = sym_eigs(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    assert np.allclose(eigs, [0.5, 1.5], atol=1e-14)


def test_sym_eigs_matches_eigh_across_sizes():
    rng = np.random.default_rng(42)
    for k in (1, 2, 3, 5, 8, 13, 24):
        for scale in (1.0, 1e-6, 1e6):
            m = random_symmetric(rng, k, scale)
            ours = sym_eigs(m)
            oracle = np.linalg.eigvalsh(m)
            assert max_abs(ours - oracle) <= 1e-10 * max(1.0, max_abs(m))


def a_n(n):
    m = [[1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(n)] for i in range(n)]
    return g.CoxeterMatrix(rank=n, m=tuple(map(tuple, m)))


@pytest.mark.parametrize("n", range(1, 9))
def test_sym_eigs_a_n_cosine_matrix_closed_form(n):
    # tridiagonal with 1 on the diagonal and -1/2 beside it
    expected = [1.0 - math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)]
    eigs = sym_eigs(g.coxeter_cosine(a_n(n)).matrix)
    assert max_abs(eigs - expected) <= 1e-14


@pytest.mark.parametrize("length", range(4, 13, 2))
def test_sym_eigs_cycle_walk_closed_form(length):
    cycle = cycle_complex(length)
    walk = np.zeros((length, length))
    for edge in cycle.facets:
        a, b = tuple(edge)
        walk[a, b] = walk[b, a] = 0.5  # every vertex has degree 2
    expected = sorted(math.cos(2 * math.pi * k / length) for k in range(length))
    assert max_abs(sym_eigs(walk) - expected) <= 1e-14
    (spec,) = g.cosine_matrix_of_complex(cycle).per_pair.values()
    assert abs(spec.second_eigenvalue - math.cos(2 * math.pi / length)) <= 1e-14


def test_intersect_recovers_a_shared_plane():
    # for orthonormal q, U = span(q0, q1, q2) and V = span(q0, q1, q3) share
    # the plane span(q0, q1): two principal cosines of U against V are 1,
    # and a random q keeps their principal vectors off the axes
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    u = g.Subspace.from_spanning(4, (q[:, [0, 1, 2]] @ rng.standard_normal((3, 3))).T)
    v = g.Subspace.from_spanning(4, (q[:, [0, 1, 3]] @ rng.standard_normal((3, 3))).T)
    meet = g.intersect(u, v)
    plane = q[:, :2]
    assert meet.dim == 2
    assert max_abs(meet.basis @ meet.basis.T - plane @ plane.T) <= 1e-12


def test_sym_eigs_sorted_ascending():
    rng = np.random.default_rng(3)
    eigs = sym_eigs(random_symmetric(rng, 12))
    assert np.all(np.diff(eigs) >= 0)


def test_as_symmetric_rejects_asymmetry():
    with pytest.raises(ValidationError):
        as_symmetric(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValidationError):
        as_symmetric(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValidationError):
        as_symmetric(np.ones((2, 3)))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_sym_eigs_on_a_stack_equals_the_per_slice_calls(n):
    rng = np.random.default_rng(n)
    stack = np.array([random_symmetric(rng, n) for _ in range(3)])
    values = sym_eigs(stack)
    assert values.shape == (3, n)
    for k in range(3):
        assert np.array_equal(values[k], sym_eigs(stack[k]))


def test_stack_checks_every_slice():
    rng = np.random.default_rng(7)
    stack = np.array([random_symmetric(rng, 3) for _ in range(3)])
    asymmetric = stack.copy()
    asymmetric[1, 0, 2] += 1e-6
    nonfinite = stack.copy()
    nonfinite[2, 1, 1] = np.inf
    with pytest.raises(ValidationError, match="not symmetric"):
        sym_eigs(asymmetric)
    with pytest.raises(ValidationError, match="finite"):
        sym_eigs(nonfinite)
    with pytest.raises(ValidationError, match="square"):
        sym_eigs(np.zeros((3, 2, 3)))
    with pytest.raises(ValidationError, match="at least one matrix"):
        sym_eigs(np.zeros((0, 3, 3)))
    with pytest.raises(ValidationError, match="at least 1"):
        sym_eigs(np.zeros((3, 0, 0)))


def test_one_matrix_callers_refuse_a_stack():
    stack = np.array([np.eye(2)] * 3)
    with pytest.raises(ValidationError, match="stack"):
        classify_definiteness(stack)
    with pytest.raises(ValidationError, match="stack"):
        g.CosineMatrix(stack)


def test_classify_definiteness_hand_cases():
    assert classify_definiteness(np.diag([2.0, 3.0])).kind == "positive_definite"
    psd = classify_definiteness(np.ones((2, 2)))
    assert psd.kind == "positive_semidefinite"
    assert psd.corank == 1
    assert classify_definiteness(np.diag([1.0, -1.0])).kind == "indefinite"
    assert classify_definiteness(np.zeros((3, 3))).corank == 3


def test_classify_definiteness_solves_through_sym_eigs(monkeypatch):
    # one `sym_eigs` call, and the one LAPACK solve happens inside it
    solves, entered = [], []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a) or eigvalsh(a))

    def counted(matrix):
        entered.append(len(solves))
        return sym_eigs(matrix)

    monkeypatch.setattr(linalg, "sym_eigs", counted)
    assert classify_definiteness([[2.0, -1.0], [-1.0, 2.0]]).is_positive_definite
    assert entered == [0]
    assert len(solves) == 1


def test_classify_definiteness_agrees_with_cholesky():
    # Cholesky succeeds exactly on numerically positive definite input
    rng = np.random.default_rng(11)
    for trial in range(40):
        k = int(rng.integers(2, 8))
        b = rng.standard_normal((k, k + 2))
        m = b @ b.T
        if trial % 3 == 0:
            # rank-deficient variant
            b[:, :] = 0.0
            b[:, 0] = rng.standard_normal(k)
            m = b @ b.T
        verdict = classify_definiteness(m)
        try:
            np.linalg.cholesky(m - 1e-9 * max(1.0, max_abs(m)) * np.eye(k))
            chol_pd = True
        except np.linalg.LinAlgError:
            chol_pd = False
        if chol_pd:
            assert verdict.is_positive_definite
        if verdict.is_positive_definite:
            np.linalg.cholesky(m)


def test_orthonormalize_basic():
    basis, rank = orthonormalize([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert rank == 2
    assert basis.shape == (3, 2)
    assert max_abs(basis.T @ basis - np.eye(2)) <= 1e-12


def test_orthonormalize_drops_dependent_vectors():
    basis, rank = orthonormalize([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    assert rank == 2
    _, rank_dup = orthonormalize([[1.0, 1.0], [1.0, 1.0]])
    assert rank_dup == 1


def test_orthonormalize_rejects_an_overflowing_norm():
    # 1e308 is finite but its square is not: the default rank_tol would be
    # infinite and drop the vector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="norm of vector 1 overflows"):
            orthonormalize([[1.0, 0.0], [1e308, 1e308]])


def test_orthonormalize_empty_needs_ambient_dim():
    basis, rank = orthonormalize([], ambient_dim=4)
    assert rank == 0
    assert basis.shape == (4, 0)
    with pytest.raises(ValidationError):
        orthonormalize([])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
def test_orthonormalize_spans_same_space(seed, count, dim):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, dim))
    basis, rank = orthonormalize(rows)
    assert rank == np.linalg.matrix_rank(rows, tol=1e-8)
    assert max_abs(basis.T @ basis - np.eye(rank)) <= 1e-10
    # each input row is reproduced by its projection onto the basis
    residual = rows.T - basis @ (basis.T @ rows.T)
    assert max_abs(residual) <= 1e-7 * max(1.0, max_abs(rows))


def test_matrix_leq():
    # entrywise order of cosine matrices orders their smallest eigenvalues
    a = np.array([[1.0, -0.5], [-0.5, 1.0]])
    b = np.array([[1.0, -0.25], [-0.25, 1.0]])
    assert np.all(a <= b)
    assert not np.all(b <= a)
    assert np.all(a <= a)
    assert abs(sym_eigs(a)[0] - 0.5) <= 1e-15
    assert abs(sym_eigs(b)[0] - 0.75) <= 1e-15


@pytest.mark.parametrize("complete", [False, True])
def test_left_singular_gives_each_matrix_of_a_stack_its_one_matrix_bits(complete):
    # the shapes of H_tau's coordinates against the stacked maximal H_eta:
    # square, wide and tall, and rank-deficient stacks with repeated columns
    rng = np.random.default_rng(21)
    for rows, cols in [(1, 1), (1, 3), (2, 2), (2, 4), (3, 2), (3, 6), (5, 4), (12, 11)]:
        stack = rng.standard_normal((6, rows, cols))
        stack[1] = np.repeat(stack[1][:, :1], cols, axis=1)
        stack[2, :, -1] = stack[2, :, 0]
        left, singular = linalg.left_singular(stack, complete=complete)
        assert left.shape == (6, rows, rows if complete else min(rows, cols))
        for k, matrix in enumerate(stack):
            one_left, one_singular = linalg.left_singular(matrix, complete=complete)
            assert np.array_equal(left[k], one_left)
            assert np.array_equal(singular[k], one_singular)


FACTORIZATIONS = {"svd", "eigh", "eigvalsh", "qr", "lstsq", "solve", "inv", "pinv", "cholesky"}


def numpy_factorizations(path: Path) -> list[str]:
    """`numpy.linalg` factorizations a module calls or imports by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in FACTORIZATIONS:
            owner = ast.unparse(node.value)
            if owner.split(".")[-1] == "linalg":
                found.append(f"{owner}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [a.name for a in node.names if a.name in FACTORIZATIONS or a.name == "*"]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"numpy.{a.name}" for a in node.names if a.name == "linalg"]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "numpy.linalg" and a.asname]
    return found


def test_only_linalg_factors_matrices_with_numpy():
    package = Path(g.__file__).parent
    calls = {path.name: numpy_factorizations(path) for path in sorted(package.glob("*.py"))}
    assert sorted(calls.pop("linalg.py")) == ["np.linalg.eigvalsh", "np.linalg.svd"]
    assert {name: found for name, found in calls.items() if found} == {}
