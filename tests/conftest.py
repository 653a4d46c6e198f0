"""Shared helpers: fixture loading, seeded family generators, cycle
complexes, reference implementations of the complex checks (a per-facet
constructor, faces, stars, links and gallery connectivity by loops), the
Kassabov reduction that acceptance criterion 09 checks, JSON fuzz
strategies, and a terminal summary that prints one PASS/FAIL line per
acceptance criterion."""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import garland as g
from garland.complexes import PartiteComplex
from garland.coxeter import bfs_distances
from garland.errors import GarlandError, ValidationError
from garland.linalg import orthonormalize
from garland.subspaces import CosineMatrix, Subspace, SubspaceFamily

FIXTURES = Path(__file__).parent / "fixtures"


# the Coxeter fixtures of the report corpus, by file stem
COXETER_FIXTURES = (
    "a2", "a3", "affine_a2", "affine_a3", "affine_c2", "affine_g2",
    "b2", "b3", "g2", "h3", "hyperbolic_rank4", "infinite_dihedral",
)


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load_fixture(name: str):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def random_family(seed: int, ambient_dim: int, n: int, member_dims) -> SubspaceFamily:
    """Seeded family of orthonormalized standard Gaussian frames.

    Draws whose frames come out rank-deficient are redrawn from the next
    derived seed, so the result is deterministic in `seed` and always has the
    requested member dimensions.
    """
    dims = list(member_dims)
    if n < 0 or len(dims) != n + 1:
        raise ValidationError(f"member_dims must list n+1 = {n + 1} dimensions")
    if ambient_dim < 1:
        raise ValidationError("ambient dimension must be at least 1")
    for k in dims:
        if not 0 <= k <= ambient_dim:
            raise ValidationError(f"member dimension {k} infeasible in R^{ambient_dim}")
    for attempt in range(64):
        rng = np.random.default_rng([int(seed), attempt])
        members = []
        for k in dims:
            frame = rng.standard_normal((k, ambient_dim))
            basis, rank = orthonormalize(frame, ambient_dim=ambient_dim)
            if rank != k:
                members = None
                break
            members.append(Subspace(ambient_dim, basis))
        if members is not None:
            return SubspaceFamily(ambient_dim, tuple(members))
    raise ValidationError("could not draw a full-rank family (implausible for Gaussian frames)")


# shapes with a usable acceptance rate under the positive-definite filter
PD_SHAPES = (
    (12, 3, (1, 1, 1, 1)),
    (12, 2, (2, 2, 1)),
    (11, 3, (2, 1, 1, 1)),
    (12, 2, (2, 1, 1)),
    (10, 3, (1, 1, 1, 1)),
    (12, 1, (4, 4)),
    (10, 2, (2, 2, 2)),
    (12, 2, (3, 2, 1)),
)


def pd_families(count: int, seed0: int = 0):
    """Seeded families rejection-filtered to a positive-definite cosine matrix."""
    out = []
    seed = seed0
    shape = 0
    while len(out) < count:
        ambient, n, dims = PD_SHAPES[shape % len(PD_SHAPES)]
        shape += 1
        fam = random_family(seed, ambient, n, dims)
        seed += 1
        cm = g.cosine_matrix_of_family(fam)
        if g.classify_definiteness(cm.matrix).is_positive_definite:
            out.append((fam, cm))
    return out


def intersecting_family(seed: int, ambient_dim: int, n: int, extra_dims) -> g.SubspaceFamily:
    """Family where V_i and V_n share the designed core line c_i for i < n.

    V_n is the span of all n core vectors; member i is c_i plus extra_dims[i]
    random directions, so every intersection with V_n is at least a line.
    """
    rng = np.random.default_rng([seed, 77])
    cores = rng.standard_normal((n, ambient_dim))
    members = []
    for i in range(n):
        rows = [cores[i]]
        if extra_dims[i]:
            rows.extend(rng.standard_normal((extra_dims[i], ambient_dim)))
        members.append(g.Subspace.from_spanning(ambient_dim, np.vstack(rows)))
    members.append(g.Subspace.from_spanning(ambient_dim, cores))
    return g.SubspaceFamily(ambient_dim, tuple(members))


def cycle_complex(length: int) -> PartiteComplex:
    """Even cycle as a 1-dimensional 2-partite complex (types alternate)."""
    if length < 4 or length % 2:
        raise ValidationError("cycle length must be even and at least 4")
    vt = {i: i % 2 for i in range(length)}
    facets = tuple(frozenset((i, (i + 1) % length)) for i in range(length))
    return PartiteComplex(vt, facets)


def facet_array_by_facets(vertex_types, facets) -> np.ndarray:
    """The facet array of `PartiteComplex(vertex_types, facets)` by one pass
    in facet order, which checks that each facet is new, declared, and holds
    one vertex of each type, so an error names the first bad facet."""
    vt = dict(vertex_types)
    facets = tuple(map(frozenset, facets))
    if not facets:
        raise ValidationError("a complex needs at least one facet")
    types = tuple(sorted(set(vt.values())))
    index = {v: i for i, v in enumerate(sorted(vt))}
    rows, seen = [], set()
    for f in facets:
        if f in seen:
            raise ValidationError(f"duplicate facet {sorted(f)}")
        seen.add(f)
        unknown = [v for v in f if v not in vt]
        if unknown:
            raise ValidationError(f"facet {sorted(f)} uses undeclared vertices {unknown}")
        if sorted(map(vt.__getitem__, f)) != list(types):
            raise ValidationError(
                f"facet {sorted(f)} must have exactly one vertex of each type "
                f"{list(types)}, got types {sorted(map(vt.__getitem__, f))}"
            )
        by_type = {vt[v]: index[v] for v in f}
        rows.append([by_type[t] for t in types])
    return np.array(rows, dtype=np.intp).reshape(len(facets), len(types))


def faces(x: PartiteComplex, types) -> dict[frozenset[int], list[int]]:
    """Each face of the given type set, mapped to the indices of its facets,
    the faces in order of their first facets."""
    keep = frozenset(types)
    kept = frozenset(v for v, t in x.vertex_types.items() if t in keep)
    groups: dict[frozenset[int], list[int]] = {}
    for idx, f in enumerate(x.facets):
        groups.setdefault(f & kept, []).append(idx)
    return groups


def star(x: PartiteComplex, sigma) -> list[int]:
    """Indices of the facets containing sigma, in facet order; empty when
    sigma is not a simplex."""
    s = frozenset(sigma)
    # no face has an undeclared vertex (type None) or two of one type
    return faces(x, {x.vertex_types.get(v) for v in s}).get(s, [])


def link_of(x: PartiteComplex, sigma) -> PartiteComplex:
    """Link of a simplex: faces disjoint from sigma whose union with it is in
    X, in the order of the facets of X they lie in."""
    s = frozenset(sigma)
    if not s:
        return x
    members = star(x, s)
    if not members:
        raise ValidationError(f"{sorted(s)} is not a simplex of the complex")
    link_facets = tuple(x.facets[idx] - s for idx in members)
    used = set().union(*link_facets)
    return PartiteComplex({v: x.vertex_types[v] for v in used}, link_facets)


def gallery_connected(x: PartiteComplex) -> bool:
    """Whether every facet is reachable through shared codimension-1 faces."""
    if x.n < 1:
        return True  # any two points meet in the empty simplex
    panels: list[list[list[int]]] = [[] for _ in x.facets]
    for ts in itertools.combinations(x.types, x.n):
        for members in faces(x, ts).values():
            for idx in members:
                panels[idx].append(members)
    reached = bfs_distances(0, lambda idx: itertools.chain.from_iterable(panels[idx]))
    return len(reached) == len(x.facets)


def dynkin(rank, edges):
    """The Coxeter matrix of rank `rank` with labels m_ij on `edges`, given as
    (i, j, m_ij), and 2 on every other pair."""
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, mij in edges:
        m[i][j] = m[j][i] = mij
    return g.CoxeterMatrix(rank=rank, m=tuple(map(tuple, m)))


def labelling(rank, labels):
    """The Coxeter matrix of rank `rank` with labels on the pairs i < j, in
    the order of itertools.combinations."""
    pairs = itertools.combinations(range(rank), 2)
    return dynkin(rank, [(i, j, mij) for (i, j), mij in zip(pairs, labels)])


def path(nodes, label=3):
    """The edges (i, j, label) joining neighbours of a sequence of nodes."""
    return tuple((i, j, label) for i, j in zip(nodes, nodes[1:]))


def chain(*labels):
    """The path diagram on nodes 0 .. len(labels) with edge k labelled labels[k]."""
    return dynkin(len(labels) + 1, tuple((k, k + 1, m) for k, m in enumerate(labels)))


H4 = chain(5, 3, 3)
E6 = dynkin(6, ((0, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (1, 3, 3)))
E7 = dynkin(7, ((0, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (1, 3, 3)))
E8 = dynkin(8, ((0, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (6, 7, 3), (1, 3, 3)))

# every irreducible spherical type up to rank 8, with I2(m) for some m, and
# the degrees of its basic invariants (Humphreys, Reflection Groups and
# Coxeter Groups, section 3.7, Table 3.1); the largest degree is the Coxeter
# number h and the exponents are the degrees less 1
IRREDUCIBLE = {
    **{f"A{n}": (chain(*(3,) * (n - 1)), tuple(range(2, n + 2))) for n in range(1, 9)},
    **{f"B{n}": (chain(4, *(3,) * (n - 2)), tuple(range(2, 2 * n + 1, 2))) for n in range(2, 9)},
    **{
        f"D{n}": (dynkin(n, path(range(n - 1)) + ((n - 3, n - 1, 3),)), (*range(2, 2 * n - 1, 2), n))
        for n in range(4, 9)
    },
    "E6": (E6, (2, 5, 6, 8, 9, 12)),
    "E7": (E7, (2, 6, 8, 10, 12, 14, 18)),
    "E8": (E8, (2, 8, 12, 14, 18, 20, 24, 30)),
    "F4": (chain(3, 4, 3), (2, 6, 8, 12)),
    "H3": (chain(5, 3), (2, 6, 10)),
    "H4": (H4, (2, 12, 20, 30)),
    **{f"I2({m})": (chain(m), (2, m)) for m in (5, 7, 8, 12, 100)},
}

# the irreducible affine types up to rank 9 (Humphreys, section 4.7): X~n
# has rank n + 1
AFFINE = {
    **{f"A~{n}": dynkin(n + 1, path((*range(n + 1), 0))) for n in range(2, 9)},
    **{
        f"B~{n}": dynkin(n + 1, ((0, 2, 3), *path(range(1, n)), (n - 1, n, 4)))
        for n in range(3, 9)
    },
    **{f"C~{n}": chain(4, *(3,) * (n - 2), 4) for n in range(2, 9)},
    **{
        f"D~{n}": dynkin(n + 1, ((0, 2, 3), *path(range(1, n)), (n - 2, n, 3)))
        for n in range(4, 9)
    },
    "E~6": dynkin(7, path(range(5)) + ((2, 5, 3), (5, 6, 3))),
    "E~7": dynkin(8, path(range(7)) + ((3, 7, 3),)),
    "E~8": dynkin(9, path(range(8)) + ((2, 8, 3),)),
    "F~4": chain(3, 3, 4, 3),
    "G~2": chain(3, 6),
}


class SingularityError(GarlandError, ArithmeticError):
    """A denominator that must stay away from zero reached it."""


def kassabov_delta(l12: float, l13: float, l23: float) -> float:
    """Bound on the angle cosine of (V1 cut with V3, V2 cut with V3).

    delta = (l12 + l13*l23) / (sqrt(1 - l13^2) * sqrt(1 - l23^2)), where the
    l's are pairwise angle cosines.  l13 and l23 must stay below 1.
    """
    for name, value in (("l12", l12), ("l13", l13), ("l23", l23)):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    if l13 == 1.0 or l23 == 1.0:
        raise SingularityError("kassabov_delta denominator vanishes at cosine 1")
    return (l12 + l13 * l23) / (math.sqrt(1.0 - l13 * l13) * math.sqrt(1.0 - l23 * l23))


def kassabov_reduced(a: CosineMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce an (n+1)x(n+1) cosine matrix to the n-subspace matrix A'.

    Reading lambda_ij = -A[i][j], the reduced matrix has unit diagonal and
    off-diagonal entries -delta_ij with delta_ij = kassabov_delta applied to
    (lambda_ij, lambda_in, lambda_jn).  Also returns the unscaled form A''
    (diagonal 1 - lambda_in^2, off-diagonal -(lambda_ij + lambda_in*lambda_jn))
    and the diagonal scaling D with D_ii = 1/sqrt(1 - lambda_in^2), so that
    A' = D A'' D holds exactly.
    """
    if not isinstance(a, CosineMatrix):
        a = CosineMatrix(np.asarray(a, dtype=float))
    m = a.matrix
    n = m.shape[0] - 1
    if n < 1:
        raise ValidationError("reduction needs at least a 2x2 cosine matrix")
    lam = -m
    lam_last = lam[:n, n]
    if np.any(lam_last >= 1.0):
        raise SingularityError("reduction undefined: some angle cosine with V_n equals 1")
    scale = 1.0 / np.sqrt(1.0 - lam_last**2)
    a_prime = np.eye(n)
    a_dprime = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                a_dprime[i, j] = 1.0 - lam_last[i] ** 2
            else:
                a_dprime[i, j] = -(lam[i, j] + lam_last[i] * lam_last[j])
                a_prime[i, j] = -kassabov_delta(lam[i, j], lam_last[i], lam_last[j])
    return a_prime, a_dprime, np.diag(scale)


# JSON-shaped values for loader fuzzing; the integers past the float range
# probe every place a loader hands a JSON integer on as a float
json_scalars = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.booleans(),
)
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_outcomes[name] = report.outcome
    elif report.outcome != "passed" and name not in _acceptance_outcomes:
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
