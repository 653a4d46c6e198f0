"""Coxeter matrices, their cosine matrices, group enumeration, and complexes.

A Coxeter matrix of rank r describes generators s_0, ..., s_{r-1} with
relations (s_i s_j)^{m[i][j]} = 1; the cosine matrix has entries
-cos(pi / m[i][j]) with the convention that an infinite label gives -1.
Finite systems are enumerated through the geometric representation, where
generator s acts on R^r by x -> x - 2 B(x, e_s) e_s with bilinear form B
given by the cosine matrix; the enumerated chambers assemble into the
associated partite simplicial complex via maximal-parabolic cosets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .complexes import (
    ComplexCosineReport,
    PartiteComplex,
    bfs_distances,
    cosine_matrix_of_complex,
    is_cycle,
    link_graph,
    link_of,
)
from .errors import GroupEnumerationError, InputFormatError, ValidationError
from .linalg import classify_definiteness
from .subspaces import CosineMatrix

DEFAULT_GROUP_CAP = 10_000
DEDUP_GRID = 1e-9


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric table of relation orders: 1 on the diagonal, >= 2 or inf off it."""

    rank: int
    m: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError("rank must be at least 1")
        rows = tuple(tuple(row) for row in self.m)
        if len(rows) != self.rank or any(len(r) != self.rank for r in rows):
            raise ValidationError(f"m must be a {self.rank}x{self.rank} table")
        normalized = []
        for i, row in enumerate(rows):
            out = []
            for j, raw in enumerate(row):
                if raw != math.inf:
                    if raw != int(raw):
                        raise ValidationError(f"m[{i}][{j}] = {raw} is not an integer or inf")
                    raw = int(raw)
                if i == j:
                    if raw != 1:
                        raise ValidationError(f"m[{i}][{i}] must be 1, got {raw}")
                elif raw != math.inf and raw < 2:
                    raise ValidationError(f"m[{i}][{j}] must be >= 2 or inf, got {raw}")
                out.append(raw)
            normalized.append(tuple(out))
        for i in range(self.rank):
            for j in range(self.rank):
                if normalized[i][j] != normalized[j][i]:
                    raise ValidationError(f"m table is not symmetric at ({i},{j})")
        object.__setattr__(self, "m", tuple(normalized))

    def entry(self, i: int, j: int):
        return self.m[i][j]


def load_coxeter_matrix(data) -> CoxeterMatrix:
    """Build a CoxeterMatrix from a dict with rank and m (null meaning inf)."""
    if not isinstance(data, dict):
        raise InputFormatError("coxeter document must be a mapping")
    try:
        rank = int(data["rank"])
    except (KeyError, TypeError, ValueError):
        raise InputFormatError("coxeter document needs an integer field 'rank'") from None
    table = data.get("m")
    if not isinstance(table, list):
        raise InputFormatError("coxeter document needs a list-of-lists field 'm'")
    rows = []
    for i, row in enumerate(table):
        if not isinstance(row, list):
            raise InputFormatError(f"m[{i}] must be a list")
        for j, v in enumerate(row):
            # JSON true/false load as bool, which Python counts as int
            if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
                raise InputFormatError(f"m[{i}][{j}] must be an integer or null, got {v!r}")
        rows.append(tuple(math.inf if v is None else v for v in row))
    try:
        return CoxeterMatrix(rank=rank, m=tuple(rows))
    except ValidationError as exc:
        raise InputFormatError(str(exc)) from None


def coxeter_cosine(cox: CoxeterMatrix) -> CosineMatrix:
    """Cosine matrix: -cos(pi/m[i][j]), with inf giving -1 and the diagonal 1."""
    r = cox.rank
    c = np.eye(r)
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            mij = cox.m[i][j]
            if mij == math.inf:
                c[i, j] = -1.0
            elif mij == 2:
                c[i, j] = 0.0
            else:
                c[i, j] = -math.cos(math.pi / mij)
    return CosineMatrix(c)


def classify_coxeter(cox: CoxeterMatrix) -> str:
    """Classify as spherical, affine, or other, from the cosine matrix spectrum.

    Spherical means positive definite.  Affine means positive semidefinite of
    corank 1 with every proper principal submatrix positive definite, which
    rules reducible semidefinite tables out.  Everything else is other.
    """
    c = coxeter_cosine(cox).matrix
    cls = classify_definiteness(c)
    if cls.is_positive_definite:
        return "spherical"
    if cls.is_positive_semidefinite and cls.corank == 1:
        for drop in range(cox.rank):
            keep = [i for i in range(cox.rank) if i != drop]
            sub = c[np.ix_(keep, keep)]
            if not classify_definiteness(sub).is_positive_definite:
                return "other"
        return "affine"
    return "other"


def generator_matrices(cox: CoxeterMatrix) -> tuple[np.ndarray, ...]:
    """Geometric-representation matrices sigma_s = I - 2 e_s (row s of the form)."""
    c = coxeter_cosine(cox).matrix
    gens = []
    for s in range(cox.rank):
        g = np.eye(cox.rank)
        g[s, :] -= 2.0 * c[s, :]
        gens.append(g)
    return tuple(gens)


def _grid_key(matrix: np.ndarray) -> bytes:
    return np.round(matrix / DEDUP_GRID).astype(np.int64).tobytes()


@dataclass(frozen=True)
class EnumeratedGroup:
    """Group elements as representation matrices, with per-generator adjacency."""

    rank: int
    elements: tuple[np.ndarray, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def enumerate_group(cox: CoxeterMatrix, cap: int = DEFAULT_GROUP_CAP) -> EnumeratedGroup:
    """Breadth-first closure of the generators in the geometric representation.

    Elements are deduplicated by rounding matrix entries to a 1e-9 grid; the
    entries are cosines of small algebraic degree, so at the group orders in
    scope the accumulated arithmetic error stays far below the grid.  Raises
    when more than `cap` distinct elements appear.
    """
    if cap < 1:
        raise ValidationError("cap must be at least 1")
    gens = generator_matrices(cox)
    identity = np.eye(cox.rank)
    elements = [identity]
    index = {_grid_key(identity): 0}
    adjacency: list[list[int]] = [[-1] * cox.rank]
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for s in range(cox.rank):
            if adjacency[cur][s] != -1:
                continue
            neighbor = elements[cur] @ gens[s]
            key = _grid_key(neighbor)
            nxt = index.get(key)
            if nxt is None:
                if len(elements) >= cap:
                    raise GroupEnumerationError(
                        f"group not enumerated (likely infinite): more than {cap} elements"
                    )
                nxt = len(elements)
                elements.append(neighbor)
                index[key] = nxt
                adjacency.append([-1] * cox.rank)
                queue.append(nxt)
            adjacency[cur][s] = nxt
            adjacency[nxt][s] = cur
    return EnumeratedGroup(
        rank=cox.rank,
        elements=tuple(elements),
        adjacency=tuple(tuple(row) for row in adjacency),
    )


@dataclass(frozen=True)
class CoxeterComplex:
    """The chamber complex of a finite system: facets are group elements."""

    matrix: CoxeterMatrix
    group: EnumeratedGroup
    complex: PartiteComplex


def build_coxeter_complex(cox: CoxeterMatrix, cap: int = DEFAULT_GROUP_CAP) -> CoxeterComplex:
    """Assemble the partite complex whose type-i vertices are cosets of the
    parabolic subgroup generated by all reflections except s_i."""
    group = enumerate_group(cox, cap=cap)
    r = cox.rank
    count = group.order
    adjacency = group.adjacency
    vertex_types: dict[int, int] = {}
    coset_of: list[list[int]] = []
    next_id = 0
    for omitted in range(r):
        kept = [s for s in range(r) if s != omitted]
        label = [-1] * count
        for start in range(count):
            if label[start] != -1:
                continue
            for w in bfs_distances(start, lambda w: [adjacency[w][s] for s in kept]):
                label[w] = next_id
            vertex_types[next_id] = omitted
            next_id += 1
        coset_of.append(label)
    facets = tuple(
        frozenset(coset_of[i][w] for i in range(r)) for w in range(count)
    )
    return CoxeterComplex(
        matrix=cox,
        group=group,
        complex=PartiteComplex(vertex_types, facets),
    )


@dataclass(frozen=True)
class LinkCycleCheck:
    """Whether every link of one type pair is a cycle of the expected length."""

    expected_length: int
    observed_lengths: tuple[int, ...]
    all_cycles: bool

    @property
    def ok(self) -> bool:
        return self.all_cycles and all(
            length == self.expected_length for length in self.observed_lengths
        )


@dataclass(frozen=True)
class CosineAgreementReport:
    cosine_matrix: CosineMatrix
    complex_report: ComplexCosineReport
    max_deviation: float
    link_checks: dict[tuple[int, int], LinkCycleCheck]

    @property
    def links_ok(self) -> bool:
        return all(check.ok for check in self.link_checks.values())


def coxeter_complex_cosine_check(
    cox: CoxeterMatrix, cap: int = DEFAULT_GROUP_CAP
) -> CosineAgreementReport:
    """Compare the cosine matrix of the generated complex with the one computed
    directly from the relation orders, and verify the rank-2 links.

    Each link of a codimension-2 simplex of cotype {i, j} must be a cycle of
    length 2 m[i][j], so its walk eigenvalue is cos(pi / m[i][j]) and the two
    matrices agree entrywise.
    """
    built = build_coxeter_complex(cox, cap=cap)
    direct = coxeter_cosine(cox)
    report = cosine_matrix_of_complex(built.complex)
    deviation = float(np.max(np.abs(report.matrix.matrix - direct.matrix)))
    x = built.complex
    link_checks: dict[tuple[int, int], LinkCycleCheck] = {}
    for i in range(cox.rank):
        for j in range(i + 1, cox.rank):
            lengths = []
            cycles = True
            for sigma in sorted(x.faces(t for t in x.types if t not in (i, j)), key=sorted):
                g = link_graph(link_of(x, sigma))
                lengths.append(len(g.vertex_ids))
                cycles = cycles and is_cycle(g)
            link_checks[(i, j)] = LinkCycleCheck(
                expected_length=2 * cox.m[i][j],
                observed_lengths=tuple(lengths),
                all_cycles=cycles,
            )
    return CosineAgreementReport(
        cosine_matrix=direct,
        complex_report=report,
        max_deviation=deviation,
        link_checks=link_checks,
    )
