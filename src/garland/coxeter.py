"""Coxeter matrices, their cosine matrices, group enumeration, and complexes.

A Coxeter matrix of rank r describes generators s_0, ..., s_{r-1} with
relations (s_i s_j)^{m[i][j]} = 1; the cosine matrix has entries
-cos(pi / m[i][j]) with the convention that an infinite label gives -1.
In the geometric representation generator s acts on R^r by
x -> x - 2 B(x, e_s) e_s, with bilinear form B given by the cosine matrix.
A finite W permutes its finite root system, the orbit of the simple roots
e_0, ..., e_{r-1}, faithfully.  The roots are generated once, in floating
point, with every match checked against the smallest distance between two
roots; from then on each element is a row of integer root indices, so
composition and deduplication are exact.  The enumerated chambers assemble
into the associated partite simplicial complex via maximal-parabolic cosets.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .complexes import (
    ComplexCosineReport,
    PartiteComplex,
    _json_int,
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
# Roots are matched within ROOT_MATCH_TOL, and distinct roots must lie at
# least ROOT_SEPARATION_FACTOR times that apart; on A3..E6 and H4 they are at
# least 2 - sqrt(2) = 0.586 apart, and matches lie within 1e-14.
ROOT_MATCH_TOL = 1e-9
ROOT_SEPARATION_FACTOR = 1e3


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
    if "rank" not in data:
        raise InputFormatError("coxeter document needs an integer field 'rank'")
    rank = _json_int(data["rank"], "rank")
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


@dataclass(frozen=True)
class RootSystem:
    """The roots of a finite system, with each generator as a root permutation.

    `vectors[k]` is root k in the basis of simple roots, which sit at indices
    0 .. rank-1; `permutations[s][k]` is the index of s(root k).  The two
    margins certify the matching: every generator image lay within
    `match_distance` of its root, and distinct roots are `separation` apart.
    """

    vectors: np.ndarray
    permutations: tuple[tuple[int, ...], ...]
    match_distance: float
    separation: float


def root_system(cox: CoxeterMatrix, cap: int = DEFAULT_GROUP_CAP) -> RootSystem:
    """Orbit of the simple roots under the generators of the geometric
    representation, matched by nearest root within ROOT_MATCH_TOL.

    |Phi| <= |W| for every finite W, so an orbit that grows past `cap` roots
    means a group of more than `cap` elements, finite or not.
    Raises unless distinct roots are at least ROOT_SEPARATION_FACTOR times
    the tolerance apart, so that no match can be ambiguous.
    """
    if cap < 1:
        raise ValidationError("cap must be at least 1")
    r = cox.rank
    # generator s changes only coordinate s, to row s of its matrix dotted
    # with the root
    rows = [gen[s].tolist() for s, gen in enumerate(generator_matrices(cox))]
    vectors = [tuple(row) for row in np.eye(r).tolist()]
    # roots in order of length: a root within the tolerance of an image has
    # a length within the tolerance of the image's, so only that window of
    # this list is searched
    by_length = sorted((math.hypot(*v), k) for k, v in enumerate(vectors))
    permutations: list[list[int]] = [[] for _ in range(r)]
    match_distance = 0.0
    # first in, first out: `vectors` is the breadth-first queue, so the
    # images of root k are matched, and appended to the permutations, k-th
    for root in vectors:
        for s, row in enumerate(rows):
            image = root[:s] + (sum(a * b for a, b in zip(row, root)),) + root[s + 1:]
            length = math.hypot(*image)
            lo = bisect.bisect_left(by_length, (length - ROOT_MATCH_TOL,))
            hi = bisect.bisect_right(by_length, (length + ROOT_MATCH_TOL, math.inf))
            distance, nearest = min(
                ((math.dist(vectors[j], image), j) for _, j in by_length[lo:hi]),
                default=(math.inf, -1),
            )
            if distance <= ROOT_MATCH_TOL:
                match_distance = max(match_distance, distance)
            else:
                if len(vectors) >= cap:
                    raise GroupEnumerationError(
                        f"group not enumerated: its root orbit passed {cap} roots, "
                        f"so it has more than {cap} elements"
                    )
                nearest = len(vectors)
                vectors.append(image)
                bisect.insort(by_length, (length, nearest))
            permutations[s].append(nearest)
    count = len(vectors)
    vectors = np.array(vectors)
    separation = min(
        float(np.min(np.linalg.norm(vectors[i + 1:] - vectors[i], axis=1)))
        for i in range(count - 1)
    )
    if separation < ROOT_SEPARATION_FACTOR * ROOT_MATCH_TOL:
        raise GroupEnumerationError(
            f"roots not well separated: two of the {count} roots lie {separation:.3g} "
            f"apart against a matching tolerance of {ROOT_MATCH_TOL:g}"
        )
    return RootSystem(
        vectors=vectors,
        permutations=tuple(tuple(perm) for perm in permutations),
        match_distance=match_distance,
        separation=separation,
    )


@dataclass(frozen=True)
class EnumeratedGroup:
    """Group elements as rows of root indices, with per-generator adjacency.

    `elements[i][j]` is the index, in `root_system(...).vectors`, of the image
    of simple root j under element i.  The simple roots are a basis, so the
    row fixes the element and its whole root permutation, and two elements
    are equal exactly when their integer rows are.  `adjacency[i][s] = j`
    means element j is s composed with element i.  Element i is the inverse
    of the i-th element that the closure by right multiplication w -> w s
    finds, so `adjacency` is the same table either way.  The two root
    margins are those of `RootSystem`.
    """

    rank: int
    elements: tuple[bytes, ...]
    adjacency: tuple[tuple[int, ...], ...]
    root_match_distance: float
    root_separation: float

    @property
    def order(self) -> int:
        return len(self.elements)


def enumerate_group(cox: CoxeterMatrix, cap: int = DEFAULT_GROUP_CAP) -> EnumeratedGroup:
    """Breadth-first closure of the generators acting on the root system.

    W acts faithfully on its finite root system (Humphreys, Reflection Groups
    and Coxeter Groups, section 5.4), so composition is exact on root
    indices: the row of s w is `row.translate(table_s)`, and deduplication
    is a dict lookup on the row.  Raises when the roots do not close within
    `cap`, and, for a finite group, when more than `cap` elements appear or
    there are more roots than a byte can index.
    """
    roots = root_system(cox, cap=cap)
    count = len(roots.vectors)
    if count > 256:
        raise GroupEnumerationError(
            f"group is finite but not enumerated: its {count} roots are more than "
            "the 256 a byte row can index"
        )
    r = cox.rank
    tables = [bytes(perm) + bytes(256 - count) for perm in roots.permutations]
    identity = bytes(range(r))
    elements = [identity]
    index = {identity: 0}
    # first in, first out: `elements` is the breadth-first queue, and element
    # i's neighbor under s lands at i * r + s of this flat list
    adjacency: list[int] = []
    for row in elements:
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
            adjacency.append(nxt)
    return EnumeratedGroup(
        rank=r,
        elements=tuple(elements),
        adjacency=tuple(
            tuple(adjacency[i : i + r]) for i in range(0, len(adjacency), r)
        ),
        root_match_distance=roots.match_distance,
        root_separation=roots.separation,
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
