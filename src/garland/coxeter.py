"""Coxeter matrices, their cosine matrices, group enumeration, and complexes.

A Coxeter matrix of rank r describes generators s_0, ..., s_{r-1} with
relations (s_i s_j)^{m[i][j]} = 1; the cosine matrix has entries
-cos(pi / m[i][j]), so an infinite label gives -1.
In the geometric representation generator s acts on R^r by
x -> x - 2 B(x, e_s) e_s, with bilinear form B given by the cosine matrix.
A finite W permutes its finite root system, the orbit of the simple roots
e_0, ..., e_{r-1}, faithfully.  The roots are generated once, in exact
arithmetic: a rank-1 or finite rank-2 component numbers its roots
cyclically, and any other component gives them integer coordinates over
Z[phi]; from then on each element is a row of integer root indices, so
composition and deduplication are exact.  The group is closed one length
layer at a time, with numpy arrays for the elements, the generator
adjacency and the Coxeter lengths.  Since l(s w) = l(w) +- 1, a layer's
descents are read off the layer below, and only its ascents are imaged;
one stable lexsort of the image rows finds the new elements.  The enumerated
chambers assemble into the associated partite simplicial complex via
maximal-parabolic cosets, each labelled by its smallest element.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .complexes import (
    ComplexCosineReport,
    PartiteComplex,
    _json_int,
    cosine_matrix_of_complex,
)
from .errors import GroupEnumerationError, InputFormatError, ValidationError
from .linalg import classify_definiteness
from .subspaces import CosineMatrix, cos_pi_over

DEFAULT_GROUP_CAP = 10_000


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
                    # nan and -inf have no int(), and nan alone differs from itself
                    if raw != raw or raw == -math.inf or raw != int(raw):
                        raise ValidationError(f"m[{i}][{j}] = {raw} is not an integer or inf")
                    raw = int(raw)
                    try:
                        float(raw)  # the cosine matrix takes pi / m[i][j]
                    except OverflowError:
                        raise ValidationError(f"m[{i}][{j}] is beyond the float range") from None
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
    """Cosine matrix: -cos(pi/m[i][j]) by `cos_pi_over`, so the diagonal
    (m = 1) is 1, an infinite order gives -1, and the orders 2, 3, 4, 5, 6
    and 8 give their correctly rounded cosines, with +0.0 for m = 2."""
    return CosineMatrix(np.array([[0.0 - cos_pi_over(m) for m in row] for row in cox.m]))


def classify_coxeter(cox: CoxeterMatrix, c: CosineMatrix | None = None) -> str:
    """Classify as spherical, affine, or other, one Coxeter graph component
    at a time (the graph joins i and j when m[i][j] != 2).

    A component of rank 1 is spherical, and one of rank 2 is spherical for a
    finite order and affine for an infinite one; the dihedral smallest
    eigenvalue 1 - cos(pi/m) falls under any zero tolerance for large m, so
    rank 2 is not decided from the spectrum.  Any other component is
    spherical when its cosine matrix C is positive definite, affine when it
    is positive semidefinite, and other otherwise.  That is the classical
    test (corank 1, every proper principal submatrix positive definite;
    Humphreys, sections 2.6 and 4.7) with no more checks, by
    Perron-Frobenius:
      N = I - C is nonnegative and irreducible, and lambda_min(C) = 1 - rho(N);
      rho(N) is a simple eigenvalue, so a semidefinite C has corank 1;
      rho(N_J) < rho(N) for each proper principal N_J, so each C_J is definite.
    The system is spherical when every component is, affine when it is a
    single affine component, and other otherwise.

    `c` is `coxeter_cosine(cox)` when the caller has built it already.  A
    connected graph of rank >= 3 reads the definiteness of its spectrum,
    since its one block is C bit for bit; only a reducible system solves
    blocks, one per component of rank >= 3.
    """
    c = coxeter_cosine(cox) if c is None else c
    labels = [_classify_component(cox, c, component) for component in _components(cox)]
    if all(label == "spherical" for label in labels):
        return "spherical"
    return "affine" if labels == ["affine"] else "other"


def bfs_distances(start, neighbors) -> dict:
    """Breadth-first distances from start to every vertex it reaches;
    neighbors(v) gives the vertices adjacent to v."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in neighbors(cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def _components(cox: CoxeterMatrix) -> list[list[int]]:
    """The components of the Coxeter graph, which joins i and j when
    m[i][j] != 2, each sorted, in order of their smallest generator."""
    components: list[list[int]] = []
    seen: set[int] = set()
    for start in range(cox.rank):
        if start in seen:
            continue
        component = sorted(bfs_distances(
            start, lambda i: [j for j in range(cox.rank) if cox.m[i][j] not in (1, 2)]
        ))
        seen.update(component)
        components.append(component)
    return components


def _classify_component(cox: CoxeterMatrix, c: CosineMatrix, component: list[int]) -> str:
    if len(component) <= 2:
        i, j = component[0], component[-1]  # m[i][i] = 1 for rank 1
        return "affine" if cox.m[i][j] == math.inf else "spherical"
    if len(component) == cox.rank:
        cls = c.definiteness
    else:
        cls = classify_definiteness(c.matrix[np.ix_(component, component)])
    if cls.is_positive_definite:
        return "spherical"
    return "affine" if cls.is_positive_semidefinite else "other"


# Rescaled Cartan entries (c_ij, c_ji) of a label, for i < j: elements
# p + q phi of Z[phi], stored as (p, q), with c_ij c_ji = 4 cos^2(pi / m) and
# phi^2 = phi + 1.  On a tree they rescale the basis of the geometric
# representation; a component with a cycle is infinite, and its orbit is too
# (Vinberg, Discrete linear groups generated by reflections, 1971).
_CARTAN = {
    3: ((1, 0), (1, 0)),
    4: ((1, 0), (2, 0)),
    5: ((0, 1), (0, 1)),
    6: ((1, 0), (3, 0)),
    math.inf: ((2, 0), (2, 0)),
}


@dataclass(frozen=True)
class RootSystem:
    """The roots of a finite system, with each generator as a root permutation.

    `keys[k]` is the exact key of root k (see `root_system`), with the simple
    roots at 0 .. rank-1; `permutations[s][k]` is the index of s(root k).
    """

    keys: tuple[tuple, ...]
    permutations: tuple[tuple[int, ...], ...]


def _zphi_reflection(p: int, terms: list[tuple[int, int, int]]):
    """Coordinate p becomes -x_p + sum_j c_jp x_j, for terms (j, u, v) with
    c_jp = u + v phi."""
    def step(x):
        a, b = -x[2 * p], -x[2 * p + 1]
        for j, u, v in terms:
            xa, xb = x[2 * j], x[2 * j + 1]
            # (u + v phi)(xa + xb phi), with phi^2 = phi + 1
            a += u * xa + v * xb
            b += u * xb + v * (xa + xb)
        return x[:2 * p] + (a, b) + x[2 * p + 2:]
    return step


def root_system(cox: CoxeterMatrix, cap: int = DEFAULT_GROUP_CAP) -> RootSystem:
    """Orbit of the simple roots under the generators, in exact arithmetic.

    A root's key is its component of the Coxeter graph and a key within it,
    and a generator fixes every root outside its component.  A finite
    rank-2 component is I2(m), and a rank-1 one I2(1): root k is the unit
    vector at angle k pi / m, the simple roots sit at k = 0 and k = m - 1,
    and their generators map k to m - k and to 3m - 2 - k, mod 2m.  Any
    other component keys a root by its integer coordinates over Z[phi] in a
    rescaled basis of simple roots, where generator t changes only x_t, to
    -x_t + sum_j c_jt x_j (`_CARTAN`).

    |Phi| <= |W| for every finite W, so an orbit that grows past `cap` roots
    means a group of more than `cap` elements, finite or not.  No finite
    irreducible group of rank >= 3 has a label outside {2, 3, 4, 5, 6}
    (Humphreys, section 2.7), so such a component is refused at once, with
    the same message.
    """
    if cap < 1:
        raise ValidationError("cap must be at least 1")
    over_cap = (
        f"group not enumerated: its root orbit passed {cap} roots, "
        f"so it has more than {cap} elements"
    )
    r = cox.rank
    keys: list[tuple] = [()] * r
    steps: list = [None] * r  # (component, the generator on its local keys)
    for c, component in enumerate(_components(cox)):
        m = cox.m[component[0]][component[-1]]  # 1 for rank 1
        if len(component) <= 2 and m != math.inf:
            for s, (start, shift) in zip(component, ((0, m), (m - 1, 3 * m - 2))):
                keys[s] = (c, start)
                steps[s] = (c, lambda k, shift=shift, n=2 * m: (shift - k) % n)
            continue
        if any(cox.m[i][j] not in _CARTAN for i in component for j in component
               if cox.m[i][j] not in (1, 2)):
            raise GroupEnumerationError(over_cap)
        zero = (0,) * (2 * len(component))
        for p, t in enumerate(component):
            terms = [
                (q, *_CARTAN[cox.m[j][t]][j > t])
                for q, j in enumerate(component) if cox.m[j][t] not in (1, 2)
            ]
            keys[t] = (c, zero[:2 * p] + (1, 0) + zero[2 * p + 2:])
            steps[t] = (c, _zphi_reflection(p, terms))
    index = {key: k for k, key in enumerate(keys)}
    permutations: list[list[int]] = [[] for _ in range(r)]
    # first in, first out: `keys` is the breadth-first queue, so the images
    # of root k are matched, and appended to the permutations, k-th
    for k, key in enumerate(keys):
        for (c, step), perm in zip(steps, permutations):
            image = (c, step(key[1])) if key[0] == c else key
            found = index.get(image)
            if found is None:
                if len(keys) >= cap:
                    raise GroupEnumerationError(over_cap)
                found = index[image] = len(keys)
                keys.append(image)
            perm.append(found)
    return RootSystem(keys=tuple(keys), permutations=tuple(map(tuple, permutations)))


@dataclass(frozen=True, eq=False)
class EnumeratedGroup:
    """Group elements as rows of root indices, with per-generator adjacency.

    `elements` is an (order, rank) integer array: `elements[i, j]` is the
    index, in `root_system(...).keys`, of the image of simple root j under
    element i.  The simple roots are a basis, so the row fixes the element and
    its whole root permutation, and two elements are equal exactly when their
    integer rows are.  `adjacency` is an (order, rank) integer array, and
    `adjacency[i, s] = j` means element j is s composed with element i.
    Element i is the inverse of the i-th element that the closure by right
    multiplication w -> w s finds, so `adjacency` is the same table either
    way.  `lengths[i]` is the Coxeter length of element i, its distance from
    the identity in the adjacency graph; elements are numbered in
    breadth-first order, so `lengths` never decreases.  The three arrays are
    read-only.
    """

    rank: int
    elements: np.ndarray
    adjacency: np.ndarray
    lengths: np.ndarray

    @property
    def order(self) -> int:
        return len(self.elements)


def enumerate_group(cox: CoxeterMatrix, cap: int = DEFAULT_GROUP_CAP) -> EnumeratedGroup:
    """Breadth-first closure of the generators acting on the root system,
    one length layer at a time.

    W acts faithfully on its finite root system (Humphreys, Reflection Groups
    and Coxeter Groups, section 5.4), so composition is exact on root
    indices: the row of s w is `perms[s][row]`.  Breadth-first distance from
    the identity is the Coxeter length, and the sign character
    det(w) = (-1)^l(w) (section 5.2) gives l(s w) = l(w) +- 1: s is a left
    descent of w, with s w in the layer below, or an ascent, with s w in the
    layer above (Bjorner and Brenti, Combinatorics of Coxeter Groups, section
    1.4).  No image stays in its layer, so descents need no search: an
    ascent adjacency[j, s] = i found while closing layer k - 1 is the descent
    adjacency[i, s] = j of layer k, and one scatter fills all of them.  The
    entries still unset are the ascents of layer k, and only those are
    imaged, in the order element then generator.  One stable `np.lexsort` of
    the image rows puts equal images next to each other in order of
    position, the first of each group leading it.  Every group is a new
    element of layer k + 1, and new elements are numbered in order of their
    leaders, which is the order in which a one-at-a-time queue would meet
    them.  Rows are compared as exact integers, so deduplication involves no
    floats and no hashing, at any rank.  Raises when the roots do not close
    within `cap`, and, for a finite group, when more than `cap` elements
    appear; the cap is checked after each layer, and every layer whose images
    are sorted lies within it, so all layers together sort at most rank * cap
    rows.
    """
    roots = root_system(cox, cap=cap)
    count = len(roots.keys)
    r = cox.rank
    perms = np.array(roots.permutations, dtype=np.min_scalar_type(count - 1))
    table = perms.ravel()  # s(root k) is table[s * count + k]
    layer = np.arange(r, dtype=perms.dtype)[None, :]
    layers = [layer]
    adjacency = []
    first = 0  # index of the first element of `layer`
    # the ascents of the layer below: their flat (element, generator)
    # positions in this layer's block, and the elements they leave
    down_at = down_from = np.empty(0, dtype=np.intp)
    while len(layer):
        block = np.full(len(layer) * r, -1, dtype=np.intp)
        block[down_at] = down_from
        at = (block < 0).nonzero()[0]
        up, gen = np.divmod(at, r)
        rows = layer.take(up, axis=0).astype(np.intp)
        rows += (gen * count)[:, None]
        images = table.take(rows)
        n = len(images)
        order = np.lexsort(images.T)
        # each row as one opaque scalar, so equal rows compare in one step
        ordered = images.view(np.dtype((np.void, images.itemsize * r))).ravel()[order]
        starts = np.empty(n, dtype=bool)
        starts[:1] = True
        starts[1:] = ordered[1:] != ordered[:-1]
        leader = order[starts]
        following = first + len(layer)
        if following + len(leader) > cap:
            raise GroupEnumerationError(
                f"group is finite but has more than {cap} elements "
                f"(its {count} roots close); raise the cap"
            )
        fresh = np.zeros(n, dtype=bool)
        fresh[leader] = True
        # a group's new element is numbered by the rank of its leader among
        # the leaders, in order of position
        index = np.empty(n, dtype=np.intp)
        index[order] = (fresh.cumsum() - 1)[leader][starts.cumsum() - 1]
        block[at] = following + index
        adjacency.append(block)
        down_at, down_from = index * r + gen, first + up
        layer, first = images[fresh], following
        layers.append(layer)
    elements = np.concatenate(layers)
    lengths = np.repeat(np.arange(len(layers)), list(map(len, layers)))
    adjacency = np.concatenate(adjacency).reshape(-1, r)
    for array in (elements, adjacency, lengths):
        array.flags.writeable = False
    return EnumeratedGroup(rank=r, elements=elements, adjacency=adjacency, lengths=lengths)


@dataclass(frozen=True)
class CoxeterComplex:
    """The chamber complex of a finite system: facets are group elements."""

    matrix: CoxeterMatrix
    group: EnumeratedGroup
    complex: PartiteComplex


def build_coxeter_complex(cox: CoxeterMatrix, cap: int = DEFAULT_GROUP_CAP) -> CoxeterComplex:
    """Assemble the partite complex whose type-i vertices are cosets of the
    parabolic subgroup generated by all reflections except s_i.

    Each element's coset is labelled by its smallest element, found by
    propagating the minimum label along the kept generators until it
    settles.  Vertex ids run through the types in order, and within a type
    in order of each coset's smallest element, so the array of each
    element's cosets is already the complex's facet array.
    """
    group = enumerate_group(cox, cap=cap)
    r = cox.rank
    vertex_types: dict[int, int] = {}
    coset_of = np.empty((group.order, r), dtype=np.intp)
    for omitted in range(r):
        kept = [group.adjacency[:, s] for s in range(r) if s != omitted]
        label = np.arange(group.order)
        settled = False
        while not settled:
            before = label
            for step in kept:
                label = np.minimum(label, label[step])
            settled = np.array_equal(label, before)
        smallest, coset = np.unique(label, return_inverse=True)
        base = len(vertex_types)
        coset_of[:, omitted] = base + coset
        vertex_types.update((base + k, omitted) for k in range(len(smallest)))
    return CoxeterComplex(
        matrix=cox,
        group=group,
        complex=PartiteComplex.from_facet_array(vertex_types, coset_of),
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
    matrices agree entrywise.  The link lengths and cycle flags come from the
    walk pass of `cosine_matrix_of_complex`, which reads every link as a
    group of rows of the facet array and builds no link complex.
    """
    built = build_coxeter_complex(cox, cap=cap)
    direct = coxeter_cosine(cox)
    report = cosine_matrix_of_complex(built.complex)
    deviation = float(np.max(np.abs(report.matrix.matrix - direct.matrix)))
    link_checks = {
        (i, j): LinkCycleCheck(
            expected_length=2 * cox.m[i][j],
            observed_lengths=spec.link_lengths,
            all_cycles=spec.all_cycles,
        )
        for (i, j), spec in report.per_pair.items()
    }
    return CosineAgreementReport(
        cosine_matrix=direct,
        complex_report=report,
        max_deviation=deviation,
        link_checks=link_checks,
    )
