"""Partite simplicial complexes, links, and random-walk spectra of 1-dim links.

A complex is stored by its facets; every facet must contain exactly one vertex
of each type.  Queries go through two derived views.  The star of a vertex,
the indices of the facets containing it, is built once on first use: a
simplex is in the complex when the stars of its vertices meet, and its link
is read off their intersection.  `faces(types)` groups the facets by their
face of one type set, listing the simplices of that type with their facets.
A link is again a partite complex; a 1-dimensional one is a bipartite graph
whose edges are its facets.

The cosine matrix of an n-dimensional complex collects, for every unordered
type pair {i, j}, the second largest random-walk eigenvalue over the links of
codimension-2 simplices whose cotype is {i, j}.  Those links are handled a
cotype at a time: links of one vertex count become one stack of adjacency
matrices, so their walk spectra are one stacked `eigvalsh` call, and their
diameters and cycle flags (for the Coxeter-complex check) come from boolean
powers and degrees of the same stack.  `validate_complex` proves every link
connected (B2) before this pass, which therefore re-checks none.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, ValidationError
from .linalg import DefinitenessClass, classify_definiteness, sym_eigs
from .subspaces import CosineMatrix

WALK_NEGATIVE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PartiteComplex:
    """Pure partite simplicial complex given by typed vertices and facets."""

    vertex_types: dict[int, int]
    facets: tuple[frozenset[int], ...]
    types: tuple[int, ...] = None

    def __post_init__(self):
        vt = dict(self.vertex_types)
        facets = tuple(map(frozenset, self.facets))
        if not facets:
            raise ValidationError("a complex needs at least one facet")
        types = self.types
        if types is None:
            types = tuple(sorted(set(vt.values())))
        else:
            types = tuple(sorted(types))
        extra = set(vt.values()).difference(types)
        if extra:
            raise ValidationError(f"vertex types {sorted(extra)} missing from type list")
        # a facet's checks run in order, the duplicate check first, so the
        # error names the first bad facet; duplicates are rare, so they are
        # found by set size and looked for only to name the offender
        bad = len(facets)
        if len(set(facets)) < bad:
            seen = set()
            for bad, f in enumerate(facets):
                if f in seen:
                    break
                seen.add(f)
        declared = vt.keys()
        expected = list(types)
        for f in facets[:bad]:
            if not declared >= f:
                unknown = [v for v in f if v not in vt]
                raise ValidationError(f"facet {sorted(f)} uses undeclared vertices {unknown}")
            ftypes = sorted(map(vt.__getitem__, f))
            if ftypes != expected:
                raise ValidationError(
                    f"facet {sorted(f)} must have exactly one vertex of each type "
                    f"{expected}, got types {ftypes}"
                )
        if bad < len(facets):
            raise ValidationError(f"duplicate facet {sorted(facets[bad])}")
        object.__setattr__(self, "vertex_types", vt)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "types", types)

    @property
    def n(self) -> int:
        """Dimension: facets are (n+1)-sets."""
        return len(self.types) - 1

    @functools.cached_property
    def _vertex_stars(self) -> dict[int, frozenset[int]]:
        stars: dict[int, list[int]] = {v: [] for v in self.vertex_types}
        for idx, f in enumerate(self.facets):
            for v in f:
                stars[v].append(idx)
        return {v: frozenset(members) for v, members in stars.items()}

    def star(self, sigma) -> frozenset[int]:
        """Indices of the facets containing sigma; empty when sigma is not a simplex."""
        if not sigma:
            return frozenset(range(len(self.facets)))
        stars = self._vertex_stars
        return frozenset.intersection(*(stars.get(v, frozenset()) for v in sigma))

    def faces(self, types) -> dict[frozenset[int], list[int]]:
        """Each face of the given type set, mapped to the indices of its facets."""
        keep = frozenset(types)
        kept = frozenset(v for v, t in self.vertex_types.items() if t in keep)
        groups: dict[frozenset[int], list[int]] = {}
        for idx, f in enumerate(self.facets):
            groups.setdefault(f & kept, []).append(idx)
        return groups

    def simplices(self, k: int) -> frozenset[frozenset[int]]:
        """All k-dimensional simplices; k = -1 gives the empty simplex."""
        if k < -1 or k > self.n:
            return frozenset()
        return frozenset(
            face for ts in itertools.combinations(self.types, k + 1) for face in self.faces(ts)
        )

    def type_of(self, sigma) -> frozenset[int]:
        return frozenset(self.vertex_types[v] for v in sigma)

    def contains(self, sigma) -> bool:
        return bool(self.star(frozenset(sigma)))


def load_complex(data) -> PartiteComplex:
    """Build a complex from a dict with fields n, vertices, facets."""
    if not isinstance(data, dict):
        raise InputFormatError("complex document must be a mapping")
    vertices = data.get("vertices")
    facets = data.get("facets")
    if not isinstance(vertices, list) or not vertices:
        raise InputFormatError("complex document needs a nonempty list field 'vertices'")
    if not isinstance(facets, list) or not facets:
        raise InputFormatError("complex document needs a nonempty list field 'facets'")
    vertex_types = {}
    for i, entry in enumerate(vertices):
        if not isinstance(entry, dict) or "id" not in entry or "type" not in entry:
            raise InputFormatError(f"vertices[{i}] needs 'id' and 'type' fields, got {entry!r}")
        vid = _json_int(entry["id"], f"vertices[{i}].id")
        if vid in vertex_types:
            raise InputFormatError(f"vertices[{i}].id: duplicate vertex id {vid}")
        vertex_types[vid] = _json_int(entry["type"], f"vertices[{i}].type")
    cells = []
    for i, f in enumerate(facets):
        if not isinstance(f, list):
            raise InputFormatError(f"facets[{i}] must be a list of vertex ids, got {f!r}")
        cells.append(frozenset(_json_int(v, f"facets[{i}][{j}]") for j, v in enumerate(f)))
    try:
        x = PartiteComplex(vertex_types, tuple(cells))
    except ValidationError as exc:
        raise InputFormatError(str(exc)) from None
    if "n" in data and _json_int(data["n"], "n") != x.n:
        raise InputFormatError(f"declared n = {data['n']} but facets have dimension {x.n}")
    return x


def _json_int(value, path: str) -> int:
    # JSON true/false load as bool, which Python counts as int
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{path} must be an integer, got {value!r}")
    return value


def _number_table(value, path: str, width: int | None = None) -> np.ndarray:
    """A list of rows of finite JSON numbers, as a float array.

    Every row has `width` entries, or as many as row 0 when `width` is None.
    """
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise InputFormatError(f"{path} must be a list of rows")
    if width is None and value:
        width = len(value[0])
    for i, row in enumerate(value):
        if len(row) != width:
            raise InputFormatError(f"{path}[{i}] has {len(row)} entries, expected {width}")
        for j, v in enumerate(row):
            if not _finite_number(v):
                raise InputFormatError(f"{path}[{i}][{j}] must be a finite number, got {v!r}")
    return np.asarray(value, dtype=float)


def _finite_number(v) -> bool:
    # JSON true/false load as bool, which Python counts as int
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def link_of(x: PartiteComplex, sigma) -> PartiteComplex:
    """Link of a simplex: faces disjoint from sigma whose union with it is in X."""
    s = frozenset(sigma)
    if not s:
        return x
    star = x.star(s)
    if not star:
        raise ValidationError(f"{sorted(s)} is not a simplex of the complex")
    sigma_types = x.type_of(s)
    remaining = tuple(t for t in x.types if t not in sigma_types)
    link_facets = tuple(sorted((x.facets[idx] - s for idx in star), key=sorted))
    used = set().union(*link_facets) if remaining else set()
    vt = {v: x.vertex_types[v] for v in used}
    return PartiteComplex(vt, link_facets, types=remaining)


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


def gallery_connected(x: PartiteComplex) -> bool:
    """Whether every facet is reachable through shared codimension-1 faces."""
    if x.n < 1:
        return True  # any two points meet in the empty simplex
    panels: list[list[list[int]]] = [[] for _ in x.facets]
    for ts in itertools.combinations(x.types, x.n):
        for members in x.faces(ts).values():
            for idx in members:
                panels[idx].append(members)
    reached = bfs_distances(0, lambda idx: itertools.chain.from_iterable(panels[idx]))
    return len(reached) == len(x.facets)


def thickness(x: PartiteComplex) -> int:
    """Minimum number of facets containing a codimension-1 simplex."""
    if x.n < 0:
        raise ValidationError("thickness undefined for the empty complex")
    return min(
        len(members)
        for ts in itertools.combinations(x.types, x.n)
        for members in x.faces(ts).values()
    )


def _walk_spectra(links) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second walk eigenvalue, diameter and cycle flag of each 1-dimensional
    complex in `links`, as three arrays in the order of `links`.

    Links of one vertex count share a (k, v, v) adjacency stack, rows in
    sorted-vertex order, and one `sym_eigs` call on their degree-symmetrized
    walk matrices, with entries adjacency[u][v] / sqrt(d(u) d(v)); these share
    the walks' spectra.  A zero-degree vertex keeps a zero row, so its link
    still has a (meaningless) eigenvalue.  The diameter is the least d with
    (I + A)^d positive everywhere, or -1 when there is none, that is, when
    the link is not connected; a cycle is connected with every degree 2.
    """
    for x in links:
        if x.n != 1:
            raise ValidationError(f"expected a 1-dimensional complex, got dimension {x.n}")
    second = np.empty(len(links))
    diameter = np.empty(len(links), dtype=int)
    cycle = np.empty(len(links), dtype=bool)
    by_size: dict[int, list[int]] = {}
    for idx, x in enumerate(links):
        by_size.setdefault(len(x.vertex_types), []).append(idx)
    for size, members in by_size.items():
        layer, rows, cols = [], [], []
        for k, idx in enumerate(members):
            pos = {v: i for i, v in enumerate(sorted(links[idx].vertex_types))}
            for a, b in links[idx].facets:
                layer.append(k)
                rows.append(pos[a])
                cols.append(pos[b])
        adj = np.zeros((len(members), size, size))
        adj[layer, rows, cols] = adj[layer, cols, rows] = 1.0
        degree = adj.sum(axis=2)
        d = np.maximum(degree, 1.0)
        walk = adj / np.sqrt(d[:, :, None] * d[:, None, :])
        second[members] = sym_eigs(walk).eigenvalues[:, -2]
        diameter[members] = _diameters(adj)
        cycle[members] = (degree == 2).all(axis=1) & (diameter[members] >= 0)
    return second, diameter, cycle


def _diameters(adj: np.ndarray) -> np.ndarray:
    """Least d with (I + A)^d positive everywhere, for each adjacency matrix
    of a (k, v, v) stack with v >= 2, or -1 where no d works.

    Boolean powers P_i = (I + A)^(2^i) are squared up until each is full or
    2^i reaches v - 1, the largest possible diameter; the binary digits of
    d - 1 are then read off greedily, from the top, as the largest exponent
    whose power is still not full.  Powers are kept as booleans and
    multiplied in float32, whose sums of nonnegative terms are positive
    exactly when a term is.
    """
    size = adj.shape[-1]
    powers = [(adj + np.eye(size)) > 0]

    def times(a, b):
        return (a.astype(np.float32) @ b.astype(np.float32)) > 0

    def full(m):
        return m.all(axis=(1, 2))

    while 2 ** (len(powers) - 1) < size - 1 and not full(powers[-1]).all():
        powers.append(times(powers[-1], powers[-1]))
    below = np.zeros(len(adj), dtype=int)
    reach = np.broadcast_to(np.eye(size, dtype=bool), adj.shape)
    for i in reversed(range(len(powers))):
        step = times(reach, powers[i])
        grows = ~full(step)
        reach = np.where(grows[:, None, None], step, reach)
        below += grows << i
    return np.where(full(powers[-1]), below + 1, -1)


def cycle_complex(length: int) -> PartiteComplex:
    """Even cycle as a 1-dimensional 2-partite complex (types alternate)."""
    if length < 4 or length % 2:
        raise ValidationError("cycle length must be even and at least 4")
    vt = {i: i % 2 for i in range(length)}
    facets = tuple(frozenset((i, (i + 1) % length)) for i in range(length))
    return PartiteComplex(vt, facets)


@dataclass(frozen=True)
class ComplexValidation:
    """Combinatorial checks: partite and pure structure, plus B1 and B2.

    Contractibility and the existence of a sufficiently transitive group
    action cannot be decided from facet lists, so those two report None.
    """

    partite: bool
    pure: bool
    orphan_vertices: tuple[int, ...]
    b1_links_finite: bool
    b1_note: str
    b2_links_gallery_connected: bool
    b2_offender: tuple[int, ...] | None
    b3_links_contractible: None = None
    b3_note: str = "not checkable from combinatorial data"
    b4_transitive_action: None = None
    b4_note: str = "not checkable from combinatorial data"


def validate_complex(x: PartiteComplex) -> ComplexValidation:
    """Report the checkable structure conditions for a complex."""
    used = set().union(*x.facets)
    orphans = tuple(sorted(v for v in x.vertex_types if v not in used))
    b2 = True
    offender = None
    for k in range(-1, x.n - 1):
        for sigma in sorted(x.simplices(k), key=sorted):
            if not gallery_connected(link_of(x, sigma)):
                b2 = False
                offender = tuple(sorted(sigma))
                break
        if not b2:
            break
    return ComplexValidation(
        partite=True,  # enforced at construction
        pure=not orphans,
        orphan_vertices=orphans,
        b1_links_finite=True,
        b1_note="finite input data: every link is finite",
        b2_links_gallery_connected=b2,
        b2_offender=offender,
    )


@dataclass(frozen=True)
class PairSpectrum:
    """Walk spectrum summary for one unordered type pair."""

    second_eigenvalue: float
    representatives: int
    max_disagreement: float
    link_diameter: int
    link_lengths: tuple[int, ...]  # vertex count of each link, in faces() order
    all_cycles: bool


@dataclass(frozen=True)
class ComplexCosineReport:
    matrix: CosineMatrix
    per_pair: dict[tuple[int, int], PairSpectrum]
    definiteness: DefinitenessClass
    degenerate: bool
    convention: str
    validation: ComplexValidation


def cosine_matrix_of_complex(x: PartiteComplex) -> ComplexCosineReport:
    """Cosine matrix of a complex from the walk spectra of codimension-2 links.

    For each unordered type pair {i, j} the second walk eigenvalue is taken
    over every codimension-2 simplex whose cotype is {i, j}; representatives
    may disagree when the complex is not link-homogeneous, in which case the
    maximum is used (the conservative choice for definiteness verdicts) and
    the disagreement is reported.
    """
    val = validate_complex(x)
    if not val.pure:
        raise ValidationError(f"complex is not pure: orphan vertices {val.orphan_vertices}")
    if not val.b2_links_gallery_connected:
        where = f"link of {list(val.b2_offender)}" if val.b2_offender else "the complex itself"
        raise ValidationError(f"{where} is not gallery connected (violates B2)")
    if x.n < 1:
        raise ValidationError("cosine matrix needs a complex of dimension at least 1")
    types = x.types
    count = len(types)
    pos = {t: i for i, t in enumerate(types)}
    matrix = np.eye(count)
    per_pair: dict[tuple[int, int], PairSpectrum] = {}
    for ti, tj in itertools.combinations(types, 2):
        reps = x.faces(t for t in types if t not in (ti, tj))
        # validate_complex has proved every link connected (B2)
        links = [link_of(x, sigma) for sigma in reps]
        lambdas, diameters, cycles = _walk_spectra(links)
        lam = float(lambdas.max())
        if lam < -WALK_NEGATIVE_TOL:
            raise ValidationError(
                f"pair {{{ti},{tj}}}: walk eigenvalue {lam:g} is negative "
                "(a single-edge link; too thin to admit a cosine matrix)"
            )
        lam = max(lam, 0.0)
        per_pair[(ti, tj)] = PairSpectrum(
            second_eigenvalue=lam,
            representatives=len(reps),
            max_disagreement=float(lambdas.max() - lambdas.min()),
            link_diameter=int(diameters.max()),
            link_lengths=tuple(len(link.vertex_types) for link in links),
            all_cycles=bool(cycles.all()),
        )
        matrix[pos[ti], pos[tj]] = -lam
        matrix[pos[tj], pos[ti]] = -lam
    return ComplexCosineReport(
        matrix=CosineMatrix(matrix),
        per_pair=per_pair,
        definiteness=classify_definiteness(matrix),
        degenerate=x.n == 1,
        convention="per-pair eigenvalue = maximum over cotype representatives",
        validation=val,
    )
