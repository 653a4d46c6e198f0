"""Partite simplicial complexes, links, and random-walk spectra of 1-dim links.

A complex is stored by its facets; every facet must contain exactly one vertex
of each type.  Queries go through two derived views.  The star of a vertex,
the indices of the facets containing it, is built once on first use: a
simplex is in the complex when the stars of its vertices meet, and its link
is read off their intersection.  `faces(types)` groups the facets by their
face of one type set, listing the simplices of that type with their facets.
The cosine matrix of an n-dimensional complex collects, for every unordered
type pair {i, j}, the second largest random-walk eigenvalue over the links of
codimension-2 simplices whose cotype is {i, j}.
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
        facets = tuple(frozenset(f) for f in self.facets)
        if not facets:
            raise ValidationError("a complex needs at least one facet")
        types = self.types
        if types is None:
            types = tuple(sorted(set(vt.values())))
        else:
            types = tuple(sorted(types))
        extra = set(vt.values()) - set(types)
        if extra:
            raise ValidationError(f"vertex types {sorted(extra)} missing from type list")
        seen = set()
        for f in facets:
            if f in seen:
                raise ValidationError(f"duplicate facet {sorted(f)}")
            seen.add(f)
            unknown = [v for v in f if v not in vt]
            if unknown:
                raise ValidationError(f"facet {sorted(f)} uses undeclared vertices {unknown}")
            ftypes = sorted(vt[v] for v in f)
            if len(f) != len(types) or ftypes != list(types):
                raise ValidationError(
                    f"facet {sorted(f)} must have exactly one vertex of each type "
                    f"{list(types)}, got types {ftypes}"
                )
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
    remaining = tuple(t for t in x.types if t not in x.type_of(s))
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


@dataclass(frozen=True)
class LinkGraph:
    """Bipartite graph arising as a 1-dimensional link."""

    types: tuple[int, int]
    vertex_ids: tuple[int, ...]
    vertex_types: dict[int, int]
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        ids = tuple(sorted(self.vertex_ids))
        edges = tuple(self.edges)
        for e in edges:
            a, b = sorted(e)
            if self.vertex_types[a] == self.vertex_types[b]:
                raise ValidationError(f"edge {sorted(e)} joins two vertices of one type")
        object.__setattr__(self, "vertex_ids", ids)
        object.__setattr__(self, "edges", edges)

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertex_ids}
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertex_ids}
        for e in self.edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        return adj


def link_graph(x: PartiteComplex) -> LinkGraph:
    """View a 1-dimensional complex as a bipartite graph."""
    if x.n != 1:
        raise ValidationError(f"expected a 1-dimensional complex, got dimension {x.n}")
    return LinkGraph(
        types=(x.types[0], x.types[1]),
        vertex_ids=tuple(sorted(x.vertex_types)),
        vertex_types=dict(x.vertex_types),
        edges=x.facets,
    )


def _graph_connected(g: LinkGraph) -> bool:
    if not g.vertex_ids:
        return True
    return len(bfs_distances(g.vertex_ids[0], g.adjacency().__getitem__)) == len(g.vertex_ids)


def graph_diameter(g: LinkGraph) -> int:
    """Largest BFS eccentricity; requires a connected graph."""
    adj = g.adjacency()
    diam = 0
    for start in g.vertex_ids:
        dist = bfs_distances(start, adj.__getitem__)
        if len(dist) != len(g.vertex_ids):
            raise ValidationError("diameter undefined: graph not connected")
        diam = max(diam, max(dist.values()))
    return diam


def is_cycle(g: LinkGraph) -> bool:
    """Connected with every degree exactly 2."""
    return _graph_connected(g) and all(d == 2 for d in g.degrees().values())


def random_walk_second_eig(g: LinkGraph) -> float:
    """Second largest eigenvalue of the simple random walk on a connected graph.

    Computed from the degree-symmetrized walk matrix with entries
    adjacency[u][v] / sqrt(d(u) d(v)), which shares the walk's spectrum.
    """
    degrees = g.degrees()
    dead = [v for v, d in degrees.items() if d == 0]
    if dead:
        raise ValidationError(f"random walk undefined: zero-degree vertices {dead}")
    if not _graph_connected(g):
        raise ValidationError("link not connected (violates B2)")
    ids = g.vertex_ids
    pos = {v: i for i, v in enumerate(ids)}
    m = np.zeros((len(ids), len(ids)))
    for e in g.edges:
        a, b = tuple(e)
        w = 1.0 / np.sqrt(degrees[a] * degrees[b])
        m[pos[a], pos[b]] = w
        m[pos[b], pos[a]] = w
    eigs = sym_eigs(m).eigenvalues
    if len(eigs) < 2:
        raise ValidationError("random walk needs at least two vertices")
    return float(eigs[-2])


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
        lambdas = []
        diameter = 0
        for sigma in reps:
            g = link_graph(link_of(x, sigma))
            lambdas.append(random_walk_second_eig(g))
            diameter = max(diameter, graph_diameter(g))
        lam = max(lambdas)
        if lam < -WALK_NEGATIVE_TOL:
            raise ValidationError(
                f"pair {{{ti},{tj}}}: walk eigenvalue {lam:g} is negative "
                "(a single-edge link; too thin to admit a cosine matrix)"
            )
        lam = max(lam, 0.0)
        per_pair[(ti, tj)] = PairSpectrum(
            second_eigenvalue=lam,
            representatives=len(reps),
            max_disagreement=max(lambdas) - min(lambdas),
            link_diameter=diameter,
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
