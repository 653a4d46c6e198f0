"""Partite simplicial complexes and the random-walk spectra of their links.

A complex is stored as its facet array: one row per facet and one column per
type, holding dense vertex indices ranked by id.  Its types are those of its
vertices, at most `MAX_TYPES` of them.  Every complex, loaded or built,
passes the same checks on whole columns: every index is in range, column c
holds only vertices of type types[c], and no row repeats.  Built from
facets, each facet of the right size is first placed in a row by the types
of its vertices; one that cannot be placed (an undeclared vertex, or two
vertices of one type) is a bad row too.  Either way an error names the
first bad row, which is the first bad facet.  The facets as frozensets of
ids are derived on first use.  Grouping the rows by every column but one
gives the panels of each cotype, from one stable lexsort per column, and the
smallest panel is the thickness.  No link is built as a complex: both
checks below read the facet array.

`validate_complex` decides B2, that every link is gallery connected, without
taking a link.  The link of a simplex of type T is gallery connected exactly
when its star is one residue of cotype types - T: the facets it reaches
through panels of those cotypes (Abramenko and Brown, Buildings, GTM 248, on
residues).  So each type set labels the facets by residue once, and a face
fails when its facets carry two labels.  Sizes are checked upward, and the
offender is the smallest failing simplex, as a sorted vertex list, of the
lowest dimension that has one.

The cosine matrix of an n-dimensional complex collects, for every unordered
type pair {i, j}, the second largest random-walk eigenvalue over the links of
codimension-2 simplices whose cotype is {i, j}.  Those links are row groups
of the facet array: the facets that agree on every column but those of i and
j form the star of one such simplex, and its link is the bipartite graph on
those two columns whose edges are these facets.  The walk pass reads every
link of every pair as arrays of vertex counts and edges, and groups links
with equal adjacency matrices: in a building all links of one cotype are
alike (F4 has 1392 links in 3 classes, E6 172800 in 2).  It stacks one link
of each class per vertex count as adjacency matrices, so their walk spectra
are stacked `eigvalsh` calls, and their diameters and cycle flags (for the
Coxeter-complex check) come from boolean powers and degrees of the same
stacks; each class's results are then copied to all its links.  B2 is
proved before this pass, which therefore re-checks no link.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputFormatError, ValidationError
from .linalg import DefinitenessClass, sym_eigs
from .subspaces import CosineMatrix

# the walk pass stacks one dense v x v adjacency matrix per link and squares
# it up to the diameter: in process on a 2-CPU machine, one even cycle, its
# own link, takes 0.5 s and 79 MB at v = 1024, 4.4 s and 209 MB at v = 2048
# and 21 s and 705 MB at v = 4000; a stack of several links holds at most
# MAX_LINK_VERTICES**2 entries
MAX_LINK_VERTICES = 1024
# B2 labels the facets by residue once per type set below the facet size,
# about 2^types sets: in process on a 2-CPU machine, one facet takes 0.012 s
# at 8 types, 0.037 s at 10, 0.14 s at 12 and 0.50 s at 14, and the boundary
# of the cross-polytope with that many types (2^types facets, which passes
# B2) takes 0.17 s at 10, 0.58 s at 11 and 2.2 s at 12; the work also grows
# linearly with the facet count
MAX_TYPES = 10


@dataclass(frozen=True, eq=False, init=False)
class PartiteComplex:
    """Pure partite simplicial complex given by typed vertices and facets.

    It keeps the facet array: a read-only (facets, types) int array whose
    row k is facet k and whose column c holds its vertex of type types[c],
    a vertex being its rank among the sorted vertex ids, so index order is
    id order.  `facets`, one frozenset of ids per row, is derived on first
    use.
    """

    vertex_types: dict[int, int]
    types: tuple[int, ...]  # the sorted vertex types
    facet_array: np.ndarray = field(repr=False)

    def __init__(self, vertex_types, facets):
        vt = dict(vertex_types)
        facets = tuple(map(frozenset, facets))
        types = _types(vt)
        ids = sorted(vt)
        width = len(types)
        # each vertex as its index, or -1 when undeclared, facet after facet
        index = {v: i for i, v in enumerate(ids)}
        sizes = np.fromiter(map(len, facets), dtype=np.intp, count=len(facets))
        vertices = np.fromiter(
            map(index.get, itertools.chain.from_iterable(facets), itertools.repeat(-1)),
            dtype=np.intp,
            count=int(sizes.sum()),
        )
        owner = np.arange(len(facets)).repeat(sizes)
        # a facet of `width` vertices goes to its row by their types; a row
        # left with a -1, an undeclared vertex or a type no vertex filled,
        # holds a facet that could not be placed
        at = (sizes == width)[owner]
        chambers = np.full((len(facets), width), -1, dtype=np.intp)
        columns = _columns(vt, ids, types)
        chambers[owner[at], columns[vertices[at]]] = vertices[at]
        self._keep(vt, types, _checked(vt, types, columns, chambers, facets))

    @classmethod
    def from_facet_array(cls, vertex_types, chambers) -> PartiteComplex:
        """The complex whose facet array is `chambers`, a copy of it, after
        the column checks of the constructor; an error names the first bad
        row."""
        vt = dict(vertex_types)
        types = _types(vt)
        chambers = np.asarray(chambers)
        if chambers.dtype.kind not in "iu" or chambers.shape[1:] != (len(types),):
            raise ValidationError(
                f"a facet array is an int array with one column per type {list(types)}, "
                f"got shape {chambers.shape}"
            )
        x = cls.__new__(cls)
        columns = _columns(vt, sorted(vt), types)
        x._keep(vt, types, _checked(vt, types, columns, chambers.astype(np.intp)))
        return x

    def _keep(self, vertex_types, types, chambers):
        chambers.flags.writeable = False
        object.__setattr__(self, "vertex_types", vertex_types)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "facet_array", chambers)

    @cached_property
    def facets(self) -> tuple[frozenset[int], ...]:
        """The facets as frozensets of vertex ids, row k of the facet array
        giving facet k."""
        ids = np.array(sorted(self.vertex_types), dtype=object)
        return tuple(map(frozenset, ids[self.facet_array].tolist()))

    @property
    def n(self) -> int:
        """Dimension: facets are (n+1)-sets."""
        return len(self.types) - 1

    @cached_property
    def _panels(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """For each column c, the facets grouped by their panel of cotype
        {types[c]}, that is, by every other column: the order and run bounds
        of `_row_groups`, and the group of each facet."""
        chambers = self.facet_array
        columns = range(chambers.shape[1])
        panels = []
        for c in columns:
            order, bounds = _row_groups(chambers[:, [k for k in columns if k != c]])
            group = np.empty(len(order), dtype=np.intp)
            group[order] = np.arange(len(bounds) - 1).repeat(np.diff(bounds))
            panels.append((order, bounds, group))
        return tuple(panels)


def _types(vertex_types: dict[int, int]) -> tuple[int, ...]:
    """The sorted vertex types; more than `MAX_TYPES` are refused."""
    types = tuple(sorted(set(vertex_types.values())))
    if len(types) > MAX_TYPES:
        raise ValidationError(
            f"a complex of more than {MAX_TYPES} types is not supported, got {len(types)}"
        )
    return types


def _columns(vertex_types: dict[int, int], ids: list[int], types: tuple[int, ...]) -> np.ndarray:
    """The facet-array column of each vertex, in the order of `ids`."""
    column_of_type = {t: c for c, t in enumerate(types)}
    return np.array([column_of_type[vertex_types[v]] for v in ids], dtype=np.intp)


def _checked(vertex_types, types, columns, chambers, facets=None) -> np.ndarray:
    """The facet array `chambers`, once every index is in range, column c
    holds only vertices of type types[c], and no row repeats; `columns` is
    the `_columns` array of the vertices.

    The error names the first row that breaks a rule.  With `facets`, the
    facet k that row k was placed from names it: a row left with a -1 is a
    facet with undeclared vertices, or without one vertex of each type.
    """
    if not len(chambers):
        raise ValidationError("a complex needs at least one facet")
    outside = ((chambers < 0) | (chambers >= len(columns))).any(axis=1)
    inside = np.where(outside[:, None], 0, chambers)
    foreign = (columns[inside] != np.arange(len(types))).any(axis=1)
    order, bounds = _row_groups(chambers)
    repeated = np.ones(len(chambers), dtype=bool)
    repeated[order[bounds[:-1]]] = False  # each run's first row is new
    bad = outside | foreign | repeated
    if not bad.any():
        return chambers
    ids = sorted(vertex_types)
    k = int(np.argmax(bad))
    if facets is None and outside[k]:
        raise ValidationError(
            f"facet row {k} {chambers[k].tolist()} has vertex indices outside 0..{len(ids) - 1}"
        )
    face = facets[k] if facets is not None else [ids[v] for v in chambers[k]]
    unknown = [v for v in face if v not in vertex_types]
    if unknown:
        raise ValidationError(f"facet {sorted(face)} uses undeclared vertices {unknown}")
    if outside[k] or foreign[k]:
        raise ValidationError(
            f"facet {sorted(face)} must have exactly one vertex of each type "
            f"{list(types)}, got types {sorted(map(vertex_types.__getitem__, face))}"
        )
    raise ValidationError(f"duplicate facet {sorted(face)}")


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that sorts the rows of a 2-dimensional int array,
    and the bounds of its runs of equal rows: run k is the rows
    order[bounds[k]:bounds[k + 1]]."""
    order = np.lexsort(rows.T) if rows.shape[1] else np.arange(len(rows))
    ordered = rows[order]
    new = np.ones(len(rows) + 1, dtype=bool)
    new[1:-1] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(new)


def _residue_labels(x: PartiteComplex, columns) -> np.ndarray:
    """Label each facet by the smallest facet index in its residue of the
    cotype whose columns are given: the facets it reaches through panels of
    those cotypes.

    Each sweep lowers every facet's label to the smallest in each of its
    panels in turn, then to the label of its label (which lies in the same
    residue), until a sweep changes nothing.
    """
    panels = [x._panels[c] for c in columns]
    label = np.arange(len(x.facet_array))
    settled = False
    while not settled:
        before = label
        for order, bounds, group in panels:
            label = np.minimum.reduceat(label[order], bounds[:-1])[group]
        label = label[label]
        settled = np.array_equal(label, before)
    return label


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
        ids = [_json_int(v, f"facets[{i}][{j}]") for j, v in enumerate(f)]
        cell = frozenset(ids)
        if len(cell) < len(ids):
            repeated = next(v for j, v in enumerate(ids) if v in ids[:j])
            raise InputFormatError(f"facets[{i}] repeats vertex id {repeated}")
        cells.append(cell)
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


def thickness(x: PartiteComplex) -> int:
    """Minimum number of facets containing a codimension-1 simplex."""
    if x.n < 0:
        raise ValidationError("thickness undefined for the empty complex")
    return min(int(np.diff(bounds).min()) for _, bounds, _ in x._panels)


def _codimension_2_links(x: PartiteComplex):
    """Every codimension-2 link, read off the facet array as arrays.

    For each column pair (i, j), one `_row_groups` call on the other columns
    groups the facets into the stars of the simplices of cotype {types[i],
    types[j]}; a star's facets are the edges of its simplex's link, a
    bipartite graph on columns i and j.  Links are in link order, the order
    of each link's first facet: runs are numbered in order of their leaders,
    their smallest facet indices (the sort is stable), by a count over a
    leader mask.  Returns each pair's slice
    of the links, in `itertools.combinations` order; each link's face as a
    row of vertex indices, and its vertex count; and each edge's link and
    the rows of its two ends, a vertex's row being its rank by id among its
    link's vertices.
    """
    chambers = x.facet_array
    width = chambers.shape[1]
    vertices = len(x.vertex_types)
    ranges, parts, start = {}, [], 0
    for pair in itertools.combinations(range(width), 2):
        others = [c for c in range(width) if c not in pair]
        order, bounds = _row_groups(chambers[:, others])
        firsts = order[bounds[:-1]]
        leads = np.zeros(len(order), dtype=bool)
        leads[firsts] = True
        leaders = np.flatnonzero(leads)
        link = np.empty(len(order), dtype=np.intp)
        link[order] = (np.cumsum(leads) - 1)[firsts].repeat(np.diff(bounds))
        # each (link, vertex) pair of the two columns once, in that order
        keys = (link * vertices + chambers[:, pair].T).ravel()
        found, index = np.unique(keys, return_inverse=True)
        sizes = np.bincount(found // vertices, minlength=len(leaders))
        rows, cols = index.reshape(2, -1) - (np.cumsum(sizes) - sizes)[link]
        parts.append((chambers[leaders][:, others], sizes, start + link, rows, cols))
        ranges[pair] = slice(start, start + len(leaders))
        start += len(leaders)
    return ranges, *map(np.concatenate, zip(*parts))


def _walk_spectra(sizes, link, rows, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second walk eigenvalue, diameter and cycle flag of each 1-dimensional
    link, as three arrays in link order: link k has sizes[k] vertices, and
    edge e joins rows rows[e] and cols[e] of link link[e].

    Links with the same vertex count and edge set have the same adjacency
    matrix, and in a building all links of one cotype are alike, so each
    class of equal links (`_link_classes`) is solved once, on its first
    link, and the results are copied to the others.  Those representatives
    of one vertex count share (k, v, v) adjacency stacks, cut so that a
    stack of more than one link holds at most `MAX_LINK_VERTICES`**2
    entries, and one `sym_eigs` call per stack on their degree-symmetrized
    walk matrices, with entries adjacency[u][v] / sqrt(d(u) d(v)); these
    share the walks' spectra.  Links and edges are sorted once by (vertex
    count, link), so each stack is a range of both.  A zero-degree vertex
    keeps a zero row, so its link still has a (meaningless) eigenvalue.  The
    diameter is the least d with (I + A)^d positive everywhere, or -1 when
    there is none, that is, when the link is not connected; a cycle is
    connected with every degree 2.
    """
    leader = _link_classes(sizes, link, rows, cols)
    solved = leader == np.arange(len(sizes))  # the first link of each class
    # the index of each link's class, which is its representative's among them
    solver = (np.cumsum(solved) - 1)[leader]
    kept = solved[link]
    sizes, link, rows, cols = sizes[solved], solver[link[kept]], rows[kept], cols[kept]
    count = len(sizes)
    second = np.empty(count)
    diameter = np.empty(count, dtype=int)
    cycle = np.empty(count, dtype=bool)
    by_size = np.argsort(sizes, kind="stable")
    slot = np.empty(count, dtype=np.intp)
    slot[by_size] = np.arange(count)
    layer = slot[link]
    edges = np.argsort(layer, kind="stable")
    layer, rows, cols = layer[edges], rows[edges], cols[edges]
    first_edge = np.searchsorted(layer, np.arange(count + 1))
    ordered = sizes[by_size]
    for size in np.unique(sizes).tolist():
        step = max(1, MAX_LINK_VERTICES**2 // size**2)
        low, high = np.searchsorted(ordered, [size, size + 1])
        for start in range(low, high, step):
            stop = min(start + step, high)
            members = by_size[start:stop]
            span = slice(first_edge[start], first_edge[stop])
            at, r, c = layer[span] - start, rows[span], cols[span]
            adj = np.zeros((stop - start, size, size))
            adj[at, r, c] = adj[at, c, r] = 1.0
            degree = adj.sum(axis=2)
            d = np.maximum(degree, 1.0)
            walk = adj / np.sqrt(d[:, :, None] * d[:, None, :])
            second[members] = sym_eigs(walk)[:, -2]
            diameter[members] = _diameters(adj)
            cycle[members] = (degree == 2).all(axis=1) & (diameter[members] >= 0)
    return second[solver], diameter[solver], cycle[solver]


def _link_classes(sizes, link, rows, cols) -> np.ndarray:
    """For each link, the smallest index of a link with the same vertex
    count and the same edge set, in the arrays of `_walk_spectra`.

    An edge is coded by its sorted rows as min * size + max, below span =
    max(sizes)**2, and one sort of link * span + code lists each link's
    codes in order, link after link.  Links of one edge count are then rows
    of (vertex count, codes), and one `_row_groups` call groups the equal
    ones.  The keys stay below count * span, inside int64 while the edge
    arrays (at least count entries) and one span-entry adjacency matrix fit
    in memory.
    """
    count = len(sizes)
    if count == 1:  # a 1-dimensional complex is its own and only link
        return np.zeros(1, dtype=np.intp)
    span = int(sizes.max()) ** 2
    code = np.minimum(rows, cols) * sizes[link] + np.maximum(rows, cols)
    code = np.sort(link * span + code) % span
    edge_count = np.bincount(link, minlength=count)
    first = np.cumsum(edge_count) - edge_count
    leader = np.empty(count, dtype=np.intp)
    for m in np.flatnonzero(np.bincount(edge_count)).tolist():
        members = np.flatnonzero(edge_count == m)
        table = np.empty((len(members), m + 1), dtype=np.intp)
        table[:, 0] = sizes[members]
        table[:, 1:] = code[first[members, None] + np.arange(m)]
        order, bounds = _row_groups(table)
        leader[members[order]] = members[order[bounds[:-1]]].repeat(np.diff(bounds))
    return leader


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
    """Report the checkable structure conditions for a complex.

    B2 is decided by residue labels of the facet array, one type set at a
    time, so no link is taken.
    """
    chambers = x.facet_array
    used = np.zeros(len(x.vertex_types), dtype=bool)
    used[chambers] = True
    ids = sorted(x.vertex_types)
    orphans = tuple(ids[i] for i in np.flatnonzero(~used))
    offender = None
    columns = range(len(x.types))
    for size in range(x.n):
        failing = []
        for face_columns in itertools.combinations(columns, size):
            label = _residue_labels(x, [c for c in columns if c not in face_columns])
            residues = np.flatnonzero(label == np.arange(len(label)))
            # a residue lies in one face, so a face with two is a failing one
            faces = chambers[residues][:, list(face_columns)]
            order, bounds = _row_groups(faces)
            repeated = np.diff(bounds) > 1
            failing += (sorted(faces[order[i]]) for i in bounds[:-1][repeated])
        if failing:
            offender = tuple(ids[i] for i in min(failing))
            break
    return ComplexValidation(
        partite=True,  # enforced at construction
        pure=not orphans,
        orphan_vertices=orphans,
        b1_links_finite=True,
        b1_note="finite input data: every link is finite",
        b2_links_gallery_connected=offender is None,
        b2_offender=offender,
    )


@dataclass(frozen=True)
class PairSpectrum:
    """Walk spectrum summary for one unordered type pair."""

    second_eigenvalue: float
    representatives: int
    max_disagreement: float
    link_diameter: int
    # vertex count of each link, in order of each link's first facet
    link_lengths: tuple[int, ...]
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
    the disagreement is reported.  The links are read off the facet array,
    and no link complex is built.  A link of more than `MAX_LINK_VERTICES`
    vertices is refused before any walk spectrum is computed, and so is a
    cotype whose links are all single edges, whose walk eigenvalue -1 admits
    no cosine; pairs are checked in order, each for both refusals.
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
    ranges, faces, sizes, *edges = _codimension_2_links(x)
    for (i, j), own in ranges.items():
        over = own.start + np.flatnonzero(sizes[own] > MAX_LINK_VERTICES)
        if over.size:
            ids = sorted(x.vertex_types)
            face = sorted(ids[v] for v in faces[over[0]])
            where = f"link of {face}" if face else "the complex itself"
            raise ValidationError(
                f"{where} has {int(sizes[over[0]])} vertices; the walk pass "
                f"takes at most {MAX_LINK_VERTICES}"
            )
        # a connected bipartite link has its walk spectrum symmetric about 0,
        # so its second eigenvalue is -1 on a single edge and at least 0 on 3
        # or more vertices
        if sizes[own].max() == 2:
            raise ValidationError(
                f"pair {{{types[i]},{types[j]}}}: walk eigenvalue -1 is negative "
                "(a single-edge link; too thin to admit a cosine matrix)"
            )
    # validate_complex has proved every link connected (B2)
    second, diameter, cycle = _walk_spectra(sizes, *edges)
    matrix = np.eye(len(types))
    per_pair: dict[tuple[int, int], PairSpectrum] = {}
    for (i, j), own in ranges.items():
        lambdas = second[own]
        lam = max(float(lambdas.max()), 0.0)  # round-off may fall below 0
        per_pair[(types[i], types[j])] = PairSpectrum(
            second_eigenvalue=lam,
            representatives=len(lambdas),
            max_disagreement=float(lambdas.max() - lambdas.min()),
            link_diameter=int(diameter[own].max()),
            link_lengths=tuple(sizes[own].tolist()),
            all_cycles=bool(cycle[own].all()),
        )
        matrix[i, j] = matrix[j, i] = -lam
    cosine = CosineMatrix(matrix)
    return ComplexCosineReport(
        matrix=cosine,
        per_pair=per_pair,
        definiteness=cosine.definiteness,
        degenerate=x.n == 1,
        convention="per-pair eigenvalue = maximum over cotype representatives",
        validation=val,
    )
