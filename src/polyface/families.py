"""Vertex generators and index schemes for the three 0/1 families.

Three families share one storage format:

* ``bqp`` -- tensor squares u (x) u of all 0/1 vectors u of length m,
  living in dimension m^2.
* ``qap`` -- tensor squares of n x n permutation matrices, dimension n^4.
* ``phi`` -- permutation matrices induced on the edges of the complete
  graph K_n by vertex permutations, dimension C(n,2)^2.

Conventions (the single source of truth for index translation):

* semantic multi-indices are 1-based, flat offsets are 0-based, and
  ``IndexScheme.encode`` is the one translation between them;
* a permutation sigma of S_n is the tuple of its 0-based images, the
  one form ``compose``, ``inverse``, ``label`` and the generators share;
  its label is the 1-based one-line notation;
* a permutation matrix has entry (i, j) = 1 iff sigma(i) = j;
* the edge matrix has rows indexed by the source edge and columns by its
  image: z[e, f] = 1 iff sigma maps edge e onto edge f elementwise.

The same layout gives ``qap_vertex``, ``phi_vertex`` and ``coordinate_map``,
the action of S_n x S_n x C_2 that the orbit scan and the orbit LP
in ``faces`` use; on bqp the same cell map, with b = a, permutes the bits,
and ``bqp_switching`` flips the first one.

Vertices are stored sparsely as sorted tuples of one-positions and
densified on demand (a qap(5) vertex has 25 ones out of 625 entries).
The generators emit them sorted by construction.  The generators,
``coordinate_map`` and ``label`` read per-order tables built once per n:
the n x n edge ranks, the labels "1".."n", and the ambient offsets cut
into rows, whose int objects every image and vertex of that order shares.

qap(n) and phi(n) are generated in lex order from order n-1 tables
(``lex_vertices``): the permutations with first image a are pi_a after
(0, s + 1), s running over S_{n-1}, so each vertex is one C-level lookup
of the vertex of (0, s + 1) in a's relabelling table.  Those n-1 ordered
vertices are ``qap_vertex``'s, and phi(n-1)'s read through two fixed
tables for phi(n): the edges at point 0 and the edges of K_{n-1}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, permutations, product, repeat, starmap
from math import comb, factorial
from operator import add, itemgetter, lt
from typing import Iterable, Iterator, Sequence


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """f after g."""
    return tuple(f[x] for x in g)


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def label(p: tuple[int, ...]) -> str:
    """p in 1-based one-line notation: (1, 2, 0) -> "231"."""
    return "".join(map(_point_labels(len(p)).__getitem__, p))


def edge_index(i: int, j: int, n: int) -> int:
    """0-based rank of edge {i,j} (i < j) in the lexicographic edge list of K_n."""
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i},{j}) for n={n}")
    # edges (1,2),(1,3),...,(1,n),(2,3),...: rows before i contribute n-1, n-2, ...
    return (i - 1) * n - (i - 1) * i // 2 + (j - i - 1)


def edge_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@cache
def _edge_ranks(n: int) -> tuple[tuple[int, ...], ...]:
    """rank[x][y] is the ``edge_index`` of the edge {x, y} of 0-based points; -1 where x = y."""
    return tuple(tuple(-1 if x == y else edge_index(min(x, y) + 1, max(x, y) + 1, n) for y in range(n)) for x in range(n))


@cache
def _point_labels(n: int) -> tuple[str, ...]:
    """The 1-based labels "1".."n" of the 0-based points 0..n-1."""
    return tuple(str(x + 1) for x in range(n))


@cache
def _offset_rows(width: int) -> tuple[tuple[int, ...], ...]:
    """range(width * width) cut into rows of width: the one int object of each offset that the tables share."""
    offsets = tuple(range(width * width))
    return tuple(offsets[r : r + width] for r in range(0, width * width, width))


def _squared(cells: Iterable[int], size: int) -> Iterator[int]:
    """c * size + d for each c, then each d, in cells (at least two): a tensor square's one-positions, read off
    ``_offset_rows(size)`` by one lookup per row."""
    get = itemgetter(*cells)
    return chain.from_iterable(map(get, get(_offset_rows(size))))


@dataclass(frozen=True)
class IndexScheme:
    """Flat-offset layout of one family's ambient space."""

    family: str  # "bqp" | "qap" | "phi"
    n: int
    ambient_dim: int

    def encode(self, *index) -> int:
        """0-based flat offset of a 1-based multi-index: (i, j) in bqp,
        (i, j, k, l) in qap, an edge pair (e, f) in phi; out of range raises ValueError."""
        n = self.n
        if self.family == "phi":
            e, f = index
            return edge_index(*e, n) * comb(n, 2) + edge_index(*f, n)
        if not all(1 <= x <= n for x in index):
            raise ValueError(f"{self.family} index out of range: {index}")
        if self.family == "bqp":
            i, j = index
            return (i - 1) * n + (j - 1)
        i, j, k, l = index
        return ((i - 1) * n + (j - 1)) * n * n + (k - 1) * n + (l - 1)


def bqp_scheme(m: int) -> IndexScheme:
    return IndexScheme("bqp", m, m * m)


def qap_scheme(n: int) -> IndexScheme:
    return IndexScheme("qap", n, n ** 4)


def phi_scheme(n: int) -> IndexScheme:
    return IndexScheme("phi", n, comb(n, 2) ** 2)


@dataclass(frozen=True)
class VertexSet:
    """Labeled 0/1 vertices of one family, stored as sorted one-position tuples."""

    scheme: IndexScheme
    labels: tuple[str, ...]
    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.labels) != len(self.vertices):
            raise ValueError("labels and vertices must have equal length")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertices must be pairwise distinct")
        dim = self.scheme.ambient_dim
        for v in self.vertices:
            # a sorted vertex's range is its ends; an unsorted one is still refused as out of range first
            ordered = all(map(lt, v, v[1:]))
            if v and not (0 <= v[0] and v[-1] < dim if ordered else 0 <= min(v) <= max(v) < dim):
                raise ValueError("one-position offset out of range")
            if not ordered:
                raise ValueError("one-positions must be sorted and distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """For each ambient offset, the indices of the vertices with a one there."""
        columns: list[list[int]] = [[] for _ in range(self.scheme.ambient_dim)]
        for t, v in enumerate(self.vertices):
            for off in v:
                columns[off].append(t)
        return tuple(map(tuple, columns))

    def dense(self, idx: int) -> tuple[int, ...]:
        out = [0] * self.scheme.ambient_dim
        for off in self.vertices[idx]:
            out[off] = 1
        return tuple(out)

    def dense_all(self) -> list[tuple[int, ...]]:
        return [self.dense(i) for i in range(len(self))]

    def to_json(self) -> dict:
        return {
            "family": self.scheme.family,
            "n": self.scheme.n,
            "ambient_dim": self.scheme.ambient_dim,
            "labels": list(self.labels),
            "vertices": [list(v) for v in self.vertices],
        }

    @staticmethod
    def from_json(data: dict) -> "VertexSet":
        """Vertex set from parsed JSON; any malformed shape raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"vertex file must hold a JSON object, not {type(data).__name__}")
        missing = [key for key in ("family", "n", "ambient_dim", "labels", "vertices") if key not in data]
        if missing:
            raise ValueError(f"vertex file lacks {', '.join(missing)}")
        family, n, dim = data["family"], data["n"], data["ambient_dim"]
        labels, vertices = data["labels"], data["vertices"]
        if not isinstance(family, str) or type(n) is not int:
            raise ValueError("vertex file needs a family name and an integer n")
        if type(dim) is not int:
            raise ValueError(f"vertex file needs an integer ambient_dim, not {type(dim).__name__}")
        if not (
            isinstance(labels, list)
            and all(isinstance(label, str) for label in labels)
            and isinstance(vertices, list)
            and set(map(type, vertices)) <= {list}
            and set(map(type, chain.from_iterable(vertices))) <= {int}
        ):
            raise ValueError("vertex file needs string labels and integer one-position lists")
        scheme = scheme_for(family, n)
        if scheme.ambient_dim != dim:
            raise ValueError(
                f"ambient_dim {dim} does not match "
                f"{family}({n}) = {scheme.ambient_dim}"
            )
        return VertexSet(scheme=scheme, labels=tuple(labels), vertices=tuple(map(tuple, vertices)))

    def save(self, path) -> None:
        """Write the vertex file: exactly the bytes of ``json.dumps(self.to_json(), indent=1)`` and a newline.

        The layout is written here, not by ``json.dump``: with an indent,
        CPython's ``json`` runs its pure-Python encoder and writes each
        token with its own ``write``, 3.2 to 4.7 times as long on qap(5)
        to qap(8).  Strings still go through ``json.dumps``, so escaping
        stays ``json``'s; each vertex is one C-level ``%`` format of its
        offsets into the row layout of its length (``_row_format``);
        labels and rows are streamed with ``writelines``, so neither the
        23 MB qap(8) file nor ``to_json``'s lists are ever held whole.
        """
        scheme = self.scheme
        vertices = self.vertices
        rows = map(str.__mod__, map(_row_format, map(len, vertices)), vertices)
        with open(path, "w") as fh:
            fh.write(
                f'{{\n "family": {json.dumps(scheme.family)},\n "n": {scheme.n},\n'
                f' "ambient_dim": {scheme.ambient_dim},\n "labels": '
            )
            if not vertices:  # then no labels either
                fh.write('[],\n "vertices": []\n}\n')
                return
            fh.write("[\n  ")
            fh.writelines(_json_items(map(json.dumps, self.labels)))
            fh.write('\n ],\n "vertices": [\n  ')
            fh.writelines(_json_items(rows))
            fh.write("\n ]\n}\n")

    @staticmethod
    def load(path) -> "VertexSet":
        return VertexSet.from_json(load_json(path, "vertex file"))


@cache
def _row_format(length: int) -> str:
    """The layout ``json.dumps(..., indent=1)`` gives a vertex of length offsets in a vertex file, one ``%s``
    per offset.  ``%s`` writes each offset as ``str`` does, whatever its type; ``"[]"`` when length is 0."""
    return "[\n   " + ",\n   ".join(repeat("%s", length)) + "\n  ]" if length else "[]"


def _json_items(items: Iterable[str]) -> Iterator[str]:
    """Encoded items of a top-level array of a JSON object, each after the first preceded by the separator
    ``json.dumps(..., indent=1)`` puts there."""
    return map(add, chain(("",), repeat(",\n  ")), items)


def load_json(path, what: str):
    """The parsed JSON of the file at path; JSON nested too deeply for the parser raises ValueError naming what."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{what} nests its JSON too deeply to read") from None


def bqp_vertex_offsets(bits: Sequence[int], m: int) -> tuple[int, ...]:
    """One-positions of u (x) u, sorted by construction: (i-1)m + (j-1) with j <= m increases along the loop."""
    ones = [i for i, b in enumerate(bits, start=1) if b]
    return tuple([(i - 1) * m + (j - 1) for i in ones for j in ones])


def bqp_vertices(m: int) -> VertexSet:
    """All 2^m tensor squares u (x) u, u in {0,1}^m, in lexicographic u order."""
    if m < 2:
        raise ValueError("bqp needs m >= 2")
    labels = tuple(map("".join, product("01", repeat=m)))
    vertices = tuple(bqp_vertex_offsets(bits, m) for bits in product((0, 1), repeat=m))
    return VertexSet(bqp_scheme(m), labels, vertices)


def qap_vertex(p: tuple[int, ...]) -> tuple[int, ...]:
    """One-positions of the tensor square of p's permutation matrix (n >= 2).
    Sorted by construction: the cells c = i*n + p(i) increase, so c*n^2 + d increases read row by row."""
    n = len(p)
    return tuple(_squared(map(add, range(0, n * n, n), p), n * n))


def _lex_labels(n: int) -> tuple[str, ...]:
    """The labels of ``permutations(range(n))``, in that order."""
    return tuple(map("".join, permutations(_point_labels(n))))


def qap_vertices(n: int) -> VertexSet:
    if n < 2:
        raise ValueError("qap needs n >= 2")
    return VertexSet(qap_scheme(n), _lex_labels(n), tuple(lex_vertices("qap", n)))


def _edge_images(p: tuple[int, ...]) -> list[int]:
    """Rank of the image under p of each edge of K_n, in edge-list order."""
    rank = _edge_ranks(len(p))
    return [rank[x][y] for i, x in enumerate(p) for y in p[i + 1 :]]


def phi_vertex(p: tuple[int, ...]) -> tuple[int, ...]:
    """One-positions of the edge-permutation matrix of p on K_n.
    Sorted by construction: e * C(n,2) + f with f < C(n,2) increases with the source edge e."""
    if len(p) < 3:
        raise ValueError("phi needs n >= 3")
    ne = comb(len(p), 2)
    return tuple(map(add, range(0, ne * ne, ne), _edge_images(p)))


def coordinate_map(scheme: IndexScheme, a: tuple[int, ...], b: tuple[int, ...], transpose: bool) -> list[int]:
    """Image of every ambient offset under the move (a, b, transpose).

    The move sends the vertex of the permutation p to the vertex of
    b.p.a^-1, or of b.p^-1.a^-1 when transpose is set: cell (i, j) of a
    permutation matrix goes to (a(i), b(j)), or to (a(j), b(i)).  In qap
    both tensor factors move by that cell map; in phi, a moves the source
    edge and b the image edge, and transpose swaps the two.  In bqp the
    cell map is the coordinate map, and the moves (a, a, False) are the
    bit permutations: u (x) u goes to u' (x) u' with u'(a(i)) = u(i).
    With the switching (``bqp_switching``), an affine map and not a
    coordinate permutation, they generate bqp's group Z_2^m semidirect S_m.
    The qap and phi images are read off one shared table of the offsets,
    one lookup per row of the ambient grid.
    """
    n = scheme.n
    if scheme.family in ("qap", "bqp"):
        cells = [a[j] * n + b[i] if transpose else a[i] * n + b[j] for i in range(n) for j in range(n)]
        return cells if scheme.family == "bqp" else list(_squared(cells, n * n))
    ne = comb(n, 2)
    rows, cols = itemgetter(*_edge_images(a)), itemgetter(*_edge_images(b))
    grid = map(cols, rows(_offset_rows(ne)))
    return list(chain.from_iterable(zip(*grid) if transpose else grid))


def bqp_switching(m: int) -> dict[int, tuple[int, tuple[tuple[int, int], ...]]]:
    """The switching of the first bit of bqp(m), u to u xor e_1, as an affine map of the ambient coordinates
    (De Simone, Discrete Math. 79, 1990; Padberg, Math. Program. 45, 1989).

    Each coordinate that changes maps to (c, ((source, coefficient), ...)),
    its image being c plus the coefficients times the sources; every
    other coordinate is unchanged.  From u'_i u'_j: x_11 goes to 1 - x_11,
    and x_i1 to x_ii - x_i1 and x_1i to x_ii - x_1i for i != 1, so u (x) u
    goes to u' (x) u'.  The map is an involution.
    """
    enc = bqp_scheme(m).encode
    rows = {enc(1, 1): (1, ((enc(1, 1), -1),))}
    for i in range(2, m + 1):
        for cell in (enc(i, 1), enc(1, i)):
            rows[cell] = (0, ((enc(i, i), 1), (cell, -1)))
    return rows


# Display order for the six K_3 edge matrices: identity, the two
# 3-cycles, then the transpositions (13), (12), (23).
_PHI3_ORDER = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0), (1, 0, 2), (0, 2, 1))


def phi_vertices(n: int) -> VertexSet:
    """All n! edge-permutation matrices of K_n: in the classical display order for n = 3, else in lex order."""
    if n < 3:
        raise ValueError("phi needs n >= 3")
    if n == 3:
        return VertexSet(phi_scheme(3), tuple(map(label, _PHI3_ORDER)), tuple(map(phi_vertex, _PHI3_ORDER)))
    return VertexSet(phi_scheme(n), _lex_labels(n), tuple(lex_vertices("phi", n)))


def lex_vertices(family: str, n: int) -> list[tuple[int, ...]]:
    """The qap(n) (n >= 2) or phi(n) (n >= 3) vertex of each permutation of ``permutations(range(n))``, in that
    (lex) order, read off order n-1 tables.

    Lex order puts the permutations with first image a together, as
    pi_a.(0, s + 1) for s in lex order over S_{n-1}, where
    pi_a = (a, 0, .., a-1, a+1, .., n-1) relabels the images (Knuth, TAOCP
    4A, 7.2.1.2).  Relabelling the images keeps each one-position in its
    row, the cell row i in qap and the source edge in phi, so the vertex
    of pi_a.p is the vertex of p read through the table
    ``coordinate_map(scheme, id, pi_a, False)``, still sorted.  So the
    vertex of each (0, s + 1) becomes one ``itemgetter``, and every vertex
    is one C-level lookup of it in one of n tables whose ints are the
    shared offsets of ``_offset_rows``.  The vertices of (0, s + 1) are
    ``qap_vertex``'s, and in phi(n), n >= 4, phi(n-1)'s: the edge {0, j+1}
    of rank j goes to {0, s(j) + 1} of rank s(j), and the other edges are
    those of K_{n-1} on the points 1..n-1, after the n - 1 edges at 0 on
    both sides.
    """
    scheme = scheme_for(family, n)
    if family == "qap" or n == 3:
        make = qap_vertex if family == "qap" else phi_vertex
        first = (make((0, *s)) for s in permutations(range(1, n)))
    else:
        m, ne, sub = n - 1, comb(n, 2), comb(n - 1, 2)
        shifted = [(m + e) * ne + m + f for e in range(sub) for f in range(sub)].__getitem__
        heads = range(0, m * ne, ne)
        first = (
            (*map(add, heads, s), *map(shifted, w)) for s, w in zip(permutations(range(m)), lex_vertices("phi", m))
        )
    getters = list(starmap(itemgetter, first))
    ident = tuple(range(n))
    vertices = []
    for a in range(n):
        table = coordinate_map(scheme, ident, (a, *ident[:a], *ident[a + 1 :]), False)
        vertices += [get(table) for get in getters]
    return vertices


# Each family's scheme constructor and vertex generator, the one family
# dispatch of ``scheme_for`` and ``generate``.
_FAMILIES = {
    "bqp": (bqp_scheme, bqp_vertices),
    "qap": (qap_scheme, qap_vertices),
    "phi": (phi_scheme, phi_vertices),
}


def _family(family: str):
    try:
        return _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None


def scheme_for(family: str, n: int) -> IndexScheme:
    return _family(family)[0](n)


def generate(family: str, n: int) -> VertexSet:
    return _family(family)[1](n)


def vertex_count(family: str, n: int) -> int:
    """The number of vertices ``generate(family, n)`` returns: 2^n for bqp, n! for qap and phi."""
    return 2 ** n if family == "bqp" else factorial(n)


# The desk-scale guards of ``polyface generate``: the largest order of each
# family it writes without --force.
GENERATE_GUARDS = {"bqp": 16, "qap": 7, "phi": 7}

# Dense cells (vertices x ambient dimension) of the largest vertex set the
# guards admit: bqp(16), 65,536 vertices x 256 coordinates.  Densifying
# costs one list cell per dense cell; ``FaceContext`` refuses a larger set,
# though its hull frame is built from one-positions and densifies none.
MAX_DENSE_CELLS = max(
    vertex_count(family, n) * scheme_for(family, n).ambient_dim
    for family, n in GENERATE_GUARDS.items()
)
