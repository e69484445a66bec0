"""Exact affine maps between the family coordinate spaces.

The four named constructions:

* ``prop1_projection`` -- the linear surjection from assignment-tensor
  space onto edge-permutation space (each edge-pair coordinate is the
  sum of the two tensor coordinates that can light it up).
* ``thm1_embedding``  -- the coordinate identification exhibiting the
  assignment-tensor vertices as the face of the Boolean-quadric cube
  cut out by zero fixings plus row/column-sum equations.
* ``lemma1_face_iso`` -- the face of the edge-permutation polytope fixing
  all graph vertices above 3, affinely isomorphic to the n = 3 polytope;
  the inverse map reconstructs every coordinate via the h indicator
  combinations.
* ``thm2_face_iso``   -- the face of the even-order edge-permutation
  polytope whose generators swap-or-fix the pairs (2i-1, 2i), affinely
  isomorphic to the Boolean quadric polytope.

plus the brute-force affine-isomorphism search used for the
non-isomorphism verdict, which decides each vertex bijection by
substituting the domain's affine dependencies into the codomain points.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, permutations
from typing import Sequence

from .exactmath import affine_dependencies
from .faces import FaceByEquations, face_by_equations
from .families import (
    VertexSet,
    bqp_scheme,
    bqp_vertices,
    edge_list,
    phi_scheme,
    phi_vertices,
    qap_scheme,
)

Q = Fraction


@dataclass(frozen=True)
class AffineMap:
    """apply(v) = L v + offset, all entries exact rationals (ints or Fractions).

    The linear part L is kept as its nonzero entries only: entries lists
    (row, column, value) in row-major order, and every other entry of L
    is zero.
    """

    name: str
    domain_dim: int
    codomain_dim: int
    entries: tuple[tuple[int, int, Fraction], ...]
    offset: tuple

    def __post_init__(self):
        if len(self.offset) != self.codomain_dim:
            raise ValueError("map shape mismatch")
        for r, j, _ in self.entries:
            if not (0 <= r < self.codomain_dim and 0 <= j < self.domain_dim):
                raise ValueError("map shape mismatch")

    @cached_property
    def _integer_columns(self) -> tuple[list[list[tuple[int, int]]], list[int], int]:
        """(columns, offset, den): the map as integers over den, the lcm of
        all its denominators; columns[j] lists (row, entry) for the nonzero
        entries of column j."""
        values = chain((x for _, _, x in self.entries), self.offset)
        den = reduce(math.lcm, (x.denominator for x in values), 1)
        columns: list[list[tuple[int, int]]] = [[] for _ in range(self.domain_dim)]
        for r, j, x in self.entries:
            columns[j].append((r, x.numerator * (den // x.denominator)))
        return columns, [x.numerator * (den // x.denominator) for x in self.offset], den

    def _sum(self, terms) -> tuple:
        """offset plus value times column, over the (column, value) pairs of terms; with den 1 the entries are
        left as computed (ints on integer values), which compare equal to the Fractions they stand for."""
        columns, offset, den = self._integer_columns
        out = list(offset)
        for j, x in terms:
            for r, c in columns[j]:
                out[r] += c * x
        return tuple(out) if den == 1 else tuple(Q(x, den) for x in out)

    def apply(self, point: Sequence) -> tuple:
        return self._sum((j, x) for j, x in enumerate(point) if x != 0)

    def apply_vertex(self, onepositions: Sequence[int]) -> tuple:
        """apply to a 0/1 point given by its one-position offsets."""
        return self._sum((j, 1) for j in onepositions)


@dataclass(frozen=True)
class VertexCorrespondence:
    """Bijection between two vertex index sets, with generator semantics."""

    pairs: tuple[tuple[int, int], ...]
    description: str

    def __post_init__(self):
        dom = [a for a, _ in self.pairs]
        cod = [b for _, b in self.pairs]
        if len(set(dom)) != len(dom) or len(set(cod)) != len(cod):
            raise ValueError("correspondence is not bijective")


def _sparse_map(name: str, domain_dim: int, codomain_dim: int, cells: Counter, offset=None) -> AffineMap:
    """The AffineMap whose linear part holds cells[row, column] (zero where absent); offset zero when None."""
    entries = tuple(sorted((r, j, x) for (r, j), x in cells.items() if x))
    offset = (Q(0),) * codomain_dim if offset is None else tuple(offset)
    return AffineMap(name, domain_dim, codomain_dim, entries, offset)


# --- projection of assignment tensors onto edge permutations --------------


def prop1_projection(n: int) -> AffineMap:
    """Linear map sending y to z by z[(i,j),(k,l)] = y_{ikjl} + y_{iljk}."""
    if n < 3:
        raise ValueError("need n >= 3")
    qs, ps = qap_scheme(n), phi_scheme(n)
    cells = Counter()
    for i, j in edge_list(n):
        for k, l in edge_list(n):
            r = ps.encode((i, j), (k, l))
            cells[r, qs.encode(i, k, j, l)] += 1
            cells[r, qs.encode(i, l, j, k)] += 1
    return _sparse_map(f"qap({n})->phi({n}) projection", qs.ambient_dim, ps.ambient_dim, cells)


# --- the assignment polytope as a face of the Boolean quadric cube --------


@dataclass(frozen=True)
class QuadricFaceEmbedding:
    """Data identifying assignment tensors inside the quadric polytope.

    Flat offsets of the two ambient spaces coincide (cell-major order),
    so the coordinate identification is the identity on offsets.

    row_zero_fixings kill same-row diagonal-cell products, making each
    row of the generator carry at most one 1; setting the row sums to 1
    then cuts a further face (row sums <= 1 is valid once the zeros
    hold).  The column sums alone are NOT one-sided on that face -- a
    row-stochastic generator can put two 1s in a column -- so
    col_zero_fixings (same-column products) are provided as the
    coordinate form that makes the column-sum equations a face; with
    them the column sums become derived consequences.
    """

    n: int
    ambient_dim: int
    row_zero_fixings: tuple[tuple[int, int], ...]  # (offset, 0)
    col_zero_fixings: tuple[tuple[int, int], ...]  # (offset, 0)
    row_sum_groups: tuple[tuple[int, ...], ...]  # each sums to 1
    col_sum_groups: tuple[tuple[int, ...], ...]


def thm1_embedding(n: int) -> QuadricFaceEmbedding:
    if n < 2:
        raise ValueError("need n >= 2")
    qs = qap_scheme(n)
    row_fixings = []
    col_fixings = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(1, n + 1):
                if j != l:
                    row_fixings.append((qs.encode(i, j, i, l), 0))
                    col_fixings.append((qs.encode(j, i, l, i), 0))
    row_groups = tuple(
        tuple(qs.encode(i, j, i, j) for j in range(1, n + 1)) for i in range(1, n + 1)
    )
    col_groups = tuple(
        tuple(qs.encode(i, j, i, j) for i in range(1, n + 1)) for j in range(1, n + 1)
    )
    return QuadricFaceEmbedding(
        n=n,
        ambient_dim=qs.ambient_dim,
        row_zero_fixings=tuple(row_fixings),
        col_zero_fixings=tuple(col_fixings),
        row_sum_groups=row_groups,
        col_sum_groups=col_groups,
    )


# --- the n = 3 edge polytope as a face of the order-n one ------------------


@dataclass(frozen=True)
class FaceIsoResult:
    vertex_set: VertexSet
    face: FaceByEquations
    forward: AffineMap
    inverse: AffineMap
    correspondence: VertexCorrespondence
    extra: dict


def _h_indicator_cells(i: int, k: int):
    """phi(3) cells whose sum minus one indicates 'image of i is k'."""
    cells = []
    for jp in range(1, 4):
        if jp == i:
            continue
        for lp in range(1, 4):
            if lp == k:
                continue
            e = (min(i, jp), max(i, jp))
            f = (min(k, lp), max(k, lp))
            cells.append((e, f))
    return cells


def lemma1_face_iso(n: int) -> FaceIsoResult:
    """Face of ``phi_vertices(n)`` fixing graph vertices 4..n, mapped onto phi(3).

    forward: projection onto the 9 coordinates with all endpoints in [3];
    inverse: reconstructs every coordinate, using h_{ik} (an affine
    combination of four low-block coordinates minus one) for the mixed
    coordinates z[(i,j),(k,j)] with j > 3.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    vs = phi_vertices(n)
    ps, p3 = phi_scheme(n), phi_scheme(3)
    equations = []
    for i, j in edge_list(n):
        if j <= 3:
            continue
        for k, l in edge_list(n):
            if l != j:
                equations.append((ps.encode((i, j), (k, l)), 0))
    face = face_by_equations(vs, equations)

    fwd = Counter({(p3.encode(e, f), ps.encode(e, f)): 1 for e in edge_list(3) for f in edge_list(3)})
    forward = _sparse_map(f"phi({n}) face -> phi(3) projection", ps.ambient_dim, p3.ambient_dim, fwd)

    inv = Counter()
    inv_offset = [Q(0)] * ps.ambient_dim
    for i, j in edge_list(n):
        for k, l in edge_list(n):
            r = ps.encode((i, j), (k, l))
            if j <= 3 and l <= 3:
                inv[r, p3.encode((i, j), (k, l))] = 1
            elif j >= 4 and i <= 3:
                if l == j and k <= 3:
                    # z[(i,j),(k,j)] = h_{ik}
                    for e, f in _h_indicator_cells(i, k):
                        inv[r, p3.encode(e, f)] += 1
                    inv_offset[r] -= 1
            elif i >= 4:
                if (k, l) == (i, j):
                    inv_offset[r] = Q(1)
            # remaining coordinates stay identically zero on the face
    inverse = _sparse_map(f"phi(3) -> phi({n}) face", p3.ambient_dim, ps.ambient_dim, inv, inv_offset)

    phi3 = phi_vertices(3)
    label_to_phi3 = {lab: i for i, lab in enumerate(phi3.labels)}
    pairs = []
    for face_pos, vidx in enumerate(face.subset):
        restricted = vs.labels[vidx][:3]
        pairs.append((vidx, label_to_phi3[restricted]))
    corr = VertexCorrespondence(
        pairs=tuple(pairs),
        description="generator restricted to the first three graph vertices",
    )
    h12_cells = tuple(phi_scheme(3).encode(e, f) for e, f in _h_indicator_cells(1, 2))
    return FaceIsoResult(
        vertex_set=vs,
        face=face,
        forward=forward,
        inverse=inverse,
        correspondence=corr,
        extra={"phi3": phi3, "h12_cells": h12_cells},
    )


# --- the Boolean quadric polytope as a face of phi(2k) ---------------------


def _block(x: int) -> int:
    return (x + 1) // 2


def thm2_face_iso(k: int) -> FaceIsoResult:
    """Face of ``phi_vertices(2k)`` whose generators swap or fix each pair (2i-1, 2i).

    The face is cut out by fixing the intra-pair coordinates to one; its
    vertices correspond to bit vectors u with u_i = 1 exactly when pair i
    is left unchanged, and the face is affinely isomorphic to the Boolean
    quadric polytope of order k under x = u (x) u.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    n2 = 2 * k
    vs = phi_vertices(n2)
    ps, bs = phi_scheme(n2), bqp_scheme(k)
    equations = [(ps.encode((2 * i - 1, 2 * i), (2 * i - 1, 2 * i)), 1) for i in range(1, k + 1)]
    face = face_by_equations(vs, equations)

    fwd = Counter()
    for r in range(1, k + 1):
        for c in range(1, k + 1):
            out = bs.encode(r, c)
            if r < c:
                fwd[out, ps.encode((2 * r, 2 * c), (2 * r, 2 * c))] = 1
            elif r > c:
                fwd[out, ps.encode((2 * c, 2 * r), (2 * c, 2 * r))] = 1
            elif r == 1:
                fwd[out, ps.encode((2, 4), (2, 4))] = 1
                fwd[out, ps.encode((2, 4), (2, 3))] = 1
            else:
                fwd[out, ps.encode((2, 2 * r), (2, 2 * r))] = 1
                fwd[out, ps.encode((2, 2 * r), (1, 2 * r))] = 1
    forward = _sparse_map(f"phi({n2}) face -> bqp({k})", ps.ambient_dim, bs.ambient_dim, fwd)

    inv = Counter()
    inv_offset = [Q(0)] * ps.ambient_dim
    for a, b in edge_list(n2):
        bi, bj = _block(a), _block(b)
        for c, d in edge_list(n2):
            r = ps.encode((a, b), (c, d))
            if bi == bj:
                if (c, d) == (a, b):
                    inv_offset[r] = Q(1)
                continue
            if _block(c) != bi or _block(d) != bj:
                continue
            same_a, same_b = c == a, d == b
            xii, xjj, xij = (r, bs.encode(bi, bi)), (r, bs.encode(bj, bj)), (r, bs.encode(bi, bj))
            if same_a and same_b:
                inv[xij] += 1
            elif same_a:
                inv[xii] += 1
                inv[xij] -= 1
            elif same_b:
                inv[xjj] += 1
                inv[xij] -= 1
            else:
                inv_offset[r] += 1
                inv[xii] -= 1
                inv[xjj] -= 1
                inv[xij] += 1
    inverse = _sparse_map(f"bqp({k}) -> phi({n2}) face", bs.ambient_dim, ps.ambient_dim, inv, inv_offset)

    bqp = bqp_vertices(k)
    bits_to_idx = {lab: i for i, lab in enumerate(bqp.labels)}
    pairs = []
    for vidx in face.subset:
        images = tuple(int(ch) for ch in vs.labels[vidx])
        u = "".join("1" if images[2 * i - 2] == 2 * i - 1 else "0" for i in range(1, k + 1))
        pairs.append((vidx, bits_to_idx[u]))
    corr = VertexCorrespondence(
        pairs=tuple(pairs),
        description="bit i set exactly when the generator leaves pair (2i-1, 2i) unchanged",
    )

    groups = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            A, B, C, D = 2 * i - 1, 2 * i, 2 * j - 1, 2 * j
            enc = ps.encode
            groups.append(("equal", (enc((A, C), (A, C)), enc((A, D), (A, D)), enc((B, C), (B, C)), enc((B, D), (B, D)))))
            groups.append(("equal", (enc((A, C), (A, D)), enc((A, D), (A, C)), enc((B, C), (B, D)), enc((B, D), (B, C)))))
            groups.append(("equal", (enc((A, C), (B, C)), enc((A, D), (B, D)), enc((B, C), (A, C)), enc((B, D), (A, D)))))
            groups.append(("equal", (enc((A, C), (B, D)), enc((A, D), (B, C)), enc((B, C), (A, D)), enc((B, D), (A, C)))))
            groups.append(("sum1", (enc((B, D), (A, C)), enc((B, D), (A, D)), enc((B, D), (B, C)), enc((B, D), (B, D)))))
    return FaceIsoResult(
        vertex_set=vs,
        face=face,
        forward=forward,
        inverse=inverse,
        correspondence=corr,
        extra={"bqp": bqp, "consistency_groups": tuple(groups)},
    )


# --- isomorphism search -----------------------------------------------------


@dataclass(frozen=True)
class IsoSearchResult:
    found: bool
    tried: int
    correspondence: tuple[int, ...] | None = None


def _dense_points(v) -> list[tuple]:
    if isinstance(v, VertexSet):
        return v.dense_all()
    return [tuple(x) for x in v]


def _substitutes_to_zero(dep: Sequence[int], points: Sequence[tuple]) -> bool:
    """Whether sum(dep[i] * points[i]) is the zero vector."""
    terms = [(c, p) for c, p in zip(dep, points) if c]
    return all(sum(c * p[r] for c, p in terms) == 0 for r in range(len(points[0])))


# The most vertices brute_force_iso_search takes: 8! bijections.
ISO_SEARCH_MAX_VERTICES = 8


def brute_force_iso_search(dom, cod) -> IsoSearchResult:
    """The first bijection, in lexicographic order, that extends to an affine isomorphism of hulls.

    correspondence[i] is the codomain point that domain point i goes to.
    A bijection extends to an affine map iff it carries every affine
    dependency of the domain points to one of the codomain points, and
    that map is an isomorphism of hulls iff the hull dimensions agree as
    well.  Hulls of different dimensions have different numbers of
    independent dependencies, so no bijection fits and none is tested.
    Otherwise each bijection substitutes a basis of the domain's
    dependencies into the codomain points it names, and it fits when
    every substitution is zero.
    """
    dpts, cpts = _dense_points(dom), _dense_points(cod)
    if len(dpts) != len(cpts):
        raise ValueError("vertex sets have different sizes")
    if len(dpts) > ISO_SEARCH_MAX_VERTICES:
        raise ValueError(f"refusing to search beyond {ISO_SEARCH_MAX_VERTICES} vertices")
    npts = len(dpts)
    deps = affine_dependencies(dpts)
    if len(deps) != len(affine_dependencies(cpts)):
        return IsoSearchResult(found=False, tried=math.factorial(npts))
    tried = 0
    for perm in permutations(range(npts)):
        tried += 1
        images = [cpts[j] for j in perm]
        if all(_substitutes_to_zero(dep, images) for dep in deps):
            return IsoSearchResult(found=True, tried=tried, correspondence=perm)
    return IsoSearchResult(found=False, tried=tried)
