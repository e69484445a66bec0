"""Reference code that only the tests use.

Each piece is an independent way to compute what the library computes
another way, or a debugging aid for the tests: a Fraction dot product,
exact solves, ranks and reduced row echelon forms by a plain Fraction
Gauss-Jordan that shares no code with the library's integer kernel,
the hull frame's basis and coordinates recomputed
from their definition and their inverse, a plain-text LP dump, the
witness-LP face oracle, the orbit walk and the stabiliser search that
the qap/phi and bqp symmetries used before canonical forms, the orbit scan's
certificates carried to every member of every orbit by the walk's moves
and verified by substitution, and the coordinate-by-coordinate fixing
functional and lift that the library lays out class by class, the
vertex checks offset by offset, the coordinate face by a walk over
every vertex, and the three families' vertex sets read off their dense
definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, permutations, product
from operator import and_, itemgetter, or_
from typing import Sequence

from polyface import faces
from polyface.exactmath import Vector
from polyface.faces import FaceCertificate, NonFaceWitness, _split
from polyface.families import VertexSet, compose, coordinate_map, edge_list, inverse
from polyface.simplex import Constraint, LinearProgram, lp_solve

Q = Fraction


def vec_dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Q(0))


def row_reduce(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[list[list], list[int]]:
    """Gauss-Jordan over Fraction cells to reduced row echelon form, pivots from the first ncols columns (all by default).

    Returns (rows, pivot_cols), a new list of Fraction rows: each pivot
    row is scaled to 1 at its pivot, and every other row is zero there.
    Cells that are zero in the pivot row are skipped, which changes no
    value.
    """
    rows = [[x if isinstance(x, Q) else Q(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        nonzero = [(j, y / pv) for j, y in enumerate(rows[r]) if y]
        for j, y in nonzero:
            rows[r][j] = y
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                for j, y in nonzero:
                    row[j] -= f * y
        pivots.append(c)
    return rows, pivots


def matrix_rank(m: Sequence[Sequence]) -> int:
    return len(row_reduce(m)[1])


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of an exact linear solve A x = b.

    status is "unique", "underdetermined" (solution is one particular
    solution, free variables set to zero), or "inconsistent" (witness is
    a row combination y with y*A = 0 and y*b != 0).
    """

    status: str
    solution: Vector | None = None
    witness: Vector | None = None
    free_columns: tuple[int, ...] = ()


def solve_linear_system(a: Sequence[Sequence], b: Sequence) -> LinearSolveResult:
    """Solve A x = b exactly over the rationals."""
    nrows = len(a)
    if nrows != len(b):
        raise ValueError(f"A has {nrows} rows but b has {len(b)} entries")
    ncols = len(a[0]) if nrows else 0
    # [A | I | b]: the identity block records the row operations.
    rows, pivots = row_reduce([[*a[r], *(1 if i == r else 0 for i in range(nrows)), b[r]] for r in range(nrows)], ncols)
    rank = len(pivots)
    # Inconsistent iff some zero row of A maps to a nonzero rhs.
    for row in rows[rank:]:
        if row[-1] != 0:
            return LinearSolveResult(status="inconsistent", witness=tuple(row[ncols:-1]))
    sol = [Q(0)] * ncols
    for row, c in zip(rows, pivots):
        sol[c] = row[-1]
    free = tuple(c for c in range(ncols) if c not in set(pivots))
    status = "unique" if rank == ncols else "underdetermined"
    return LinearSolveResult(status=status, solution=tuple(sol), free_columns=free)


def _frame_by_elimination(points: Sequence[Sequence], queries: Sequence[Sequence]):
    """(basis, coords): the hull frame of points from its definition, and each query's coordinates in it.

    The frame's origin is points[0] and its basis the differences p -
    origin, in input order, that are independent of the ones before them:
    the pivot columns of the reduced echelon form of the matrix whose
    columns are all the differences.  Its columns for the queries, after
    the points', then hold the coefficients that combine the basis into
    each query's difference.  ValueError for a query off the hull.
    """
    origin = points[0]
    diffs = [[Q(x) - Q(o) for x, o in zip(p, origin, strict=True)] for p in [*points[1:], *queries]]
    npoints = len(points) - 1
    rows, pivots = row_reduce(list(zip(*diffs)), npoints)
    if any(any(row[npoints:]) for row in rows[len(pivots) :]):
        raise ValueError("point does not lie in the affine hull")
    basis = tuple(tuple(diffs[c]) for c in pivots)
    coords = [tuple(row[npoints + q] for row in rows[: len(pivots)]) for q in range(len(queries))]
    return basis, coords


def hull_basis(points: Sequence[Sequence]) -> tuple[Vector, ...]:
    """The basis of the hull frame of points: the differences from points[0] independent of the ones before them."""
    return _frame_by_elimination(points, ())[0]


def coords_of(points: Sequence[Sequence], queries: Sequence[Sequence]) -> list[Vector]:
    """The reduced coordinates of each query in the hull frame of points; ValueError for a query off the hull."""
    return _frame_by_elimination(points, queries)[1]


def reconstruct(origin: Sequence, basis: Sequence[Vector], coords: Sequence) -> Vector:
    """The hull point with the given reduced coordinates: origin + sum(c_i * basis_i)."""
    out = list(origin)
    for c, direction in zip(coords, basis, strict=True):
        if c == 0:
            continue
        for i, d in enumerate(direction):
            if d != 0:
                out[i] += c * d
    return tuple(out)


def reference_greedy_basis(vectors):
    """(chosen, leads) of the greedy Fraction echelon: each vector reduced against the ones chosen before it.

    Rows are dense Fraction lists; a subtraction walks the chosen row's
    nonzero positions only, which changes no value.
    """
    reduced, chosen, leads = [], [], []
    for i, v in enumerate(vectors):
        r = [Q(x) for x in v]
        for (row, nonzero), c in zip(reduced, leads):
            if r[c] != 0:
                f = r[c] / row[c]
                for j in nonzero:
                    r[j] -= f * row[j]
        nonzero = [j for j, x in enumerate(r) if x != 0]
        if nonzero:
            reduced.append((r, nonzero))
            chosen.append(i)
            leads.append(nonzero[0])
    return chosen, leads


def reference_frame(points):
    """(basis, pivot_cols, inverse) of the greedy Fraction echelon of dense points, the inverse as Fraction rows."""
    diffs = [tuple(Q(x) - Q(o) for x, o in zip(p, points[0])) for p in points[1:]]
    chosen, pivots = reference_greedy_basis(diffs)
    basis = [diffs[i] for i in chosen]
    m = len(basis)
    aug = [[b[c] for b in basis] + [int(i == j) for j in range(m)] for i, c in enumerate(pivots)]
    inv = tuple(tuple(row[m:]) for row in row_reduce(aug)[0])
    return tuple(basis), tuple(pivots), inv


def lp_to_text(lp: LinearProgram) -> str:
    """Plain-text dump for debugging: one constraint per line, exact rationals."""
    lines = ["max " + " + ".join(f"{c}*x{i}" for i, c in enumerate(lp.objective) if c != 0)]
    for con in lp.constraints:
        terms = " + ".join(f"{a}*x{i}" for i, a in enumerate(con.coeffs) if a != 0) or "0"
        lines.append(f"{terms} {con.rel} {con.rhs}")
    for i, (lo, hi) in enumerate(zip(lp.lower, lp.upper)):
        if lo is not None or hi is not None:
            lines.append(f"{'-inf' if lo is None else lo} <= x{i} <= {'inf' if hi is None else hi}")
    return "\n".join(lines)


def _witness_lp(vs: VertexSet, subset, others):
    """Feasibility LP for a common point of aff(S) and conv(rest) in hull coordinates; oracle only."""
    ns, no = len(subset), len(others)
    nv = ns + no
    dense = vs.dense_all()
    points = coords_of(dense, dense)
    m = len(points[0])
    cons = []
    cons.append(Constraint((Q(1),) * ns + (Q(0),) * no, "=", Q(1)))
    cons.append(Constraint((Q(0),) * ns + (Q(1),) * no, "=", Q(1)))
    for i in range(m):
        coeffs = tuple(points[s][i] for s in subset) + tuple(-points[t][i] for t in others)
        cons.append(Constraint(coeffs, "=", Q(0)))
    lower = (None,) * ns + (Q(0),) * no
    lp = LinearProgram(nv, (Q(0),) * nv, tuple(cons), lower, (None,) * nv)
    return lp_solve(lp)


def witness_oracle_is_face(vs: VertexSet, subset: Sequence[int]) -> bool:
    """Face test by the witness formulation alone (brute-force oracle).

    True iff aff(S) and conv(V minus S) are disjoint, i.e. the witness-LP
    is infeasible.
    """
    idx, others = _split(vs, subset)
    res = _witness_lp(vs, idx, others)
    return res.status == "infeasible"


def switching(m: int, j: int) -> tuple[list[dict[int, int]], list[int]]:
    """The switching u -> u xor e_j of bqp(m) as x -> L x + c on the flat offsets i m + l, from u'_i u'_l: x_jj goes
    to 1 - x_jj, x_ij to x_ii - x_ij and x_ji to x_ii - x_ji for i != j, and every other x is kept.

    (rows, c): rows[o] maps each source offset to its coefficient in row
    o of L.  The map is an involution.
    """
    rows, c = [{o: 1} for o in range(m * m)], [0] * (m * m)
    jj = j * m + j
    rows[jj], c[jj] = {jj: -1}, 1
    for i in set(range(m)) - {j}:
        for o in (i * m + j, j * m + i):
            rows[o] = {i * m + i: 1, o: -1}
    return rows, c


def _affine_image(rows, c, x) -> list:
    """L x + c, for (rows, c) as ``switching`` gives them."""
    return [z + sum(coef * x[s] for s, coef in row.items()) for row, z in zip(rows, c)]


def _carried(vs: VertexSet, subset, cert, move, image):
    """cert for subset, moved by the move to a certificate for image.

    A qap or phi move (a, b, transpose), and the bit permutation of a bqp
    move (a, flips), permute the coordinates by ``coordinate_map``; a bqp
    move first switches each bit j with flips[j] set (``switching``), an
    involution x -> L x + c that sends a face certificate's (a, b) to
    (L^T a, b - a . c).  A witness's point goes where the maps send it, and
    its weights follow their vertices, each sent where the maps send its
    0/1 point.
    """
    switches = []
    if vs.scheme.family == "bqp":
        a, flips = move
        switches, move = [switching(vs.scheme.n, j) for j, f in enumerate(flips) if f], (a, a, False)
    cmap = coordinate_map(vs.scheme, *move)

    def permuted(x):
        out = [None] * vs.scheme.ambient_dim
        for o, y in zip(cmap, x):
            out[o] = y
        return out

    def point(x):
        for rows, c in switches:
            x = _affine_image(rows, c, x)
        return permuted(x)

    if isinstance(cert, FaceCertificate):
        normal, offset = list(cert.normal), cert.offset
        for rows, c in switches:
            offset -= vec_dot(normal, c)
            carried = [0] * len(normal)
            for row, y in zip(rows, normal):
                for s, coef in row.items():
                    carried[s] += coef * y
            normal = carried
        return FaceCertificate(tuple(permuted(normal)), offset, cert.epsilon)
    index = {vs.dense(t): t for t in range(len(vs))}
    weight = [None] * len(vs)
    for t, x in zip(chain(*_split(vs, subset)), chain(cert.alpha, cert.mu)):
        weight[index[tuple(point(vs.dense(t)))]] = x
    members, others = _split(vs, image)
    return NonFaceWitness(tuple(weight[t] for t in members), tuple(weight[t] for t in others), tuple(point(cert.point)))


def _forced(members: list[tuple[int, ...]], s: int, transpose: bool):
    """(q, steps): the moves (a, a.q, transpose) send members[s] to the identity, and member u to a.d_u.a^-1,
    where steps lists d_u = q.p_u (q.p_u^-1 with transpose) for the other members in order."""
    q = members[s] if transpose else inverse(members[s])
    return q, [compose(q, inverse(p) if transpose else p) for u, p in enumerate(members) if u != s]


def orbit_walk(table, subset, rank, seen: bytearray):
    """(member, move) for each scanned member of subset's orbit whose rank is not yet seen, now marked seen.

    On bqp the orbit is walked from subset by a transposition and an
    m-cycle of the bits and the switching of bit 0, and each move is the
    product of the steps that reached its member, as (a, flips): u goes to
    u' with u'(a(i)) = u(i) xor flips[i].  On qap and phi it tries all
    2 k n! moves that send a member of subset to the identity, so that a
    fixes b (``_forced``): they reach every member of the orbit through
    vertex 0.
    """
    if isinstance(table, faces._BitSymmetry):
        m = len(table.bits[0])
        steps = [(g, table.vertex_map((g, g, False))) for g in faces._swap_and_cycle(m)] + [(None, table.switch_map())]
        queue = [(subset, (tuple(range(m)), (0,) * m))]
        for member, (a, flips) in queue:
            for g, vmap in steps:
                image = tuple(sorted(vmap[t] for t in member))
                j = rank(image)
                if not seen[j]:
                    seen[j] = 1
                    if g is None:  # flip bit 0 after a: flip bit i before it, a(i) = 0
                        i = a.index(0)
                        move = a, flips[:i] + (1 - flips[i],) + flips[i + 1 :]
                    else:
                        move = compose(g, a), flips
                    queue.append((image, move))
                    yield image, move
        return
    perms, index = table.perms, table.index
    members = [perms[s] for s in subset]
    for transpose in (False, True):
        for s in range(len(subset)):
            q, steps = _forced(members, s, transpose)
            forced_b, steps = itemgetter(*q), [itemgetter(*d) for d in steps]
            for a, a_undo in zip(perms, table.undo):  # member u goes to a.d_u.a^-1
                image = tuple(sorted([0] + [index[a_undo(step(a))] for step in steps]))
                j = rank(image)
                if not seen[j]:
                    seen[j] = 1
                    yield image, (a, forced_b(a), transpose)


def scanned(table, k: int) -> list[tuple[int, ...]]:
    """The subsets an orbit scan covers, in lex order: those through vertex 0 on qap and phi, all on bqp."""
    head = tuple(range(table.fixed))
    return [head + rest for rest in combinations(range(table.fixed, len(table.index)), k - table.fixed)]


def walked_orbits(table, k: int) -> list[tuple[int, tuple[int, ...], int]]:
    """(position, representative, size) of each orbit, found by walking: in lex order, the first scanned subset
    not yet seen is its orbit's lex-min member, and ``orbit_walk`` marks the rest of its orbit seen."""
    count, rank = faces._lex_rank(len(table.index), k, table.fixed)
    seen = bytearray(count)
    reps = []
    for i, subset in enumerate(scanned(table, k)):
        if not seen[i]:
            seen[i] = 1
            reps.append((i, subset, 1 + sum(1 for _ in orbit_walk(table, subset, rank, seen))))
    return reps


def bqp_group_maps(vs: VertexSet) -> list[list[int]]:
    """The vertex map of each of the 2^m m! moves (a, flips) of bqp(m), u to u' with u'(a(i)) = u(i) xor flips[i],
    from the affine formulas applied to the 0/1 points: the switchings of ``switching`` (which commute), then
    x'_{a(i) a(l)} = x_il.  KeyError when an image is not a vertex."""
    m = vs.scheme.n
    index = {vs.dense(t): t for t in range(len(vs))}
    flipped = []  # the vertex map of each flips, as the switchings of its bits
    for flips in product((0, 1), repeat=m):
        points = [vs.dense(t) for t in range(len(vs))]
        for j in (j for j, f in enumerate(flips) if f):
            points = [_affine_image(*switching(m, j), x) for x in points]
        flipped.append([index[tuple(x)] for x in points])
    permuted = []
    for a in permutations(range(m)):
        images = []
        for t in range(len(vs)):
            x, y = vs.dense(t), [None] * (m * m)
            for i, l in product(range(m), repeat=2):
                y[a[i] * m + a[l]] = x[i * m + l]
            images.append(index[tuple(y)])
        permuted.append(images)
    return [[perm[t] for t in switch] for switch in flipped for perm in permuted]


def group_orbits(maps: list[list[int]], k: int) -> list[tuple[int, tuple[int, ...], int]]:
    """(position, representative, size) of each orbit of the k-subsets of range(len(maps[0])) under the vertex maps
    of a whole group, in lex order: each orbit is the set of images of its first subset under every map."""
    reps, seen = [], set()
    for i, subset in enumerate(combinations(range(len(maps[0])), k)):
        if subset not in seen:
            orbit = {tuple(sorted(vmap[t] for t in subset)) for vmap in maps}
            seen |= orbit
            reps.append((i, subset, len(orbit)))
    return reps


def stabiliser(table, subset) -> list[tuple[tuple[int, ...], tuple[int, ...], bool]]:
    """Every move (a, b, transpose) that maps the subset's permutations onto themselves, by trying every a.

    For each a, transpose flag and image p_t of the first member, b is
    forced (``_forced``), and the move is kept when every other member's
    conjugate a.d_s.a^-1 lies in {p_t^-1.p_u}: 2 n! |S| candidates.
    """
    members = [table.perms[s] for s in subset]
    found = []
    for transpose in (False, True):
        base, steps = _forced(members, 0, transpose)
        steps = [itemgetter(*d) for d in steps]
        targets = [(pt, {compose(inverse(pt), pu) for pu in members}) for pt in members]
        for a, a_undo in zip(table.perms, table.undo):
            conjugates = [a_undo(step(a)) for step in steps]  # a.d_s.a^-1
            for pt, allowed in targets:
                if all(c in allowed for c in conjugates):
                    found.append((a, compose(pt, compose(a, base)), transpose))
    return found


def carried_orbit_scan(vs: VertexSet, k: int, ctx) -> list[tuple[tuple[int, ...], object]]:
    """(subset, certificate) for every subset the program's orbit scan covers, in lex order.

    The orbits are the program's (``faces._Orbits``): each representative
    is decided by ``is_face``, its orbit is walked by ``orbit_walk``, and
    each member gets the representative's certificate
    carried by the move the walk gives it (``_carried``), verified by
    substitution.  AssertionError when a carried certificate fails, when
    an orbit's walk disagrees with its recorded size, or when a scanned
    subset is reached twice or never.
    """
    orbits = faces._Orbits(ctx, k)
    seen = bytearray(orbits.count)
    reached = {}
    for i, rep, size in orbits.reps:
        assert rep not in reached, f"representative {rep} was reached before"
        cert = reached[rep] = faces.is_face(vs, rep, ctx)
        seen[i] = 1
        members = list(orbit_walk(orbits.table, rep, orbits.rank, seen))
        assert len(members) + 1 == size, f"the orbit of {rep} has {len(members) + 1} members, not {size}"
        verify = faces.verify_face_certificate if isinstance(cert, FaceCertificate) else faces.verify_nonface_witness
        for member, move in members:
            assert member not in reached, f"{member} was reached twice"
            carried = reached[member] = _carried(vs, rep, cert, move, member)
            assert verify(vs, member, carried), f"the certificate carried from {rep} to {member} failed substitution"
    covered = scanned(orbits.table, k)
    assert len(covered) == orbits.count and sorted(reached) == covered, "the orbits do not cover the scan"
    return [(s, reached[s]) for s in covered]


def dense_fixing_normal(dim: int, inter: int, union: int, weight: int | None) -> tuple[tuple, Fraction]:
    """(normal, offset) of ``faces._fixing_form``'s functional, one coordinate after another over range(dim)."""
    on_i, on_u, off_u, offset = map(Q, faces._fixing_form(inter, union, weight))
    return tuple(on_i if inter >> o & 1 else on_u if union >> o & 1 else off_u for o in range(dim)), offset


def dense_lifted(normal, offset, eps, inter: int, union: int, weight: int | None) -> tuple[tuple, Fraction]:
    """``faces._lifted`` read off every coordinate: the normal's support by enumerate and U by the text of bin."""
    support = [(o, x) for o, x in enumerate(normal) if x]
    den = reduce(math.lcm, (x.denominator for _, x in support), math.lcm(offset.denominator, eps.denominator))
    nums = {o: x.numerator * (den // x.denominator) for o, x in support}
    b = offset.numerator * (den // offset.denominator)
    lam = max(0, sum(x for x in nums.values() if x > 0) - b + eps.numerator * (den // eps.denominator))
    on_i, on_u, off_u, f_offset = faces._fixing_form(inter, union, weight)
    on = {o: on_i if inter >> o & 1 else on_u for o, bit in enumerate(reversed(bin(union))) if bit == "1"}
    entry = cache(lambda v: Q(v, den))
    out = [entry(lam * off_u)] * len(normal)
    for o in on.keys() | nums.keys():
        out[o] = entry(nums.get(o, 0) + lam * on.get(o, off_u))
    return tuple(out), Q(b + lam * f_offset, den)


def checked_vertices(labels, vertices, ambient_dim: int) -> None:
    """``VertexSet.__post_init__``'s checks in their order, each offset's range tested one by one."""
    if len(labels) != len(vertices):
        raise ValueError("labels and vertices must have equal length")
    if len(set(vertices)) != len(vertices):
        raise ValueError("vertices must be pairwise distinct")
    for v in vertices:
        if any(not 0 <= off < ambient_dim for off in v):
            raise ValueError("one-position offset out of range")
        if list(v) != sorted(set(v)):
            raise ValueError("one-positions must be sorted and distinct")


def walked_coordinate_face(ctx, subset) -> tuple[int, int, list[int]]:
    """``faces._coordinate_face`` by a walk over every vertex mask."""
    masks = [ctx.masks[s] for s in subset]
    inter, union = reduce(and_, masks), reduce(or_, masks)
    return inter, union, [t for t, v in enumerate(ctx.masks) if v & inter == inter and v | union == union]


def _ones(dense) -> tuple[int, ...]:
    return tuple(o for o, x in enumerate(dense) if x)


def dense_qap_vertex(p) -> tuple[int, ...]:
    """The one-positions of P (x) P, P the permutation matrix of p with entry (i, j) = 1 iff p(i) = j, both
    flattened row by row."""
    n = len(p)
    flat = [int(p[i] == j) for i in range(n) for j in range(n)]
    return _ones([x * y for x in flat for y in flat])


def dense_phi_vertex(p) -> tuple[int, ...]:
    """The one-positions of the edge matrix of p, flattened row by row: z[e, f] = 1 iff p maps the edge e of
    K_n onto the edge f elementwise."""
    edges = edge_list(len(p))
    return _ones([{p[i - 1] + 1, p[j - 1] + 1} == {k, l} for i, j in edges for k, l in edges])


def dense_bqp_vertex(u) -> tuple[int, ...]:
    """The one-positions of u (x) u, flattened row by row."""
    return _ones([x * y for x in u for y in u])


# The display order of phi(3): identity, the two 3-cycles, then the transpositions (13), (12), (23).
_PHI3_DISPLAY = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0), (1, 0, 2), (0, 2, 1))


def dense_family(family: str, n: int) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """(labels, vertices) of ``families.generate(family, n)`` from the dense definitions: the permutations in
    lex order with their 1-based one-line labels (phi(3) in its display order), the 0/1 vectors u in lex
    order labelled by their bits."""
    if family == "bqp":
        cube = list(product((0, 1), repeat=n))
        return tuple("".join(map(str, u)) for u in cube), tuple(map(dense_bqp_vertex, cube))
    perms = _PHI3_DISPLAY if (family, n) == ("phi", 3) else list(permutations(range(n)))
    make = dense_qap_vertex if family == "qap" else dense_phi_vertex
    return tuple("".join(str(x + 1) for x in p) for p in perms), tuple(map(make, perms))
