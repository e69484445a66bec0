"""Face certification for 0/1 vertex sets.

A subset S of vertices either is the vertex set of a face (witnessed by
a supporting hyperplane with a strictly positive gap to the other
vertices) or it is not (witnessed by a point lying in both the affine
hull of S and the convex hull of the rest).  ``is_face`` always returns
exactly one of the two certificates, each re-verified by substitution
before it is handed out.

Method: all LPs are solved in exact arithmetic over the affine-hull
frame of the vertex set (ambient dimensions up to several hundred drop
to the hull dimension).  The support-LP maximizes the gap eps subject
to a . v = b on S, a . v <= b - eps off S, with the L1 normalization
sum |a_i| <= 1 and the cap eps <= 1; it is solved once, with every row
present (rows: S, the norm row, then every other vertex in index
order).  A zero optimum is read as a non-face witness from the same
LP's optimal duals: with the gap at zero the norm-row multiplier
vanishes, the multipliers of the off-S rows sum to T >= 1 (the eps
column) and those of the S rows to -T (the b columns), and the frame
rows combine to zero, so alpha = -y_S / T and mu = y_rest / T is a
common point of aff(S) and conv(rest).  A second, independent
formulation (the witness-LP) survives only as the test oracle
``witness_oracle_is_face``.

Scans: ``k_neighborly_scan`` tests subsets in lex order.  With
fix_first (qap and phi) it scans the subsets through vertex 0 and
solves one support-LP per orbit of the S_n x S_n x C_2 symmetry (left
and right multiplication, inversion; ``families.coordinate_map``).  The
other members of an orbit get the representative's certificate
permuted onto them, and every such carried certificate is re-verified
by substitution.  The symmetry itself is checked on the vertex set
before it is used.

Subsets whose points are affinely dependent need no special casing: the
support-LP still has optimum zero exactly when S is not the vertex set
of a face.

Arithmetic: integers from the hull frame to the certificate check.
``FaceContext`` holds every vertex's frame coordinates as integer rows
over one denominator; the lift to ambient coordinates runs on integers
(``AffineHullFrame.ambient_functional``); ``verify_face_certificate``
scales the certificate once and sums integers per vertex.  Fractions
are built only for the LP rows (same rational values, so every LP and
its duals are unchanged), for the certificates handed out, and in the
non-face witness check.
"""

from __future__ import annotations

import math
import re
from collections import deque
from contextlib import ExitStack, closing
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, islice, permutations, repeat
from typing import Sequence

from .exactmath import AffineHullFrame, affine_hull_frame
from .families import MAX_DENSE_CELLS, Permutation, VertexSet, coordinate_map, phi_vertex, qap_vertex
from .simplex import Constraint, LinearProgram, lp_solve

Q = Fraction


class InternalInconsistencyError(RuntimeError):
    """The support-LP, or a certificate built from it, failed its own checks; nothing can be trusted."""


def q_str(x) -> str:
    return str(Q(x))


@dataclass(frozen=True)
class FaceCertificate:
    """Supporting hyperplane in ambient coordinates.

    a . v = b for every v in the subset, a . v <= b - epsilon for every
    vertex outside it, epsilon > 0.
    """

    normal: tuple
    offset: Fraction
    epsilon: Fraction

    def to_json(self, subset) -> dict:
        return {
            "kind": "face",
            "subset": list(subset),
            "frame": "ambient",
            "a": [q_str(x) for x in self.normal],
            "b": q_str(self.offset),
            "epsilon": q_str(self.epsilon),
        }


@dataclass(frozen=True)
class NonFaceWitness:
    """Point in aff(S) and conv(V minus S) simultaneously.

    alpha are affine coefficients over S (summing to one, signs free),
    mu are convex coefficients over the complement of S in vertex-index
    order, and point is the common point.
    """

    alpha: tuple
    mu: tuple
    point: tuple

    def to_json(self, subset) -> dict:
        return {
            "kind": "nonface",
            "subset": list(subset),
            "alpha": [q_str(x) for x in self.alpha],
            "mu": [q_str(x) for x in self.mu],
            "point": [q_str(x) for x in self.point],
        }


_RATIONAL_TEXT = re.compile("-?[0-9]+(/[0-9]+)?")  # what q_str writes


def _json_rational(x) -> Fraction:
    """A rational as q_str writes it ("p", "p/q", "-p/q") or a JSON integer; floats, booleans and
    Fraction's other syntax are refused (its exponents: "1e100000000" would run for minutes)."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"a rational must be a string or an integer, not {type(x).__name__}")
    if isinstance(x, str) and not _RATIONAL_TEXT.fullmatch(x):
        raise ValueError(f"unreadable rational {x[:20]!r}")
    try:
        return Q(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"unreadable value ({exc})") from None


def _json_index(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"subset entries must be integers, not {type(x).__name__}")
    return x


def _json_tuple(data: dict, key: str, read=_json_rational) -> tuple:
    """data[key], which must be a JSON list, with read applied to each entry."""
    if not isinstance(data[key], list):
        raise ValueError(f"{key!r} must be a JSON list, not {type(data[key]).__name__}")
    return tuple(map(read, data[key]))


def certificate_from_json(data: dict):
    """(subset, certificate) from parsed JSON.

    A malformed certificate raises ValueError, or KeyError for a missing
    field.  Rationals must be JSON strings or integers and subset entries
    integers; booleans count as neither.
    """
    if not isinstance(data, dict):
        raise ValueError(f"certificate must be a JSON object, not {type(data).__name__}")
    if data["kind"] == "face":
        cert = FaceCertificate(
            normal=_json_tuple(data, "a"),
            offset=_json_rational(data["b"]),
            epsilon=_json_rational(data["epsilon"]),
        )
    elif data["kind"] == "nonface":
        cert = NonFaceWitness(
            alpha=_json_tuple(data, "alpha"), mu=_json_tuple(data, "mu"), point=_json_tuple(data, "point")
        )
    else:
        raise ValueError(f"unknown certificate kind {data['kind']!r}")
    return _json_tuple(data, "subset", _json_index), cert


def _split(vs: VertexSet, subset) -> tuple[tuple[int, ...], list[int]]:
    """(subset, the other vertex indices in order), after checking the subset."""
    idx = tuple(subset)
    sset = set(idx)
    if len(idx) == 0:
        raise ValueError("subset is empty")
    if len(sset) != len(idx):
        raise ValueError("subset has repeated indices")
    if any(not 0 <= i < len(vs) for i in idx):
        raise ValueError("subset index out of range")
    if len(idx) == len(vs):
        raise ValueError("subset equals the whole vertex set")
    return idx, [t for t in range(len(vs)) if t not in sset]


def verify_face_certificate(vs: VertexSet, subset: Sequence[int], cert: FaceCertificate) -> bool:
    """Substitution check of the supporting-hyperplane invariants.

    (normal, offset, epsilon) are scaled once to integers over their
    common denominator, so each vertex costs one integer sum over its
    one-positions.  A normal lifted from the hull frame has at most
    frame-dimension nonzero entries, so the lcm and the rescale run only
    over the entries with a nonzero numerator.  Every entry's numerator
    is read, so one that is not an int or a Fraction (None, "", a float)
    fails the check, as does a subset ``_split`` refuses.
    """
    try:
        idx, others = _split(vs, subset)
        dim = vs.scheme.ambient_dim
        if len(cert.normal) != dim:
            return False
        # One integer copy of the normal and no other temporary of its size:
        # more short-lived copies per check measurably raised a scan's peak RSS.
        support = [(o, x) for o, x in enumerate(cert.normal) if x.numerator]
        den = reduce(math.lcm, (x.denominator for _, x in support), cert.offset.denominator)
        den = math.lcm(den, cert.epsilon.denominator)
        normal = [0] * dim
        for o, x in support:
            normal[o] = x.numerator * (den // x.denominator)
        offset, eps = (x.numerator * (den // x.denominator) for x in (cert.offset, cert.epsilon))
        if eps <= 0:
            return False
        low = offset - eps
        value = normal.__getitem__
        return all(sum(map(value, vs.vertices[s])) == offset for s in idx) and all(
            sum(map(value, vs.vertices[t])) <= low for t in others
        )
    except (ValueError, TypeError, IndexError, AttributeError):
        return False


def _combination(vs: VertexSet, coefs, indices) -> tuple:
    """sum(coef * vertex) over the indexed vertices, as an ambient Fraction vector."""
    point = [Q(0)] * vs.scheme.ambient_dim
    for coef, i in zip(coefs, indices):
        if coef != 0:
            for off in vs.vertices[i]:
                point[off] += coef
    return tuple(point)


def verify_nonface_witness(vs: VertexSet, subset: Sequence[int], wit: NonFaceWitness) -> bool:
    """Substitution check: alpha-combination of S = mu-combination of the rest = point."""
    try:
        idx, others = _split(vs, subset)
        if len(wit.alpha) != len(idx) or len(wit.mu) != len(others):
            return False
        if sum(wit.alpha) != 1 or sum(wit.mu) != 1 or any(m < 0 for m in wit.mu):
            return False
        if len(wit.point) != vs.scheme.ambient_dim:
            return False
        return _combination(vs, wit.alpha, idx) == tuple(wit.point) == _combination(vs, wit.mu, others)
    except (ValueError, TypeError, IndexError):
        return False


class FaceContext:
    """Per-vertex-set precomputation shared across face tests.

    Holds the affine-hull frame, every vertex's frame coordinates as
    integer rows over one denominator (vertex t sits at coords[t] /
    coords_den), and the reusable LP rows, whose Fraction coefficients
    are built from those integers on first use.
    """

    def __init__(self, vs: VertexSet):
        cells = len(vs) * vs.scheme.ambient_dim
        if cells > MAX_DENSE_CELLS:
            raise ValueError(
                f"vertex set too large to densify: {len(vs)} vertices x dimension {vs.scheme.ambient_dim} "
                f"= {cells} cells, above the {MAX_DENSE_CELLS} of the largest set generate writes"
            )
        self.vs = vs
        dense = vs.dense_all()
        self.frame: AffineHullFrame = affine_hull_frame(dense)
        self.coords, self.coords_den = self.frame.integer_coords(dense)
        m = self.frame.dim
        self.num_vars = 2 * m + 3  # a+ | a- | b+ | b- | eps
        ones = (Q(1),) * (2 * m)
        self.norm_row = Constraint(ones + (Q(0), Q(0), Q(0)), "<=", Q(1))
        self._rows: dict[tuple[int, str], Constraint] = {}

    def outside_row(self, t: int) -> Constraint:
        return self._frame_row(t, "<=")

    def member_row(self, s: int) -> Constraint:
        return self._frame_row(s, "=")

    def _frame_row(self, t: int, rel: str) -> Constraint:
        """a . w_t - b (+ eps off the subset) <= 0 or = 0, built once per (t, rel)."""
        row = self._rows.get((t, rel))
        if row is None:
            w = tuple(Q(x, self.coords_den) for x in self.coords[t])
            eps = Q(1) if rel == "<=" else Q(0)
            row = self._rows[t, rel] = Constraint(w + tuple(-x for x in w) + (Q(-1), Q(1), eps), rel, Q(0))
        return row


def _support_lp_optimum(ctx: FaceContext, subset, others):
    """Exact optimum of the support-LP, solved once with all its rows.

    Returns (epsilon, a_frame, b_frame, dual), where dual holds the
    constraint multipliers in row order: the subset rows, the norm row,
    then one row per vertex of others, in that order.  (A first round
    over the subset and norm rows alone, as row generation would solve,
    always ends at a = b = 0, eps = 1 and leaves every other row
    violated, so it is not solved.)
    """
    m = ctx.frame.dim
    nv = ctx.num_vars
    rows = [ctx.member_row(s) for s in subset] + [ctx.norm_row] + [ctx.outside_row(t) for t in others]
    lp = LinearProgram(
        nv, (Q(0),) * (nv - 1) + (Q(1),), tuple(rows), (Q(0),) * nv, (None,) * (nv - 1) + (Q(1),)
    )
    res = lp_solve(lp)
    if res.status != "optimal":
        raise InternalInconsistencyError(f"support-LP returned {res.status}")
    x = res.primal
    a_frame = tuple(p - q if q else p for p, q in zip(x, x[m : 2 * m]))
    return res.objective_value, a_frame, x[2 * m] - x[2 * m + 1], res.dual


def _witness_lp(ctx: FaceContext, subset, others):
    """Feasibility LP for a common point of aff(S) and conv(rest); oracle only."""
    ns, no = len(subset), len(others)
    nv = ns + no
    m = ctx.frame.dim
    points = [tuple(Q(x, ctx.coords_den) for x in row) for row in ctx.coords]
    cons = []
    cons.append(Constraint((Q(1),) * ns + (Q(0),) * no, "=", Q(1)))
    cons.append(Constraint((Q(0),) * ns + (Q(1),) * no, "=", Q(1)))
    for i in range(m):
        coeffs = tuple(points[s][i] for s in subset) + tuple(-points[t][i] for t in others)
        cons.append(Constraint(coeffs, "=", Q(0)))
    lower = (None,) * ns + (Q(0),) * no
    lp = LinearProgram(nv, (Q(0),) * nv, tuple(cons), lower, (None,) * nv)
    return lp_solve(lp)


def is_face(vs: VertexSet, subset: Sequence[int], ctx: FaceContext | None = None):
    """Decide face status of a vertex subset; returns a verified certificate.

    FaceCertificate when S is the vertex set of a face, NonFaceWitness
    otherwise.
    """
    idx, others = _split(vs, subset)
    if ctx is None:
        ctx = FaceContext(vs)
    eps, a_frame, b_frame, dual = _support_lp_optimum(ctx, idx, others)
    if eps > 0:
        a, b = ctx.frame.ambient_functional(a_frame, b_frame)
        cert = FaceCertificate(normal=a, offset=b, epsilon=eps)
        if not verify_face_certificate(vs, idx, cert):
            raise InternalInconsistencyError("support-LP certificate failed substitution")
        return cert
    # Zero gap: the duals combine the rows of S and of the rest (module docstring).
    y_others = dual[len(idx) + 1 :]
    total = sum(y_others)
    if total <= 0:
        raise InternalInconsistencyError("support-LP duals put no weight on the off-subset rows")
    alpha = tuple(-y / total for y in dual[: len(idx)])
    mu = tuple(y / total for y in y_others)
    wit = NonFaceWitness(alpha=alpha, mu=mu, point=_combination(vs, alpha, idx))
    if not verify_nonface_witness(vs, idx, wit):
        raise InternalInconsistencyError("support-LP dual witness failed substitution")
    return wit


def witness_oracle_is_face(vs: VertexSet, subset: Sequence[int], ctx: FaceContext | None = None) -> bool:
    """Face test by the witness formulation alone (brute-force oracle).

    True iff aff(S) and conv(V minus S) are disjoint, i.e. the witness-LP
    is infeasible.
    """
    idx, others = _split(vs, subset)
    if ctx is None:
        ctx = FaceContext(vs)
    res = _witness_lp(ctx, idx, others)
    return res.status == "infeasible"


@dataclass(frozen=True)
class EquationReport:
    coordinate: int
    value: int
    attained: bool  # some vertex meets the equation


@dataclass(frozen=True)
class FaceByEquations:
    subset: tuple[int, ...]
    equations: tuple[EquationReport, ...]
    certificate: FaceCertificate | None  # None when the subset is empty or everything


def face_by_equations(vs: VertexSet, equations: Sequence[tuple[int, int]]) -> FaceByEquations:
    """Vertices satisfying coordinate fixings, with a verified supporting hyperplane.

    On 0/1 vertices every coordinate lies in [0, 1], so each equation
    (offset, value) with value in {0, 1} is tight on a face, the equation
    set defines a face and the returned subset is exactly its vertex set.
    An empty subset is reported, not raised.
    """
    dim = vs.scheme.ambient_dim
    eqs = []
    for off, val in equations:
        if not 0 <= off < dim:
            raise ValueError(f"coordinate {off} out of range")
        if val not in (0, 1):
            raise ValueError(f"value must be 0 or 1, got {val}")
        eqs.append((off, val))
    ones = [set(v) for v in vs.vertices]
    reports = [EquationReport(off, val, any((off in o) == bool(val) for o in ones)) for off, val in eqs]
    subset = [i for i, o in enumerate(ones) if all((off in o) == bool(val) for off, val in eqs)]
    cert = None
    if 0 < len(subset) < len(vs):
        a = [Q(0)] * dim
        b = Q(0)
        for off, val in eqs:
            if val == 1:
                a[off] += 1
                b += 1
            else:
                a[off] -= 1
        cert = FaceCertificate(normal=tuple(a), offset=b, epsilon=Q(1))
        if not verify_face_certificate(vs, subset, cert):
            raise InternalInconsistencyError("coordinate-fixing certificate failed substitution")
    return FaceByEquations(tuple(subset), tuple(reports), cert)


def compose_with_face(
    vs: VertexSet, face: FaceByEquations, inner_subset: Sequence[int], inner_cert: FaceCertificate
) -> FaceCertificate:
    """Lift a certificate for a subset of a coordinate-fixed face to the whole set.

    face is a proper face from ``face_by_equations``; inner_subset
    indexes face.subset, and inner_cert certifies it against the other
    vertices of the face.  If T is a face of the face F then T is a face
    of the whole polytope; the supporting functional is the inner one
    plus a large multiple of face.certificate, the coordinate-fixing
    functional ``face_by_equations`` built and verified, which is tight
    on F and falls by at least 1 on every vertex outside it.  The lifted
    certificate is verified by substitution against every vertex.
    """
    a_f, b_f = face.certificate.normal, face.certificate.offset
    upper = sum(x for x in inner_cert.normal if x > 0)  # max of inner normal on 0/1 points
    lam = upper - inner_cert.offset + inner_cert.epsilon
    if lam < 0:
        lam = Q(0)
    a = tuple(x + lam * y for x, y in zip(inner_cert.normal, a_f))
    b = inner_cert.offset + lam * b_f
    cert = FaceCertificate(normal=a, offset=b, epsilon=inner_cert.epsilon)
    global_subset = [face.subset[i] for i in inner_subset]
    if not verify_face_certificate(vs, global_subset, cert):
        raise InternalInconsistencyError("composed face certificate failed substitution")
    return cert


@dataclass(frozen=True)
class NeighborlinessReport:
    k: int
    total_subsets: int
    faces_certified: int
    counterexample_subset: tuple[int, ...] | None
    counterexample_witness: NonFaceWitness | None
    symmetry_reduction: str
    stopped_early: bool

    @property
    def is_k_neighborly(self) -> bool:
        return self.counterexample_subset is None and not self.stopped_early

    def to_json(self) -> dict:
        data = {
            "k": self.k,
            "total_subsets": self.total_subsets,
            "faces_certified": self.faces_certified,
            "symmetry_reduction": self.symmetry_reduction,
            "stopped_early": self.stopped_early,
            "counterexample": None,
        }
        if self.counterexample_subset is not None:
            data["counterexample"] = self.counterexample_witness.to_json(self.counterexample_subset)
        return data


def _symmetry_moves(vs: VertexSet) -> list[tuple[list[int], list[int]]]:
    """(vertex map, coordinate map) of every move of ``_Orbits``, checked on vs.

    Moves 0-2 are conjugation by the transposition (1 2), conjugation by
    the n-cycle (1 2 ... n) and inversion; move 3 + m is translation by
    the inverse of vertex m's permutation.  Raises ValueError unless every
    move maps the vertex set onto itself, moves 0-2 fix vertex 0 and move
    3 + m sends vertex m to vertex 0.
    """
    scheme = vs.scheme
    if scheme.family not in ("qap", "phi"):
        raise ValueError("fix-first reduction needs the S_n symmetry of qap or phi")
    n = scheme.n
    make = qap_vertex if scheme.family == "qap" else phi_vertex
    permutation_of = {make(p): p for p in map(Permutation, permutations(range(1, n + 1)))}
    ident = Permutation.identity(n)
    swap, cycle = Permutation((2, 1, *range(3, n + 1))), Permutation((*range(2, n + 1), 1))
    specs = [(swap, swap, False), (cycle, cycle, False), (ident, ident, True)]
    for m, v in enumerate(vs.vertices):
        if v not in permutation_of:
            raise ValueError(f"fix-first reduction refused: vertex {m} is not in {scheme.family}({n})")
        specs.append((ident, permutation_of[v].inverse(), False))
    index = {v: i for i, v in enumerate(vs.vertices)}
    moves = []
    for a, b, transpose in specs:
        cmap = coordinate_map(scheme, a, b, transpose)
        vmap = [index.get(tuple(sorted(cmap[o] for o in v))) for v in vs.vertices]
        if None in vmap or len(set(vmap)) != len(vmap):
            raise ValueError("fix-first reduction refused: a move does not map the vertex set onto itself")
        moves.append((vmap, cmap))
    if any(vmap[0] != 0 for vmap, _ in moves[:3]) or any(moves[3 + m][0][m] != 0 for m in range(len(vs))):
        raise ValueError("fix-first reduction refused: vertex 0 is not the identity permutation")
    return moves


def _carry(cert, subset, vmap, cmap):
    """cert for subset, moved to its image: vertex t -> vmap[t], offset o -> cmap[o]."""
    moved = [None] * len(cmap)
    if isinstance(cert, FaceCertificate):
        for o, x in zip(cmap, cert.normal):
            moved[o] = x
        return FaceCertificate(tuple(moved), cert.offset, cert.epsilon)
    for o, x in zip(cmap, cert.point):
        moved[o] = x
    sset = set(subset)
    others = (t for t in range(len(vmap)) if t not in sset)
    weight = [None] * len(vmap)
    for t, x in zip(chain(subset, others), chain(cert.alpha, cert.mu)):
        weight[vmap[t]] = x
    image = sorted(vmap[s] for s in subset)
    iset = set(image)
    return NonFaceWitness(
        alpha=tuple(weight[t] for t in image),
        mu=tuple(weight[t] for t in range(len(vmap)) if t not in iset),
        point=tuple(moved),
    )


class _Orbits:
    """The k-subsets through vertex 0, split into orbits of S_n x S_n x C_2.

    The vertices of qap(n) and phi(n) are the permutations of S_n, and
    left multiplication, right multiplication and inversion act on both
    families as permutations of the coordinates (``coordinate_map``).
    Such a move maps faces to faces, so a certificate carries over to the
    image of its subset.  Every k-subset maps into one through vertex 0
    (translate by the inverse of a member), so the subsets through vertex
    0 meet every orbit.

    subsets lists them in lex order.  links[i] is None when subsets[i] is
    the lex-min member of its orbit, its representative; otherwise it is
    (j, move), where moves[move] maps subsets[j] onto subsets[i] and j
    leads back to the representative along such links.
    """

    def __init__(self, vs: VertexSet, k: int):
        self.moves = _symmetry_moves(vs)
        self.subsets = [(0,) + rest for rest in combinations(range(1, len(vs)), k - 1)]
        position = {s: i for i, s in enumerate(self.subsets)}
        self.links: list[tuple[int, int] | None] = [None] * len(self.subsets)
        seen = bytearray(len(self.subsets))
        self.count = 0
        for i in range(len(self.subsets)):
            if seen[i]:
                continue
            seen[i] = 1
            self.count += 1
            queue = [i]
            for j in queue:  # breadth-first over the orbit; the queue grows as it runs
                members = self.subsets[j]
                # the stabiliser moves, and the translations that send a member to vertex 0
                for move in chain(range(3), (3 + m for m in members[1:])):
                    vmap = self.moves[move][0]
                    t = position[tuple(sorted(vmap[x] for x in members))]
                    if not seen[t]:
                        seen[t] = 1
                        self.links[t] = (j, move)
                        queue.append(t)

    def carry(self, i: int, solved: dict):
        """Certificate for subsets[i], carried from its representative's in solved."""
        path = []
        while self.links[i] is not None:
            i, move = self.links[i]
            path.append(move)
        vmap, cmap = self.moves[path.pop()]
        for move in reversed(path):
            v, c = self.moves[move]
            vmap, cmap = [v[x] for x in vmap], [c[x] for x in cmap]
        return _carry(solved[i], self.subsets[i], vmap, cmap)


_WORKER_STATE: dict = {}


def _scan_worker_init(vs, ctx):
    _WORKER_STATE["vs"], _WORKER_STATE["ctx"] = vs, ctx


def _scan_worker(batch):
    return [is_face(_WORKER_STATE["vs"], s, _WORKER_STATE["ctx"]) for s in batch]


def _pooled_is_face(pool, reps, chunk: int, window: int):
    """is_face on each of reps through pool, in order, in batches of chunk.

    At most window batches are in flight, so an early stop waits only
    for those: the pool is closed and joined, never terminated, because
    terminating a pool while its task thread still feeds the workers
    can deadlock.
    """
    pending = deque()
    reps = iter(reps)
    while batch := list(islice(reps, chunk)):
        pending.append(pool.apply_async(_scan_worker, (batch,)))
        if len(pending) == window:
            yield from pending.popleft().get()
    for res in pending:
        yield from res.get()


def _certified_subsets(vs: VertexSet, ctx: FaceContext, k: int, orbits: _Orbits | None, jobs: int):
    """(subset, verified certificate) for every scanned subset, in lex order.

    Without orbits every k-subset is a representative.  Representatives
    are solved by ``is_face``, through a pool of jobs worker processes
    when jobs > 1; every other subset gets its representative's
    certificate carried over and re-verified by substitution.
    """
    if orbits is None:
        # reps is read apart from subsets, so it is an iterator of its own
        subsets, links = combinations(range(len(vs)), k), repeat(None)
        reps = combinations(range(len(vs)), k)
    else:
        subsets, links = orbits.subsets, orbits.links
        reps = [s for s, link in zip(subsets, links) if link is None]
    with ExitStack() as stack:
        if jobs == 1:
            results = (is_face(vs, s, ctx) for s in reps)
        else:
            import multiprocessing as mp

            pool = mp.Pool(jobs, initializer=_scan_worker_init, initargs=(vs, ctx))
            stack.callback(pool.join)
            stack.callback(pool.close)  # runs first
            # representatives of orbits are few and slow, so they go one at a time
            results = _pooled_is_face(pool, reps, 16 if orbits is None else 1, 2 * jobs)
        solved = {}
        for i, (subset, link) in enumerate(zip(subsets, links)):
            if link is None:
                cert = next(results)
                if orbits is not None:
                    solved[i] = cert
            else:
                cert = orbits.carry(i, solved)
                if isinstance(cert, FaceCertificate):
                    ok = verify_face_certificate(vs, subset, cert)
                else:
                    ok = verify_nonface_witness(vs, subset, cert)
                if not ok:
                    raise InternalInconsistencyError(f"certificate carried to {subset} failed substitution")
            yield subset, cert


def k_neighborly_scan(
    vs: VertexSet,
    k: int,
    *,
    fix_first: bool = False,
    stop_at_first: bool = False,
    jobs: int = 1,
    ctx: FaceContext | None = None,
) -> NeighborlinessReport:
    """Certify every k-subset (or every one through vertex 0) as a face.

    Subsets are scanned in lexicographic order, so reports do not depend
    on jobs.  With fix_first (qap and phi only) the scanned subsets are
    those through vertex 0, and only one LP is solved per orbit of
    ``_Orbits``: the orbit's lex-min member, reached first in the scan.
    The other members get its certificate carried over by the symmetry
    and re-verified by substitution, so every verdict and count is the
    one a subset-by-subset scan gives.  The first non-face in lex order is
    the lex-min member of its orbit, so the scan stops at the same
    counterexample, with the witness ``is_face`` returns for it.  The
    symmetry is checked on the vertex set first (``_symmetry_moves``);
    a vertex set it does not fit raises ValueError.
    """
    n = len(vs)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}, got {k}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    orbits = _Orbits(vs, k) if fix_first else None
    if ctx is None:
        ctx = FaceContext(vs)
    total = faces = 0
    first_bad = None
    first_wit = None
    stopped = False
    with closing(_certified_subsets(vs, ctx, k, orbits, jobs)) as certified:
        for subset, cert in certified:
            total += 1
            if isinstance(cert, FaceCertificate):
                faces += 1
            elif first_bad is None:
                first_bad, first_wit = subset, cert
                if stop_at_first:
                    stopped = True
                    break
    if orbits is None:
        symmetry = "none (exhaustive scan)"
    else:
        solved = sum(link is None for link in orbits.links[:total])
        symmetry = (
            f"S_{vs.scheme.n} x S_{vs.scheme.n} x C_2 (left and right multiplication, inversion): "
            f"LPs for {solved} of the {orbits.count} orbits of {k}-subsets through vertex 0, "
            "every other subset by a carried certificate re-verified by substitution"
        )
    return NeighborlinessReport(
        k=k,
        total_subsets=total,
        faces_certified=faces,
        counterexample_subset=first_bad,
        counterexample_witness=first_wit,
        symmetry_reduction=symmetry,
        stopped_early=stopped,
    )
