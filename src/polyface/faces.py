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
sum |a_i| <= 1 and the cap eps <= 1; it is solved by outer row
generation (violated off-S rows are added until the relaxed optimum is
feasible for the full system, which makes it the full optimum).  A zero
optimum is read as a non-face witness from the same LP's optimal duals:
with the gap at zero the norm-row multiplier vanishes, the multipliers
of the active off-S rows sum to T >= 1 (the eps column) and those of
the S rows to -T (the b columns), and the frame rows combine to zero,
so alpha = -y_S / T and mu = y_active / T is a common point of aff(S)
and conv(rest).  A second, independent formulation (the witness-LP)
survives only as the test oracle ``witness_oracle_is_face``.

Subsets whose points are affinely dependent need no special casing: the
support-LP still has optimum zero exactly when S is not the vertex set
of a face.

Arithmetic: integers from the hull frame to the certificate check.
``FaceContext`` holds every vertex's frame coordinates as integer rows
over one denominator; cut separation compares integer dot products with
one integer threshold; the lift to ambient coordinates runs on integers
(``AffineHullFrame.ambient_functional``); ``verify_face_certificate``
scales the certificate once and sums integers per vertex.  Fractions
are built only for the LP rows (same rational values, so every LP and
its duals are unchanged), for the certificates handed out, and in the
non-face witness check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from typing import Sequence

from .exactmath import AffineHullFrame, _over_lcm, affine_hull_frame
from .families import VertexSet
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


def certificate_from_json(data: dict):
    """(subset, certificate) from parsed JSON.

    A malformed certificate raises ValueError, or KeyError for a missing field.
    """
    if not isinstance(data, dict):
        raise ValueError(f"certificate must be a JSON object, not {type(data).__name__}")
    try:
        if data["kind"] == "face":
            cert = FaceCertificate(
                normal=tuple(Q(x) for x in data["a"]),
                offset=Q(data["b"]),
                epsilon=Q(data["epsilon"]),
            )
        elif data["kind"] == "nonface":
            cert = NonFaceWitness(
                alpha=tuple(Q(x) for x in data["alpha"]),
                mu=tuple(Q(x) for x in data["mu"]),
                point=tuple(Q(x) for x in data["point"]),
            )
        else:
            raise ValueError(f"unknown certificate kind {data['kind']!r}")
        return tuple(data["subset"]), cert
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"unreadable value ({exc})") from None


def verify_face_certificate(vs: VertexSet, subset: Sequence[int], cert: FaceCertificate) -> bool:
    """Substitution check of the supporting-hyperplane invariants.

    (normal, offset, epsilon) are scaled once to integers over their
    common denominator, so each vertex costs one integer sum over its
    one-positions.  An entry that is not an int or a Fraction fails the
    check.
    """
    try:
        sset = set(subset)
        if not sset or len(sset) != len(subset) or not sset < set(range(len(vs))):
            return False
        if len(cert.normal) != vs.scheme.ambient_dim:
            return False
        # One integer copy of the normal and no other temporary of its size:
        # more short-lived copies per check measurably raised a scan's peak RSS.
        den = reduce(math.lcm, (x.denominator for x in chain(cert.normal, (cert.offset, cert.epsilon))), 1)
        normal = [x.numerator * (den // x.denominator) for x in cert.normal]
        offset, eps = (x.numerator * (den // x.denominator) for x in (cert.offset, cert.epsilon))
        if eps <= 0:
            return False
        low = offset - eps
        for i, ones in enumerate(vs.vertices):
            val = sum(map(normal.__getitem__, ones))
            if i in sset:
                if val != offset:
                    return False
            elif val > low:
                return False
        return True
    except (TypeError, IndexError, AttributeError):
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
        sset = set(subset)
        if not sset or len(sset) != len(subset) or not sset < set(range(len(vs))):
            return False
        others = [i for i in range(len(vs)) if i not in sset]
        if len(wit.alpha) != len(subset) or len(wit.mu) != len(others):
            return False
        if sum(wit.alpha) != 1 or sum(wit.mu) != 1 or any(m < 0 for m in wit.mu):
            return False
        if len(wit.point) != vs.scheme.ambient_dim:
            return False
        return _combination(vs, wit.alpha, subset) == tuple(wit.point) == _combination(vs, wit.mu, others)
    except (TypeError, IndexError):
        return False


class FaceContext:
    """Per-vertex-set precomputation shared across face tests.

    Holds the affine-hull frame, every vertex's frame coordinates as
    integer rows over one denominator (vertex t sits at coords[t] /
    coords_den), and the reusable LP rows, whose Fraction coefficients
    are built from those integers on first use.
    """

    def __init__(self, vs: VertexSet):
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


def _violated(ctx: FaceContext, candidates, a_frame, b_frame, eps) -> list[int]:
    """Candidates t whose row has gap b_frame - a_frame . w_t < eps, by (gap, t).

    In integers: with a_frame = nums / D and w_t = coords[t] / L, the row
    of t is violated iff s_t = nums . coords[t] exceeds
    floor((b_frame - eps) * D * L), and sorting by (-s_t, t) is sorting
    by (gap, t).
    """
    nums, den = _over_lcm(a_frame)
    limit = math.floor((b_frame - eps) * den * ctx.coords_den)
    dots = ((sum(map(operator.mul, nums, ctx.coords[t])), t) for t in candidates)
    return [t for _, t in sorted((-s, t) for s, t in dots if s > limit)]


def _support_lp_optimum(ctx: FaceContext, subset, others, batch=None):
    """Exact optimum of the support-LP via outer row generation.

    Returns (epsilon, a_frame, b_frame, dual, active) of the last round,
    where active lists its off-subset rows in order and dual holds its
    constraint multipliers: subset rows, the norm row, then active.  The
    returned solution satisfies every off-subset row of the full LP, so
    its objective equals the full optimum.  batch limits how many
    violated rows join per round (default: all of them, measured fastest
    at desk scale).
    """
    m = ctx.frame.dim
    nv = ctx.num_vars
    objective = (Q(0),) * (nv - 1) + (Q(1),)
    lower = (Q(0),) * nv
    upper = (None,) * (nv - 1) + (Q(1),)
    base = [ctx.member_row(s) for s in subset] + [ctx.norm_row]
    active: list[int] = []
    active_set: set[int] = set()
    while True:
        lp = LinearProgram(
            nv, objective, tuple(base + [ctx.outside_row(t) for t in active]), lower, upper
        )
        res = lp_solve(lp)
        if res.status != "optimal":
            raise InternalInconsistencyError(f"support-LP returned {res.status}")
        x = res.primal
        a_frame = tuple(p - q if q else p for p, q in zip(x, x[m : 2 * m]))
        b_frame = x[2 * m] - x[2 * m + 1]
        eps = res.objective_value
        if eps == 0:
            return Q(0), a_frame, b_frame, res.dual, active
        violated = _violated(ctx, (t for t in others if t not in active_set), a_frame, b_frame, eps)
        if not violated:
            return eps, a_frame, b_frame, res.dual, active
        if batch is not None:
            violated = violated[:batch]
        active += violated
        active_set.update(violated)


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


def _check_subset(vs: VertexSet, subset) -> tuple[int, ...]:
    idx = tuple(subset)
    if len(idx) == 0:
        raise ValueError("subset is empty")
    if len(set(idx)) != len(idx):
        raise ValueError("subset has repeated indices")
    if any(not 0 <= i < len(vs) for i in idx):
        raise ValueError("subset index out of range")
    if len(idx) == len(vs):
        raise ValueError("subset equals the whole vertex set")
    return idx


def is_face(vs: VertexSet, subset: Sequence[int], ctx: FaceContext | None = None):
    """Decide face status of a vertex subset; returns a verified certificate.

    FaceCertificate when S is the vertex set of a face, NonFaceWitness
    otherwise.
    """
    idx = _check_subset(vs, subset)
    if ctx is None:
        ctx = FaceContext(vs)
    others = [t for t in range(len(vs)) if t not in set(idx)]
    eps, a_frame, b_frame, dual, active = _support_lp_optimum(ctx, idx, others)
    if eps > 0:
        a, b = ctx.frame.ambient_functional(a_frame, b_frame)
        cert = FaceCertificate(normal=a, offset=b, epsilon=eps)
        if not verify_face_certificate(vs, idx, cert):
            raise InternalInconsistencyError("support-LP certificate failed substitution")
        return cert
    # Zero gap: the duals combine S and the active rows (module docstring).
    y_active = dual[len(idx) + 1 :]
    total = sum(y_active)
    if total <= 0:
        raise InternalInconsistencyError("support-LP duals put no weight on the off-subset rows")
    alpha = tuple(-y / total for y in dual[: len(idx)])
    weight = dict(zip(active, y_active))
    mu = tuple(weight.get(t, Q(0)) / total for t in others)
    wit = NonFaceWitness(alpha=alpha, mu=mu, point=_combination(vs, alpha, idx))
    if not verify_nonface_witness(vs, idx, wit):
        raise InternalInconsistencyError("support-LP dual witness failed substitution")
    return wit


def witness_oracle_is_face(vs: VertexSet, subset: Sequence[int], ctx: FaceContext | None = None) -> bool:
    """Face test by the witness formulation alone (brute-force oracle).

    True iff aff(S) and conv(V minus S) are disjoint, i.e. the witness-LP
    is infeasible.
    """
    idx = _check_subset(vs, subset)
    if ctx is None:
        ctx = FaceContext(vs)
    others = [t for t in range(len(vs)) if t not in set(idx)]
    res = _witness_lp(ctx, idx, others)
    return res.status == "infeasible"


@dataclass(frozen=True)
class EquationReport:
    coordinate: int
    value: int
    valid_inequality: bool  # 0 <= coordinate (value 0) or coordinate <= 1 (value 1) on all vertices
    attained: bool  # some vertex meets the equation


@dataclass(frozen=True)
class FaceByEquations:
    subset: tuple[int, ...]
    equations: tuple[EquationReport, ...]
    certificate: FaceCertificate | None  # None when the subset is empty or everything


def face_by_equations(vs: VertexSet, equations: Sequence[tuple[int, int]]) -> FaceByEquations:
    """Vertices satisfying coordinate fixings, with supporting-validity checks.

    Each equation (offset, value) with value in {0, 1} is checked to be a
    valid inequality over all vertices, so the equation set defines a face
    and the returned subset is exactly its vertex set.  An empty subset is
    reported, not raised.
    """
    dim = vs.scheme.ambient_dim
    eqs = []
    for off, val in equations:
        if not 0 <= off < dim:
            raise ValueError(f"coordinate {off} out of range")
        if val not in (0, 1):
            raise ValueError(f"value must be 0 or 1, got {val}")
        eqs.append((off, val))
    reports = []
    for off, val in eqs:
        column = [1 if off in set(v) else 0 for v in vs.vertices]
        # 0/1 vertices make the one-sided inequality automatic; assert anyway
        valid = all(0 <= c <= 1 for c in column)
        attained = any(c == val for c in column)
        reports.append(EquationReport(off, val, valid, attained))
    subset = []
    for i, v in enumerate(vs.vertices):
        ones = set(v)
        if all((off in ones) == bool(val) for off, val in eqs):
            subset.append(i)
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
    vs: VertexSet,
    face_subset: Sequence[int],
    face_equations: Sequence[tuple[int, int]],
    inner_subset: Sequence[int],
    inner_cert: FaceCertificate,
) -> FaceCertificate:
    """Lift a certificate for a subset of a coordinate-fixed face to the whole set.

    If T is a face of the face F (cut out by the given equations) then T
    is a face of the whole polytope; the supporting functional is the
    inner one plus a large multiple of the equation functional, which
    gains at least 1 on every vertex outside F.
    """
    dim = vs.scheme.ambient_dim
    a_f = [Q(0)] * dim
    b_f = Q(0)
    for off, val in face_equations:
        if val == 1:
            a_f[off] += 1
            b_f += 1
        else:
            a_f[off] -= 1
    upper = sum(x for x in inner_cert.normal if x > 0)  # max of inner normal on 0/1 points
    lam = upper - inner_cert.offset + inner_cert.epsilon
    if lam < 0:
        lam = Q(0)
    a = tuple(x + lam * y for x, y in zip(inner_cert.normal, a_f))
    b = inner_cert.offset + lam * b_f
    cert = FaceCertificate(normal=a, offset=b, epsilon=inner_cert.epsilon)
    global_subset = [face_subset[i] for i in inner_subset]
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


def _scan_subsets(n_vertices: int, k: int, fix_first: bool):
    if fix_first:
        for rest in combinations(range(1, n_vertices), k - 1):
            yield (0,) + rest
    else:
        yield from combinations(range(n_vertices), k)


_WORKER_STATE: dict = {}


def _scan_worker_init(vs, ctx):
    _WORKER_STATE["vs"], _WORKER_STATE["ctx"] = vs, ctx


def _scan_worker(subset):
    result = is_face(_WORKER_STATE["vs"], subset, _WORKER_STATE["ctx"])
    if isinstance(result, FaceCertificate):
        return subset, None
    return subset, result


def k_neighborly_scan(
    vs: VertexSet,
    k: int,
    *,
    fix_first: bool = False,
    stop_at_first: bool = False,
    jobs: int = 1,
    ctx: FaceContext | None = None,
) -> NeighborlinessReport:
    """Certify every k-subset (or one per translation orbit) as a face.

    With fix_first, only subsets containing vertex 0 (the identity
    generator) are scanned; valid for the vertex-transitive families qap
    and phi, where composing with the inverse of any subset member maps
    the subset to one through the identity.  Subsets are scanned in
    lexicographic order, so reports are deterministic regardless of jobs.
    """
    n = len(vs)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}, got {k}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    symmetry = "none (exhaustive scan)"
    if fix_first:
        if vs.scheme.family not in ("qap", "phi"):
            raise ValueError("fix-first reduction requires a vertex-transitive family (qap or phi)")
        ident = "".join(str(i) for i in range(1, vs.scheme.n + 1))
        if vs.labels[0] != ident:
            raise ValueError("fix-first reduction requires vertex 0 to be the identity generator")
        symmetry = (
            "translation orbits: every k-subset maps to one containing the identity vertex "
            "by composing all generators with the inverse of one member"
        )
    subsets = _scan_subsets(n, k, fix_first)
    total = faces = 0
    first_bad = None
    first_wit = None
    stopped = False
    if ctx is None:
        ctx = FaceContext(vs)
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs, initializer=_scan_worker_init, initargs=(vs, ctx)) as pool:
            for subset, wit in pool.imap(_scan_worker, subsets, chunksize=16):
                total += 1
                if wit is None:
                    faces += 1
                elif first_bad is None:
                    first_bad, first_wit = subset, wit
                    if stop_at_first:
                        stopped = True
                        pool.terminate()
                        break
    else:
        for subset in subsets:
            total += 1
            result = is_face(vs, subset, ctx)
            if isinstance(result, FaceCertificate):
                faces += 1
            elif first_bad is None:
                first_bad, first_wit = subset, result
                if stop_at_first:
                    stopped = True
                    break
    return NeighborlinessReport(
        k=k,
        total_subsets=total,
        faces_certified=faces,
        counterexample_subset=first_bad,
        counterexample_witness=first_wit,
        symmetry_reduction=symmetry,
        stopped_early=stopped,
    )
