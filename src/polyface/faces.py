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
to a . v = b on S, a . v <= b - eps off S and the cap eps <= 1; it is
solved once, with all its rows present.  The cap alone bounds it, and
a point with eps > 0 divided by eps has eps = 1, so the optimum is 1
on a face and 0 on a non-face.  ``is_face`` first finds S's coordinate
face F (coordinate fixings, below); F = S needs no LP and no symmetry
work.  Otherwise, where no orbit LP runs (below), the rows are S, then
F's other vertices in index order: conv(F) is a face, so S is a face
exactly when it is one of conv(F).  When F is not every vertex, a gap
inside F is lifted by adding a multiple of F's fixing functional
(``_lifted``, shared with ``compose_with_face``).  A zero optimum is
read as a non-face witness from the same LP's optimal duals: the
multipliers of the off-S rows sum to T >= 1 (the eps column) and those
of the S rows to -T (the b columns), and the frame rows combine to
zero, so alpha = -y_S / T and mu = y_rest / T, zero off F, is a common
point of aff(S) and conv(rest).  An independent formulation, the
witness-LP, is kept as a test oracle.

The orbit LP.  When F is larger than S and the vertex set holds all n!
vertices of qap(n) or phi(n) with n >= 5 (at n = 4 the frame LP was as
fast, README), ``is_face`` lists the stabiliser H of S in S_n x S_n x
C_2 from centraliser cosets (``_stabiliser_moves``), with each move's
vertex map from the checked table and its coordinate map; the table is
checked on the first such subset of a context, and never when fixings
decide every subset.  If H is not trivial the LP is solved over the
H-invariant functionals only (Boedi, Herr and Joswig, Math. Program.
137, 2013): averaging a supporting hyperplane of S over H keeps its
gap.  The invariant functionals are spanned by the indicators of the
coordinate orbits, each labelled by its least point, and each takes
one value on each vertex orbit: the count of a vertex's one-positions
in the coordinate orbit.  So each vertex orbit is one point of those
counts, and the LP has one row per H-orbit of vertices and one column
per pivot column of the hull frame of those points, the lex-first
orbit indicators whose counts are independent (``_orbit_lp``); no
frame of the whole vertex set is built.  A face certificate is the
functional constant c_j on the coordinates of orbit j.  At zero gap
each orbit row's multiplier is spread evenly over its members, y_t =
y_O / |O|; the frame points then combine to an H-fixed point on which
every invariant functional vanishes, zero, and the spread duals give
the witness as above.  Both are verified by substitution on every
vertex.  When H is trivial, or the set fails the symmetry check (a
vertex missing, or vertex 0 not the identity), S is decided inside F
as above.

Scans: ``k_neighborly_scan`` decides one representative per orbit of a
checked symmetry, the orbit's lex-min member, and keeps only the
orbit's size: S_n x S_n x C_2, of order 2 n!^2, on a full qap(n) or
phi(n) set whose vertex 0 is the identity, and Z_2^m semidirect S_m, of
order 2^m m!, on a full bqp(m) set: the bit permutations, the moves
(a, a, False), and the switchings u to u xor e_j (De Simone, Discrete
Math. 79, 1990).  Each is transitive on the N vertices, so an orbit O of
k-subsets has its lex-min member and |O| k / N members through vertex 0
(count the pairs (S, v), v in S).  fix_first picks which subsets are
counted, not how they are scanned; a set that fails the check makes
every subset a representative, and is refused with fix_first.  A move
(a, b, transpose) permutes the coordinates as ``families.coordinate_map``
states, the one statement of the action, and the switching of bit 0 is
the affine map that ``families.bqp_switching`` states.  Each maps the
vertex set onto itself, so it maps faces onto faces, and the checked
generators and the representative's verified certificate decide every
member of its orbit.
The symmetry is checked once per vertex set, on generators of the
group (``_checked_symmetry``, kept by ``FaceContext.symmetry``): each
generator's map is applied to every vertex and must give the vertex the
table names.  The maps of the points and the table's maps are group
actions, so they then agree on every move.

No orbit is walked: its lex-min member is a canonical form (McKay, J.
Algorithms 26, 1998).  A move that keeps vertex 0 (the identity) in S
conjugates one of its 2 k rebasings, S.s^-1 or {s.u^-1}, by some a, so
the lex-min member is {0, x, ...} with x the least class minimum (least
vertex of a cycle type) they meet, and only a in a coset of the
centraliser C(x) reaches it (``_CanonicalForm.representatives``).
Class minima, conjugators onto them from cycle structure, and
centralisers are built on first use (``classes``; Butler, LNCS 559,
1991).  The images equal to S count its stabiliser, so its orbit has
2 n!^2 / |Stab(S)| members (orbit-stabiliser), and ``_Orbits`` checks
that the sizes sum to the counted subsets.  On bqp, with r[t] the bits
of vertex t xor those of vertex 0, a move that sends s in S to vertex 0
translates S by r[s] and then permutes the bits: the k translations are
the rebasings, the classes are the weights of r, a conjugator sends the
set bits of r[t] onto those of its class minimum's, and C(x) is
S_w x S_(m-w) on the set and clear bits of r[x] (``_BitSymmetry``), so
an orbit has 2^m m! / |Stab(S)| members, checked by the same sum.  Each
translation and bit permutation is a product of the checked
generators, as each move of qap and phi is.

Coordinate fixings come before any LP (Ziegler, "Lectures on
0/1-polytopes", DMV Seminar 29, 2000).  With I the AND and U the OR of
S's vertex bitmasks (``FaceContext.masks``), fixing every coordinate on
which S agrees cuts out the face F = {v : I <= v <= U}.  When F holds
only S, the fixing functional (``_fixing_form``) certifies S with gap 1
and no LP is solved (``_coordinate_face``, ``_fixing_certificate``).
F is listed from the shortest incidence list among I's coordinates
(``VertexSet.incidence``), from every mask only when I is empty
(``_listed_face``, which ``face_by_equations`` shares; with I empty it
skips the incidence lists of its value-0 coordinates).  ``is_face``
tests F = S before any other work.  The scan tests it too, and calls
``is_face`` only for the representatives whose F is larger than S.

Subsets whose points are affinely dependent need no special casing: the
support-LP still has optimum zero exactly when S is not the vertex set
of a face.

Arithmetic: integers from the hull frame to the certificate check,
and a certificate's cost follows its support.  The frame is built from
the vertices' one-positions, none densified.  A frame-LP row is its
vertex's frame coordinates as integer cells over the frame's
denominator (``AffineHullFrame.weighted_columns`` over ``inverse_den``,
from the vertex's mask bits at the pivot columns), built the first time
the row is asked for; an orbit-LP row is its int counts over 1, and of
its own frame the orbit LP reads only the pivot columns, so it builds
no inverse.  ``simplex.lp_solve`` takes those rows as they are and
returns the optimum in integers: eps, a and b over one denominator,
the duals over another, which the witness cancels.  The lift to
ambient coordinates runs on integers
(``AffineHullFrame.ambient_functional``), and so does the lift off a
coordinate face, over one denominator (``_lifted``).  Every rational
of a face certificate, handed out or read, is held by one rule
(``exactmath._rational``): the one ``exactmath.ZERO`` when it is zero,
an int when it is an integer, and a Fraction only otherwise (the frame
lift, ``_lifted``, ``_fixing_certificate``, the orbit LP and
``_json_rational`` alike).  So ``_not_zero`` finds the nonzero slots by
identity at C speed, and an int's numerator, denominator and truth
value are read in C: a fixing certificate holds no Fraction at all.
The fixing functional and the lift are laid out class by class
(``_by_class``): the largest of I, U less I and off U is filled in one
step and the other two written at their set bits.
``verify_face_certificate`` reads each entry that is not ``ZERO``,
scales the certificate once and adds each nonzero integer entry into
the vertices with a one there (``VertexSet.incidence``).  The non-face
witness stays in Fractions, as its check does (``_combination``).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain, combinations, compress, filterfalse, permutations, product, repeat
from operator import and_, getitem, is_not, itemgetter, or_
from typing import Sequence

from .exactmath import ZERO, AffineHullFrame, _rational, affine_hull_frame
from .families import (
    MAX_DENSE_CELLS,
    VertexSet,
    bqp_switching,
    bqp_vertex_offsets,
    compose,
    coordinate_map,
    inverse,
    lex_vertices,
)
from .simplex import SupportLP, SupportRow, lp_solve

Q = Fraction


class InternalInconsistencyError(RuntimeError):
    """The support-LP, or a certificate built from it, failed its own checks; nothing can be trusted."""


def q_str(x) -> str:
    return str(Q(x))


@dataclass(frozen=True)
class FaceCertificate:
    """Supporting hyperplane in ambient coordinates.

    a . v = b for every v in the subset, a . v <= b - epsilon for every
    vertex outside it, epsilon > 0.  Each entry, offset and epsilon is
    an int or a Fraction.  The certificates this module hands out and
    reads from JSON hold each value by one rule (``exactmath._rational``):
    ``ZERO`` when it is zero, an int when it is an integer, a Fraction
    only otherwise.
    """

    normal: tuple
    offset: int | Fraction
    epsilon: int | Fraction

    def to_json(self, subset) -> dict:
        return {
            "kind": "face",
            "subset": list(subset),
            "frame": "ambient",
            "a": ["0" if x is ZERO else q_str(x) for x in self.normal],
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


def _json_rational(x) -> int | Fraction:
    """A rational as q_str writes it ("p", "p/q", "-p/q") or a JSON integer, held as ``exactmath._rational``
    holds it: integer text is read by int(), and only "p/q" by Fraction.  Floats, booleans and Fraction's other
    syntax are refused (its exponents: "1e100000000" would run for minutes)."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"a rational must be a string or an integer, not {type(x).__name__}")
    if x in ("0", 0):  # most entries of a normal: no parse
        return ZERO
    if isinstance(x, int):
        return x
    if not _RATIONAL_TEXT.fullmatch(x):
        raise ValueError(f"unreadable rational {x[:20]!r}")
    if "/" not in x:
        return int(x) or ZERO
    try:
        q = Q(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"unreadable value ({exc})") from None
    return _rational(q.numerator, q.denominator)


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


def _checked_subset(vs: VertexSet, subset) -> tuple[int, ...]:
    """The subset as a tuple; ValueError unless it is nonempty, without repeats, in range and not every vertex."""
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


def _split(vs: VertexSet, subset) -> tuple[tuple[int, ...], list[int]]:
    """(subset, the other vertex indices in order), after ``_checked_subset``."""
    idx = _checked_subset(vs, subset)
    sset = set(idx)
    return idx, [t for t in range(len(vs)) if t not in sset]


def _not_zero(v: Sequence) -> list[int]:
    """The positions of v whose entry is not the shared ``ZERO`` object, found at C speed."""
    return list(compress(range(len(v)), map(is_not, v, repeat(ZERO))))


_RATIONAL_TYPES = frozenset((int, Fraction))  # bool is a subclass of int, not int


def verify_face_certificate(vs: VertexSet, subset: Sequence[int], cert: FaceCertificate) -> bool:
    """Substitution check of the supporting-hyperplane invariants.

    The slots of the normal that hold the shared ``ZERO`` are skipped by
    identity at C speed; every other entry, the offset and epsilon must
    be an int or a Fraction (None, "", a float or a boolean fails the
    check, as does a subset ``_checked_subset`` refuses), and each such
    entry is read, a zero made elsewhere included; an int's numerator and
    denominator are read in C.  (normal, offset, epsilon) are scaled once to integers over
    their common denominator, and each nonzero entry is added into every
    vertex with a one at its offset (``VertexSet.incidence``), so the
    cost follows the normal's support and the vertices it touches; a
    vertex the support misses has value 0.  Once the subset's values
    equal the offset they are set to offset - epsilon, and one C-level
    max over all values is the gap test; no list of the other vertices
    is built.
    """
    try:
        idx = _checked_subset(vs, subset)
        normal = cert.normal
        if len(normal) != vs.scheme.ambient_dim:
            return False
        picked = _not_zero(normal)
        entries = list(map(normal.__getitem__, picked))
        if not {type(cert.offset), type(cert.epsilon), *map(type, entries)} <= _RATIONAL_TYPES:
            return False
        support = [(o, x) for o, x in zip(picked, entries) if x]
        den = math.lcm(cert.offset.denominator, cert.epsilon.denominator, *(x.denominator for _, x in support))
        offset, eps = (x.numerator * (den // x.denominator) for x in (cert.offset, cert.epsilon))
        if eps <= 0:
            return False
        values = [0] * len(vs)
        for o, x in support:
            weight = x.numerator * (den // x.denominator)
            for t in vs.incidence[o]:
                values[t] += weight
        low = offset - eps
        for s in idx:
            if values[s] != offset:
                return False
            values[s] = low
        return max(values) <= low
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
    """Substitution check: alpha-combination of S = mu-combination of the rest = point.

    Every entry of alpha, mu and point must be an int or a Fraction, as
    in ``verify_face_certificate``: a float or a boolean fails the check
    (three floats 1/3 sum to 1.0, though not exactly to 1).
    """
    try:
        idx, others = _split(vs, subset)
        if len(wit.alpha) != len(idx) or len(wit.mu) != len(others) or len(wit.point) != vs.scheme.ambient_dim:
            return False
        if not set(map(type, chain(wit.alpha, wit.mu, wit.point))) <= _RATIONAL_TYPES:
            return False
        if sum(wit.alpha) != 1 or sum(wit.mu) != 1 or any(m < 0 for m in wit.mu):
            return False
        return _combination(vs, wit.alpha, idx) == tuple(wit.point) == _combination(vs, wit.mu, others)
    except (ValueError, TypeError, IndexError):
        return False


def _mask(v: tuple[int, ...]) -> int:
    """The one-positions v as one integer bitmask."""
    return sum(1 << o for o in v)


def _masks(vs: VertexSet) -> list[int]:
    """Each vertex's one-positions as one integer bitmask."""
    return list(map(_mask, vs.vertices))


class _Masks(Sequence):
    """Vertex t's one-positions as one integer bitmask, built when asked: ``_listed_face`` reads only its pool's."""

    def __init__(self, vertices: tuple[tuple[int, ...], ...]):
        self.vertices = vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, t: int) -> int:
        return _mask(self.vertices[t])


class _OnePositions(Sequence):
    """Vertex t as ``dict.fromkeys(its one-positions, 1)``, built when asked, so that ``affine_hull_frame``
    holds one vertex's mapping at a time: a list of qap(7)'s 5,040 would take 11 MB."""

    def __init__(self, vertices: tuple[tuple[int, ...], ...]):
        self.vertices = vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, t: int) -> dict[int, int]:
        return dict.fromkeys(self.vertices[t], 1)


class FaceContext:
    """Per-vertex-set precomputation shared across face tests.

    The affine-hull frame (built by the first frame LP, so a scan certified
    by fixings and orbit LPs builds none) and each frame-LP row are built
    on first use.
    masks[t] is vertex t's one-positions as one integer bitmask, and
    weight their common number of ones (None when the vertices differ).
    No vertex is densified: the frame is built from the one-positions,
    handed over one vertex at a time (``_OnePositions``), and a row reads
    its vertex's deltas at the pivot columns from its mask.  A set above
    ``MAX_DENSE_CELLS`` is still refused, though nothing here densifies
    it.  ``symmetry`` keeps the outcome of the symmetry check once asked.
    """

    def __init__(self, vs: VertexSet):
        cells = len(vs) * vs.scheme.ambient_dim
        if cells > MAX_DENSE_CELLS:
            raise ValueError(
                f"vertex set too large to densify: {len(vs)} vertices x dimension {vs.scheme.ambient_dim} "
                f"= {cells} cells, above the {MAX_DENSE_CELLS} of the largest set generate writes"
            )
        self.vs = vs
        self.masks = _masks(vs)
        weights = {len(v) for v in vs.vertices}
        self.weight = weights.pop() if len(weights) == 1 else None
        self._rows: dict[tuple[int, str], SupportRow] = {}
        self._symmetry: _Symmetry | _BitSymmetry | str | None = None

    @cached_property
    def frame(self) -> AffineHullFrame:
        return affine_hull_frame(_OnePositions(self.vs.vertices), self.vs.scheme.ambient_dim)

    def outside_row(self, t: int) -> SupportRow:
        return self._frame_row(t, "<=")

    def member_row(self, s: int) -> SupportRow:
        return self._frame_row(s, "=")

    def _frame_row(self, t: int, rel: str) -> SupportRow:
        """The support-LP row of vertex t's frame coordinates, ``weighted_columns`` over ``inverse_den``; built once
        per (t, rel)."""
        row = self._rows.get((t, rel))
        if row is None:
            frame, mask = self.frame, self.masks[t]
            deltas = [(mask >> c & 1) - frame.origin[c] for c in frame.pivot_cols]
            row = self._rows[t, rel] = SupportRow(tuple(frame.weighted_columns(deltas)), frame.inverse_den, rel)
        return row

    def symmetry(self) -> _Symmetry | _BitSymmetry:
        """The vertex set's table from ``_checked_symmetry``, checked on first use and kept, as the LP rows are.

        A vertex set without one raises the same ValueError every time.
        """
        if self._symmetry is None:
            try:
                self._symmetry = _checked_symmetry(self.vs)
            except ValueError as exc:
                self._symmetry = str(exc)
        if isinstance(self._symmetry, str):
            raise ValueError(self._symmetry)
        return self._symmetry


def _swap_and_cycle(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transposition of 0 and 1 and the n-cycle i -> i + 1, which generate S_n."""
    return (1, 0, *range(2, n)), (*range(1, n), 0)


def _cycles(p: tuple[int, ...]) -> list[list[int]]:
    """p's cycles, each from its least point, shortest first: conjugates list theirs in the same lengths."""
    seen, cycles = [False] * len(p), []
    for i in range(len(p)):
        if not seen[i]:
            cycle, j = [i], p[i]
            while j != i:
                cycle.append(j)
                seen[j], j = True, p[j]
            cycles.append(cycle)
    cycles.sort(key=len)
    return cycles


class _CanonicalForm:
    """The canonical-form search of ``_Symmetry`` and ``_BitSymmetry`` (module docstring): a table supplies its
    group's ``order``, its ``classes`` (least[t], the class minimum of vertex t, and a conjugator onto it) and
    ``_stabiliser_order``."""

    def representatives(self, k: int, rank, fix_first: bool):
        """(rank, S, size) for each orbit's lex-min member S of the k-subsets, in lex order: S = {0, x, ...} is tried
        when x is a class minimum (vertex 0 at k = 1) and every member's class minimum is at least x, and kept when
        ``_stabiliser_order`` finds no lex-smaller image.  size is order / |Stab(S)|, times k/N with fix_first."""
        least = self.classes[0]
        for head in [(0,)] if k == 1 else [(0, x) for x in sorted(set(least)) if x]:
            later = [t for t in range(head[-1] + 1, len(least)) if least[t] >= head[-1]]
            for rest in combinations(later, k - len(head)):
                if stabiliser := self._stabiliser_order(head, rest):
                    size = self.order // stabiliser
                    yield rank(head + rest), head + rest, size * k // len(least) if fix_first else size


@dataclass(frozen=True)
class _Symmetry(_CanonicalForm):
    """The permutation behind each vertex of qap(n) or phi(n) and its products: itemgetter(*p)(x) is compose(x, p)
    in one C call.  Its conjugacy classes (``classes``) and their centralisers are built on first use."""

    perms: list[tuple[int, ...]]  # of each vertex, as the tuple of its 0-based images
    index: dict[tuple[int, ...], int]  # the vertex of each permutation
    get: list[itemgetter]  # itemgetter(*perms[t])
    undo: list[itemgetter]  # itemgetter(*inverse(perms[t]))
    centralisers: dict = field(default_factory=dict, compare=False)  # class minimum -> its ``centraliser``

    def vertex_map(self, move) -> list[int]:
        """The vertex each vertex goes to under the move (a, b, transpose): p to b.p.a^-1, or b.p^-1.a^-1."""
        a, b, transpose = move
        a_undo = self.undo[self.index[a]]
        return [self.index[a_undo(get(b))] for get in (self.undo if transpose else self.get)]

    @property
    def order(self) -> int:
        """2 n!^2, the order of S_n x S_n x C_2."""
        return 2 * len(self.perms) ** 2

    @cached_property
    def classes(self) -> tuple[list[int], list[int]]:
        """(least, conj): least[t] is the least vertex in t's conjugacy class (its cycle type), the class
        minimum, and conj[t] the vertex of a g with g.p_t.g^-1 = p_least[t], which maps t's cycles onto the
        minimum's."""
        cycles = [_cycles(p) for p in self.perms]
        first: dict[tuple[int, ...], int] = {}
        least = [first.setdefault(tuple(map(len, c)), t) for t, c in enumerate(cycles)]
        listing = [tuple(chain.from_iterable(c)) for c in cycles]  # j -> the j-th point listed
        return least, [self.index[itemgetter(*inverse(flat))(listing[m])] for flat, m in zip(listing, least)]

    def centraliser(self, m: int) -> list[tuple[tuple[int, ...], itemgetter]]:
        """(c, itemgetter(*c^-1)) for every c with c.p_m.c^-1 = p_m, in vertex order, kept per class minimum m."""
        if m not in self.centralisers:
            p, get = self.perms[m], self.get[m]
            self.centralisers[m] = [(c, undo) for c, undo in zip(self.perms, self.undo) if undo(get(c)) == p]
        return self.centralisers[m]

    def _stabiliser_order(self, head, rest) -> int:
        """|Stab(S)| for S = head + rest when S is its orbit's lex-min member, else 0: each rebasing T and u in T
        of x's class (x = head[-1]) give the images c.g.T.g^-1.c^-1, g = conj[u], c in C(x), and S is lex-min when
        none is lex-smaller; the images equal to S are its stabiliser."""
        perms, index, get, undo = self.perms, self.index, self.get, self.undo
        (least, conj), x, subset = self.classes, head[-1], head + rest
        if any(least[index[undo[u](perms[s])]] < x for s, u in combinations(subset[1:], 2)):
            return 0
        cent, steps, rest = self.centraliser(x), [get[u] for u in rest], list(rest)
        for c, c_undo in cent:  # S itself first, up to the first lex-smaller image
            if sorted([index[c_undo(step(c))] for step in steps]) < rest:
                return 0
        order, target = 0, list(subset)
        for rebased in chain(
            [subset],
            ([index[undo[s](perms[u])] for u in subset] for s in subset[1:]),
            ([index[undo[u](perms[s])] for u in subset] for s in subset),
        ):
            for t in (t for t in rebased if least[t] == x):
                g, g_undo, columns = perms[conj[t]], undo[conj[t]], []
                for u in rebased:  # u's image under each c.g; vertex 0 and t go to 0 and x
                    step = u and u != t and itemgetter(*g_undo(get[u](g)))
                    columns.append([index[c_undo(step(c))] for c, c_undo in cent] if step else [least[u]] * len(cent))
                images = list(map(sorted, zip(*columns)))
                if min(images) < target:
                    return 0
                order += images.count(target)
        return order


def _moved(p: tuple[int, ...], z: int) -> int:
    """z with each set bit i moved to bit p[i]."""
    return sum(1 << p[i] for i in _bits(z))


def _ones_first(z: int, m: int) -> list[int]:
    """The bit positions 0 to m - 1, those set in z first, each part in increasing order."""
    return sorted(range(m), key=lambda i: not z >> i & 1)


@dataclass(frozen=True)
class _BitSymmetry(_CanonicalForm):
    """The bit vector u behind each vertex u (x) u of bqp(m), as a tuple of 0/1 entries, and the vertex of each.

    For the canonical form (module docstring) vertex t is read as r[t], its
    bits xor vertex 0's (``offsets``): the switchings translate r and the
    bit permutations permute its bits.  The classes, the centraliser of
    each class minimum and each value's images under it (``_column``) are
    built on first use.
    """

    bits: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    centralisers: dict = field(default_factory=dict, compare=False)  # class minimum -> its ``centraliser``
    columns: dict = field(default_factory=dict, compare=False)  # (class minimum, r value) -> its ``_column``

    def vertex_map(self, move) -> list[int]:
        """The vertex each vertex goes to under the bit permutation (a, a, False): u to u' with u'(a(i)) = u(i)."""
        get = itemgetter(*inverse(move[0]))
        return [self.index[get(u)] for u in self.bits]

    def switch_map(self) -> list[int]:
        """The vertex each vertex goes to under the switching of bit 0: u to u xor e_0."""
        return [self.index[(1 - u[0], *u[1:])] for u in self.bits]

    @property
    def order(self) -> int:
        """2^m m!, the order of Z_2^m semidirect S_m."""
        return len(self.bits) * math.factorial(len(self.bits[0]))

    @cached_property
    def offsets(self) -> tuple[list[int], list[int]]:
        """(r, at): r[t] is vertex t's bit vector xor vertex 0's, as an int with entry i at bit i, and at[r[t]] = t."""
        base = self.bits[0]
        r = [sum((b ^ c) << i for i, (b, c) in enumerate(zip(u, base))) for u in self.bits]
        return r, sorted(range(len(r)), key=r.__getitem__)

    @cached_property
    def classes(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """(least, conj): least[t] is the least vertex whose r has the weight of r[t], the class minimum, and conj[t]
        the bit permutation, as the tuple of each bit's image, that sends the set bits of r[t] in order onto those
        of r[least[t]], and its clear bits likewise."""
        r, m = self.offsets[0], len(self.bits[0])
        first: dict[int, int] = {}
        least = [first.setdefault(z.bit_count(), t) for t, z in enumerate(r)]
        return least, [compose(_ones_first(r[x], m), inverse(_ones_first(z, m))) for z, x in zip(r, least)]

    def centraliser(self, x: int) -> list[tuple[int, ...]]:
        """Every bit permutation that fixes r[x], S_w x S_(m-w) on its w set bits and its clear bits, as the tuple of
        each bit's image, built from those bits and kept per class minimum x."""
        if x not in self.centralisers:
            z, m = self.offsets[0][x], len(self.bits[0])
            bits, w = _ones_first(z, m), z.bit_count()
            undo = inverse(bits)
            self.centralisers[x] = [
                compose(a + b, undo) for a, b in product(permutations(bits[:w]), permutations(bits[w:]))
            ]
        return self.centralisers[x]

    def _stabiliser_order(self, head, rest) -> int:
        """|Stab(S)| for S = head + rest when S is its orbit's lex-min member, else 0, as for ``_Symmetry``: the
        rebasings T are S translated by r[s], s in S (S itself first), and each t in T of x's class gives the images
        c.g(T), g = conj[t], c in C(x).  Every image holds vertex 0 and x, and its other members lie in classes with
        minima above x (those of the pairs' xors), so only they are compared, read from their ``_column``s."""
        (least, conj), (r, at), x = self.classes, self.offsets, head[-1]
        subset = head + rest
        if any(least[at[r[s] ^ r[u]]] < x for s, u in combinations(subset[1:], 2)):
            return 0
        order, target = 0, list(rest)
        for rebased in ([at[r[u] ^ r[s]] for u in subset] for s in subset):
            for t in (t for t in rebased if least[t] == x):
                columns = [self._column(x, _moved(conj[t], r[u])) for u in rebased if u and u != t]
                if not columns:  # k <= 2: every image is S
                    order += len(self.centraliser(x))
                    continue
                if min(map(min, columns)) < rest[0]:  # an image starts below S's third member
                    return 0
                images = list(map(sorted, zip(*columns)))
                if min(images) < target:
                    return 0
                order += images.count(target)
        return order

    def _column(self, x: int, z: int) -> tuple[int, ...]:
        """The vertex at c(z) for each c in C(x), in order, for z not 0: from the columns of z's lowest set bit and of
        the rest of z, kept per (x, z)."""
        column = self.columns.get((x, z))
        if column is None:
            r, at = self.offsets
            low = z & -z
            if z == low:
                column = tuple(at[1 << c[low.bit_length() - 1]] for c in self.centraliser(x))
            else:
                parts = (map(r.__getitem__, self._column(x, y)) for y in (low, z ^ low))
                column = tuple(map(at.__getitem__, map(or_, *parts)))
            self.columns[x, z] = column
        return column


def _permutation_table(vs: VertexSet) -> _Symmetry:
    """The table of a vertex set that holds all n! vertices of qap(n) or phi(n), the identity first (the canonical
    form rebases onto vertex 0); ValueError, a fix-first scan's refusal, otherwise."""
    scheme = vs.scheme
    if len(vs) != math.factorial(scheme.n):
        raise ValueError("fix-first reduction refused: a move does not map the vertex set onto itself")
    of = dict(zip(lex_vertices(scheme.family, scheme.n), permutations(range(scheme.n))))
    perms = [of.get(v) for v in vs.vertices]
    if None in perms:
        where = f"vertex {perms.index(None)} is not in {scheme.family}({scheme.n})"
        raise ValueError(f"fix-first reduction refused: {where}")
    if perms[0] != tuple(range(scheme.n)):
        raise ValueError("fix-first reduction refused: vertex 0 is not the identity permutation")
    index = {p: t for t, p in enumerate(perms)}
    return _Symmetry(perms, index, [itemgetter(*p) for p in perms], [itemgetter(*inverse(p)) for p in perms])


def _bit_table(vs: VertexSet) -> _BitSymmetry:
    """The table of a vertex set that holds all 2^m tensor squares of bqp(m); ValueError otherwise."""
    m = vs.scheme.n
    if m < 2:
        raise ValueError("bit-permutation reduction refused: bqp needs m >= 2")
    if len(vs) != 2 ** m:
        raise ValueError("bit-permutation reduction refused: a move does not map the vertex set onto itself")
    bits = []
    for t, v in enumerate(vs.vertices):
        ones = set(v)
        u = tuple(int(i * (m + 1) in ones) for i in range(m))  # the diagonal of u (x) u
        if bqp_vertex_offsets(u, m) != v:
            raise ValueError(f"bit-permutation reduction refused: vertex {t} is not a tensor square")
        bits.append(u)
    return _BitSymmetry(bits, {u: t for t, u in enumerate(bits)})  # 2^m distinct squares: all of them


def _permuted(cmap: list[int], v: tuple[int, ...]) -> tuple[int, ...]:
    """The one-positions of the 0/1 point v after the coordinate map cmap."""
    return tuple(sorted(map(cmap.__getitem__, v)))


def _switched(rows: dict, v: tuple[int, ...]) -> tuple[int, ...] | None:
    """The one-positions of the image of the 0/1 point v under the affine map rows, in the form of
    ``families.bqp_switching`` (the coordinates in rows change, every other one is kept), or None when the
    image is not a 0/1 point."""
    ones, image = set(v), [o for o in v if o not in rows]
    for o, (c, terms) in rows.items():
        x = c + sum(coef for source, coef in terms if source in ones)
        if x == 1:
            image.append(o)
        elif x:
            return None
    return tuple(sorted(image))


def _checked_symmetry(vs: VertexSet) -> _Symmetry | _BitSymmetry:
    """The table of vs; ValueError unless it holds every vertex of its family and order (``_permutation_table``,
    ``_bit_table``) and generators of the group move them as the table says: the coordinate maps of a
    transposition and an n-cycle on either side and inversion for qap and phi, as ``vertex_map`` says; for
    bqp those of a transposition and an m-cycle of the bits, and the affine switching of bit 0
    (``families.bqp_switching``) applied to each vertex's 0/1 point, as ``switch_map`` says."""
    scheme = vs.scheme
    ident, (swap, cycle) = tuple(range(scheme.n)), _swap_and_cycle(scheme.n)
    if scheme.family == "bqp":
        table, refused, what = _bit_table(vs), "bit-permutation reduction refused", "bit vectors"
        moves = [(g, g, False) for g in (swap, cycle)]
    else:
        table, refused, what = _permutation_table(vs), "fix-first reduction refused", "permutations"
        moves = [(g, ident, False) for g in (swap, cycle)] + [(ident, g, False) for g in (swap, cycle)]
        moves.append((ident, ident, True))
    maps = [(partial(_permuted, coordinate_map(scheme, *move)), table.vertex_map(move)) for move in moves]
    if scheme.family == "bqp":
        maps.append((partial(_switched, bqp_switching(scheme.n)), table.switch_map()))
    for image, vmap in maps:
        if any(image(v) != vs.vertices[w] for v, w in zip(vs.vertices, vmap)):
            raise ValueError(f"{refused}: a move maps the vertices unlike their {what}")
    return table


def _context(vs: VertexSet, ctx: FaceContext | None) -> FaceContext:
    """ctx, or a new context when it is None.

    A context built for another vertex set raises ValueError; one built
    for an equal copy of vs is accepted.
    """
    if ctx is None:
        return FaceContext(vs)
    if ctx.vs is not vs and ctx.vs != vs:
        raise ValueError("the face context was built for another vertex set")
    return ctx


def _support_lp_optimum(width: int, rows: list[SupportRow]):
    """Exact optimum of a support-LP over width functional coordinates, solved once with all its rows.

    Returns (epsilon, a, b, den, dual) in integers: epsilon 0 or 1
    (module docstring; any other optimum raises), the functional a and
    offset b over den, and dual the constraint multipliers in row order
    over one positive denominator, which a witness cancels.  (A first
    round over the subset rows alone, as row generation would solve,
    always ends at a = b = 0, eps = 1 and leaves every other row
    violated, so it is not solved.)
    """
    res = lp_solve(SupportLP(width, tuple(rows)))
    if res.status != "optimal":
        raise InternalInconsistencyError(f"support-LP returned {res.status}")
    x, den = res.primal, res.den
    if x[-1] not in (0, den):
        raise InternalInconsistencyError(f"support-LP optimum {Q(x[-1], den)} is neither 0 nor 1")
    a = [p - q for p, q in zip(x, x[width : 2 * width])]
    return x[-1] // den, a, x[2 * width] - x[2 * width + 1], den, res.dual


def _frame_lp(ctx: FaceContext, subset, others):
    """The support-LP over the frame: rows for the subset, then each vertex of others in order.

    Returns (1, (normal, offset), None) at a positive gap, with the
    hyperplane lifted to ambient coordinates, and (0, None, (y_subset,
    y_others)) at zero gap, the multipliers of the subset's and the other
    vertices' rows as integers over one denominator.
    """
    rows = [ctx.member_row(s) for s in subset] + [ctx.outside_row(t) for t in others]
    eps, a_frame, b_frame, den, dual = _support_lp_optimum(ctx.frame.dim, rows)
    if eps > 0:
        return eps, ctx.frame.ambient_functional(a_frame, b_frame, den), None
    return eps, None, (dual[: len(subset)], dual[len(subset) :])


def _least_images(maps: list[list[int]]) -> list[int]:
    """label[x]: the least image of x under the maps, the least point of x's orbit when they are a whole group."""
    return [min(images) for images in zip(*maps)]


def _orbit_lp(ctx: FaceContext, subset, others, moves):
    """The support-LP over the functionals invariant under a group H, given by every one of its moves.

    Same return as ``_frame_lp``.  moves holds the (vertex map,
    coordinate map) of every move of H, so a point's least image labels
    its orbit (``_least_images``).  An orbit indicator (module docstring)
    takes on each vertex the count of its one-positions in the orbit, so
    each vertex orbit is one point {label: count}, and the columns c_j
    are the pivot columns of those points' hull frame, vertex 0's point
    first: the lex-first labels whose counts are independent.  A row
    holds its orbit's counts at them less vertex 0's.  The LP has one row
    per vertex orbit (the subset's, then the others), its int counts over
    1.  At zero gap each orbit row's multiplier is spread evenly over the
    orbit's members, in integers times the lcm of the orbit sizes.
    """
    vs = ctx.vs
    vertex = _least_images([vmap for vmap, _ in moves])
    coord = _least_images([cmap for _, cmap in moves])
    groups: dict[int, list[int]] = {}  # the subset's orbits come first: they hold no other vertex
    for t in chain(subset, others):
        groups.setdefault(vertex[t], []).append(t)
    orbits = list(groups.values())
    ns = len({vertex[s] for s in subset})
    points = [Counter(map(coord.__getitem__, vs.vertices[orbit[0]])) for orbit in orbits]
    origin = Counter(map(coord.__getitem__, vs.vertices[0]))
    # the pivot columns do not depend on the points' order; the later orbits first took a fifth fewer row
    # operations on the phi(5) and qap(5) triples
    labels = sorted(affine_hull_frame([origin, *reversed(points)], vs.scheme.ambient_dim).pivot_cols)
    base = [origin.get(j, 0) for j in labels]
    rows = [
        SupportRow(tuple(p.get(j, 0) - y for j, y in zip(labels, base)), 1, "<=" if k >= ns else "=")
        for k, p in enumerate(points)
    ]
    eps, c, b, den, dual = _support_lp_optimum(len(labels), rows)
    if eps > 0:
        value = {j: _rational(x, den) for j, x in zip(labels, c) if x}
        offset = _rational(b + sum(x * y for x, y in zip(c, base)), den)
        return eps, (tuple(map(value.get, coord, repeat(ZERO))), offset), None
    y, scale = [0] * len(vs), math.lcm(*map(len, orbits))
    for orbit, weight in zip(orbits, dual):
        for t in orbit:
            y[t] = weight * (scale // len(orbit))
    return eps, None, ([y[s] for s in subset], [y[t] for t in others])


def is_face(vs: VertexSet, subset: Sequence[int], ctx: FaceContext | None = None):
    """Decide face status of a vertex subset; returns a verified certificate.

    FaceCertificate when S is the vertex set of a face, NonFaceWitness
    otherwise.  A ctx built for another vertex set raises ValueError.
    S's coordinate face F is listed first: when F = S its fixings certify
    S and no LP is solved, nor any symmetry checked.  Otherwise the orbit
    LP decides S when its stabiliser is not trivial, and the frame LP
    inside F when it is (module docstring).
    """
    idx = _checked_subset(vs, subset)
    ctx = _context(vs, ctx)
    inter, union, face = _coordinate_face(ctx, idx)
    if len(face) == len(idx):
        return _fixing_certificate(vs, idx, inter, union, ctx.weight)
    members = set(idx)
    others = [t for t in range(len(vs)) if t not in members]
    moves = _stabiliser_moves(ctx, idx)
    if moves:
        return _verified_result(vs, idx, *_orbit_lp(ctx, idx, others, moves))
    rest = [t for t in face if t not in members]
    eps, hyperplane, weights = _frame_lp(ctx, idx, rest)
    if eps == 0:  # mu is 0 off F
        y_rest = dict(zip(rest, weights[1]))
        weights = weights[0], [y_rest.get(t, 0) for t in others]
    elif len(face) < len(vs):
        hyperplane = _lifted(*hyperplane, eps, inter, union, ctx.weight)
    return _verified_result(vs, idx, eps, hyperplane, weights)


def _verified_result(vs: VertexSet, idx: tuple[int, ...], eps: int, hyperplane, weights):
    """The certificate of a support-LP result as ``_frame_lp`` returns it, over every vertex: the face
    certificate (normal, offset) with gap eps, or at zero gap the witness read from the multipliers
    (y_subset, y_others) of the subset and of every other vertex in order; verified by substitution."""
    if eps > 0:
        a, b = hyperplane
        cert = FaceCertificate(normal=a, offset=b, epsilon=eps)
        if not verify_face_certificate(vs, idx, cert):
            raise InternalInconsistencyError("support-LP certificate failed substitution")
        return cert
    # Zero gap: the duals, integers over one denominator, combine the rows of S and of the rest (module docstring).
    y_subset, y_others = weights
    total = sum(y_others)
    if total <= 0:
        raise InternalInconsistencyError("support-LP duals put no weight on the off-subset rows")
    alpha = tuple(Q(-y, total) for y in y_subset)
    mu = tuple(Q(y, total) if y else ZERO for y in y_others)
    wit = NonFaceWitness(alpha=alpha, mu=mu, point=_combination(vs, alpha, idx))
    if not verify_nonface_witness(vs, idx, wit):
        raise InternalInconsistencyError("support-LP dual witness failed substitution")
    return wit


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
    set defines a face and the returned subset is exactly its vertex set:
    the vertices v with I <= v <= U, I the value-1 offsets and U every
    offset but the value-0 ones (``_listed_face``, which builds the masks
    of its pool only, and with no value-1 offset reads only the value-0
    offsets' incidence lists), certified by ``_fixing_certificate``.  An
    equation is attained when some vertex has a one at its offset (value
    1) or lacks one (value 0), read off the lengths of
    ``VertexSet.incidence``.  An empty subset is reported, not raised.
    """
    dim = vs.scheme.ambient_dim
    eqs = list(equations)
    for off, val in eqs:
        if not 0 <= off < dim:
            raise ValueError(f"coordinate {off} out of range")
        if val not in (0, 1):
            raise ValueError(f"value must be 0 or 1, got {val}")
    incidence = vs.incidence  # built once per vertex set, and read by the certificate check too
    reports = [
        EquationReport(off, val, len(incidence[off]) < len(vs) if val == 0 else bool(incidence[off]))
        for off, val in eqs
    ]
    inter, union = _equation_masks(dim, eqs)
    subset = _listed_face(vs, inter, union, _Masks(vs.vertices), [off for off, val in eqs if val == 0])
    cert = _fixing_certificate(vs, subset, inter, union, None) if 0 < len(subset) < len(vs) else None
    return FaceByEquations(tuple(subset), tuple(reports), cert)


def compose_with_face(
    vs: VertexSet, face: FaceByEquations, inner_subset: Sequence[int], inner_cert: FaceCertificate
) -> FaceCertificate:
    """Lift a certificate for a subset of a coordinate-fixed face to the whole set.

    face is a proper face from ``face_by_equations``; inner_subset
    indexes face.subset, and inner_cert certifies it against the other
    vertices of the face.  If T is a face of the face F then T is a face
    of the whole polytope; the supporting functional is the inner one
    plus a large multiple of face.certificate (``_lifted``), the integer
    coordinate-fixing functional ``face_by_equations`` built and verified,
    tight on F and at least 1 lower on every vertex outside it.  The lifted
    certificate is verified by substitution against every vertex.
    """
    inter, union = _equation_masks(vs.scheme.ambient_dim, [(e.coordinate, e.value) for e in face.equations])
    a, b = _lifted(inner_cert.normal, inner_cert.offset, inner_cert.epsilon, inter, union, None)
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


def _stabiliser(table: _Symmetry, subset) -> list[tuple[tuple[int, ...], tuple[int, ...], bool]]:
    """Every move (a, b, transpose) of S_n x S_n x C_2 that maps the subset's permutations onto themselves.

    For each transpose flag and image p_t of the first member p_0, b is
    forced (p_t.a.p_0^-1, or p_t.a.p_0), and member p_s goes to
    p_t.(a.d_s.a^-1), d_s = p_0^-1.p_s (p_0.p_s^-1 with transpose), which
    must lie in {p_t^-1.p_u}.  So a sends d_1 onto such an e of its class:
    a is in conj[e]^-1.C(m).conj[d_1], m their class minimum, at most
    2 k (k - 1) |C(m)| candidates (every a when k = 1).
    """
    (least, conj), index = table.classes, table.index
    members = [table.perms[s] for s in subset]
    found = []
    for transpose in (False, True):
        base = members[0] if transpose else inverse(members[0])
        steps = [compose(base, inverse(p) if transpose else p) for p in members[1:]]
        getters = [itemgetter(*d) for d in steps]
        d = index[steps[0]] if steps else 0
        for pt in members:
            allowed = {compose(inverse(pt), pu) for pu in members}
            candidates = table.perms if not steps else [
                tuple(map(g_inv.__getitem__, table.get[conj[d]](c)))  # g_e^-1.c.g_d
                for e in map(index.get, allowed) if least[e] == least[d]
                for g_inv in [inverse(table.perms[conj[e]])]
                for c, _ in table.centraliser(least[d])
            ]
            for a in candidates:
                a_undo = table.undo[index[a]]
                if all(a_undo(step(a)) in allowed for step in getters[1:]):
                    found.append((a, compose(pt, compose(a, base)), transpose))
    return found


# The smallest n at which is_face solves the orbit LP; see the module docstring.
ORBIT_LP_MIN_N = 5


def _stabiliser_moves(ctx: FaceContext, subset) -> list[tuple[list[int], list[int]]]:
    """(vertex map, coordinate map) of every move of the subset's stabiliser H, as ``_stabiliser`` lists them.

    Empty, so that ``is_face`` solves the frame LP, unless the vertex set
    is qap(n) or phi(n) with a checked table (``FaceContext.symmetry``),
    n >= ORBIT_LP_MIN_N and H is not trivial.  The vertex maps are read
    from the table; any that does not map the subset onto itself raises
    InternalInconsistencyError.
    """
    if ctx.vs.scheme.family == "bqp" or ctx.vs.scheme.n < ORBIT_LP_MIN_N:
        return []
    try:
        table = ctx.symmetry()
    except ValueError:
        return []
    group = _stabiliser(table, subset)
    if len(group) == 1:
        return []
    moves = []
    for move in group:
        vmap = table.vertex_map(move)
        if {vmap[s] for s in subset} != set(subset):
            raise InternalInconsistencyError("a stabiliser move does not map the subset onto itself")
        moves.append((vmap, coordinate_map(ctx.vs.scheme, *move)))
    return moves


def _lex_rank(size: int, k: int, fixed: int):
    """(count, rank): how many k-subsets of range(size) hold range(fixed), and rank(subset), the lex position of
    such a sorted subset among them: count - 1 less, over its j-th free member c, the C(size - 1 - c, r - j)
    subsets that agree with it before j and are larger at j (the combinatorial number system, r = k - fixed)."""
    r = k - fixed
    count = math.comb(size - fixed, r)
    rows = [[math.comb(size - 1 - c, r - j) for c in range(size)] for j in range(r)]
    return count, lambda subset: count - 1 - sum(map(getitem, rows, subset[fixed:]))


class _Orbits:
    """The orbits of the k-subsets under the vertex set's checked symmetry (``FaceContext.symmetry``).

    reps lists (position, representative, size) in lex order, from the
    table's ``representatives``: position and size count the subsets
    through vertex 0 with fix_first, else all; InternalInconsistencyError
    unless the sizes sum to count, which makes the orbits cover the scan once.
    """

    def __init__(self, ctx: FaceContext, k: int, fix_first: bool):
        self.table = ctx.symmetry()
        self.count, self.rank = _lex_rank(len(ctx.vs), k, int(fix_first))
        self.reps: list[tuple[int, tuple[int, ...], int]] = list(self.table.representatives(k, self.rank, fix_first))
        covered = sum(size for _, _, size in self.reps)
        if covered != self.count:
            raise InternalInconsistencyError(f"the orbits hold {covered} subsets, not the {self.count} scanned")


def _coordinate_face(ctx: FaceContext, subset) -> tuple[int, int, list[int]]:
    """(I, U, F): the AND and the OR of the subset's vertex masks, and the vertices of the coordinate face
    {v : I <= v <= U} in index order, the subset among them (``_listed_face``)."""
    masks = ctx.masks
    picked = [masks[s] for s in subset]
    inter, union = reduce(and_, picked), reduce(or_, picked)
    return inter, union, _listed_face(ctx.vs, inter, union, masks)


def _listed_face(
    vs: VertexSet, inter: int, union: int, masks: Sequence[int], zeros: Sequence[int] | None = None
) -> list[int]:
    """The vertices of the coordinate face {v : I <= v <= U} in index order, masks[t] being vertex t's bitmask.
    Every vertex of F has a one at each coordinate of I, so when I is not 0 only the shortest of their
    incidence lists (``VertexSet.incidence``, in index order) is walked.  When I is 0, F is the vertices
    outside the incidence lists of the coordinates off U: given as zeros (few, from coordinate fixings),
    those lists are read; otherwise (a subset's U, which leaves most coordinates off) every mask is."""
    if not inter:
        if zeros is not None:
            excluded = set().union(*map(vs.incidence.__getitem__, zeros))
            return list(filterfalse(excluded.__contains__, range(len(vs))))
        return [t for t, v in enumerate(masks) if v | union == union]
    pool = min(map(vs.incidence.__getitem__, _bits(inter)), key=len)
    return [t for t in pool if (v := masks[t]) & inter == inter and v | union == union]


def _fixing_form(inter: int, union: int, weight: int | None) -> tuple[int, int, int, int]:
    """(on I, on U less I, off U, offset): the fixing functional of the face {v : I <= v <= U}, tight on it and
    at least 1 lower on every other vertex.  With every vertex of weight w it is 1 on U plus 1 on I, offset
    w + |I|; with weight None +1 on I and -1 off U, offset |I|."""
    if weight is None:
        return 1, 0, -1, inter.bit_count()
    return 2, 1, 0, weight + inter.bit_count()


def _bits(mask: int) -> list[int]:
    """The positions of mask's set bits, one C-level str.find per bit of its binary text."""
    text = bin(mask)
    top, out = len(text) - 1, []
    i = text.find("1")
    while i >= 0:
        out.append(top - i)
        i = text.find("1", i + 1)
    return out


def _by_class(dim: int, inter: int, union: int, values) -> list:
    """dim entries: values[0] on I, values[1] on U less I, values[2] off U.  The largest of the three classes is
    filled in one C-level step, the other two written at their set bits (``_bits``)."""
    classes = (inter, union & ~inter, ((1 << dim) - 1) & ~union)
    sizes = [c.bit_count() for c in classes]
    fill = sizes.index(max(sizes))
    out = [values[fill]] * dim
    for j, c in enumerate(classes):
        if j != fill:
            for o in _bits(c):
                out[o] = values[j]
    return out


def _lifted(normal, offset, eps, inter: int, union: int, weight: int | None) -> tuple[tuple, int | Fraction]:
    """(normal, offset) of a hyperplane with gap eps on the face {v : I <= v <= U}, plus lam times its fixing
    functional (``_fixing_form``): lam = upper - offset + eps (at least 0), upper the normal's largest value on
    a 0/1 point (the sum of its positive entries), keeps the gap on every vertex.  In integers over one
    denominator: the normal's slots that hold ``ZERO`` are skipped at C speed (``_not_zero``), the result is
    laid out class by class (``_by_class``), and only the normal's support is then written one by one.  Each
    distinct entry of the result is made once (``exactmath._rational``): ``ZERO``, an int, or a Fraction only
    where it is not an integer."""
    support = [(o, x) for o in _not_zero(normal) if (x := normal[o])]
    den = math.lcm(offset.denominator, eps.denominator, *(x.denominator for _, x in support))
    b = offset.numerator * (den // offset.denominator)
    nums = [(o, x.numerator * (den // x.denominator)) for o, x in support]
    lam = max(0, sum(x for _, x in nums if x > 0) - b + eps.numerator * (den // eps.denominator))
    form = _fixing_form(inter, union, weight)
    out = _by_class(len(normal), inter, union, [_rational(lam * f, den) for f in form[:3]])
    entries: dict[int, int | Fraction] = {}
    for o, x in nums:
        v = x + lam * form[0 if inter >> o & 1 else 1 if union >> o & 1 else 2]
        if v not in entries:
            entries[v] = _rational(v, den)
        out[o] = entries[v]
    return tuple(out), _rational(b + lam * form[3], den)


def _equation_masks(dim: int, equations) -> tuple[int, int]:
    """(I, U) of coordinate fixings (offset, value): the value-1 offsets, and every offset but the value-0 ones."""
    inter = reduce(or_, (1 << off for off, val in equations if val == 1), 0)
    return inter, ((1 << dim) - 1) & ~reduce(or_, (1 << off for off, val in equations if val == 0), 0)


def _fixing_certificate(vs: VertexSet, subset, inter: int, union: int, weight: int | None) -> FaceCertificate:
    """The fixing functional (``_fixing_form``) of a coordinate face that holds only the subset, as a face
    certificate with gap 1, verified by substitution; laid out class by class (``_by_class``) in ints,
    ``ZERO`` for 0."""
    *values, offset = map(_rational, _fixing_form(inter, union, weight))
    cert = FaceCertificate(tuple(_by_class(vs.scheme.ambient_dim, inter, union, values)), offset, 1)
    if not verify_face_certificate(vs, subset, cert):
        raise InternalInconsistencyError("coordinate-fixing certificate failed substitution")
    return cert


def k_neighborly_scan(
    vs: VertexSet,
    k: int,
    *,
    fix_first: bool = False,
    stop_at_first: bool = False,
    ctx: FaceContext | None = None,
) -> NeighborlinessReport:
    """Certify every k-subset (with fix_first, every one through vertex 0) as a face.

    Subsets are scanned in lexicographic order, one representative per
    orbit of ``_Orbits`` (module docstring) on every vertex set that
    passes the symmetry check; fix_first picks only which subsets are
    counted.  A representative is certified by coordinate fixings where
    they single it out, else by ``is_face``, and its orbit's size counts
    towards faces_certified when it is a face, so every verdict and count
    is the one a subset-by-subset scan gives.  The first non-face in lex
    order is the lex-min member of its orbit, so the scan stops at the
    same counterexample, with the witness ``is_face`` returns for it.  A
    vertex set that fails the check is scanned subset by subset, and
    raises ValueError with fix_first.  In symmetry_reduction, "LPs for N
    of the M orbits" counts the N representatives decided, each by an LP
    or by fixings.
    """
    n = len(vs)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}, got {k}")
    ctx = _context(vs, ctx)
    try:
        orbits = _Orbits(ctx, k, fix_first)
    except ValueError:  # the checked symmetry does not fit: every subset is a representative
        if fix_first:
            raise
        orbits, total = None, math.comb(n, k)
        reps = ((i, subset, 1) for i, subset in enumerate(combinations(range(n), k)))
    else:
        total, reps = orbits.count, orbits.reps
    faces = solved = 0
    first_bad = first_wit = None
    stopped = False
    for i, subset, size in reps:
        solved += 1
        inter, union, face = _coordinate_face(ctx, subset)
        if len(face) == len(subset):  # is_face's first step, taken here; is_face lists F again for the others
            cert = _fixing_certificate(vs, subset, inter, union, ctx.weight)
        else:
            cert = is_face(vs, subset, ctx)
        if isinstance(cert, FaceCertificate):
            faces += size
        elif first_bad is None:
            first_bad, first_wit = subset, cert
            if stop_at_first:
                total, faces, stopped = i + 1, i, True
                break
    if orbits is None:
        symmetry = "none (exhaustive scan)"
    else:
        m = vs.scheme.n
        if vs.scheme.family == "bqp":
            group = f"Z_2^{m} semidirect S_{m} (switchings and bit permutations)"
        else:
            group = f"S_{m} x S_{m} x C_2 (left and right multiplication, inversion)"
        symmetry = (
            f"{group}: LPs for {solved} of the {len(orbits.reps)} orbits of {k}-subsets"
            f"{' through vertex 0' if fix_first else ''}, "
            "every other subset by a move of the checked symmetry"
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
