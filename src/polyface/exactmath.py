"""Exact rational vectors, matrices, and linear-algebra kernels.

The public API speaks arbitrary-precision `fractions.Fraction`; no
operation ever rounds.  Vectors are tuples, matrices are lists of row
tuples; integers are accepted anywhere a rational is (they are exact).

All elimination runs in one private fraction-free kernel over sparse
primitive integer rows: a row is a dict from column to nonzero int,
gcd-normalized after every combination.  ``_eliminate`` is Gauss-Jordan
and ``_combine`` touches only the pivot row's nonzeros.  ``greedy_basis``
keeps its chosen rows fully reduced as well and reduces each candidate
in one combination with the rows whose leads it meets.  Reduced rows
are sparse (qap(5) frame: 66 nonzeros on average, at most 151, of 625
columns; qap(6) 83 (235) of 1,296; phi(6) 48 (110) of 225; entries of
at most 4 bits).  Fractions appear only when a result is read back.

Hull frames follow the same rule.  ``affine_hull_frame`` takes each
point as its nonzero entries by column, the kernel's own row form (a
0/1 vertex is ``dict.fromkeys(its one-positions, 1)``), and builds each
delta from the origin on the union of the two supports, straight into
the loop that ``greedy_basis`` runs on its converted rows; no point but
the origin is ever written out densely.  ``AffineHullFrame`` stores its
origin, its pivot columns and its basis at those columns (the square
block, entries -1, 0 and 1 for a vertex set); the inverse of that block
is computed on first use, as integer columns over one denominator L
read straight from ``_invert``'s elimination rows, since the orbit LP
of ``faces`` reads only the pivot columns of the frame of its orbit
points.  ``weighted_columns``
weights those columns by a point's deltas from the origin at them (its
coordinates times L), and ``ambient_functional`` scales the frame
functional once to integers and lifts it by integer dot products,
handing out each entry it returns by ``_rational`` and filling its other
slots with the one shared ``ZERO``.  ``_over_lcm`` writes a rational
vector as integers over the lcm of its denominators.

The kernels other modules rely on:

* ``nullspace`` -- kernel over the rationals.
* ``affine_dependencies`` -- basis of the affine dependencies of a point
  list (coefficients summing to zero with vanishing weighted sum), as
  int tuples.
* ``greedy_basis`` -- the vectors of a list that are independent of the
  ones before them; the hull frame picks its directions with the same
  loop, so a frame's pivot columns are the lex-first independent columns
  of its points' differences, whatever the order of the points, and
  ``faces`` reads its orbit LP's invariant functionals off them.
* ``affine_hull_frame`` -- exact reduced coordinates on the affine hull
  of a point set given by nonzero entries, used to shrink LP dimensions
  before face tests; the origin holds the first point's values and int
  zeros (ints alone for vertex sets).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

Q = Fraction

# The one zero that fills every zero slot of a vector this library and ``faces`` build for a certificate, so
# a reader can skip those slots by identity (``is``) at C speed; a zero made anywhere else is still read.
ZERO = Q(0)

Vector = tuple  # tuple of Fraction|int


def _rational(num: int, den: int = 1) -> int | Fraction:
    """num / den as a certificate holds it: ``ZERO`` when it is zero, an int when den divides num, and a
    Fraction only otherwise, so that a reader of its ``numerator``, ``denominator`` and truth value stays in C."""
    if not num:
        return ZERO
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Q(num, den) if r else q


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """row divided by the gcd of its entries; the one normaliser of the kernel."""
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _over_lcm(v: Sequence) -> tuple[list[int], int]:
    """(nums, den) with v == nums / den and den the lcm of v's denominators.

    v holds ints or Fractions; an all-int v, told by one C-level type check, is (list(v), 1).
    """
    if {int}.issuperset(map(type, v)):
        return list(v), 1
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _int_row(v: Sequence) -> dict[int, int]:
    """Primitive integer row proportional to the rational vector v: its nonzero entries by column."""
    return _integral({c: x for c, x in enumerate(v) if x})


def _integral(row: dict) -> dict[int, int]:
    """Primitive integer row proportional to the rational row {column: nonzero value}.

    A row of ints is only divided by its gcd; otherwise ints and
    Fractions are read as they are, other entries go through Fraction,
    and the row is scaled by the lcm of its denominators first.
    """
    if not {int}.issuperset(map(type, row.values())):
        row = {c: x if isinstance(x, (int, Q)) else Q(x) for c, x in row.items()}
        row = dict(zip(row, _over_lcm(row.values())[0]))
    return _primitive(row)


def _combine(v: dict[int, int], row: dict[int, int], c: int) -> dict[int, int]:
    """Primitive multiple of v * pv - f * row, with f / pv = v[c] / row[c] in lowest terms; zero at c.

    v is copied scaled when pv != 1, else changed in place; only row's nonzero columns change, cancelled ones are deleted.
    """
    g = math.gcd(row[c], v[c])
    pv, f = row[c] // g, v[c] // g
    if pv != 1:
        v = {k: x * pv for k, x in v.items()}
    return _primitive(_subtract(v, row, f))


def _subtract(v: dict[int, int], row: dict[int, int], f: int) -> dict[int, int]:
    """v - f * row in place, on row's nonzero columns only; cancelled entries are deleted."""
    for k, y in row.items():
        if x := v.get(k, 0) - f * y:
            v[k] = x
        else:
            del v[k]
    return v


def _eliminate(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on primitive integer rows, in place.

    Pivots are taken from the first `ncols` columns only; the pivot row
    for a column is the first nonzero one at or below the current rank.
    Returns the pivot columns; rows[i] is the pivot row of pivots[i],
    the rows after them are zero in the pivot block, and a reduced value
    is Fraction(rows[i].get(j, 0), rows[i][pivots[i]]).  Every row stays
    a primitive integer multiple of its Fraction counterpart:
    fraction-free as in Bareiss (Math. Comp. 22, 1968), with a gcd
    normalization in place of his exact division by the previous pivot.
    """
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i, row in enumerate(rows):
            if i != r and c in row:
                rows[i] = _combine(row, rows[r], c)
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def nullspace(m: Sequence[Sequence]) -> list[Vector]:
    """Basis of {x : M x = 0}, one vector per free column of the rref."""
    ncols = len(m[0]) if m else 0
    rows = [_int_row(row) for row in m]
    pivots = _eliminate(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Q(0)] * ncols
        v[free] = Q(1)
        for row, c in zip(rows, pivots):
            v[c] = -Q(row.get(free, 0), row[c])
        basis.append(tuple(v))
    return basis


def canonical_integer_vector(v: Sequence) -> tuple[int, ...]:
    """Scale to coprime ints with a positive leading nonzero entry."""
    row = _int_row(v)
    sign = -1 if row and row[min(row)] < 0 else 1
    return tuple(sign * row.get(c, 0) for c in range(len(v)))


def affine_dependencies(points: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Basis of all lambda with sum(lambda_i * p_i) = 0 and sum(lambda_i) = 0.

    Basis vectors are canonicalized to coprime ints with positive
    leading entry, so expected dependency patterns can be asserted
    verbatim in tests.
    """
    if not points:
        return []
    return [canonical_integer_vector(v) for v in nullspace([*zip(*points, strict=True), [1] * len(points)])]


def greedy_basis(vectors: Iterable[Sequence]) -> tuple[list[int], list[int]]:
    """(chosen, leads): the indices, in order, of the vectors independent of all earlier ones.

    leads[i] is the first nonzero column of vectors[chosen[i]] reduced to
    zero at every earlier lead; that form is unique up to scale, so the
    leads are distinct.  The chosen rows are kept fully reduced, each zero
    at every other row's lead: a new row's lead is removed from every
    earlier row.  Subtracting one row then leaves a candidate v unchanged
    at the other leads, so v is reduced in one integer combination,
    L*v - sum(L*v[c]/row_c[c] * row_c) over the leads c in its support
    with L the lcm of row_c[c]/gcd(row_c[c], v[c]), and one gcd at the
    end.  Most candidates of a hull frame are dependent (513 of qap(6)'s
    719 differences), so their reduction is the cost; against echelon
    rows v would be rescaled and renormalised once per row met.
    """
    return _greedy_rows(map(_int_row, vectors))


def _greedy_rows(vectors: Iterable[dict[int, int]]) -> tuple[list[int], list[int]]:
    """``greedy_basis`` of primitive integer rows, the loop that it and ``affine_hull_frame`` share.

    Each row is taken over and may be changed in place.
    """
    rows: dict[int, dict[int, int]] = {}  # lead -> fully reduced row, in the order chosen
    chosen: list[int] = []
    for i, v in enumerate(vectors):
        if hits := [c for c in v if c in rows]:
            scale = math.lcm(*(rows[c][c] // math.gcd(rows[c][c], v[c]) for c in hits))
            if scale != 1:
                v = {k: x * scale for k, x in v.items()}
            for c in hits:
                _subtract(v, rows[c], v[c] // rows[c][c])
            v = _primitive(v)
        if v:
            lead = min(v)
            for c, row in rows.items():
                if lead in row:
                    rows[c] = _combine(row, v, lead)
            rows[lead] = v
            chosen.append(i)
    return chosen, list(rows)


@dataclass(frozen=True)
class AffineHullFrame:
    """Exact reduced coordinates on the affine hull of a point set.

    The basis is the differences from the origin of the points
    ``affine_hull_frame`` chose; origin + sum(c_i * basis_i) is the hull
    point with reduced coordinates c.  The origin is the one dense
    vector of a frame: the first point's values, int 0 elsewhere (ints
    alone for every vertex set).  `pivot_cols` are ambient
    coordinate positions at which the basis matrix is invertible, one
    per basis vector, and square[i] is the basis at pivot_cols[i].  The
    inverse of that square submatrix is computed on first use and kept,
    as integer columns over one denominator: inverse_cols[j][i] /
    inverse_den is its entry (i, j), and inverse_den is the lcm of the
    entries' denominators (on a 2-core VM the qap(7) frame, dimension
    457, took about 2.4 s to build and its inverse 0.8 s more, which a
    reader of pivot_cols alone never pays).  Coordinates are the
    inverse columns weighted by the point's deltas from the origin at
    pivot_cols, over inverse_den.
    """

    origin: Vector
    pivot_cols: tuple[int, ...]
    square: tuple[tuple[int, ...], ...]

    @cached_property
    def _inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        return _invert(self.square)

    @property
    def inverse_cols(self) -> tuple[tuple[int, ...], ...]:
        return self._inverse[0]

    @property
    def inverse_den(self) -> int:
        return self._inverse[1]

    @property
    def dim(self) -> int:
        return len(self.pivot_cols)

    @property
    def ambient_dim(self) -> int:
        return len(self.origin)

    def weighted_columns(self, deltas: Sequence) -> list:
        """Reduced coordinates of a hull point, times inverse_den, from its deltas from the origin at pivot_cols.

        deltas[i] is point[pivot_cols[i]] - origin[pivot_cols[i]]; the
        result is exact for any rational point, and integer for integer
        deltas.  The point is not checked to lie in the hull.
        """
        acc = [0] * self.dim
        for col, d in zip(self.inverse_cols, deltas):
            if d:
                acc = [a + d * x for a, x in zip(acc, col)]
        return acc

    def ambient_functional(self, a_frame: Sequence, b_frame, den: int = 1) -> tuple[Vector, int | Fraction]:
        """Lift a functional on frame coordinates, a_frame / den and b_frame / den, to ambient coordinates.

        Returns (a, b) with a . p - b == (a_frame . c - b_frame) / den for
        every p in the hull, where c are the reduced coordinates of p.  a_frame is scaled once to integers over
        its lcm denominator D (1 for ints), so each pivot entry of a is one integer dot
        product with an inverse column, over D * den * inverse_den, handed out by ``_rational``, as b is.  Every
        other entry of a, and each pivot entry that comes out zero, is ``ZERO``.
        """
        if len(a_frame) != self.dim:
            raise ValueError(f"dimension mismatch: {len(a_frame)} vs {self.dim}")
        nums, d = _over_lcm(a_frame)
        scale = d * den * self.inverse_den
        a = [ZERO] * self.ambient_dim
        shift = 0  # a . origin, times scale
        for c, col in zip(self.pivot_cols, self.inverse_cols):
            t = sum(map(operator.mul, nums, col))
            if t:
                a[c] = _rational(t, scale)
                shift += t * self.origin[c]
        b = Q(b_frame, den) + Q(shift, scale)
        return tuple(a), _rational(b.numerator, b.denominator)


def affine_hull_frame(points: Sequence[dict], dim: int) -> AffineHullFrame:
    """Build an AffineHullFrame from a nonempty list of points in dimension dim.

    Each point is given by its nonzero entries, {column: value} with
    every column in range(dim), the kernel's own row form; a 0/1 vertex
    is ``dict.fromkeys(its one-positions, 1)``.  The first point is the
    origin, the one point written out densely.  Each other point's delta
    from it is built on the union of the two supports and reduced by the
    loop of ``greedy_basis``, so basis directions are chosen greedily in
    input order and the frame is deterministic.  Points are read by
    index, one at a time, so a lazy sequence of them is never held whole.
    """
    if not points:
        raise ValueError("need at least one point")
    first = points[0]
    origin = [0] * dim
    for c, x in first.items():
        origin[c] = x
    chosen, pivot_cols = _greedy_rows(_integral(_subtract(dict(points[i]), first, 1)) for i in range(1, len(points)))
    # the basis at the pivot columns, read from the chosen points; its inverse maps
    # pivot-coordinate deltas to basis coefficients: coords = inverse * (p - origin)[pivot_cols].
    basis = [points[i + 1] for i in chosen]
    square = tuple(tuple(p.get(c, 0) - origin[c] for p in basis) for c in pivot_cols)
    return AffineHullFrame(origin=tuple(origin), pivot_cols=tuple(pivot_cols), square=square)


def _invert(square: list[list]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(cols, L): the inverse of square is cols[j][i] / L at (i, j), L the lcm of its denominators.

    Elimination on [square | I] leaves row i as (pivot p_i at i | p_i times
    inverse row i); rows are primitive, so p_i is, up to sign, the lcm of
    the reduced denominators of that inverse row.
    """
    n = len(square)
    rows = [_int_row([*row, *(1 if i == j else 0 for j in range(n))]) for i, row in enumerate(square)]
    if _eliminate(rows, n) != list(range(n)):
        raise ValueError("matrix is singular")
    den = math.lcm(*(row[i] for i, row in enumerate(rows)))
    scales = [den // row[i] for i, row in enumerate(rows)]
    return tuple(tuple(row.get(n + j, 0) * f for row, f in zip(rows, scales)) for j in range(n)), den
