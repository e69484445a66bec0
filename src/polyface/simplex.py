"""Exact rational simplex for the support LP of a face test.

The support LP of a subset S over the width coordinates of a functional
a (``SupportLP``) is

    max eps  subject to  a . w - b        = 0  on each row w of S,
                         a . w - b + eps <= 0  on each other row w,
                         eps <= 1,

with a = a+ - a-, b = b+ - b- and a+, a-, b+, b-, eps >= 0.  Each row w
comes as integer cells over one positive denominator (``SupportRow``),
so no Fraction is built between the rows and the optimum.

Two-phase simplex on a compact (dictionary) slack-form tableau.  All
arithmetic is exact: tableau rows are integer vectors with a per-row
positive denominator, kept primitive (gcd(den, *row) == 1) after every
pivot, so no entry is ever rounded.

Basic columns are implicit: a basic column is zero outside its own row,
so each row stores only the nonbasic columns plus its entry in its own
basic column and the rhs (Chvatal, *Linear Programming*, 1983, ch. 2).
On the widest phi(5) support LPs (122 rows) that cuts a pivot's row
width from 208 cells to 87.  The stored cells are exactly the nonzero
cells of the full tableau, so values, gcds and the pivot sequence are
those of the full-width update.

A pivot subtracts a multiple of the pivot row from each other row only
where the pivot row is nonzero, and skips the gcd pass on rows over 1
(``_Solver._pivot``); every row still ends in its one primitive form, so
the tableau is the one the dense update gives.  On the 24 phi(5) face
tests of the benchmark the pivot row is 22% nonzero and 82% of the row
updates need no rescaling, so a pivot writes less than half the cells
the dense update did.

``lp_solve`` reads the optimum as integers (``SupportOptimum``): the
primal over the lcm of its basic rows' entries and the row multipliers
over the phase-2 row's denominator.  It hands out no certificate of its
own: ``faces`` builds the face certificate or the non-face witness from
them and verifies it by substitution.  The general LP (free, shifted
and upper-bounded variables, any relation and rhs) and its optimal,
infeasible and unbounded certificates are a subclass of ``_Solver`` in
the tests' oracles, so the pivot code is written once.

Phase 1 ends as soon as its value reaches 0, not when its row prices
out: every artificial is then at 0, so the basis is feasible, and the
remaining basic artificials are driven out before phase 2 (Chvatal
1983, ch. 8).  The support LP starts phase 1 at 0 (its artificials sit
on the subset rows, whose rhs is 0), so its phase 1 makes only the
drive-out pivots, at most one per subset row.

Pivoting uses the largest-reduced-cost rule, switches to least-index
(Bland) selection after a long streak of degenerate pivots, and returns
to largest-reduced-cost after the next non-degenerate pivot.  This
still terminates: a non-degenerate pivot strictly improves the
objective, so no basis recurs across one, and Bland's rule ends every
degenerate run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LE, EQ = "<=", "="


@dataclass(frozen=True)
class SupportRow:
    """The row a . w - b (+ eps when rel is "<=") rel 0 of a support LP, w = cells / den, den > 0."""

    cells: tuple[int, ...]
    den: int
    rel: str  # "=" on the subset, "<=" off it


@dataclass(frozen=True)
class SupportLP:
    """The support LP over width functional coordinates (module docstring), one constraint per row.

    Its variables are a+ | a- | b+ | b- | eps, all >= 0, and its
    objective is eps.
    """

    width: int
    constraints: tuple[SupportRow, ...]

    @property
    def num_vars(self) -> int:
        return 2 * self.width + 3

    @property
    def objective(self) -> tuple[int, ...]:
        return (0,) * (2 * self.width + 2) + (1,)


@dataclass(frozen=True)
class SupportOptimum:
    """``lp_solve``'s result.

    status is "optimal", the only one a support LP reaches (a = b = eps
    = 0 is feasible and eps <= 1 bounds it), or "infeasible" or
    "unbounded", which a broken tableau would give.  At the optimum,
    primal holds a+ | a- | b+ | b- | eps as integers over den, and dual
    the multipliers of the constraints, in order, as integers over
    dual_den.
    """

    status: str
    primal: tuple[int, ...] | None = None
    den: int = 1
    dual: tuple[int, ...] | None = None
    dual_den: int = 1


def _normalized(row, den):
    """(row, den) divided by the gcd of den and every entry of row."""
    g = math.gcd(den, *row)
    if g > 1:
        return [x // g for x in row], den // g
    return row, den


class _Solver:
    """Two-phase simplex on a compact (dictionary) tableau.

    rows[i] / dens[i] are the true values of row i.  A row stores only
    the nonbasic columns -- slot k holds column col_at[k], and
    slot_of[col] is -1 for a basic column -- followed by two cells: the
    row's entry in its own basic column (0 on the objective rows) and
    the rhs.  A basic column is zero outside its row, so nothing else of
    it needs storing.  The m constraint rows come first, then the phase-1
    and phase-2 objective rows (reduced costs, negated value in the rhs
    cell).  Every selection rule speaks original column indices.
    """

    def __init__(self, lp):
        self.lp = lp
        self._build()

    # --- standard form construction -------------------------------------

    def _build(self):
        """The tableau of a ``SupportLP``.

        Columns: the structural a+ | a- | b+ | b- | eps, then a slack for
        each "<=" row and for the eps <= 1 row, in row order, then an
        artificial for each "=" row.  Every rhs is 0 but the cap's, so no
        row is negated, and each row starts basic in its slack or its
        artificial.  A row is [w, -w, -1, 1, 1 or 0] times den over den,
        divided by gcd(den, *cells) to its one primitive form.
        """
        lp = self.lp
        nv = lp.num_vars
        eq = [row.rel == EQ for row in lp.constraints] + [False]  # the cap eps <= 1 comes last
        m = len(eq)
        self.slack_of, self.art_of = [-1] * m, [-1] * m
        cursor = nv
        for r in range(m):
            if not eq[r]:
                self.slack_of[r] = cursor
                cursor += 1
        self.art_start = cursor
        for r in range(m):
            if eq[r]:
                self.art_of[r] = cursor
                cursor += 1
        self.ncols, self.m = cursor, m
        self.basis = [self.art_of[r] if eq[r] else self.slack_of[r] for r in range(m)]
        self.col_at = list(range(nv))
        self.slot_of = list(range(nv)) + [-1] * (cursor - nv)
        self.basic_cell = nv
        self.rows, self.dens = [], []
        for row in lp.constraints:
            cells, den = row.cells, row.den
            g = math.gcd(den, *cells)
            if g > 1:
                cells, den = [x // g for x in cells], den // g
            self.rows.append([*cells, *(-x for x in cells), -den, den, 0 if row.rel == EQ else den, den, 0])
            self.dens.append(den)
        self.rows.append([0] * (nv - 1) + [1, 1, 1])
        self.dens.append(1)
        self._objective_rows(list(lp.objective), 1)

    def _objective_rows(self, cost, den):
        """Append the objective rows m (phase 1) and m + 1 (phase 2), the latter cost / den on the structural columns.

        Phase 1 costs -1 on each artificial; with those basic, its
        reduced costs are the sum of their rows, each scaled to a unit
        basic entry.
        """
        width = self.basic_cell
        self.obj1, self.obj2 = self.m, self.m + 1
        arts = [r for r in range(self.m) if self.art_of[r] >= 0]
        lcm = math.lcm(*(self.rows[r][width] for r in arts))
        obj1 = [0] * (width + 2)
        for r in arts:
            q = lcm // self.rows[r][width]
            obj1 = [x + q * y for x, y in zip(obj1, self.rows[r])]
        obj1[width] = 0
        obj2 = cost + [0] * (width - len(cost)) + [0, 0]
        for row, d in (_normalized(obj1, lcm), _normalized(obj2, den)):
            self.rows.append(row)
            self.dens.append(d)

    # --- pivoting --------------------------------------------------------

    def _pivot(self, p, c):
        """Make column c basic in row p.

        Every other row with entry f in column c becomes row - (f/pv)*prow
        over its own denominator, where pv is the pivot entry.  With
        f/pv = a/b in lowest terms (b > 0), the row is scaled by b only
        when b != 1, and a*prow is subtracted only on the nonzero cells
        of the pivot row.  The gcd pass is skipped for a row over 1,
        which is already primitive.  A rational row has exactly one form
        row/den with den > 0 and gcd(den, *row) == 1, so every row ends
        in the form the dense update row*pv - f*prow over den*pv,
        divided by its gcd, gives.
        """
        rows, dens, d = self.rows, self.dens, self.basic_cell
        s = self.slot_of[c]
        prow = rows[p]
        # Keep the pivot entry positive so row rhs values stay nonnegative,
        # the min-ratio test remains valid on raw numerators and every
        # scale b = pv / gcd(f, pv) stays positive.
        if prow[s] < 0:
            prow = [-x for x in prow]
        pv = prow[s]
        # The leaving column takes slot s: in row p it holds the old basic
        # entry, and row p is zero in every other row's basic column.
        prow[s], prow[d] = prow[d], 0
        nz = [(k, y) for k, y in enumerate(prow) if y]
        for i, row in enumerate(rows):
            f = row[s]
            if i != p and f != 0:
                row[s] = 0
                g = math.gcd(f, pv)
                a, b = f // g, pv // g
                den = dens[i]
                if b != 1:
                    row = [x * b for x in row]
                    den *= b
                for k, y in nz:
                    row[k] -= a * y
                if den > 1:
                    row, den = _normalized(row, den)
                rows[i], dens[i] = row, den
        prow[d] = pv
        rows[p] = prow
        leaving = self.basis[p]
        self.basis[p] = c
        self.slot_of[c], self.slot_of[leaving] = -1, s
        self.col_at[s] = leaving

    def _entering(self, obj, bland):
        """Improving column: least index (Bland) or largest reduced cost, ties to least index."""
        best, best_val = -1, 0
        for k, col in enumerate(self.col_at):
            v = obj[k]
            if v > 0 and col < self.art_start:
                if bland:
                    if best < 0 or col < best:
                        best = col
                elif v > best_val or (v == best_val and col < best):
                    best, best_val = col, v
        return best

    def _leaving(self, c):
        """Min-ratio row for entering column c; ties by least basic index."""
        s = self.slot_of[c]
        best = -1
        bn = bd = None  # best ratio as bn/bd
        for r in range(self.m):
            row = self.rows[r]
            trc = row[s]
            if trc <= 0:
                continue
            rn, rd = row[-1], trc
            if best < 0 or rn * bd < bn * rd or (rn * bd == bn * rd and self.basis[r] < self.basis[best]):
                best, bn, bd = r, rn, rd
        return best

    def _run(self, o):
        """Pivot until objective row o is optimal or unbounded.

        Phase 1 (o == obj1) is optimal as soon as its value is 0: every
        artificial is then at 0 and the basis is feasible, so the pivots
        that would price the row out are left to the drive-out and phase
        2 (Chvatal 1983, ch. 8).  An LP without artificials has an
        all-zero phase-1 row and ends here before its first pivot.
        """
        threshold = 2 * (self.m + self.ncols + 1)  # rows + columns + rhs
        streak = 0  # degenerate pivots in a row
        while True:
            if o == self.obj1 and self.rows[o][-1] == 0:
                return "optimal"
            c = self._entering(self.rows[o], streak > threshold)
            if c < 0:
                return "optimal"
            p = self._leaving(c)
            if p < 0:
                return c  # unbounded along column c
            streak = streak + 1 if self.rows[p][-1] == 0 else 0
            self._pivot(p, c)

    # --- solve and read-out -----------------------------------------------

    def solve(self):
        self._run(self.obj1)
        # The objective rows carry the negated value in the rhs cell, so a
        # nonzero one here is a negative phase-1 optimum.
        if self.rows[self.obj1][-1] != 0:
            return self._result("infeasible")
        # Drive basic artificials (all at value 0 now) out of the basis.
        for r in range(self.m):
            if self.basis[r] >= self.art_start:
                row = self.rows[r]
                j = min(
                    (col for k, col in enumerate(self.col_at) if col < self.art_start and row[k]),
                    default=-1,
                )
                if j >= 0:
                    self._pivot(r, j)
                # else: redundant row; it is inert from here on.
        return self._result(self._run(self.obj2))

    def _result(self, status) -> SupportOptimum:
        """The optimum in integers, for status "optimal"; a bare "infeasible" or "unbounded" otherwise.

        A basic structural column takes its row's rhs over its row's
        basic entry, read over the lcm of those entries.  A row's
        multiplier is minus the phase-2 reduced cost of the column that
        started as +e_r (its artificial, or its slack when it has none),
        0 while that column is basic, over the phase-2 row's denominator.
        """
        if status != "optimal":
            return SupportOptimum("infeasible" if status == "infeasible" else "unbounded")
        nv, d, rows = self.lp.num_vars, self.basic_cell, self.rows
        basic = [(col, r) for r, col in enumerate(self.basis) if col < nv and rows[r][-1]]
        den = math.lcm(*(rows[r][d] for _, r in basic))
        primal = [0] * nv
        for col, r in basic:
            primal[col] = rows[r][-1] * (den // rows[r][d])
        obj, dual = rows[self.obj2], []
        for r in range(len(self.lp.constraints)):
            k = self.slot_of[self.art_of[r] if self.art_of[r] >= 0 else self.slack_of[r]]
            dual.append(-obj[k] if k >= 0 else 0)
        return SupportOptimum("optimal", tuple(primal), den, tuple(dual), self.dens[self.obj2])


def lp_solve(lp: SupportLP) -> SupportOptimum:
    """Solve a support LP exactly; its optimum in integers (``SupportOptimum``).

    Terminates on every input: largest reduced cost, falling back to
    least-index selection after a degenerate streak.
    """
    return _Solver(lp).solve()
