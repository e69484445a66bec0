"""Exact rational linear programming with self-verifying certificates.

Two-phase simplex on a compact (dictionary) slack-form tableau.  All
arithmetic is exact: tableau rows are integer vectors with a per-row
positive denominator, kept primitive (gcd(den, *row) == 1) after every
pivot, so no entry is ever rounded.  The public API speaks
`fractions.Fraction`.

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

Every result carries a certificate checkable by plain substitution,
independent of the pivoting code:

* ``optimal`` -- primal solution plus dual multipliers satisfying the
  complementary-slackness conditions;
* ``infeasible`` -- multipliers for constraints and variable bounds
  that combine to the contradiction 0 < 0;
* ``unbounded`` -- a feasible point and an improving recession ray.

Phase 1 ends as soon as its value reaches 0, not when its row prices
out: every artificial is then at 0, so the basis is feasible, and the
remaining basic artificials are driven out before phase 2 (Chvatal
1983, ch. 8).  The face-test support LP starts phase 1 at 0 (its
artificials sit on the subset rows, whose rhs is 0), so its phase 1
makes only the drive-out pivots, at most one per subset row.

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
from fractions import Fraction
from functools import cached_property

from .exactmath import _over_lcm

Q = Fraction

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in _RELS:
            raise ValueError(f"bad relation {self.rel!r}")

    @cached_property
    def _int_coeffs(self) -> tuple[list[int], int]:
        """(nums, den) with coeffs == nums / den; computed once, shared by every LP using the row."""
        return _over_lcm(self.coeffs)


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to constraints and variable bounds.

    Bounds are per-variable (lower, upper); None means unbounded on that
    side.  Variables are free by default.  Coefficients, right-hand
    sides and the objective are int or Fraction (make_lp converts).
    """

    num_vars: int
    objective: tuple
    constraints: tuple[Constraint, ...]
    lower: tuple = None  # type: ignore[assignment]
    upper: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.num_vars <= 0:
            raise ValueError("need at least one variable")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length != num_vars")
        for c in self.constraints:
            if len(c.coeffs) != self.num_vars:
                raise ValueError("constraint coefficient length != num_vars")
        if self.lower is None:
            object.__setattr__(self, "lower", (None,) * self.num_vars)
        if self.upper is None:
            object.__setattr__(self, "upper", (None,) * self.num_vars)
        if len(self.lower) != self.num_vars or len(self.upper) != self.num_vars:
            raise ValueError("bounds length != num_vars")
        for lo, hi in zip(self.lower, self.upper):
            if lo is not None and hi is not None and Q(lo) > Q(hi):
                raise ValueError(f"empty bound interval [{lo}, {hi}]")


def make_lp(objective, constraints, lower=None, upper=None) -> LinearProgram:
    """Convenience builder: constraints as (coeffs, rel, rhs) triples."""
    cons = tuple(Constraint(tuple(Q(x) for x in co), rel, Q(rhs)) for co, rel, rhs in constraints)
    n = len(objective)
    low = tuple(None if lo is None else Q(lo) for lo in (lower or (None,) * n))
    up = tuple(None if hi is None else Q(hi) for hi in (upper or (None,) * n))
    return LinearProgram(n, tuple(Q(x) for x in objective), cons, low, up)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Multipliers combining the system into the contradiction 0 < 0.

    constraint multipliers apply to rows oriented as <= (a >= row is
    negated first); they must be nonnegative except on equality rows.
    The bound multipliers are nonnegative and only touch finite bounds.
    """

    constraints: tuple
    lower: tuple
    upper: tuple


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: tuple | None = None
    objective_value: Fraction | None = None
    dual: tuple | None = None
    infeasibility: InfeasibilityCertificate | None = None
    ray_point: tuple | None = None
    ray_direction: tuple | None = None


def _oriented(con: Constraint):
    """Constraint as (coeffs, rhs) of an <=-or-= row."""
    if con.rel == GE:
        return tuple(-Q(x) for x in con.coeffs), -Q(con.rhs)
    return tuple(Q(x) for x in con.coeffs), Q(con.rhs)


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

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self._build()

    # --- standard form construction -------------------------------------

    def _build(self):
        lp = self.lp
        n = lp.num_vars
        # Column plan: each original variable becomes one or two nonnegative
        # columns; cols[k] = (var, sign); shifts[i] is the affine offset so
        # that x_i = shifts[i] + sum(sign * column value).
        self.cols: list[tuple[int, int]] = []
        self.shifts = [Q(0)] * n
        bound_rows = []  # (column, ub_value, var)
        for i in range(n):
            lo, hi = lp.lower[i], lp.upper[i]
            if lo is not None:
                self.shifts[i] = Q(lo)
                self.cols.append((i, 1))
                if hi is not None:
                    bound_rows.append((len(self.cols) - 1, Q(hi) - Q(lo), i))
            elif hi is not None:
                self.shifts[i] = Q(hi)
                self.cols.append((i, -1))
            else:
                self.cols.append((i, 1))
                self.cols.append((i, -1))
        nstruct = len(self.cols)

        # Rows: oriented constraints first, then upper-bound rows, each as
        # integer structural cells and rhs over one positive denominator,
        # negated (flipped) where that makes the rhs nonnegative.
        self.row_src: list[tuple[str, int]] = []  # ("con", idx) | ("ub", var)
        self.row_rel: list[str] = []
        self.flip: list[bool] = []
        raw_rows = []  # (cells, rhs, den)
        shifted = [i for i, sh in enumerate(self.shifts) if sh]
        for idx, con in enumerate(lp.constraints):
            nums, a_den = con._int_coeffs
            b = con.rhs
            for i in shifted:
                if con.coeffs[i]:
                    b -= con.coeffs[i] * self.shifts[i]
            den = math.lcm(a_den, b.denominator)
            o = -1 if con.rel == GE else 1
            rhs = o * b.numerator * (den // b.denominator)
            flip = rhs < 0
            if flip:
                o, rhs = -o, -rhs
            f = o * (den // a_den)
            raw_rows.append(([s * f * nums[v] for v, s in self.cols], rhs, den))
            self.row_src.append(("con", idx))
            self.row_rel.append(EQ if con.rel == EQ else LE)
            self.flip.append(flip)
        for col, ub, var in bound_rows:
            cells = [0] * nstruct
            cells[col] = ub.denominator
            raw_rows.append((cells, ub.numerator, ub.denominator))
            self.row_src.append(("ub", var))
            self.row_rel.append(LE)
            self.flip.append(False)

        m = len(raw_rows)
        # Artificials where the slack cannot serve as the initial basic column.
        slack_of = [-1] * m
        art_of = [-1] * m
        col_cursor = nstruct
        for r, rel in enumerate(self.row_rel):
            if rel == LE:
                slack_of[r] = col_cursor
                col_cursor += 1
        self.art_start = col_cursor
        for r in range(m):
            if self.flip[r] or self.row_rel[r] == EQ:
                art_of[r] = col_cursor
                col_cursor += 1
        self.ncols = col_cursor
        self.slack_of, self.art_of = slack_of, art_of
        self.m = m
        self.basis = [art_of[r] if art_of[r] >= 0 else slack_of[r] for r in range(m)]

        # Nonbasic at the start: the structural columns and the slacks of
        # rows whose artificial is basic.
        self.col_at = list(range(nstruct)) + [
            slack_of[r] for r in range(m) if art_of[r] >= 0 and slack_of[r] >= 0
        ]
        self.slot_of = [-1] * col_cursor
        for k, col in enumerate(self.col_at):
            self.slot_of[col] = k
        width = self.basic_cell = len(self.col_at)  # then the rhs cell
        pad = [0] * (width - nstruct)
        self.rows, self.dens = [], []
        for r, (cells, rhs, den) in enumerate(raw_rows):
            row = cells + pad + [den, rhs]
            if art_of[r] >= 0 and slack_of[r] >= 0:
                row[self.slot_of[slack_of[r]]] = -den if self.flip[r] else den
            row, den = _normalized(row, den)
            self.rows.append(row)
            self.dens.append(den)

        # Objective rows m (phase 1) and m + 1 (phase 2).  Phase 1 costs -1
        # on each artificial; with those basic, its reduced costs are the
        # sum of their rows, each scaled to a unit basic entry.
        self.obj1, self.obj2 = m, m + 1
        arts = [r for r in range(m) if art_of[r] >= 0]
        den = math.lcm(*(self.rows[r][width] for r in arts))
        obj1 = [0] * (width + 2)
        for r in arts:
            q = den // self.rows[r][width]
            obj1 = [x + q * y for x, y in zip(obj1, self.rows[r])]
        obj1[width] = 0
        c, den2 = _over_lcm(lp.objective)
        obj2 = [s * c[v] for v, s in self.cols] + pad + [0, 0]
        for row, den in (_normalized(obj1, den), _normalized(obj2, den2)):
            self.rows.append(row)
            self.dens.append(den)

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

    # --- solution read-out ------------------------------------------------

    def _variables(self, base, vals) -> tuple:
        """base plus the standard-form column values vals, read back onto the LP's variables."""
        x = list(base)
        for k, (v, s) in enumerate(self.cols):
            if vals[k] != 0:
                x[v] += s * vals[k]
        return tuple(x)

    def _primal(self):
        vals = [Q(0)] * self.ncols
        for r in range(self.m):
            row = self.rows[r]
            vals[self.basis[r]] = Q(row[-1], row[self.basic_cell])
        return self._variables(self.shifts, vals)

    def _duals(self, o):
        """Row multipliers of the unflipped standard rows, from identity columns.

        Every row keeps a column that started as +e_r in the tableau (its
        artificial, or its slack when no artificial was added), so the
        multiplier is cost - reduced cost there (0 while that column is
        basic); a row that was negated to make its rhs nonnegative
        carries the opposite multiplier.
        """
        obj, objden = self.rows[o], self.dens[o]
        y = []
        for r in range(self.m):
            if self.art_of[r] >= 0:
                col = self.art_of[r]
                cinit = Q(-1) if o == self.obj1 else Q(0)
            else:
                col = self.slack_of[r]
                cinit = Q(0)
            k = self.slot_of[col]
            yhat = cinit - Q(obj[k], objden) if k >= 0 else cinit
            y.append(-yhat if self.flip[r] else yhat)
        return y

    def solve(self) -> LPResult:
        lp = self.lp
        self._run(self.obj1)
        # The objective rows carry the negated value in the rhs cell, so a
        # nonzero one here is a negative phase-1 optimum.
        if self.rows[self.obj1][-1] != 0:
            return self._infeasible_result()
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
        status = self._run(self.obj2)
        if status != "optimal":
            return self._unbounded_result(status)
        primal = self._primal()
        value = sum((c * v for c, v in zip(lp.objective, primal) if c), Q(0))
        dual = self._duals(self.obj2)
        lam = tuple(dual[r] for r in range(len(lp.constraints)))
        return LPResult(status="optimal", primal=primal, objective_value=value, dual=lam)

    def _infeasible_result(self) -> LPResult:
        lp = self.lp
        y = self._duals(self.obj1)
        lam = [y[r] for r in range(len(lp.constraints))]
        ub_mult = {}
        for r in range(len(lp.constraints), self.m):
            kind, var = self.row_src[r]
            ub_mult[var] = ub_mult.get(var, Q(0)) + y[r]
        # Residuals of the combined functional become bound multipliers.
        d = [Q(0)] * lp.num_vars
        for idx, con in enumerate(lp.constraints):
            if lam[idx] == 0:
                continue
            a, _ = _oriented(con)
            for i in range(lp.num_vars):
                if a[i] != 0:
                    d[i] += lam[idx] * a[i]
        mu_lo = [Q(0)] * lp.num_vars
        mu_hi = [Q(0)] * lp.num_vars
        for i in range(lp.num_vars):
            lo, hi = lp.lower[i], lp.upper[i]
            ub = ub_mult.get(i, Q(0))
            if lo is not None and hi is not None:
                mu_hi[i] = ub
                mu_lo[i] = d[i] + ub
            elif lo is not None:
                mu_lo[i] = d[i]
            elif hi is not None:
                mu_hi[i] = -d[i]
        return LPResult(
            status="infeasible",
            infeasibility=InfeasibilityCertificate(
                constraints=tuple(lam), lower=tuple(mu_lo), upper=tuple(mu_hi)
            ),
        )

    def _unbounded_result(self, c) -> LPResult:
        point = self._primal()
        vals = [Q(0)] * self.ncols
        vals[c] = Q(1)
        s = self.slot_of[c]
        for r in range(self.m):
            row = self.rows[r]
            if row[s] != 0:
                vals[self.basis[r]] = Q(-row[s], row[self.basic_cell])
        direction = self._variables([Q(0)] * self.lp.num_vars, vals)
        return LPResult(status="unbounded", ray_point=point, ray_direction=direction)


def lp_solve(lp: LinearProgram) -> LPResult:
    """Solve exactly; the result always passes verify_lp_certificate.

    Terminates on every input: largest reduced cost, falling back to
    least-index selection after a degenerate streak.
    """
    return _Solver(lp).solve()


# --- certificate verification (substitution only, no solver state) --------


def _check_primal_feasible(lp: LinearProgram, x) -> bool:
    if len(x) != lp.num_vars:
        return False
    for lo, hi, xi in zip(lp.lower, lp.upper, x):
        if lo is not None and xi < lo:
            return False
        if hi is not None and xi > hi:
            return False
    for con in lp.constraints:
        lhs = sum(a * xi for a, xi in zip(con.coeffs, x) if a != 0)
        if con.rel == LE and not lhs <= con.rhs:
            return False
        if con.rel == GE and not lhs >= con.rhs:
            return False
        if con.rel == EQ and lhs != con.rhs:
            return False
    return True


def verify_lp_certificate(lp: LinearProgram, result: LPResult) -> bool:
    """Check a result by direct substitution into the LP data."""
    try:
        if result.status == "optimal":
            return _verify_optimal(lp, result)
        if result.status == "infeasible":
            return _verify_infeasible(lp, result)
        if result.status == "unbounded":
            return _verify_unbounded(lp, result)
    except (TypeError, ValueError, IndexError):
        return False
    return False


def _verify_optimal(lp, result) -> bool:
    x, y = result.primal, result.dual
    if x is None or y is None or len(y) != len(lp.constraints):
        return False
    if not _check_primal_feasible(lp, x):
        return False
    if result.objective_value != sum(c * xi for c, xi in zip(lp.objective, x)):
        return False
    # Dual sign and complementary slackness on oriented rows.
    for con, yr in zip(lp.constraints, y):
        a, b = _oriented(con)
        if con.rel != EQ and yr < 0:
            return False
        slack = b - sum(ai * xi for ai, xi in zip(a, x) if ai != 0)
        if yr != 0 and slack != 0:
            return False
    # Reduced costs: improvement is blocked by a bound wherever nonzero.
    for i in range(lp.num_vars):
        r = Q(lp.objective[i])
        for con, yr in zip(lp.constraints, y):
            if yr != 0:
                a, _ = _oriented(con)
                r -= yr * a[i]
        if r > 0 and (lp.upper[i] is None or x[i] != lp.upper[i]):
            return False
        if r < 0 and (lp.lower[i] is None or x[i] != lp.lower[i]):
            return False
    return True


def _verify_infeasible(lp, result) -> bool:
    cert = result.infeasibility
    if cert is None or len(cert.constraints) != len(lp.constraints):
        return False
    if len(cert.lower) != lp.num_vars or len(cert.upper) != lp.num_vars:
        return False
    d = [Q(0)] * lp.num_vars
    total = Q(0)
    for con, lam in zip(lp.constraints, cert.constraints):
        if con.rel != EQ and lam < 0:
            return False
        if lam == 0:
            continue
        a, b = _oriented(con)
        for i, ai in enumerate(a):
            if ai != 0:
                d[i] += lam * ai
        total += lam * b
    for i in range(lp.num_vars):
        ml, mh = cert.lower[i], cert.upper[i]
        if ml < 0 or mh < 0:
            return False
        if ml > 0 and lp.lower[i] is None:
            return False
        if mh > 0 and lp.upper[i] is None:
            return False
        if d[i] - ml + mh != 0:
            return False
        if ml > 0:
            total -= ml * lp.lower[i]
        if mh > 0:
            total += mh * lp.upper[i]
    return total < 0


def _verify_unbounded(lp, result) -> bool:
    x, d = result.ray_point, result.ray_direction
    if x is None or d is None:
        return False
    if not _check_primal_feasible(lp, x):
        return False
    if sum(c * di for c, di in zip(lp.objective, d)) <= 0:
        return False
    for i, di in enumerate(d):
        if di > 0 and lp.upper[i] is not None:
            return False
        if di < 0 and lp.lower[i] is not None:
            return False
    for con in lp.constraints:
        lhs = sum(a * di for a, di in zip(con.coeffs, d) if a != 0)
        if con.rel == LE and lhs > 0:
            return False
        if con.rel == GE and lhs < 0:
            return False
        if con.rel == EQ and lhs != 0:
            return False
    return True

