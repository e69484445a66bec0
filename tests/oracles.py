"""Reference code that only the tests use.

Each piece is an independent way to compute what the library computes
another way, or a debugging aid for the tests: a Fraction dot product,
exact solves, ranks and reduced row echelon forms by a plain Fraction
Gauss-Jordan that shares no code with the library's integer kernel,
the hull frame's basis and coordinates recomputed
from their definition and their inverse, the general LP (free, shifted
and upper-bounded variables, any relation and rhs) solved by a subclass
of the library's simplex that overrides only its tableau build and
read-out, with optimal, infeasible and unbounded certificates and their
substitution checks, the support LP restated as such an LP, a
plain-text LP dump, the witness-LP face oracle, the orbit walk and the stabiliser search that
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

from polyface import faces, simplex
from polyface.exactmath import Vector
from polyface.faces import FaceCertificate, NonFaceWitness, _split
from polyface.families import VertexSet, compose, coordinate_map, edge_list, inverse

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


# --- the general LP: a subclass of the library's simplex, its certificates and their substitution checks

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


def general_support_lp(lp: simplex.SupportLP) -> LinearProgram:
    """The support LP as a general LP, as the library built it before its own tableau: each row's coefficients
    w + (-w) + (-1, 1, 1 or 0) as Fractions, rhs 0, every variable >= 0 and eps <= 1."""
    nv = lp.num_vars
    cons = []
    for row in lp.constraints:
        w = tuple(Q(x, row.den) for x in row.cells)
        cons.append(Constraint(w + tuple(-x for x in w) + (-1, 1, 1 if row.rel == LE else 0), row.rel, Q(0)))
    return LinearProgram(nv, (Q(0),) * (nv - 1) + (Q(1),), tuple(cons), (Q(0),) * nv, (None,) * (nv - 1) + (Q(1),))


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


class GeneralSolver(simplex._Solver):
    """``simplex._Solver`` on a general ``LinearProgram``: its own tableau build and read-out, the library's pivots.

    Each variable becomes one or two nonnegative columns, shifted by a
    finite bound; an upper bound on a variable with a lower one is a row,
    and a row whose rhs is negative is negated and gets an artificial.
    The read-out gives Fractions and a certificate for every status.
    """

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
            a_den = math.lcm(*(Q(x).denominator for x in con.coeffs))
            nums = [Q(x).numerator * (a_den // Q(x).denominator) for x in con.coeffs]
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
            row, den = simplex._normalized(row, den)
            self.rows.append(row)
            self.dens.append(den)
        den = math.lcm(*(Q(x).denominator for x in lp.objective))
        cost = [Q(x).numerator * (den // Q(x).denominator) for x in lp.objective]
        self._objective_rows([s * cost[v] for v, s in self.cols], den)

    # --- read-out -------------------------------------------------------

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

    def _result(self, status) -> LPResult:
        if status == "infeasible":
            return self._infeasible_result()
        if status != "optimal":
            return self._unbounded_result(status)
        lp = self.lp
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
    """Solve a general LP exactly (``GeneralSolver``); the result always passes verify_lp_certificate."""
    return GeneralSolver(lp).solve()


# --- certificate verification (substitution only, no solver state)


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


def scanned(table, k: int, fix_first: bool) -> list[tuple[int, ...]]:
    """The subsets an orbit scan counts, in lex order: those through vertex 0 with fix_first, else all."""
    head = (0,) if fix_first else ()
    return [head + rest for rest in combinations(range(len(head), len(table.index)), k - len(head))]


def walked_orbits(table, k: int, fix_first: bool) -> list[tuple[int, tuple[int, ...], int]]:
    """(position, representative, size) of each orbit, found by walking: in lex order, the first scanned subset
    not yet seen is its orbit's lex-min member, and ``orbit_walk`` marks the rest of its orbit seen.  fix_first
    names the members the walk reaches: True on qap and phi, False on bqp."""
    count, rank = faces._lex_rank(len(table.index), k, int(fix_first))
    seen = bytearray(count)
    reps = []
    for i, subset in enumerate(scanned(table, k, fix_first)):
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


def carried_orbit_scan(vs: VertexSet, k: int, ctx, fix_first: bool) -> list[tuple[tuple[int, ...], object]]:
    """(subset, certificate) for every subset the program's orbit scan counts, in lex order.

    The orbits are the program's (``faces._Orbits``), counting the
    members ``orbit_walk`` reaches, as fix_first names them in
    ``walked_orbits``: each representative is decided by ``is_face``, its
    orbit is walked by ``orbit_walk``, and each member gets the
    representative's certificate carried by the move the walk gives it
    (``_carried``), verified by substitution.  AssertionError when a
    carried certificate fails, when an orbit's walk disagrees with its
    recorded size, or when a scanned subset is reached twice or never.
    """
    orbits = faces._Orbits(ctx, k, fix_first)
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
    covered = scanned(orbits.table, k, fix_first)
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
