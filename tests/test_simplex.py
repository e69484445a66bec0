import hashlib
import math
import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import LPResult, lp_solve, lp_to_text, make_lp, solve_linear_system, vec_dot, verify_lp_certificate
from polyface import faces, simplex
from polyface.faces import FaceContext
from polyface.families import VertexSet, bqp_scheme, generate


def oriented_rows(lp):
    """All constraints and finite bounds as <= rows (a, b)."""
    rows = []
    for con in lp.constraints:
        if con.rel in ("<=", "="):
            rows.append((tuple(con.coeffs), con.rhs))
        if con.rel in (">=", "="):
            rows.append((tuple(-c for c in con.coeffs), -con.rhs))
    n = lp.num_vars
    for i in range(n):
        if lp.upper[i] is not None:
            e = [Q(0)] * n
            e[i] = Q(1)
            rows.append((tuple(e), lp.upper[i]))
        if lp.lower[i] is not None:
            e = [Q(0)] * n
            e[i] = Q(-1)
            rows.append((tuple(e), -lp.lower[i]))
    return rows


def brute_force_optimum(lp):
    """Vertex-enumeration oracle for LPs whose feasible set is boxed.

    Returns the optimal value, or None when infeasible.  Requires every
    variable to be bounded both sides so the region is a polytope.
    """
    rows = oriented_rows(lp)
    n = lp.num_vars
    best = None
    for chosen in combinations(range(len(rows)), n):
        a = [rows[i][0] for i in chosen]
        b = [rows[i][1] for i in chosen]
        res = solve_linear_system(a, b)
        if res.status != "unique":
            continue
        x = res.solution
        if all(vec_dot(r, x) <= rhs for r, rhs in rows):
            val = vec_dot(lp.objective, x)
            if best is None or val > best:
                best = val
    return best


def test_max_x_under_unit_bounds():
    lp = make_lp([1], [(( 1,), "<=", 1), ((1,), ">=", 0)])
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.primal == (1,)
    assert res.objective_value == 1
    assert verify_lp_certificate(lp, res)


def test_contradictory_bounds_certificate():
    lp = make_lp([1], [((1,), "<=", 0), ((1,), ">=", 1)])
    res = lp_solve(lp)
    assert res.status == "infeasible"
    assert verify_lp_certificate(lp, res)
    lam = res.infeasibility.constraints
    # oriented combination forces equal positive weights; normalized it is (1, 1)
    assert lam[0] == lam[1] > 0
    scaled = tuple(v / lam[0] for v in lam)
    assert scaled == (1, 1)


def test_two_var_optimal_corner():
    # max x + y st x + 2y <= 4, 3x + y <= 6, x,y >= 0 -> corner (8/5, 6/5)
    lp = make_lp(
        [1, 1],
        [((1, 2), "<=", 4), ((3, 1), "<=", 6)],
        lower=[0, 0],
    )
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.primal == (Q(8, 5), Q(6, 5))
    assert res.objective_value == Q(14, 5)
    assert verify_lp_certificate(lp, res)


def test_equality_constraint():
    lp = make_lp([1, 0], [((1, 1), "=", 3), ((1, -1), "<=", 1)], lower=[0, 0])
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.objective_value == 2
    assert verify_lp_certificate(lp, res)


def test_unbounded_ray():
    lp = make_lp([1, 0], [((0, 1), "<=", 1)], lower=[0, 0])
    res = lp_solve(lp)
    assert res.status == "unbounded"
    assert verify_lp_certificate(lp, res)


def test_negative_rhs_needs_artificials():
    lp = make_lp([0, 0], [((-1, -1), "<=", -3), ((1, 0), "<=", 2), ((0, 1), "<=", 2)], lower=[0, 0])
    res = lp_solve(lp)
    assert res.status == "optimal"
    x, y = res.primal
    assert x + y >= 3 and x <= 2 and y <= 2
    assert verify_lp_certificate(lp, res)


def test_free_variable_split():
    lp = make_lp([-1], [((1,), ">=", -5)])
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.primal == (-5,)
    assert verify_lp_certificate(lp, res)


def test_upper_bounded_variable_rows():
    lp = make_lp([1, 1], [((1, 1), "<=", 10)], lower=[0, 0], upper=[3, 2])
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.objective_value == 5
    assert verify_lp_certificate(lp, res)


def test_infeasible_equalities():
    lp = make_lp([0, 0], [((1, 1), "=", 1), ((1, 1), "=", 2)])
    res = lp_solve(lp)
    assert res.status == "infeasible"
    assert verify_lp_certificate(lp, res)


BEALE_LP = make_lp(
    [Q(3, 4), -150, Q(1, 50), -6],
    [
        ((Q(1, 4), -60, Q(-1, 25), 9), "<=", 0),
        ((Q(1, 2), -90, Q(-1, 50), 3), "<=", 0),
        ((0, 0, 1, 0), "<=", 1),
    ],
    lower=[0, 0, 0, 0],
)


def test_beale_terminates_through_the_least_index_fallback(monkeypatch):
    """Beale's LP cycles under the largest-coefficient rule alone, so the solve must pick by least index."""
    entering = simplex._Solver._entering
    selections = []

    def traced_entering(self, obj, bland):
        selections.append(bland)
        return entering(self, obj, bland)

    monkeypatch.setattr(simplex._Solver, "_entering", traced_entering)
    res = lp_solve(BEALE_LP)
    assert any(selections), selections
    assert res.status == "optimal"
    assert res.objective_value == Q(1, 20)
    assert verify_lp_certificate(BEALE_LP, res)


def test_degenerate_ties_terminate():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 4)
        m = rng.randint(2, 6)
        cons = []
        for _ in range(m):
            coeffs = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
            cons.append((coeffs, "<=", rng.choice((0, 0, 1))))
        lp = make_lp([rng.choice((-1, 0, 1)) for _ in range(n)], cons, lower=[0] * n, upper=[2] * n)
        res = lp_solve(lp)
        assert res.status == "optimal"
        assert verify_lp_certificate(lp, res)


def test_determinism_bit_for_bit():
    lp = make_lp(
        [1, 2, -1],
        [((1, 1, 1), "<=", 7), ((2, -1, 3), ">=", -4), ((1, 0, -1), "=", 1)],
        lower=[0, None, -2],
        upper=[5, 4, None],
    )
    first = lp_solve(lp)
    for _ in range(3):
        again = lp_solve(lp)
        assert again == first


def random_boxed_lp(rng, homogeneous=False):
    """A small LP in the box [-5, 5]^n.

    With homogeneous, the box is [0, 5]^n and the rows are a.x = 0 or
    a.x >= 0, so phase 1 starts at its optimum 0 (the "=" rows carry
    artificials at value 0).  Half of these LPs get one more row
    a.x >= r with r > 0, whose artificial starts positive, so phase 1
    reaches 0, if at all, only after a non-degenerate pivot.
    """
    n = rng.randint(1, 3 if homogeneous else 4)  # keeps the oracle's vertex enumeration short
    m = rng.randint(1, 5 if homogeneous else 8)
    cons = []
    for _ in range(m):
        coeffs = tuple(Q(rng.randint(-4, 4)) for _ in range(n))
        if homogeneous:
            cons.append((coeffs, rng.choice(("=", ">=")), Q(0)))
        else:
            cons.append((coeffs, rng.choice(("<=", ">=", "<=")), Q(rng.randint(-6, 6))))
    if homogeneous and rng.random() < 0.5:
        cons.append((tuple(Q(rng.randint(-1, 4)) for _ in range(n)), ">=", Q(rng.randint(1, 6))))
    obj = [Q(rng.randint(-5, 5)) for _ in range(n)]
    lo = 0 if homogeneous else -5
    return make_lp(obj, cons, lower=[lo] * n, upper=[5] * n)


def test_agreement_with_vertex_enumeration_oracle():
    rng = random.Random(2024)
    solved = infeasible = 0
    for homogeneous in [False] * 120 + [True] * 80:
        lp = random_boxed_lp(rng, homogeneous)
        expected = brute_force_optimum(lp)
        res = lp_solve(lp)
        assert verify_lp_certificate(lp, res)
        if expected is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective_value == expected
        if expected is None:
            infeasible += 1
        else:
            solved += 1
    assert solved > 60 and infeasible > 5


def test_verify_rejects_tampering():
    lp = make_lp([1, 1], [((1, 2), "<=", 4), ((3, 1), "<=", 6)], lower=[0, 0])
    res = lp_solve(lp)
    assert verify_lp_certificate(lp, res)
    bad_primal = (res.primal[0] + 1, res.primal[1])
    assert not verify_lp_certificate(
        lp, LPResult("optimal", bad_primal, res.objective_value, res.dual)
    )
    bad_value = LPResult("optimal", res.primal, res.objective_value + 1, res.dual)
    assert not verify_lp_certificate(lp, bad_value)
    bad_dual = LPResult(
        "optimal", res.primal, res.objective_value, tuple(-d for d in res.dual)
    )
    assert not verify_lp_certificate(lp, bad_dual) or all(d == 0 for d in res.dual)


def test_verify_rejects_tampered_infeasibility():
    lp = make_lp([1], [((1,), "<=", 0), ((1,), ">=", 1)])
    res = lp_solve(lp)
    cert = res.infeasibility
    tampered = LPResult(
        "infeasible",
        infeasibility=type(cert)(
            constraints=(cert.constraints[0], -cert.constraints[1]),
            lower=cert.lower,
            upper=cert.upper,
        ),
    )
    assert not verify_lp_certificate(lp, tampered)


def test_lp_text_dump():
    lp = make_lp([1, Q(1, 3)], [((1, -2), "<=", Q(7, 2))], lower=[0, None])
    text = lp_to_text(lp)
    assert "7/2" in text and "1/3" in text and "<=" in text


def random_trace_lp(rng):
    """Small LP mixing every bound kind, relation, fractional data and zero rhs."""
    n = rng.randint(1, 5)
    bounds = [rng.choice(((None, None), (0, None), (None, 2), (-2, 3), (Q(1, 2), 4))) for _ in range(n)]

    def coeff():
        return Q(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))

    cons = []
    for _ in range(rng.randint(1, 7)):
        coeffs = tuple(coeff() for _ in range(n))
        cons.append((coeffs, rng.choice(("<=", ">=", "=", "<=")), rng.choice((0, 0, 1, -1, 3, Q(-5, 2)))))
        if rng.random() < 0.15:
            cons.append(cons[-1])  # a repeated "=" row leaves its artificial basic after phase 1
    return make_lp(
        [coeff() for _ in range(n)], cons, lower=[b[0] for b in bounds], upper=[b[1] for b in bounds]
    )


TRACED_FACE_TESTS = (
    ("phi", [(0, 1, 2), (0, 3, 4), (0, 8, 12), (0, 5, 10)]),
    ("qap", [(0, 1, 2), (0, 7, 13), (3, 11, 20)]),
)
PIVOT_TRACE_DIGEST = "91cb9d993c3af7b47d14fa1404fa10ed96da26e808c436f6005521d5411377ec"


def frame_lp(ctx, subset):
    """The support LP of a traced face test over the frame, with a row for every vertex.

    is_face solves it only where the subset's coordinate face is the whole
    vertex set, so the traces call it directly."""
    return faces._frame_lp(ctx, subset, [t for t in range(len(ctx.vs)) if t not in subset])


def test_pivot_trace_is_pinned(monkeypatch):
    """Every pivot and every LPResult field match a pinned digest.

    It was first pinned when the tableau stored all columns, and re-pinned
    when face tests stopped solving a first row-generation round: the new
    log is the old one with each of those solves removed.  So the compact
    tableau pivots exactly as the full-width one did.  It was re-pinned
    again when phase 1 began to end as soon as its value reaches 0: every
    traced LP kept its status and optimal value, and every LP whose phase
    1 had not been at 0 with pivots left kept its pivots and its result.
    It was re-pinned once more when the Bland-only rule was removed: the
    log dropped each random LP's rule label and its Bland-only solve,
    and nothing else.  It was re-pinned again when the support LP lost
    its norm row: the random-LP and Beale part of the log is unchanged,
    and each traced face LP kept its status and verdict, a zero optimum
    staying 0 and a positive one becoming 1.  It was re-pinned when the
    support LP got its own tableau build and integer read-out, and
    the general LPs moved to the oracles' subclass: the pivots, and every
    random-LP and Beale entry, are unchanged (the log of its 702 pivots
    alone has the same sha256, b933f87a...), and each face LP's result is
    the same rationals, logged as integers over a denominator."""
    log = []
    pivot, solve = simplex._Solver._pivot, simplex._Solver.solve

    def traced_pivot(self, p, c):
        log.append((p, c))
        pivot(self, p, c)

    def traced_solve(self):
        res = solve(self)
        log.append(repr(res))
        return res

    monkeypatch.setattr(simplex._Solver, "_pivot", traced_pivot)
    monkeypatch.setattr(simplex._Solver, "solve", traced_solve)
    rng = random.Random(41)
    statuses = set()
    for _ in range(200):
        lp = random_trace_lp(rng)
        res = lp_solve(lp)
        assert verify_lp_certificate(lp, res)
        statuses.add(res.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    log.append("beale")
    lp_solve(BEALE_LP)  # cycles under the largest-coefficient rule until Bland takes over
    for family, subsets in TRACED_FACE_TESTS:
        vs = generate(family, 4)
        ctx = FaceContext(vs)
        for subset in subsets:
            log.append(subset)
            frame_lp(ctx, subset)
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert digest == PIVOT_TRACE_DIGEST


def test_support_lp_phase1_only_drives_artificials_out(monkeypatch):
    """The support LP's artificials sit on the subset rows, whose rhs is 0.

    So phase 1 starts at its optimum 0 and makes no pivot of its own:
    before phase 2 first prices, each support LP makes at most |S|
    pivots, and each one drives an artificial out of the basis."""
    lps = []
    pivot, run, solve = simplex._Solver._pivot, simplex._Solver._run, simplex._Solver.solve

    def traced_solve(self):
        lps.append({"phase": "drive-out", "early": []})
        return solve(self)

    def traced_run(self, o):
        lps[-1]["phase"] = "phase 1" if o == self.obj1 else "phase 2"
        status = run(self, o)
        if o == self.obj1:
            lps[-1]["phase"] = "drive-out"
        return status

    def traced_pivot(self, p, c):
        if lps[-1]["phase"] != "phase 2":
            lps[-1]["early"].append((lps[-1]["phase"], self.basis[p] >= self.art_start))
        pivot(self, p, c)

    monkeypatch.setattr(simplex._Solver, "solve", traced_solve)
    monkeypatch.setattr(simplex._Solver, "_run", traced_run)
    monkeypatch.setattr(simplex._Solver, "_pivot", traced_pivot)
    for family, subsets in TRACED_FACE_TESTS:
        vs = generate(family, 4)
        ctx = FaceContext(vs)
        for subset in subsets:
            del lps[:]
            frame_lp(ctx, subset)
            assert len(lps) == 1
            early = lps[0]["early"]
            assert len(early) <= len(subset), (family, subset, early)
            assert all(p == ("drive-out", True) for p in early), (family, subset, early)


def dense_pivot(rows, dens, p, s, d):
    """Rows and denominators after a pivot on row p and slot s, by the dense rule.

    The reference for ``_Solver._pivot``: every other row with entry f
    in slot s becomes row*pv - f*prow over den*pv on every cell, divided
    by the gcd of its denominator and cells.  d is the basic cell."""
    prow = [x if rows[p][s] > 0 else -x for x in rows[p]]
    pv = prow[s]
    prow[s], prow[d] = prow[d], 0
    out_rows, out_dens = [], []
    for i, (row, den) in enumerate(zip(rows, dens)):
        f = row[s]
        if i != p and f != 0:
            row = [0 if k == s else x for k, x in enumerate(row)]
            row, den = [x * pv - f * y for x, y in zip(row, prow)], den * pv
            g = math.gcd(den, *row)
            row, den = [x // g for x in row], den // g
        out_rows.append(list(row))
        out_dens.append(den)
    out_rows[p] = prow[:d] + [pv] + prow[d + 1:]
    return out_rows, out_dens


def test_pivot_update_matches_the_dense_rule(monkeypatch):
    """Every pivot leaves the tableau exactly as the dense rule does, every row primitive.

    A rational row has one form row/den with den > 0 and gcd(den, *row)
    == 1, so the sparse update must reach it, through the scale by b =
    pv / gcd(f, pv) and the gcd pass on rows over a denominator above 1."""
    pivot = simplex._Solver._pivot
    counts = {"pivots": 0, "scaled": 0}

    def checked_pivot(self, p, c):
        s = self.slot_of[c]
        expected = dense_pivot(self.rows, self.dens, p, s, self.basic_cell)
        pv = abs(self.rows[p][s])
        counts["scaled"] += any(i != p and row[s] % pv for i, row in enumerate(self.rows))
        pivot(self, p, c)
        assert (self.rows, self.dens) == expected
        assert all(den > 0 and math.gcd(den, *row) == 1 for row, den in zip(self.rows, self.dens))
        counts["pivots"] += 1

    monkeypatch.setattr(simplex._Solver, "_pivot", checked_pivot)
    trace_rng, boxed_rng = random.Random(41), random.Random(7)
    lps = [random_trace_lp(trace_rng) for _ in range(300)]
    lps += [random_boxed_lp(boxed_rng, homogeneous=True) for _ in range(80)] + [BEALE_LP]
    for lp in lps:
        lp_solve(lp)
    for family, subsets in TRACED_FACE_TESTS:
        vs = generate(family, 4)
        ctx = FaceContext(vs)
        for subset in subsets:
            frame_lp(ctx, subset)
    assert counts["pivots"] > 1000 and counts["scaled"] > 100, counts


small_fractions = st.fractions(-3, 3, max_denominator=3)


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 3))
    bounds = draw(
        st.lists(st.sampled_from(((None, None), (0, None), (None, 1), (-1, 2))), min_size=n, max_size=n)
    )
    cons = draw(
        st.lists(
            st.tuples(
                st.lists(small_fractions, min_size=n, max_size=n),
                st.sampled_from(("<=", ">=", "=")),
                small_fractions,
            ),
            min_size=1,
            max_size=4,
        )
    )
    objective = draw(st.lists(small_fractions, min_size=n, max_size=n))
    return make_lp(objective, cons, lower=[b[0] for b in bounds], upper=[b[1] for b in bounds])


@settings(max_examples=60, deadline=None)
@given(small_lps())
def test_lp_solve_properties_random(lp):
    """The certificate verifies, and a second solve repeats the first."""
    res = lp_solve(lp)
    assert verify_lp_certificate(lp, res)
    assert lp_solve(lp) == res


@st.composite
def point_sets_and_subsets(draw):
    """3 to 10 distinct 0/1 points in dimension 4 or 9 (standalone, in bqp(2)'s or bqp(3)'s scheme) and a proper
    subset of them."""
    scheme = bqp_scheme(draw(st.sampled_from((2, 3))))
    ones = st.frozensets(st.integers(0, scheme.ambient_dim - 1)).map(sorted).map(tuple)
    vertices = draw(st.lists(ones, min_size=3, max_size=10, unique=True))
    vs = VertexSet(scheme, tuple(map(str, range(len(vertices)))), tuple(vertices))
    subset = draw(st.lists(st.integers(0, len(vs) - 1), min_size=1, max_size=len(vs) - 1, unique=True))
    return vs, tuple(subset)


@settings(max_examples=80, deadline=None)
@given(point_sets_and_subsets())
def test_support_lp_matches_the_general_solver(case):
    """The support LP over every frame row (the subset's, then the others) and the same LP stated as a general
    LP (``oracles.general_support_lp``) make the same pivots, and the integer optimum is the general one's:
    eps, a and b over one denominator, the duals over another."""
    vs, subset = case
    ctx = FaceContext(vs)
    others = [t for t in range(len(vs)) if t not in subset]
    rows = [ctx.member_row(s) for s in subset] + [ctx.outside_row(t) for t in others]
    lp = simplex.SupportLP(ctx.frame.dim, tuple(rows))
    logs, pivot = [], simplex._Solver._pivot

    def traced(self, p, c):
        logs[-1].append((p, c))
        pivot(self, p, c)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(simplex._Solver, "_pivot", traced)
        logs.append([])
        res = simplex.lp_solve(lp)
        logs.append([])
        general = oracles.lp_solve(oracles.general_support_lp(lp))
    assert logs[0] == logs[1]
    assert res.status == general.status == "optimal"
    assert Q(res.primal[-1], res.den) == general.objective_value in (0, 1)
    assert tuple(Q(x, res.den) for x in res.primal) == general.primal  # a+, a-, b+, b- and eps
    assert tuple(Q(y, res.dual_den) for y in res.dual) == general.dual
