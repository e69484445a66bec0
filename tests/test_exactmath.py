import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coords_of,
    hull_basis,
    matrix_rank,
    reconstruct,
    reference_frame,
    reference_greedy_basis,
    row_reduce,
    solve_linear_system,
    vec_dot,
)
from polyface.exactmath import _eliminate, _greedy_rows, _int_row, affine_dependencies, affine_hull_frame, nullspace
from polyface.families import bqp_vertices, phi_vertices, qap_vertices


def det(m):
    """Bareiss determinant, used as an independent oracle for rank."""
    n = len(m)
    a = [[Q(x) for x in row] for row in m]
    sign = 1
    prev = Q(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Q(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank_by_minors(m):
    """Largest k with a nonsingular k x k submatrix (brute-force oracle)."""
    nr, nc = len(m), len(m[0])
    for k in range(min(nr, nc), 0, -1):
        for rows in combinations(range(nr), k):
            for cols in combinations(range(nc), k):
                if det([[m[r][c] for c in cols] for r in rows]) != 0:
                    return k
    return 0


def kernel_rref(rows):
    """The reduced row echelon form of the library's integer-row kernel, read back as Fractions."""
    ints = [_int_row(row) for row in rows]
    pivots = _eliminate(ints, len(rows[0]) if rows else 0)
    dens = [row[c] for row, c in zip(ints, pivots)]
    dens += [1] * (len(ints) - len(pivots))
    return [[Q(row.get(j, 0), den) for j in range(len(rows[0]))] for row, den in zip(ints, dens)], pivots


def frame_of(points):
    """affine_hull_frame of dense points, each passed as its nonzero entries by column."""
    return affine_hull_frame([{c: x for c, x in enumerate(p) if x} for p in points], len(points[0]))


def fraction_inverse(frame):
    """The frame's inverse as Fraction rows, read from its integer columns."""
    return tuple(tuple(Q(x, frame.inverse_den) for x in row) for row in zip(*frame.inverse_cols))


def fraction_coords(frame, points):
    """The frame's coordinates of each point as Fractions, read from weighted_columns."""
    deltas = [[p[c] - frame.origin[c] for c in frame.pivot_cols] for p in points]
    return [tuple(Q(a, frame.inverse_den) for a in frame.weighted_columns(d)) for d in deltas]


def test_solve_scalar_division():
    res = solve_linear_system([[2]], [1])
    assert res.status == "unique"
    assert res.solution == (Q(1, 2),)


def test_solve_identity():
    res = solve_linear_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 0, 1])
    assert res.status == "unique"
    assert res.solution == (1, 0, 1)


def test_solve_inconsistent_duplicate_rows():
    res = solve_linear_system([[1, 1], [1, 1]], [1, 2])
    assert res.status == "inconsistent"
    y = res.witness
    # y combines the rows to 0 = nonzero
    assert all(vec_dot(y, col) == 0 for col in [(1, 1), (1, 1)])
    assert vec_dot(y, (1, 2)) != 0


def test_solve_underdetermined_substitutes_exactly():
    a = [[1, 2, 3], [2, 4, 7]]
    b = [5, 11]
    res = solve_linear_system(a, b)
    assert res.status == "underdetermined"
    x = res.solution
    assert [vec_dot(row, x) for row in a] == b


def test_rank_zero_and_identity():
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 4


def test_rank_phi3_with_ones_column_is_5():
    vs = phi_vertices(3)
    rows = [list(vs.dense(i)) + [1] for i in range(6)]
    assert rank_by_minors(rows) == 5  # oracle
    assert matrix_rank(rows) == 5  # hence dim of the hull is 4


def test_rank_equals_transpose_rank_random():
    rng = random.Random(7)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)]
        mt = [list(col) for col in zip(*m)]
        assert matrix_rank(m) == matrix_rank(mt)


def test_rank_matches_minor_oracle_random():
    rng = random.Random(11)
    for _ in range(15):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        assert matrix_rank(m) == rank_by_minors(m)


def test_nullspace_vectors_annihilate():
    m = [[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, 1, 0]]
    basis = nullspace(m)
    assert len(basis) == 4 - matrix_rank(m)
    for v in basis:
        assert all(vec_dot(row, v) == 0 for row in m)


def test_affine_dependencies_two_equal_points():
    assert affine_dependencies([(1, 2), (1, 2)]) == [(1, -1)]


def test_affine_dependencies_independent_triple():
    assert affine_dependencies([(0, 0), (1, 0), (0, 1)]) == []


def test_affine_dependencies_phi3_display_order():
    vs = phi_vertices(3)
    deps = affine_dependencies(vs.dense_all())
    assert deps == [(1, 1, 1, -1, -1, -1)]


def test_dependency_count_vs_hull_dimension():
    # |V| - 1 - (# independent affine dependencies) = dim aff(V)
    for vs in (phi_vertices(3), bqp_vertices(2), qap_vertices(3)):
        pts = vs.dense_all()
        deps = affine_dependencies(pts)
        frame = frame_of(pts)
        assert len(pts) - 1 - len(deps) == frame.dim


def test_frame_single_point():
    frame = frame_of([(1, 2, 3)])
    assert frame.dim == 0
    assert fraction_coords(frame, [(1, 2, 3)]) == coords_of([(1, 2, 3)], [(1, 2, 3)]) == [()]


def test_frame_phi3_dim_4_and_bqp2_dim_3():
    assert frame_of(phi_vertices(3).dense_all()).dim == 4
    assert frame_of(bqp_vertices(2).dense_all()).dim == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: bqp_vertices(2),
        lambda: bqp_vertices(3),
        lambda: bqp_vertices(5),
        lambda: phi_vertices(3),
        lambda: phi_vertices(4),
        lambda: phi_vertices(5),
        lambda: qap_vertices(3),
        lambda: qap_vertices(4),
        lambda: qap_vertices(5),
    ],
    ids=["bqp2", "bqp3", "bqp5", "phi3", "phi4", "phi5", "qap3", "qap4", "qap5"],
)
def test_frame_round_trip(make):
    pts = make().dense_all()
    frame = frame_of(pts)
    coords = coords_of(pts, pts)
    basis = hull_basis(pts)
    for p, c in zip(pts, coords):
        assert reconstruct(frame.origin, basis, c) == p
    assert fraction_coords(frame, pts) == coords


@pytest.mark.parametrize(
    "make",
    [lambda: phi_vertices(4), lambda: phi_vertices(5), lambda: qap_vertices(4), lambda: qap_vertices(5), lambda: bqp_vertices(3)],
    ids=["phi4", "phi5", "qap4", "qap5", "bqp3"],
)
def test_frame_matches_fraction_reference(make):
    pts = make().dense_all()
    frame = frame_of(pts)
    assert (hull_basis(pts), frame.pivot_cols, fraction_inverse(frame)) == reference_frame(pts)


small_point_sets = st.integers(1, 5).flatmap(
    lambda dim: st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=1, max_size=7
    )
)


@settings(max_examples=40, deadline=None)
@given(small_point_sets)
def test_frame_matches_fraction_reference_random(pts):
    frame = frame_of(pts)
    assert (hull_basis(pts), frame.pivot_cols, fraction_inverse(frame)) == reference_frame(pts)
    assert fraction_coords(frame, pts) == coords_of(pts, pts)


@st.composite
def thin_point_sets(draw):
    """Integer points, some of them steps from an earlier point along the difference of two others, so that
    their hull is often thinner than the space and its pivot columns are not just the first ones."""
    dim = draw(st.integers(1, 8))
    points = [draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))]
    for _ in range(draw(st.integers(0, 8))):
        if len(points) > 2 and draw(st.booleans()):
            a, b, c = draw(st.lists(st.sampled_from(points), min_size=3, max_size=3))
            f = draw(st.sampled_from([-2, -1, 1, 2]))
            points.append([x + f * (y - z) for x, y, z in zip(a, b, c)])
        else:
            points.append(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
    return points


@settings(max_examples=150, deadline=None)
@given(thin_point_sets(), st.data())
def test_frame_pivots_are_the_lex_first_independent_columns_in_any_point_order(points, data):
    """A frame's pivot set is the set of lex-first independent columns of the points' differences, whichever
    point comes first: the orbit LP of ``faces`` reads its columns off it."""
    columns = list(zip(*([x - o for x, o in zip(p, points[0])] for p in points[1:])))
    expected = reference_greedy_basis(columns)[0]

    def pivots(pts):
        return sorted(affine_hull_frame([{c: x for c, x in enumerate(p) if x} for p in pts], len(pts[0])).pivot_cols)

    assert pivots(points) == expected
    assert pivots(data.draw(st.permutations(points))) == expected


@st.composite
def sparse_or_dense_matrices(draw):
    """Integer rows, some of them sums of earlier rows so that dependencies and cancellation occur.

    Sparse: wide, mostly-zero rows with entries in -2..2.  Dense: at most
    12 columns with entries in -4..4 and sums with factors up to 3, so
    that leads are not units and a candidate must be scaled before it is
    reduced.
    """
    dense = draw(st.booleans())
    ncols = draw(st.integers(1, 12 if dense else 40))
    factors = st.sampled_from([-3, -2, -1, 1, 2, 3]) if dense else st.integers(-2, 2)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if rows and draw(st.booleans()):
            picks = draw(st.lists(st.tuples(st.sampled_from(rows), factors), min_size=1, max_size=3))
            rows.append([sum(k * row[j] for row, k in picks) for j in range(ncols)])
        elif dense:
            rows.append(draw(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)))
        else:
            cells = draw(st.dictionaries(st.integers(0, ncols - 1), st.integers(-2, 2), max_size=5))
            rows.append([cells.get(j, 0) for j in range(ncols)])
    return rows


@settings(max_examples=400, deadline=None)
@given(sparse_or_dense_matrices())
def test_greedy_basis_matches_fraction_reference_on_sparse_and_dense_rows(m):
    assert _greedy_rows(map(_int_row, m)) == reference_greedy_basis(m)


small_rational_matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.fractions(-4, 4, max_denominator=3), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=5,
    )
)


@settings(max_examples=40, deadline=None)
@given(small_rational_matrices)
def test_row_reduce_matches_fraction_reference_random(m):
    assert kernel_rref(m) == row_reduce(m)


def test_frame_rejects_point_off_hull():
    with pytest.raises(ValueError):
        coords_of([(0, 0), (1, 0)], [(0, 1)])


def test_ambient_functional_agrees_on_hull():
    vs = phi_vertices(3)
    pts = vs.dense_all()
    frame = frame_of(pts)
    a_frame = tuple(Q(i + 1, 3) for i in range(frame.dim))
    b_frame = Q(5, 7)
    a, b = frame.ambient_functional(a_frame, b_frame)
    for p, c in zip(pts, coords_of(pts, pts)):
        assert vec_dot(a, p) - b == vec_dot(a_frame, c) - b_frame


def reference_ambient_functional(frame, a_frame, b_frame):
    """Fraction lift: a = a_frame * inverse at pivot_cols, b = b_frame + a . origin."""
    a = [Q(0)] * frame.ambient_dim
    for c, col in zip(frame.pivot_cols, zip(*fraction_inverse(frame))):
        a[c] = sum((x * y for x, y in zip(a_frame, col)), Q(0))
    return tuple(a), Q(b_frame) + sum((x * o for x, o in zip(a, frame.origin)), Q(0))


@settings(max_examples=40, deadline=None)
@given(small_point_sets, st.data())
def test_ambient_functional_matches_fraction_reference_random(pts, data):
    if data.draw(st.booleans()):  # a frame with a fractional origin
        pts = [[Q(x, 2) for x in p] for p in pts]
    frame = frame_of(pts)
    rationals = st.fractions(-5, 5, max_denominator=7)
    a_frame = tuple(data.draw(st.lists(rationals, min_size=frame.dim, max_size=frame.dim)))
    b_frame = data.draw(rationals)
    assert frame.ambient_functional(a_frame, b_frame) == reference_ambient_functional(frame, a_frame, b_frame)


def test_solved_system_substitutes_exactly_random():
    rng = random.Random(3)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = [[Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nc)] for _ in range(nr)]
        b = [Q(rng.randint(-5, 5)) for _ in range(nr)]
        res = solve_linear_system(a, b)
        if res.status == "inconsistent":
            assert all(vec_dot(res.witness, col) == 0 for col in zip(*a))
            assert vec_dot(res.witness, b) != 0
        else:
            assert [vec_dot(row, res.solution) for row in a] == b
