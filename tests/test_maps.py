from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyface.exactmath import affine_dependencies
from polyface.faces import NonFaceWitness, is_face, verify_nonface_witness
from polyface.families import (
    bqp_vertices,
    phi_scheme,
    phi_vertex,
    phi_vertices,
    qap_vertex,
    qap_vertices,
)
from polyface.maps import (
    AffineMap,
    brute_force_iso_search,
    lemma1_face_iso,
    prop1_projection,
    thm1_embedding,
    thm2_face_iso,
)


def as_binary(vec):
    assert all(x in (0, 1) for x in vec)
    return tuple(int(x) for x in vec)


def one_positions(vec):
    return tuple(i for i, x in enumerate(vec) if x != 0)


# --- projection -------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_projection_sends_generators_pointwise(n):
    pmap = prop1_projection(n)
    qs = qap_vertices(n)
    for idx in range(len(qs)):
        images = tuple(int(ch) - 1 for ch in qs.labels[idx])
        got = pmap.apply_vertex(qs.vertices[idx])
        want = phi_vertex(images)
        assert one_positions(got) == want


def test_projection_identity_to_identity():
    pmap = prop1_projection(3)
    ident = qap_vertex((0, 1, 2))
    got = pmap.apply_vertex(ident)
    assert one_positions(got) == phi_vertex((0, 1, 2))


def test_projection_surjective_onto_phi4():
    pmap = prop1_projection(4)
    qs, ps = qap_vertices(4), phi_vertices(4)
    image = {one_positions(pmap.apply_vertex(v)) for v in qs.vertices}
    assert image == set(ps.vertices)
    assert len(image) == 24


def test_projection_rows_have_two_ones():
    pmap = prop1_projection(3)
    assert all(x == 1 for _, _, x in pmap.entries)
    assert Counter(r for r, _, _ in pmap.entries) == {r: 2 for r in range(pmap.codomain_dim)}
    assert all(x == 0 for x in pmap.offset)


# --- quadric face embedding -------------------------------------------------


def group_sum(vertex_ones, group):
    return sum(1 for off in group if off in vertex_ones)


def filtered_quadric_vertices(n):
    emb = thm1_embedding(n)
    cube = bqp_vertices(n * n)
    stage1 = []
    for idx in range(len(cube)):
        ones = set(cube.vertices[idx])
        if all(off not in ones for off, _ in emb.row_zero_fixings):
            stage1.append(idx)
    # row sums <= 1 must already hold once the row-pair zeros do
    for idx in stage1:
        ones = set(cube.vertices[idx])
        for group in emb.row_sum_groups:
            assert group_sum(ones, group) <= 1
    stage2 = [
        idx for idx in stage1
        if all(group_sum(set(cube.vertices[idx]), g) == 1 for g in emb.row_sum_groups)
    ]
    final = [
        idx for idx in stage2
        if all(group_sum(set(cube.vertices[idx]), g) == 1 for g in emb.col_sum_groups)
    ]
    return emb, cube, stage1, stage2, final


def test_quadric_face_n2_leaves_the_two_assignment_vertices():
    _, cube, _, _, final = filtered_quadric_vertices(2)
    assert len(cube) == 16
    assert len(final) == 2
    got = {cube.vertices[i] for i in final}
    assert got == set(qap_vertices(2).vertices)


def test_quadric_face_n3_leaves_the_six_assignment_vertices():
    _, cube, _, _, final = filtered_quadric_vertices(3)
    assert len(cube) == 512
    assert len(final) == 6
    got = {cube.vertices[i] for i in final}
    assert got == set(qap_vertices(3).vertices)


def test_quadric_column_sums_are_not_one_sided_before_column_zeros():
    # a row-stochastic generator may still collide in a column, so the
    # column-sum equations only become a face via the column-pair zeros
    emb, cube, _, stage2, _ = filtered_quadric_vertices(2)
    col_sums = {
        tuple(group_sum(set(cube.vertices[i]), g) for g in emb.col_sum_groups)
        for i in stage2
    }
    assert (2, 0) in col_sums or (0, 2) in col_sums


def test_quadric_column_zeros_equal_column_sum_filter():
    emb, cube, _, stage2, final = filtered_quadric_vertices(3)
    by_zeros = [
        idx for idx in stage2
        if all(off not in set(cube.vertices[idx]) for off, _ in emb.col_zero_fixings)
    ]
    assert by_zeros == final


def test_quadric_zero_fixings_are_valid_supporting_inequalities():
    emb = thm1_embedding(2)
    cube = bqp_vertices(4)
    for off, val in list(emb.row_zero_fixings) + list(emb.col_zero_fixings):
        assert val == 0
        column = [1 if off in set(v) else 0 for v in cube.vertices]
        assert all(c >= 0 for c in column)
        assert any(c == 0 for c in column)


# --- the n = 3 face inside phi(n) --------------------------------------------


@pytest.mark.parametrize("n", [4, 5])
def test_lemma1_face_and_maps(n):
    res = lemma1_face_iso(n)
    vs, face = res.vertex_set, res.face
    assert len(face.subset) == 6
    phi3 = res.extra["phi3"]
    corr = dict(res.correspondence.pairs)
    for vidx in face.subset:
        z = vs.dense(vidx)
        image = res.forward.apply(z)
        assert as_binary(image) == phi3.dense(corr[vidx])
        back = res.inverse.apply(image)
        assert tuple(back) == tuple(z)
    # forward is a bijection face -> phi(3)
    assert sorted(corr[v] for v in face.subset) == list(range(6))


def test_lemma1_face_is_exactly_the_high_vertex_fixers():
    res = lemma1_face_iso(4)
    vs = res.vertex_set
    for vidx in res.face.subset:
        label = vs.labels[vidx]
        assert label[3] == "4"  # generator fixes graph vertex 4


def test_lemma1_h12_matches_its_four_cell_combination():
    res = lemma1_face_iso(4)
    p3 = phi_scheme(3)
    expect = {
        p3.encode((1, 2), (1, 2)),
        p3.encode((1, 2), (2, 3)),
        p3.encode((1, 3), (1, 2)),
        p3.encode((1, 3), (2, 3)),
    }
    assert set(res.extra["h12_cells"]) == expect


@pytest.mark.parametrize("n", [4, 5])
def test_lemma1_h12_indicates_one_maps_to_two(n):
    res = lemma1_face_iso(n)
    vs, phi3 = res.vertex_set, res.extra["phi3"]
    corr = dict(res.correspondence.pairs)
    for vidx in res.face.subset:
        x3 = phi3.dense(corr[vidx])
        h12 = sum(x3[c] for c in res.extra["h12_cells"]) - 1
        sends_1_to_2 = vs.labels[vidx][0] == "2"
        assert h12 == (1 if sends_1_to_2 else 0)
        assert 0 <= h12 <= 1


def test_lemma1_witness_transport():
    # The even-permutation witness of phi(3) lifts through the inverse map
    # to a valid non-face witness inside phi(4) and phi(5).
    phi3 = phi_vertices(3)
    wit3 = is_face(phi3, (0, 1, 2))
    assert isinstance(wit3, NonFaceWitness)
    for n in (4, 5):
        res = lemma1_face_iso(n)
        vs = res.vertex_set
        corr = dict(res.correspondence.pairs)
        inv = {b: a for a, b in res.correspondence.pairs}
        subset = tuple(sorted(inv[j] for j in (0, 1, 2)))
        lifted_point = res.inverse.apply(wit3.point)
        others = [i for i in range(len(vs)) if i not in subset]
        complement_face = [inv[j] for j in (3, 4, 5)]
        mu = tuple(Q(1, 3) if i in complement_face else Q(0) for i in others)
        lifted = NonFaceWitness(alpha=(Q(1, 3),) * 3, mu=mu, point=tuple(lifted_point))
        assert verify_nonface_witness(vs, subset, lifted)


# --- the quadric polytope as a face of phi(2k) -------------------------------


@pytest.mark.parametrize("k", [2, 3])
def test_thm2_face_and_maps(k):
    res = thm2_face_iso(k)
    vs, face = res.vertex_set, res.face
    assert len(face.subset) == 2 ** k
    bqp = res.extra["bqp"]
    corr = dict(res.correspondence.pairs)
    assert sorted(corr[v] for v in face.subset) == list(range(2 ** k))
    for vidx in face.subset:
        z = vs.dense(vidx)
        image = res.forward.apply(z)
        assert as_binary(image) == bqp.dense(corr[vidx])
        back = res.inverse.apply(image)
        assert tuple(back) == tuple(z)


def test_thm2_identity_maps_to_all_ones():
    res = thm2_face_iso(2)
    vs = res.vertex_set
    ident = vs.labels.index("1234")
    assert ident in res.face.subset
    image = res.forward.apply(vs.dense(ident))
    assert tuple(image) == (1,) * 4


@pytest.mark.parametrize("k", [2, 3])
def test_thm2_consistency_groups_hold_on_face(k):
    res = thm2_face_iso(k)
    vs = res.vertex_set
    for vidx in res.face.subset:
        z = vs.dense(vidx)
        for kind, offs in res.extra["consistency_groups"]:
            vals = [z[o] for o in offs]
            if kind == "equal":
                assert len(set(vals)) == 1
            else:
                assert sum(vals) == 1


@pytest.mark.parametrize("k", [2, 3])
def test_thm2_indicator_alignment_families(k):
    # the pair-unchanged indicators do not depend on the partner block
    res = thm2_face_iso(k)
    vs = res.vertex_set
    ps = phi_scheme(2 * k)
    for vidx in res.face.subset:
        z = vs.dense(vidx)
        for i in range(1, k + 1):
            vals_i = set()
            for j in range(1, k + 1):
                if j == i:
                    continue
                a, b = min(2 * i, 2 * j), max(2 * i, 2 * j)
                if i < j:
                    vals_i.add(
                        z[ps.encode((2 * i, 2 * j), (2 * i, 2 * j))]
                        + z[ps.encode((2 * i, 2 * j), (2 * i, 2 * j - 1))]
                    )
                else:
                    vals_i.add(
                        z[ps.encode((2 * j, 2 * i), (2 * j, 2 * i))]
                        + z[ps.encode((2 * j, 2 * i), (2 * j - 1, 2 * i))]
                    )
            assert len(vals_i) == 1


def test_thm2_diagonal_read_is_consistent_across_blocks():
    # x_ii can be read through any partner block: main + second-endpoint
    # partner reads the lower block, main + first-endpoint partner the upper
    res = thm2_face_iso(3)
    vs = res.vertex_set
    ps = phi_scheme(6)
    bqp = res.extra["bqp"]
    corr = dict(res.correspondence.pairs)
    for vidx in res.face.subset:
        z = vs.dense(vidx)
        x = bqp.dense(corr[vidx])
        for i in range(1, 4):
            reads = set()
            for j in range(1, 4):
                if j == i:
                    continue
                lo, hi = min(i, j), max(i, j)
                e = (2 * lo, 2 * hi)
                main = z[ps.encode(e, e)]
                if i == lo:
                    reads.add(main + z[ps.encode(e, (2 * lo, 2 * hi - 1))])
                else:
                    reads.add(main + z[ps.encode(e, (2 * lo - 1, 2 * hi))])
            assert reads == {x[(i - 1) * 3 + (i - 1)]}


# --- isomorphism search -----------------------------------------------------


def substituted(dep, points):
    """sum(dep[i] * points[i]), coordinate by coordinate."""
    return tuple(sum(c * p[r] for c, p in zip(dep, points)) for r in range(len(points[0])))


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_phi3_dependency_does_not_carry_to_qap3():
    """phi(3)'s one dependency does not vanish on the qap(3) generators of the same labels.

    So no affine map sends each phi(3) generator to the qap(3) generator with its label."""
    qs, ps = qap_vertices(3), phi_vertices(3)
    (dep,) = affine_dependencies(ps.dense_all())
    assert dep == (1, 1, 1, -1, -1, -1)
    corr = tuple(qs.labels.index(lab) for lab in ps.labels)
    assert any(substituted(dep, [qs.dense(j) for j in corr]))


def test_iso_search_misses_at_equal_dimension():
    """Square and trapezoid: both hulls are planes, yet no bijection carries the square's dependency."""
    res = brute_force_iso_search(UNIT_SQUARE, [(0, 0), (2, 0), (1, 1), (0, 1)])
    assert (res.found, res.tried, res.correspondence) == (False, 24, None)


def test_iso_search_finds_a_relabelled_square():
    cod = [(0, 0), (1, 1), (1, 0), (0, 1)]
    res = brute_force_iso_search(UNIT_SQUARE, cod)
    assert (res.found, res.tried, res.correspondence) == (True, 3, (0, 2, 1, 3))
    (dep,) = affine_dependencies(UNIT_SQUARE)
    assert not any(substituted(dep, [cod[j] for j in res.correspondence]))


def test_iso_search_phi3_self_finds_identity_first():
    vs = phi_vertices(3)
    res = brute_force_iso_search(vs, vs)
    assert res.found
    assert res.correspondence == (0, 1, 2, 3, 4, 5)
    assert res.tried == 1


def test_iso_search_qap3_phi3_exhausts_all_720():
    res = brute_force_iso_search(qap_vertices(3), phi_vertices(3))
    assert not res.found
    assert res.tried == 720


def test_iso_search_two_point_sets():
    first = [(Q(0), Q(0), Q(0)), (Q(1), Q(1), Q(0))]
    second = [(Q(4),), (Q(9),)]
    res = brute_force_iso_search(first, second)
    assert (res.found, res.tried, res.correspondence) == (True, 1, (0, 1))


def test_iso_search_size_guard():
    with pytest.raises(ValueError):
        brute_force_iso_search(bqp_vertices(4), bqp_vertices(4))


def reference_apply(amap, point):
    """The map applied entry by entry over Fractions: the reference for apply."""
    out = [Q(x) for x in amap.offset]
    for r, j, x in amap.entries:
        out[r] += x * point[j]
    return tuple(out)


@pytest.fixture(scope="module")
def named_maps():
    """(map, the vertex set of its domain) for the maps the scenarios apply."""
    l1, t2 = lemma1_face_iso(4), thm2_face_iso(2)
    return [
        (prop1_projection(3), qap_vertices(3)),
        (l1.forward, l1.vertex_set),
        (l1.inverse, phi_vertices(3)),
        (t2.forward, t2.vertex_set),
        (t2.inverse, bqp_vertices(2)),
    ]


small_fractions = st.fractions(-3, 3, max_denominator=4) | st.just(Q(0))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apply_paths_match_the_dense_product(named_maps, data):
    amap, vs = data.draw(st.sampled_from(named_maps))
    point = data.draw(st.lists(small_fractions, min_size=amap.domain_dim, max_size=amap.domain_dim))
    assert amap.apply(point) == reference_apply(amap, point)
    for ones in vs.vertices:
        dense = tuple(int(j in ones) for j in range(amap.domain_dim))
        assert amap.apply_vertex(ones) == amap.apply(dense) == reference_apply(amap, dense)


@st.composite
def random_maps(draw):
    """A small map with random Fraction entries and offset, at least one entry negative and fractional."""
    d, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.tuples(st.integers(0, c - 1), st.integers(0, d - 1))
    cells = draw(st.dictionaries(cell, small_fractions))
    cells[draw(cell)] = draw(st.sampled_from([Q(-1, 2), Q(-3, 4), Q(-5, 3)]))  # one certainly negative and fractional
    entries = tuple(sorted((r, j, x) for (r, j), x in cells.items() if x))
    offset = tuple(draw(small_fractions) for _ in range(c))
    return AffineMap("random", d, c, entries, offset)


@settings(max_examples=80, deadline=None)
@given(random_maps(), st.data())
def test_apply_agrees_with_the_reference_on_random_maps(amap, data):
    point = data.draw(st.lists(small_fractions, min_size=amap.domain_dim, max_size=amap.domain_dim))
    assert amap.apply(point) == reference_apply(amap, point)
    bits = data.draw(st.lists(st.booleans(), min_size=amap.domain_dim, max_size=amap.domain_dim))
    ones = tuple(j for j, bit in enumerate(bits) if bit)
    dense = tuple(int(bit) for bit in bits)
    assert amap.apply_vertex(ones) == reference_apply(amap, dense)


def test_maps_store_only_their_nonzero_entries():
    for amap in (prop1_projection(5), lemma1_face_iso(5).inverse, thm2_face_iso(3).inverse):
        assert all(x != 0 for _, _, x in amap.entries)
        assert len({(r, j) for r, j, _ in amap.entries}) == len(amap.entries)
    assert len(prop1_projection(5).entries) == 200
