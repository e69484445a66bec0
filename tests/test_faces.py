import dataclasses
import hashlib
import json
import random
from fractions import Fraction as Q
from functools import cache, reduce
from itertools import combinations, permutations, product
from math import comb, factorial, lcm
from operator import and_, or_

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import witness_oracle_is_face
from polyface import faces, simplex
from polyface.exactmath import ZERO, _rational, greedy_basis
from polyface.faces import (
    FaceCertificate,
    FaceContext,
    InternalInconsistencyError,
    NonFaceWitness,
    certificate_from_json,
    compose_with_face,
    face_by_equations,
    is_face,
    k_neighborly_scan,
    verify_face_certificate,
    verify_nonface_witness,
)
from polyface.families import (
    VertexSet,
    bqp_scheme,
    bqp_switching,
    bqp_vertices,
    coordinate_map,
    inverse,
    phi_scheme,
    phi_vertices,
    qap_vertices,
)
from polyface.simplex import lp_solve


def test_singleton_is_a_face_everywhere():
    for vs in (phi_vertices(3), bqp_vertices(2), qap_vertices(3)):
        ctx = FaceContext(vs)
        for i in range(len(vs)):
            cert = is_face(vs, (i,), ctx)
            assert isinstance(cert, FaceCertificate)
            assert verify_face_certificate(vs, (i,), cert)


def test_phi3_even_triple_is_not_a_face():
    vs = phi_vertices(3)
    wit = is_face(vs, (0, 1, 2))
    assert isinstance(wit, NonFaceWitness)
    assert wit.alpha == (Q(1, 3),) * 3
    assert wit.mu == (Q(1, 3),) * 3
    assert all(x == Q(1, 3) for x in wit.point)
    assert verify_nonface_witness(vs, (0, 1, 2), wit)


def test_phi3_odd_triple_is_not_a_face_either():
    vs = phi_vertices(3)
    wit = is_face(vs, (3, 4, 5))
    assert isinstance(wit, NonFaceWitness)
    assert verify_nonface_witness(vs, (3, 4, 5), wit)


def test_qap3_all_twenty_triples_are_faces():
    vs = qap_vertices(3)
    ctx = FaceContext(vs)
    count = 0
    for triple in combinations(range(6), 3):
        cert = is_face(vs, triple, ctx)
        assert isinstance(cert, FaceCertificate)
        count += 1
    assert count == 20


def test_subset_validation_errors():
    vs = phi_vertices(3)
    with pytest.raises(ValueError):
        is_face(vs, ())
    with pytest.raises(ValueError):
        is_face(vs, tuple(range(6)))
    with pytest.raises(ValueError):
        is_face(vs, (0, 0))
    with pytest.raises(ValueError):
        is_face(vs, (7,))


@pytest.mark.parametrize(
    "vs",
    [phi_vertices(3), bqp_vertices(2), bqp_vertices(3)],
    ids=["phi3", "bqp2", "bqp3"],
)
def test_oracle_equivalence_all_proper_subsets(vs):
    ctx = FaceContext(vs)
    n = len(vs)
    for size in range(1, n):
        for subset in combinations(range(n), size):
            primary = is_face(vs, subset, ctx)
            oracle = witness_oracle_is_face(vs, subset)
            assert isinstance(primary, FaceCertificate) == oracle


def _verifies(vs, subset, result):
    if isinstance(result, FaceCertificate):
        return verify_face_certificate(vs, subset, result)
    return verify_nonface_witness(vs, subset, result)


@pytest.mark.parametrize("vs", [phi_vertices(4), bqp_vertices(3)], ids=["phi4", "bqp3"])
def test_frame_lp_rows_hold_each_vertexs_frame_coordinates(vs):
    """Each row holds its vertex's frame coordinates as integers over the frame's inverse_den."""
    ctx = FaceContext(vs)
    dense = vs.dense_all()
    for t, coords in enumerate(oracles.coords_of(dense, dense)):
        for row, rel in ((ctx.member_row(t), "="), (ctx.outside_row(t), "<=")):
            assert row.rel == rel and row.den == ctx.frame.inverse_den
            assert tuple(Q(x, row.den) for x in row.cells) == coords


def _frame_fields(frame):
    return frame.origin, frame.pivot_cols, frame.square, frame.inverse_cols, frame.inverse_den


def _dense_reference_fields(vs):
    """The frame fields of the Fraction reference (oracles.reference_frame) on the densified vertices."""
    points = vs.dense_all()
    basis, pivots, inverse_rows = oracles.reference_frame(points)
    den = lcm(*(x.denominator for row in inverse_rows for x in row))
    square = tuple(tuple(b[c] for b in basis) for c in pivots)
    return points[0], pivots, square, tuple(tuple(x * den for x in col) for col in zip(*inverse_rows)), den


_FRAME_BASES = {
    **{f"bqp{m}": lambda m=m: bqp_vertices(m) for m in range(2, 6)},
    **{f"qap{n}": lambda n=n: qap_vertices(n) for n in range(3, 6)},
    **{f"phi{n}": lambda n=n: phi_vertices(n) for n in range(3, 7)},
    "phi6-face": lambda: _lift_bases()["phi6-face"][0],
}


@pytest.mark.parametrize("name", sorted(_FRAME_BASES))
def test_frame_from_one_positions_equals_the_dense_reference(name):
    """FaceContext.frame, built from each vertex's one-positions, equals the Fraction echelon of the
    densified vertices on every field, its inverse included."""
    vs = _FRAME_BASES[name]()
    assert _frame_fields(FaceContext(vs).frame) == _dense_reference_fields(vs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["bqp4", "phi4", "qap4"]), st.data())
def test_frame_of_vertex_subsets_in_any_order_equals_the_dense_reference(name, data):
    """The same on a vertex set of some vertices of bqp(4), phi(4) or qap(4) in a drawn order, one vertex
    (a frame of dimension 0) included."""
    vs = _FRAME_BASES[name]()
    picked = data.draw(st.lists(st.integers(0, len(vs) - 1), min_size=1, max_size=len(vs), unique=True))
    sub = VertexSet(vs.scheme, tuple(vs.labels[t] for t in picked), tuple(vs.vertices[t] for t in picked))
    assert _frame_fields(FaceContext(sub).frame) == _dense_reference_fields(sub)


def test_nonface_witness_comes_from_the_support_lp_alone(monkeypatch):
    def no_witness_lp(*args):
        raise AssertionError("is_face called the witness-LP")

    monkeypatch.setattr(oracles, "_witness_lp", no_witness_lp)
    for vs, subset in ((phi_vertices(3), (0, 1, 2)), (phi_vertices(4), (0, 3, 4))):
        wit = is_face(vs, subset)
        assert isinstance(wit, NonFaceWitness)
        assert verify_nonface_witness(vs, subset, wit)


_BASES = (phi_vertices(4), bqp_vertices(3))


@st.composite
def _point_set_and_subset(draw):
    """A standalone vertex subset of phi(4) or bqp(3), and a proper subset of it."""
    base = draw(st.sampled_from(_BASES))
    chosen = sorted(draw(st.sets(st.integers(0, len(base) - 1), min_size=2)))
    vs = VertexSet(
        scheme=base.scheme,
        labels=tuple(base.labels[i] for i in chosen),
        vertices=tuple(base.vertices[i] for i in chosen),
    )
    subset = draw(st.lists(st.integers(0, len(vs) - 1), min_size=1, max_size=len(vs) - 1, unique=True))
    return vs, tuple(subset)


@settings(max_examples=40, deadline=None)
@given(_point_set_and_subset())
def test_is_face_matches_witness_oracle_random(case):
    vs, subset = case
    ctx = FaceContext(vs)
    result = is_face(vs, subset, ctx)
    assert isinstance(result, FaceCertificate) == witness_oracle_is_face(vs, subset)
    assert _verifies(vs, subset, result)


_ORACLE_BASES = {"phi4": phi_vertices(4), "qap4": qap_vertices(4), "bqp4": bqp_vertices(4), "bqp3": bqp_vertices(3)}


@st.composite
def _oracle_case(draw):
    """2 to 4 vertices of phi(4), qap(4) or bqp(4); or a drawn sub-vertex-set of bqp(3) or bqp(4), standalone, and a
    proper subset of it."""
    if draw(st.booleans()):
        vs = _ORACLE_BASES[draw(st.sampled_from(["phi4", "qap4", "bqp4"]))]
        return vs, tuple(draw(st.lists(st.integers(0, len(vs) - 1), min_size=2, max_size=4, unique=True)))
    base = _ORACLE_BASES[draw(st.sampled_from(["bqp3", "bqp4"]))]
    chosen = sorted(draw(st.sets(st.integers(0, len(base) - 1), min_size=2)))
    vs = VertexSet(base.scheme, tuple(base.labels[i] for i in chosen), tuple(base.vertices[i] for i in chosen))
    return vs, tuple(draw(st.lists(st.integers(0, len(vs) - 1), min_size=1, max_size=len(vs) - 1, unique=True)))


@settings(max_examples=60, deadline=None)
@given(_oracle_case())
def test_support_lp_verdicts_match_the_witness_oracle(case):
    """is_face agrees with the witness formulation, every result verifies, and a face
    certificate that comes from a support LP has gap 1: without a norm row the cap
    eps <= 1 is the only bound on the gap."""
    vs, subset = case
    optima = []

    def recording(lp):
        res = lp_solve(lp)
        optima.append(Q(res.primal[-1], res.den))
        return res

    with pytest.MonkeyPatch.context() as m:
        m.setattr(faces, "lp_solve", recording)
        result = is_face(vs, subset)
    assert isinstance(result, FaceCertificate) == witness_oracle_is_face(vs, subset)
    assert _verifies(vs, subset, result)
    assert set(optima) <= {0, 1}
    if optima and isinstance(result, FaceCertificate):
        assert result.epsilon == 1


def test_support_lp_optimum_refuses_a_gap_other_than_0_or_1(monkeypatch):
    """A positive optimum of the support LP is exactly 1 (a feasible point divided by its
    eps is feasible at eps = 1), so an LP result with eps 1/2 (its primal over twice its
    denominator) is refused."""
    vs = phi_vertices(4)
    ctx = FaceContext(vs)
    subset = (0, 1, 2)
    rows = [ctx.member_row(s) for s in subset] + [ctx.outside_row(t) for t in range(3, len(vs))]
    assert faces._support_lp_optimum(ctx.frame.dim, rows)[0] == 1

    def halved(lp):
        res = lp_solve(lp)
        return dataclasses.replace(res, primal=res.primal[:-1] + (res.den,), den=2 * res.den)

    monkeypatch.setattr(faces, "lp_solve", halved)
    with pytest.raises(InternalInconsistencyError, match="neither 0 nor 1"):
        faces._support_lp_optimum(ctx.frame.dim, rows)


def test_dependent_subsets_answered_correctly():
    # four vertices of bqp(2) contain an affinely dependent quadruple only
    # as the full set; check a dependent triple inside phi(3) instead
    vs = phi_vertices(3)
    ctx = FaceContext(vs)
    # {0,1,2} is dependent with the complement; every 4-subset containing
    # a non-face triple still gets exactly one verdict
    for subset in combinations(range(6), 4):
        assert _verifies(vs, subset, is_face(vs, subset, ctx))


def test_face_by_equations_phi4_pair_fixings():
    vs = phi_vertices(4)
    ps = phi_scheme(4)
    eqs = [
        (ps.encode((1, 2), (1, 2)), 1),
        (ps.encode((3, 4), (3, 4)), 1),
    ]
    res = face_by_equations(vs, eqs)
    assert len(res.subset) == 4
    assert res.certificate is not None
    assert verify_face_certificate(vs, res.subset, res.certificate)
    for rep in res.equations:
        assert rep.attained


def test_face_by_equations_lemma_fixings_phi4():
    vs = phi_vertices(4)
    ps = phi_scheme(4)
    eqs = []
    for i, j in [(1, 4), (2, 4), (3, 4)]:
        for k, l in [(1, 2), (1, 3), (2, 3)]:
            eqs.append((ps.encode((i, j), (k, l)), 0))
    res = face_by_equations(vs, eqs)
    assert len(res.subset) == 6


def test_face_by_equations_empty_face_is_reported():
    vs = phi_vertices(3)
    ps = phi_scheme(3)
    eqs = [(ps.encode((1, 2), (1, 2)), 1), (ps.encode((1, 2), (1, 3)), 1)]
    res = face_by_equations(vs, eqs)
    assert res.subset == ()
    assert res.certificate is None


_EQUATION_SETS = {"bqp4": bqp_vertices(4), "phi4": phi_vertices(4), "qap3": qap_vertices(3)}


@st.composite
def _equation_sets(draw):
    """(vertex set, equations): up to 12 distinct value-0 coordinates of bqp(4), phi(4) or qap(3), and
    sometimes one value-1 equation, so that I is empty in most draws."""
    vs = draw(st.sampled_from(list(_EQUATION_SETS.values())))
    coords = st.integers(0, vs.scheme.ambient_dim - 1)
    eqs = [(off, 0) for off in draw(st.lists(coords, max_size=12, unique=True))]
    if draw(st.integers(0, 3)) == 0:
        eqs.append((draw(coords), 1))
    return vs, eqs


# qap(3) with the coordinates (1, j, 1, j) = P[1,j]^2 all 0: every permutation maps 1 somewhere, so the
# face is empty; and P[1,1] P[1,2] = 1, an equation no vertex attains, with one zero
@example((_EQUATION_SETS["qap3"], [(0, 0), (10, 0), (20, 0)]))
@example((_EQUATION_SETS["qap3"], [(1, 1), (5, 0)]))
@settings(max_examples=150, deadline=None)
@given(_equation_sets())
def test_face_by_equations_matches_the_mask_walk(case):
    """face_by_equations lists the vertices {v : I <= v <= U} that a walk over every vertex's bitmask lists,
    with the same attained flags (some vertex meets the equation) and the fixing certificate of that face."""
    vs, eqs = case
    inter = reduce(or_, (1 << off for off, val in eqs if val == 1), 0)
    union = ((1 << vs.scheme.ambient_dim) - 1) & ~reduce(or_, (1 << off for off, val in eqs if val == 0), 0)
    subset = [t for t, m in enumerate(faces._masks(vs)) if m & inter == inter and m | union == union]
    res = face_by_equations(vs, eqs)
    assert list(res.subset) == subset
    assert [r.attained for r in res.equations] == [
        any((off in v) == bool(val) for v in vs.vertices) for off, val in eqs
    ]
    if 0 < len(subset) < len(vs):
        assert res.certificate == faces._fixing_certificate(vs, subset, inter, union, None)
        assert verify_face_certificate(vs, subset, res.certificate)
    else:
        assert res.certificate is None


def test_face_by_equations_rejects_bad_input():
    vs = phi_vertices(3)
    with pytest.raises(ValueError):
        face_by_equations(vs, [(99, 0)])
    with pytest.raises(ValueError):
        face_by_equations(vs, [(0, 2)])


def test_verify_rejects_tampered_witness():
    vs = phi_vertices(3)
    wit = is_face(vs, (0, 1, 2))
    bad = NonFaceWitness(alpha=wit.alpha, mu=(Q(1, 2), Q(1, 4), Q(1, 8)), point=wit.point)
    assert not verify_nonface_witness(vs, (0, 1, 2), bad)
    bad2 = NonFaceWitness(alpha=(Q(1), Q(1), Q(-1)), mu=wit.mu, point=wit.point)
    assert not verify_nonface_witness(vs, (0, 1, 2), bad2)


def test_verify_nonface_witness_refuses_floats_and_booleans():
    """Witness entries must be ints or Fractions.  Written as floats, the phi(4) witness of (0, 3, 4) has
    alpha summing to 1.0, though its exact sum is not 1; and True in mu equals 1 but is no rational."""
    vs = phi_vertices(4)
    wit = is_face(vs, (0, 3, 4))
    assert verify_nonface_witness(vs, (0, 3, 4), wit)
    floats = NonFaceWitness(*(tuple(map(float, x)) for x in (wit.alpha, wit.mu, wit.point)))
    assert sum(floats.alpha) == 1 and sum(map(Q, floats.alpha)) != 1
    assert not verify_nonface_witness(vs, (0, 3, 4), floats)
    vs, subset = bqp_vertices(3), tuple(range(7))  # the eighth vertex lies in the affine hull of the others
    wit = is_face(vs, subset)
    assert wit.mu == (1,) and verify_nonface_witness(vs, subset, wit)
    assert not verify_nonface_witness(vs, subset, dataclasses.replace(wit, mu=(True,)))


def test_verify_rejects_tampered_certificate():
    vs = qap_vertices(3)
    cert = is_face(vs, (0, 1, 2))
    assert isinstance(cert, FaceCertificate)
    worse = FaceCertificate(cert.normal, cert.offset, -cert.epsilon)
    assert not verify_face_certificate(vs, (0, 1, 2), worse)
    shifted = FaceCertificate(cert.normal, cert.offset + 1, cert.epsilon)
    assert not verify_face_certificate(vs, (0, 1, 2), shifted)


def _reference_verify_face_certificate(vs, subset, cert):
    """The Fraction substitution check: sum the normal over each vertex's one-positions."""
    try:
        sset = set(subset)
        if not sset or len(sset) != len(subset) or not sset < set(range(len(vs))):
            return False
        if len(cert.normal) != vs.scheme.ambient_dim or cert.epsilon <= 0:
            return False
        for i, ones in enumerate(vs.vertices):
            val = sum((cert.normal[off] for off in ones), Q(0))
            if i in sset:
                if val != cert.offset:
                    return False
            elif not val <= cert.offset - cert.epsilon:
                return False
        return True
    except (TypeError, IndexError):
        return False


_CERT_BASES = (phi_vertices(3), bqp_vertices(3), qap_vertices(3), phi_vertices(4), bqp_vertices(4))
_small_rationals = st.fractions(-3, 3, max_denominator=4)


def _sparse_certificate_case(draw, vs):
    """A normal with 1 to 3 nonzero entries.  The offset is a touched vertex's
    value, the subset the vertices at that value, and epsilon the gap to the
    other touched vertices, so the vertices the support misses, of value 0,
    decide the verdict: a check must read them too."""
    offs = draw(st.lists(st.integers(0, vs.scheme.ambient_dim - 1), min_size=1, max_size=3, unique=True))
    normal = [Q(0)] * vs.scheme.ambient_dim
    for o in offs:
        normal[o] = draw(_small_rationals.filter(bool))
    values = [sum((normal[o] for o in v), Q(0)) for v in vs.vertices]
    touched = [t for t, v in enumerate(vs.vertices) if not set(v).isdisjoint(offs)]
    offset = values[draw(st.sampled_from(touched))] if touched else Q(0)
    subset = tuple(t for t, x in enumerate(values) if x == offset)[: len(vs) - 1]
    eps = offset - max((values[t] for t in touched if t not in subset), default=offset - 1)
    return vs, subset, FaceCertificate(tuple(normal), offset, eps), None


@st.composite
def _certificate_case(draw, kinds=("random", "sparse", "issued", "offset", "epsilon", "normal")):
    """A vertex set, a subset, and a random, sparse, LP-issued or tampered face certificate."""
    vs = draw(st.sampled_from(_CERT_BASES))
    dim = vs.scheme.ambient_dim
    subset = tuple(sorted(draw(st.sets(st.integers(0, len(vs) - 1), min_size=1, max_size=len(vs) - 1))))
    kind = draw(st.sampled_from(kinds))
    if kind == "sparse":
        return _sparse_certificate_case(draw, vs)
    cert = is_face(vs, subset) if kind != "random" else None
    if not isinstance(cert, FaceCertificate):
        normal = tuple(draw(st.lists(_small_rationals, min_size=dim, max_size=dim)))
        return vs, subset, FaceCertificate(normal, draw(_small_rationals), draw(_small_rationals)), None
    nonzero = _small_rationals.filter(bool)
    if kind == "offset":
        cert = FaceCertificate(cert.normal, cert.offset + draw(nonzero), cert.epsilon)
    elif kind == "epsilon":
        cert = FaceCertificate(cert.normal, cert.offset, draw(_small_rationals))
    elif kind == "normal":
        i = draw(st.integers(0, dim - 1))
        normal = cert.normal[:i] + (cert.normal[i] + draw(nonzero),) + cert.normal[i + 1 :]
        cert = FaceCertificate(normal, cert.offset, cert.epsilon)
    return vs, subset, cert, kind == "issued"


def _matches_fraction_reference(case):
    vs, subset, cert, issued = case
    verdict = verify_face_certificate(vs, subset, cert)
    assert verdict == _reference_verify_face_certificate(vs, subset, cert)
    if issued:
        assert verdict


@settings(max_examples=60, deadline=None)
@given(_certificate_case())
def test_verify_face_certificate_matches_fraction_reference_random(case):
    _matches_fraction_reference(case)


@settings(max_examples=40, deadline=None)
@given(_certificate_case(kinds=("sparse",)))
def test_verify_face_certificate_reads_the_vertices_off_the_support(case):
    """Sparse normals only, where the vertices the support misses decide the verdict."""
    _matches_fraction_reference(case)


def _at_first_zero(normal, value):
    """normal with its first zero entry replaced by value; the rescale skips zeros, but must read it."""
    i = normal.index(0)
    return normal[:i] + (value,) + normal[i + 1 :]


@pytest.mark.parametrize(
    "tamper",
    [
        lambda c: FaceCertificate(("1/2",) + c.normal[1:], c.offset, c.epsilon),
        lambda c: FaceCertificate(_at_first_zero(c.normal, ""), c.offset, c.epsilon),
        lambda c: FaceCertificate(_at_first_zero(c.normal, None), c.offset, c.epsilon),
        lambda c: FaceCertificate(_at_first_zero(c.normal, 0.0), c.offset, c.epsilon),
        lambda c: FaceCertificate((None,) + c.normal[1:], c.offset, c.epsilon),
        lambda c: FaceCertificate(c.normal, str(c.offset), c.epsilon),
        lambda c: FaceCertificate(c.normal, None, c.epsilon),
        lambda c: FaceCertificate(c.normal, c.offset, str(c.epsilon)),
        lambda c: FaceCertificate(c.normal, c.offset, None),
        lambda c: FaceCertificate(c.normal[:-1], c.offset, c.epsilon),
        lambda c: FaceCertificate(c.normal + (Q(0),), c.offset, c.epsilon),
        lambda c: FaceCertificate(None, c.offset, c.epsilon),
    ],
    ids=[
        "str-normal-entry", "empty-str-at-a-zero", "none-at-a-zero", "float-zero-at-a-zero",
        "none-normal-entry", "str-offset", "none-offset",
        "str-epsilon", "none-epsilon", "short-normal", "long-normal", "no-normal",
    ],
)
def test_verify_face_certificate_rejects_non_rational_entries(tamper):
    vs = qap_vertices(3)
    cert = is_face(vs, (0, 1, 2))
    assert verify_face_certificate(vs, (0, 1, 2), cert)
    assert verify_face_certificate(vs, (0, 1, 2), tamper(cert)) is False


@settings(max_examples=80, deadline=None)
@given(_certificate_case(), st.data())
def test_the_shared_zero_never_decides_a_verdict(case, data):
    """The check skips the slots that hold the shared ZERO by identity.  A zero made
    elsewhere (a fresh Fraction(0) or an int 0) in every zero slot keeps the verdict,
    and None, "", 0.0 or True in any one zero slot fails the check.  Issued
    certificates hold ZERO in every zero slot."""
    vs, subset, cert, issued = case
    verdict = verify_face_certificate(vs, subset, cert)
    if issued:
        assert all(x is ZERO for x in cert.normal if x == 0)
    for zero in (Q, int):
        normal = tuple(zero(0) if x == 0 else x for x in cert.normal)
        assert verify_face_certificate(vs, subset, FaceCertificate(normal, cert.offset, cert.epsilon)) == verdict
    zeros = [o for o, x in enumerate(cert.normal) if x == 0]
    if zeros:
        o = data.draw(st.sampled_from(zeros))
        for bad in (None, "", 0.0, True):
            normal = cert.normal[:o] + (bad,) + cert.normal[o + 1 :]
            assert verify_face_certificate(vs, subset, FaceCertificate(normal, cert.offset, cert.epsilon)) is False


_large = st.integers(-(10**40), 10**40).filter(bool)


@settings(max_examples=80, deadline=None)
@given(_certificate_case(), st.one_of(st.just(1), _large, st.builds(Q, _large, _large.map(abs))), st.data())
def test_the_int_rule_changes_types_not_verdicts_or_json(case, scale, data):
    """A certificate scaled by 1 or by a large, negative or fractional factor, held by the one rule (ZERO
    for a zero, an int where integral, a Fraction otherwise) and as all Fractions, gets one verdict and writes
    the same JSON bytes.  Read back from that JSON with every zero entry written "0/7", it is held by the rule
    and gets the verdict again.  A float or a boolean in place of an entry, the offset or epsilon is refused."""
    vs, subset, cert, _ = case
    values = [x * scale for x in (*cert.normal, cert.offset, cert.epsilon)]
    ruled = FaceCertificate(
        tuple(_rational(x.numerator, x.denominator) for x in values[:-2]),
        *(_rational(x.numerator, x.denominator) for x in values[-2:]),
    )
    fractions = FaceCertificate(tuple(map(Q, values[:-2])), Q(values[-2]), Q(values[-1]))
    verdict = verify_face_certificate(vs, subset, fractions)
    assert verify_face_certificate(vs, subset, ruled) == verdict
    text = json.dumps(ruled.to_json(subset))
    assert text == json.dumps(fractions.to_json(subset))
    written = json.loads(text)
    written["a"] = ["0/7" if x == "0" else x for x in written["a"]]
    read_subset, read = certificate_from_json(written)
    assert (read_subset, read) == (subset, ruled)
    assert _held_by_the_rule((*read.normal, read.offset, read.epsilon))
    assert verify_face_certificate(vs, subset, read) == verdict
    slot = data.draw(st.sampled_from([*faces._not_zero(ruled.normal), "offset", "epsilon"]))
    for bad in (float(values[{"offset": -2, "epsilon": -1}.get(slot, slot)]), True, False):
        if slot in ("offset", "epsilon"):
            tampered = dataclasses.replace(ruled, **{slot: bad})
        else:
            tampered = dataclasses.replace(ruled, normal=ruled.normal[:slot] + (bad,) + ruled.normal[slot + 1 :])
        assert verify_face_certificate(vs, subset, tampered) is False


@cache
def _lift_bases() -> dict:
    """name -> (vertex set, the (I, U) of its equations or None).  "phi6-face" is corollary-3n-face's
    pair-fixing face of phi(6) as a vertex set of its own, with the masks of its equations, under which
    compose_with_face lifts: all of value 1, so U is every coordinate."""
    phi6, equations = phi_vertices(6), _thm2_equations(3)
    dim = phi6.scheme.ambient_dim
    inter, union = sum(1 << o for o, _ in equations), (1 << dim) - 1
    face = [t for t, m in enumerate(faces._masks(phi6)) if m & inter == inter]
    standalone = VertexSet(phi6.scheme, tuple(phi6.labels[t] for t in face), tuple(phi6.vertices[t] for t in face))
    bases = {"phi4": phi_vertices(4), "qap4": qap_vertices(4), "bqp4": bqp_vertices(4)}
    return {name: (vs, None) for name, vs in bases.items()} | {"phi6-face": (standalone, (inter, union))}


@st.composite
def _fixing_masks(draw):
    """(vertex set, I, U, weight): I and U the AND and OR of one to three vertices (one gives I = U), U widened
    to every coordinate or to every coordinate but a few off the OR, or the equation masks of the phi(6)
    standalone face; weight None or the vertices' common weight, the two forms of ``_fixing_form``."""
    vs, equations = _lift_bases()[draw(st.sampled_from(["bqp4", "phi4", "phi6-face", "qap4"]))]
    dim, masks = vs.scheme.ambient_dim, faces._masks(vs)
    subset = draw(st.lists(st.integers(0, len(vs) - 1), min_size=1, max_size=3, unique=True))
    inter = reduce(and_, (masks[s] for s in subset))
    union = reduce(or_, (masks[s] for s in subset))
    full = (1 << dim) - 1
    widen = draw(st.sampled_from(["none", "every coordinate", "all but a few"] + ["equations"] * bool(equations)))
    if widen == "every coordinate":
        union = full
    elif widen == "all but a few":
        outside = [o for o in range(dim) if not union >> o & 1]
        few = draw(st.lists(st.sampled_from(outside), max_size=4, unique=True)) if outside else []
        union = full & ~sum(1 << o for o in few)
    elif widen == "equations":
        inter, union = equations
    weight = draw(st.sampled_from([None, len(vs.vertices[0])]))
    return vs, inter, union, weight


def _held_by_the_rule(values) -> bool:
    """Each value is the shared ZERO when it is zero, an int when it is an integer, and a Fraction otherwise."""
    return all(
        x is ZERO if x == 0 else type(x) is int if Q(x).denominator == 1 else type(x) is Q for x in values
    )


@settings(max_examples=120, deadline=None)
@given(_fixing_masks(), st.data())
def test_lift_and_fixing_equal_the_dense_reference(case, data):
    """_lifted and _fixing_certificate, laid out class by class, equal the coordinate-by-coordinate
    reference (oracles) in value, each entry and the offset held by the one rule: ZERO in every zero slot,
    an int where the value is an integer, a Fraction only otherwise; _fixing_certificate on the coordinate
    face of (I, U) whenever that face is neither empty nor every vertex."""
    vs, inter, union, weight = case
    dim = vs.scheme.ambient_dim
    support = data.draw(st.lists(st.integers(0, dim - 1), max_size=6, unique=True))
    normal = [ZERO] * dim
    for o in support:
        normal[o] = data.draw(_small_rationals.filter(bool))
    offset, eps = data.draw(_small_rationals), data.draw(_small_rationals.filter(lambda x: x > 0))
    lifted = faces._lifted(tuple(normal), offset, eps, inter, union, weight)
    assert lifted == oracles.dense_lifted(tuple(normal), offset, eps, inter, union, weight)
    assert _held_by_the_rule((*lifted[0], lifted[1]))
    face = [t for t, m in enumerate(faces._masks(vs)) if m & inter == inter and m | union == union]
    if 0 < len(face) < len(vs) and (weight is None or all(len(v) == weight for v in vs.vertices)):
        cert = faces._fixing_certificate(vs, face, inter, union, weight)
        assert (cert.normal, cert.offset, cert.epsilon) == (*oracles.dense_fixing_normal(dim, inter, union, weight), 1)
        assert _held_by_the_rule((*cert.normal, cert.offset, cert.epsilon))


@pytest.mark.parametrize("make", [phi_vertices, qap_vertices, bqp_vertices], ids=["phi4", "qap4", "bqp4"])
def test_is_face_solves_one_lp_over_subset_norm_and_other_rows(make, monkeypatch):
    """At most one support-LP per face test, rows in order: subset, then the other
    vertices of the subset's coordinate face; none when that face is the subset."""
    vs = make(4)
    ctx = FaceContext(vs)
    lps = []

    def recording_lp_solve(lp, *args, **kwargs):
        lps.append(lp)
        return lp_solve(lp, *args, **kwargs)

    monkeypatch.setattr(faces, "lp_solve", recording_lp_solve)
    rng = random.Random(11)
    verdicts = set()
    for _ in range(8):
        subset = tuple(sorted(rng.sample(range(len(vs)), 3)))
        lps.clear()
        verdicts.add(type(is_face(vs, subset, ctx)))
        assert [list(lp.constraints) for lp in lps] == _face_lps(ctx, subset)
    assert FaceCertificate in verdicts


def test_certificate_json_round_trip():
    vs = qap_vertices(3)
    cert = is_face(vs, (0, 1))
    subset, back = certificate_from_json(cert.to_json((0, 1)))
    assert subset == (0, 1) and back == cert
    wit = is_face(phi_vertices(3), (0, 1, 2))
    subset, back = certificate_from_json(wit.to_json((0, 1, 2)))
    assert subset == (0, 1, 2) and back == wit


def test_scan_phi3_pairs_all_faces():
    vs = phi_vertices(3)
    rep = k_neighborly_scan(vs, 2)
    assert rep.total_subsets == 15
    assert rep.faces_certified == 15
    assert rep.is_k_neighborly
    assert rep.counterexample_subset is None


def test_scan_phi4_all_276_pairs_are_faces():
    vs = phi_vertices(4)
    rep = k_neighborly_scan(vs, 2)
    assert rep.total_subsets == 276
    assert rep.is_k_neighborly


def test_scan_phi3_triples_finds_the_even_counterexample():
    vs = phi_vertices(3)
    rep = k_neighborly_scan(vs, 3)
    assert rep.counterexample_subset == (0, 1, 2)
    assert not rep.is_k_neighborly
    assert rep.faces_certified + 2 == rep.total_subsets == 20  # both parity triples fail
    assert verify_nonface_witness(vs, rep.counterexample_subset, rep.counterexample_witness)


def test_scan_stop_at_first():
    vs = phi_vertices(3)
    rep = k_neighborly_scan(vs, 3, stop_at_first=True)
    assert rep.stopped_early
    assert rep.total_subsets == 1
    assert rep.counterexample_subset == (0, 1, 2)


def test_scan_bqp2_triples_all_faces():
    vs = bqp_vertices(2)
    rep = k_neighborly_scan(vs, 3)
    assert rep.total_subsets == 4
    assert rep.is_k_neighborly


def test_scan_fix_first_counts_and_guards():
    vs = qap_vertices(3)
    rep = k_neighborly_scan(vs, 3, fix_first=True)
    assert rep.total_subsets == 10  # C(5, 2)
    assert rep.is_k_neighborly
    with pytest.raises(ValueError):
        k_neighborly_scan(bqp_vertices(2), 2, fix_first=True)


@pytest.mark.parametrize(
    "make, n, k, count",
    [
        (qap_vertices, 3, 3, 2), (phi_vertices, 3, 3, 2), (phi_vertices, 4, 2, 4),
        (qap_vertices, 4, 3, 10), (phi_vertices, 4, 3, 10), (qap_vertices, 3, 1, 1),
        (bqp_vertices, 3, 3, 3), (bqp_vertices, 4, 2, 4), (bqp_vertices, 4, 3, 6),
    ],
    ids=[
        "qap3-triples", "phi3-triples", "phi4-pairs", "qap4-triples", "phi4-triples", "qap3-singletons",
        "bqp3-triples", "bqp4-pairs", "bqp4-triples",
    ],
)
def test_orbit_scan_agrees_with_is_face_subset_by_subset(make, n, k, count, monkeypatch):
    """The certificate carried to every scanned subset (through vertex 0 for qap
    and phi, all of them for bqp) by its orbit's move verifies and has the
    verdict is_face gives that subset, the scan's counts and counterexample are
    those of the carried certificates, and it decides one representative per
    orbit, by an LP or by fixings."""
    vs = make(n)
    ctx = FaceContext(vs)
    carried = oracles.carried_orbit_scan(vs, k, ctx)
    solved = []

    def recording_is_face(vs, subset, ctx):
        solved.append(subset)
        return is_face(vs, subset, ctx)

    fixing = faces._fixing_certificate
    monkeypatch.setattr(faces, "is_face", recording_is_face)
    monkeypatch.setattr(faces, "_fixing_certificate", lambda vs, s, *rest: solved.append(s) or fixing(vs, s, *rest))
    rep = k_neighborly_scan(vs, k, fix_first=vs.scheme.family != "bqp", ctx=ctx)
    if vs.scheme.family == "bqp":
        assert [s for s, _ in carried] == list(combinations(range(len(vs)), k))
    else:
        assert [s for s, _ in carried] == [(0,) + rest for rest in combinations(range(1, len(vs)), k - 1)]
    assert len(solved) == len(set(solved)) == count
    assert f"LPs for {count} of the {count} orbits" in rep.symmetry_reduction
    nonfaces = [s for s, cert in carried if isinstance(cert, NonFaceWitness)]
    assert (rep.total_subsets, rep.faces_certified) == (len(carried), len(carried) - len(nonfaces))
    assert rep.counterexample_subset == (nonfaces[0] if nonfaces else None)
    for subset, cert in carried:
        assert type(cert) is type(is_face(vs, subset, ctx))
        verify = verify_face_certificate if isinstance(cert, FaceCertificate) else verify_nonface_witness
        assert verify(vs, subset, cert)


def test_orbit_scan_report_names_the_group_and_the_orbits_solved():
    rep = k_neighborly_scan(phi_vertices(4), 3, fix_first=True)
    assert (rep.total_subsets, rep.faces_certified, rep.counterexample_subset) == (253, 249, (0, 3, 4))
    assert rep.symmetry_reduction.startswith("S_4 x S_4 x C_2")
    assert "LPs for 10 of the 10 orbits" in rep.symmetry_reduction


def test_full_phi5_orbit_scan_carries_faces_and_non_faces(phi5):
    """The whole fix-first phi(5) triple scan, without stopping: 36 LPs, and
    face certificates and non-face witnesses carried to the other subsets by
    the orbit walk's moves pass substitution and give the scan's counts."""
    vs, ctx = phi5
    rep = k_neighborly_scan(vs, 3, fix_first=True, ctx=ctx)
    assert (rep.total_subsets, rep.faces_certified, rep.counterexample_subset) == (7021, 7011, (0, 3, 4))
    assert not rep.stopped_early
    assert "LPs for 36 of the 36 orbits" in rep.symmetry_reduction
    carried = oracles.carried_orbit_scan(vs, 3, ctx)
    nonfaces = [s for s, cert in carried if isinstance(cert, NonFaceWitness)]
    assert (len(carried), len(carried) - len(nonfaces), nonfaces[0]) == (7021, 7011, (0, 3, 4))


@pytest.mark.parametrize(
    "make, n", [(qap_vertices, 4), (phi_vertices, 4), (phi_vertices, 5)], ids=["qap4", "phi4", "phi5"]
)
def test_each_link_move_maps_its_representative_onto_its_subset(make, n):
    """Walked from its representative by the oracle walk, each orbit yields its
    other members, all after the representative in lex order and as many as the
    orbit's size, and the move given with each member has a coordinate map that
    sends the representative's vertices onto that member."""
    vs = make(n)
    orbits = faces._Orbits(FaceContext(vs), 3)
    index = {v: t for t, v in enumerate(vs.vertices)}
    seen = bytearray(orbits.count)
    for i, rep, size in orbits.reps:
        seen[i] = 1
        members = list(oracles.orbit_walk(orbits.table, rep, orbits.rank, seen))
        assert len(members) + 1 == size
        for member, move in members:
            assert member > rep
            cmap = coordinate_map(vs.scheme, *move)
            image = sorted(index[tuple(sorted(cmap[o] for o in vs.vertices[s]))] for s in rep)
            assert tuple(image) == member
    assert all(seen)


def _identity_first(vs, order):
    """vs reordered: its identity first, then the other vertices in the given order of their positions."""
    ident = vs.labels.index("".join(str(i) for i in range(1, vs.scheme.n + 1)))
    rest = [t for t in range(len(vs)) if t != ident]
    return _reordered(vs, [ident] + [rest[i] for i in order])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([qap_vertices, phi_vertices]), st.integers(3, 5), st.data())
def test_canonical_orbits_and_coset_stabilisers_match_the_oracles(make, n, data):
    """On a vertex order that keeps the identity first, the orbits found by canonical
    form have the representatives, positions and sizes of the oracle walk, at k = 1
    to 3 (and 4 at n <= 4), and the stabiliser read from centraliser cosets is the
    move multiset of the oracle's n! loop, on subsets that need not hold vertex 0."""
    count = {3: 6, 4: 24, 5: 120}[n]
    vs = _identity_first(make(n), data.draw(st.permutations(range(count - 1))))
    ctx = FaceContext(vs)
    table = ctx.symmetry()
    for k in (1, 2, 3, 4) if n <= 4 else (1, 2, 3):
        assert faces._Orbits(ctx, k).reps == oracles.walked_orbits(table, k)
    for size in (1, 2, 3, data.draw(st.integers(4, 5))):
        subset = tuple(sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=size, max_size=size))))
        assert sorted(faces._stabiliser(table, subset)) == sorted(oracles.stabiliser(table, subset))


# sha256 of the JSON of the phi(6) triple orbits, (position, representative, size) in
# lex order; the oracle walk (about 1.3 s) gives the same list
PHI6_TRIPLE_ORBITS = "85da514133d04a9874b0f9f70f10eeff86cc979cfe5b695f6ee7482f4cd66ddf"


def test_phi6_triple_orbits_are_pinned():
    """The 164 orbits of the 258,121 phi(6) triples through vertex 0, from the
    canonical form: the first is (0, 1, 2) with 180 members.  The pairs'
    representatives are the class minima, and {0} is the only singleton."""
    ctx = FaceContext(phi_vertices(6))
    reps = faces._Orbits(ctx, 3).reps
    assert (len(reps), sum(size for *_, size in reps), reps[0]) == (164, 258121, (0, (0, 1, 2), 180))
    assert hashlib.sha256(json.dumps(reps).encode()).hexdigest() == PHI6_TRIPLE_ORBITS
    minima = sorted(set(ctx.symmetry().classes[0]))[1:]  # one per cycle type but the identity's
    assert [s for _, s, _ in faces._Orbits(ctx, 2).reps] == [(0, m) for m in minima] and len(minima) == 10
    assert faces._Orbits(ctx, 1).reps == [(0, (0,), 1)]


@pytest.mark.parametrize("k", [2, 3])
def test_orbits_that_do_not_cover_the_scan_are_an_error(k, monkeypatch):
    """The orbit sizes must sum to the scanned count: with the last element of every
    centraliser dropped, or one orbit size raised by 1, _Orbits raises."""
    centraliser = faces._Symmetry.centraliser
    with monkeypatch.context() as m:
        m.setattr(faces._Symmetry, "centraliser", lambda table, x: centraliser(table, x)[:-1])
        with pytest.raises(InternalInconsistencyError, match=f"not the {comb(23, k - 1)} scanned"):
            faces._Orbits(FaceContext(qap_vertices(4)), k)
    representatives = faces._Symmetry.representatives
    monkeypatch.setattr(
        faces._Symmetry, "representatives",
        lambda *args: [(i, s, size + (i == 0)) for i, s, size in representatives(*args)],
    )
    with pytest.raises(InternalInconsistencyError, match="orbits hold"):
        k_neighborly_scan(phi_vertices(4), k, fix_first=True)


@pytest.mark.parametrize("make", [qap_vertices, phi_vertices], ids=["qap4", "phi4"])
def test_orbit_scan_refuses_a_coordinate_map_that_swaps_its_sides(make, monkeypatch):
    """With a and b swapped, each generator still maps the vertex set onto
    itself, but not as it maps the permutations, so the scan is refused."""
    right = faces.coordinate_map
    monkeypatch.setattr(faces, "coordinate_map", lambda scheme, a, b, transpose: right(scheme, b, a, transpose))
    with pytest.raises(ValueError, match="^fix-first reduction refused"):
        k_neighborly_scan(make(4), 3, fix_first=True)


def _coordinate_vertex_map(vs, move):
    """Where the move's coordinate map sends each vertex, by sorting its image."""
    cmap = coordinate_map(vs.scheme, *move)
    index = {v: t for t, v in enumerate(vs.vertices)}
    return [index[tuple(sorted(cmap[o] for o in v))] for v in vs.vertices]


@pytest.mark.parametrize("make", [qap_vertices, phi_vertices], ids=["qap3", "phi3"])
def test_vertex_map_is_the_coordinate_action_on_every_move_n3(make):
    vs = make(3)
    table = FaceContext(vs).symmetry()
    perms = list(permutations(range(3)))
    moves = list(product(perms, perms, (False, True)))
    assert len(moves) == 72
    for move in moves:
        assert table.vertex_map(move) == _coordinate_vertex_map(vs, move)


@pytest.fixture(scope="module")
def n4_tables():
    return {make: (vs, FaceContext(vs).symmetry()) for make in (qap_vertices, phi_vertices) for vs in [make(4)]}


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([qap_vertices, phi_vertices]),
    st.permutations(range(4)),
    st.permutations(range(4)),
    st.booleans(),
)
def test_vertex_map_is_the_coordinate_action_n4(n4_tables, make, a, b, transpose):
    vs, table = n4_tables[make]
    move = (tuple(a), tuple(b), transpose)
    assert table.vertex_map(move) == _coordinate_vertex_map(vs, move)


def test_symmetry_is_checked_once_per_context_and_a_refusal_is_kept(monkeypatch):
    """symmetry() runs the check on first use only: a refused vertex set raises the
    same ValueError on every call, and a second orbit search maps no coordinates."""
    checks, maps = [], []
    check, cmap = faces._checked_symmetry, faces.coordinate_map
    monkeypatch.setattr(faces, "_checked_symmetry", lambda vs: checks.append(vs) or check(vs))
    monkeypatch.setattr(faces, "coordinate_map", lambda *move: maps.append(move) or cmap(*move))
    ctx = FaceContext(_reordered(phi_vertices(5), range(119)))  # last vertex removed
    for _ in range(2):
        with pytest.raises(ValueError) as refusal:
            ctx.symmetry()
        assert str(refusal.value) == "fix-first reduction refused: a move does not map the vertex set onto itself"
    assert len(checks) == 1
    ctx = FaceContext(phi_vertices(4))
    first = faces._Orbits(ctx, 3)
    assert (len(checks), len(maps)) == (2, 5)  # the five generators of the check
    second = faces._Orbits(ctx, 3)
    assert (len(checks), len(maps)) == (2, 5)
    assert second.reps == first.reps


@pytest.mark.parametrize("make", [qap_vertices, phi_vertices], ids=["qap5", "phi5"])
def test_symmetry_check_reads_every_vertex_of_each_generator(make, monkeypatch):
    """With the inversion's vertex map sent wrong at vertex 101 alone, the check refuses the table: it compares
    every vertex's image, not a prefix."""
    vs, vertex_map = make(5), faces._Symmetry.vertex_map
    faces._checked_symmetry(vs)

    def wrong_at_101(table, move):
        vmap = vertex_map(table, move)
        if move[2]:
            vmap[101] = vmap[102]
        return vmap

    monkeypatch.setattr(faces._Symmetry, "vertex_map", wrong_at_101)
    with pytest.raises(ValueError, match="unlike their permutations"):
        faces._checked_symmetry(vs)


def test_orbits_missing_one_orbit_are_an_error(monkeypatch):
    """With the last orbit dropped from representatives the sizes sum below the scanned count, and _Orbits
    raises, as it does above it."""
    representatives = faces._Symmetry.representatives
    monkeypatch.setattr(faces._Symmetry, "representatives", lambda *args: list(representatives(*args))[:-1])
    with pytest.raises(InternalInconsistencyError, match=f"not the {comb(23, 2)} scanned"):
        faces._Orbits(FaceContext(phi_vertices(4)), 3)


def _reordered(vs, order):
    return VertexSet(vs.scheme, tuple(vs.labels[i] for i in order), tuple(vs.vertices[i] for i in order))


def test_orbit_scan_refuses_a_vertex_set_the_symmetry_does_not_fit():
    vs = qap_vertices(3)
    with pytest.raises(ValueError, match="onto itself"):
        k_neighborly_scan(_reordered(vs, range(5)), 3, fix_first=True)  # last vertex removed
    with pytest.raises(ValueError, match="identity"):
        k_neighborly_scan(_reordered(vs, (1, 0, 2, 3, 4, 5)), 3, fix_first=True)
    # another order that keeps the identity first is accepted, with the same verdicts
    rep = k_neighborly_scan(_reordered(vs, (0, 2, 1, 5, 4, 3)), 3, fix_first=True)
    assert (rep.total_subsets, rep.faces_certified) == (10, 10)


def test_scan_k_bounds():
    vs = phi_vertices(3)
    with pytest.raises(ValueError):
        k_neighborly_scan(vs, 0)
    with pytest.raises(ValueError):
        k_neighborly_scan(vs, 6)


def test_compose_with_face_lifts_certificates():
    from polyface.maps import thm2_face_iso

    res = thm2_face_iso(2)
    vs = res.vertex_set
    face_subset = res.face.subset
    standalone = type(vs)(
        scheme=vs.scheme,
        labels=tuple(vs.labels[i] for i in face_subset),
        vertices=tuple(vs.vertices[i] for i in face_subset),
    )
    ctx = FaceContext(standalone)
    # the lift adds a multiple of the functional of these coordinate fixings
    assert [(e.coordinate, e.value) for e in res.face.equations] == _thm2_equations(2)
    for triple in combinations(range(4), 3):
        inner = is_face(standalone, triple, ctx)
        assert isinstance(inner, FaceCertificate)
        lifted = compose_with_face(vs, res.face, triple, inner)
        global_subset = [face_subset[i] for i in triple]
        assert verify_face_certificate(vs, global_subset, lifted)
        # cross-check against the direct LP on the full vertex set
        direct = is_face(vs, global_subset)
        assert isinstance(direct, FaceCertificate)


def _thm2_equations(k):
    ps = phi_scheme(2 * k)
    return [(ps.encode((2 * i - 1, 2 * i), (2 * i - 1, 2 * i)), 1) for i in range(1, k + 1)]


# --- the orbit LP: face tests over the subset's stabiliser -------------------

# phi5-facetest's design: triples (0, i, j) of phi(5) by vertex position
PHI5_FACETEST_PAIRS = (
    (1, 20), (3, 4), (4, 75), (6, 93), (7, 86), (7, 106), (34, 116), (35, 63),
    (42, 90), (45, 59), (49, 85), (49, 100), (49, 105), (51, 54), (55, 76),
    (66, 115), (67, 77), (76, 87), (76, 100), (84, 113), (87, 115), (99, 111),
    (103, 115), (104, 107),
)
# The frame LP's verdicts, measured before the orbit LP existed: of the 36
# fix-first representatives of phi(5) triples and the 24 triples above,
# (0, 3, 4) is the only non-face.
PHI5_FRAME_LP_NONFACES = {(0, 3, 4)}
# sha256 of the JSON of the frame LP's certificates for these subsets
FRAME_LP_CERTIFICATES = {
    ("phi", (0, 1, 20)): "106650a0bb57d07fb6c8857b0f74dc6c1d9e6a7dfdcaed263e4ddfc6c165f81d",
    ("phi", (0, 4, 75)): "3de0710ec17153522a6d9bd84da5717dea023484a689070a355e0a82b0f436a0",
    ("qap", (0, 1, 2)): "c689f8838a63a68b7d9811c0a3b32b7c46304a30bf733bab8f9dbf0a5f80b8b9",
}


@pytest.fixture(scope="module")
def phi5():
    vs = phi_vertices(5)
    return vs, FaceContext(vs)


@pytest.fixture(scope="module")
def qap5():
    vs = qap_vertices(5)
    return vs, FaceContext(vs)


def _recording_lp_solve(monkeypatch):
    lps = []

    def recording(lp, *args, **kwargs):
        lps.append(lp)
        return lp_solve(lp, *args, **kwargs)

    monkeypatch.setattr(faces, "lp_solve", recording)
    return lps


def _frame_rows(ctx, subset, others=None):
    if others is None:
        others = [t for t in range(len(ctx.vs)) if t not in subset]
    return [ctx.member_row(s) for s in subset] + [ctx.outside_row(t) for t in others]


def _face_lps(ctx, subset):
    """The rows of each LP is_face solves without a stabiliser: none when the subset's
    coordinate face F is the subset, else one frame LP over the subset and F's other
    vertices."""
    _, _, face = _coordinate_face(ctx.vs, subset)
    rest = [t for t in face if t not in subset]
    return [_frame_rows(ctx, subset, rest)] if rest else []


def _orbit_lp_result(ctx, subset):
    """The orbit LP over the subset's stabiliser, which must not be trivial, and the certificate or witness
    is_face builds and verifies from it (``faces._verified_result``).  is_face itself certifies by fixings
    any subset its coordinate face singles out, so the orbit LP's tests call it here."""
    subset = tuple(subset)
    moves = faces._stabiliser_moves(ctx, subset)
    assert moves
    others = [t for t in range(len(ctx.vs)) if t not in subset]
    return faces._verified_result(ctx.vs, subset, *faces._orbit_lp(ctx, subset, others, moves))


def _frame_lp_certificate(ctx, subset):
    """The face certificate of the frame LP with a row for every vertex."""
    eps, (normal, offset), _ = faces._frame_lp(ctx, subset, [t for t in range(len(ctx.vs)) if t not in subset])
    return FaceCertificate(normal, offset, eps)


def test_orbit_lp_matches_the_frame_lp_verdicts_on_phi5(phi5, monkeypatch):
    """The orbit LP decides every fix-first representative and every benchmark
    triple of phi(5) in one LP smaller than the frame LP, with the frame LP's
    verdict, which is_face gives too, and a result that passes substitution."""
    vs, ctx = phi5
    orbits = faces._Orbits(ctx, 3)
    reps = [s for _, s, _ in orbits.reps]
    assert len(reps) == 36
    for subset in sorted(set(reps) | {(0, i, j) for i, j in PHI5_FACETEST_PAIRS}):
        nonface = subset in PHI5_FRAME_LP_NONFACES
        assert isinstance(is_face(vs, subset, ctx), NonFaceWitness) == nonface
        with monkeypatch.context() as m:
            lps = _recording_lp_solve(m)
            result = _orbit_lp_result(ctx, subset)
        assert isinstance(result, NonFaceWitness) == nonface
        assert _verifies(vs, subset, result)
        (lp,) = lps
        assert len(lp.constraints) < len(vs) + 1 and lp.num_vars < 2 * ctx.frame.dim + 3


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(1, 119), min_size=2, max_size=2, unique=True))
def test_orbit_lp_matches_the_frame_lp_on_qap5_random(qap5, rest):
    """On a drawn triple through vertex 0 with a stabiliser that is not trivial, the orbit LP and the frame
    LP over every row both certify a face (qap(5) is 3-neighborly), and so does is_face."""
    vs, ctx = qap5
    subset = (0, *sorted(rest))
    assume(faces._stabiliser_moves(ctx, subset))
    result = _orbit_lp_result(ctx, subset)
    others = [t for t in range(len(vs)) if t not in subset]
    frame = faces._verified_result(vs, subset, *faces._frame_lp(ctx, subset, others))
    assert type(result) is type(frame) is type(is_face(vs, subset, ctx)) is FaceCertificate


# qap(5) triples (0, i, j), drawn once with random.Random(1705) from all pairs; every one has a stabiliser
# that is not trivial, so the orbit LP can decide each
QAP5_ORBIT_LP_PAIRS = (
    (1, 20), (4, 75), (6, 56), (6, 93), (7, 86), (7, 106), (9, 13), (10, 56), (10, 77), (14, 48),
    (19, 87), (26, 53), (26, 74), (28, 62), (34, 116), (35, 63), (39, 71), (42, 90), (45, 59), (46, 108),
    (47, 82), (48, 97), (49, 85), (49, 100), (49, 102), (49, 105), (51, 54), (55, 76), (66, 115), (67, 77),
    (74, 106), (76, 87), (76, 100), (84, 113), (85, 93), (87, 115), (92, 94), (99, 111), (103, 115), (104, 107),
)
# sha256 of the JSON list of the orbit LP's results on the phi(5) design triples and on the qap(5) triples above,
# as the orbit LP gives them without a norm row (every face at gap 1)
ORBIT_LP_RESULTS = {
    "phi": "1c7cef484e102171a7a863bbe866ae532d8d541530894ab8d7bcdd8defd2a3fa",
    "qap": "97370a7050eb54705807c93a11f69f15ade07699a0f8ef54060716bf86ecbb96",
}


def _columns_from_the_global_frame(ctx, subset):
    """The orbit LP's columns as they were picked from the frame of the whole vertex set: greedy, in label
    order, over the coordinate orbits that meet that frame's pivot columns, each column an orbit indicator's
    counts on every vertex orbit less vertex 0's."""
    vs, moves = ctx.vs, faces._stabiliser_moves(ctx, subset)
    vertex = faces._least_images([vmap for vmap, _ in moves])
    coord = faces._least_images([cmap for _, cmap in moves])
    reps = {vertex[t]: t for t in range(len(vs))}.values()
    candidates = sorted({coord[c] for c in ctx.frame.pivot_cols})

    def counts(t):
        labels = [coord[o] for o in vs.vertices[t]]
        return [labels.count(j) for j in candidates]

    origin = counts(0)
    table = [[x - y for x, y in zip(counts(t), origin)] for t in reps]
    chosen, _ = greedy_basis([row[i] for row in table] for i in range(len(candidates)))
    return [candidates[i] for i in chosen]


def test_orbit_lp_builds_no_global_frame_and_keeps_its_columns(monkeypatch):
    """The orbit LP takes its columns from the hull frame of its own orbit points, and builds no frame of the
    whole vertex set: neither its LPs on the triples nor the phi(5) fix-first scan leave one on the context.
    Its columns are the ones picked from the whole set's frame, so its LPs and results are unchanged."""
    frames, real = [], faces.affine_hull_frame

    def recording(points, dim):
        frames.append(real(points, dim))
        return frames[-1]

    for vs, pairs in ((phi_vertices(5), PHI5_FACETEST_PAIRS), (qap_vertices(5), QAP5_ORBIT_LP_PAIRS)):
        ctx, subsets, columns, results = FaceContext(vs), [(0, i, j) for i, j in pairs], [], []
        with monkeypatch.context() as m:
            m.setattr(faces, "affine_hull_frame", recording)
            for subset in subsets:
                frames.clear()
                result = _orbit_lp_result(ctx, subset)
                assert _verifies(vs, subset, result)
                (frame,) = frames
                columns.append(sorted(frame.pivot_cols))
                results.append(result.to_json(subset))
        assert "frame" not in vars(ctx)
        digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
        assert digest == ORBIT_LP_RESULTS[vs.scheme.family]
        assert columns == [_columns_from_the_global_frame(ctx, subset) for subset in subsets]
    vs = phi_vertices(5)
    ctx = FaceContext(vs)
    assert k_neighborly_scan(vs, 3, fix_first=True, ctx=ctx).faces_certified == 7011
    assert "frame" not in vars(ctx)


# pivots of the orbit LPs of the phi(5) design triples and of the qap(5) triples above, in the fixtures' vertex
# order; with the norm row they took 467 and 1,047
ORBIT_LP_PIVOTS = {"phi": 314, "qap": 621}


@pytest.mark.parametrize("family", ["phi", "qap"])
def test_orbit_lp_pivot_counts_are_pinned(family, phi5, qap5, monkeypatch):
    """The orbit LP of each triple is one LP, and the pivots they take in all, which no
    machine changes, match the pinned totals."""
    vs, ctx = phi5 if family == "phi" else qap5
    pairs = PHI5_FACETEST_PAIRS if family == "phi" else QAP5_ORBIT_LP_PAIRS
    pivots, pivot = [], simplex._Solver._pivot

    def counted(self, p, c):
        pivots.append((p, c))
        pivot(self, p, c)

    monkeypatch.setattr(simplex._Solver, "_pivot", counted)
    lps = _recording_lp_solve(monkeypatch)
    for i, j in pairs:
        assert _verifies(vs, (0, i, j), _orbit_lp_result(ctx, (0, i, j)))
    assert len(lps) == len(pairs)
    assert all(len(lp.constraints) < len(vs) for lp in lps)  # orbit rows, not a row per vertex
    assert len(pivots) == ORBIT_LP_PIVOTS[family]


@pytest.mark.parametrize("family, subset", list(FRAME_LP_CERTIFICATES), ids=lambda x: str(x))
def test_trivial_stabiliser_solves_the_frame_lp(family, subset, phi5, qap5, monkeypatch):
    """With the stabiliser search cut to the identity, is_face decides the subset
    inside its coordinate face, row for row, and the frame LP over every row
    returns its pinned certificate."""
    vs, ctx = phi5 if family == "phi" else qap5
    identity = tuple(range(5))
    monkeypatch.setattr(faces, "_stabiliser", lambda perms, subset: [(identity, identity, False)])
    lps = _recording_lp_solve(monkeypatch)
    assert verify_face_certificate(vs, subset, is_face(vs, subset, ctx))
    assert [list(lp.constraints) for lp in lps] == _face_lps(ctx, subset)
    cert = _frame_lp_certificate(ctx, subset)
    assert verify_face_certificate(vs, subset, cert)
    digest = hashlib.sha256(json.dumps(cert.to_json(subset)).encode()).hexdigest()
    assert digest == FRAME_LP_CERTIFICATES[family, subset]


def test_vertex_sets_without_every_permutation_get_the_frame_lp(monkeypatch):
    """The orbit LP needs all n! vertices: phi(5) less a vertex and the standalone
    face of corollary-3n-face solve the frame LP inside the subset's coordinate
    face, here larger than the subset."""
    from polyface.maps import thm2_face_iso

    base = phi_vertices(5)
    face = thm2_face_iso(3).face
    phi6 = phi_vertices(6)
    for vs, subset in (
        (_reordered(base, range(119)), (0, 3, 4)),
        (_reordered(phi6, face.subset), (0, 3, 5)),
    ):
        ctx = FaceContext(vs)
        lps = _recording_lp_solve(monkeypatch)
        assert _verifies(vs, subset, is_face(vs, subset, ctx))
        (lp,) = lps
        assert [list(lp.constraints)] == _face_lps(ctx, subset)


def test_a_symmetry_that_fails_its_check_leaves_is_face_on_the_frame_lp(phi5, monkeypatch):
    """With a and b swapped in coordinate_map the table check refuses, and is_face
    decides (0, 1, 20), whose stabiliser is not trivial, inside its coordinate
    face, which is the subset: no LP.  The frame LP over every row keeps its
    pinned certificate."""
    vs, checked = phi5
    subset = (0, 1, 20)
    assert len(faces._stabiliser(checked.symmetry(), subset)) > 1  # read before the patch
    right = faces.coordinate_map
    monkeypatch.setattr(faces, "coordinate_map", lambda scheme, a, b, transpose: right(scheme, b, a, transpose))
    ctx = FaceContext(vs)
    lps = _recording_lp_solve(monkeypatch)
    assert verify_face_certificate(vs, subset, is_face(vs, subset, ctx))
    assert lps == [] == _face_lps(ctx, subset)
    cert = _frame_lp_certificate(ctx, subset)
    assert verify_face_certificate(vs, subset, cert)
    digest = hashlib.sha256(json.dumps(cert.to_json(subset)).encode()).hexdigest()
    assert digest == FRAME_LP_CERTIFICATES["phi", subset]
    with pytest.raises(ValueError, match="unlike their permutations"):
        ctx.symmetry()


def _transposition_triples(vs):
    """cold-verify's face triples: vertex 0, the identity, and two of the vertices one transposition away."""
    swaps = [t for t, label in enumerate(vs.labels) if sum(int(c) != k for k, c in enumerate(label, start=1)) == 2]
    return [(0, i, j) for i, j in combinations(swaps, 2)]


def test_fixings_decide_before_any_symmetry_work(phi5, monkeypatch):
    """Where the coordinate face is the subset, is_face returns its fixing certificate, verified, without
    checking the symmetry or listing a stabiliser: on the 23 phi(5) design triples other than (0, 3, 4),
    on the 45 identity-and-two-transpositions triples of qap(5) and on (0, 5, 17) of qap(6).  Each context
    is left without a symmetry table."""

    def refuse(*args):
        pytest.fail("symmetry work for a subset its fixings single out")

    monkeypatch.setattr(faces, "_checked_symmetry", refuse)
    monkeypatch.setattr(faces, "_stabiliser", refuse)
    qap5, qap6 = qap_vertices(5), qap_vertices(6)
    cases = [
        (phi5[0], [(0, i, j) for i, j in PHI5_FACETEST_PAIRS if (0, i, j) not in PHI5_FRAME_LP_NONFACES]),
        (qap5, _transposition_triples(qap5)),
        (qap6, [(0, 5, 17)]),
    ]
    assert [len(subsets) for _, subsets in cases] == [23, 45, 1]
    for vs, subsets in cases:
        ctx = FaceContext(vs)
        for subset in subsets:
            inter, union, face = faces._coordinate_face(ctx, subset)
            assert face == list(subset)
            cert = is_face(vs, subset, ctx)
            assert cert == faces._fixing_certificate(vs, subset, inter, union, ctx.weight)
            assert verify_face_certificate(vs, subset, cert)
        assert ctx._symmetry is None


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["phi", "qap"]), st.lists(st.integers(1, 119), min_size=2, max_size=2, unique=True))
@example("phi", [3, 4])
def test_is_face_agrees_with_the_frame_lp_over_every_row_on_n5_triples(phi5, qap5, family, rest):
    """On a drawn triple (0, i, j) of phi(5) or qap(5), whichever route is_face takes, its verdict is that of
    the frame LP over every vertex, and its result passes substitution.  Fixings decide all but 10 of the
    7,021 such triples of phi(5), and all of qap(5); the orbit LP decides the non-face (0, 3, 4)."""
    vs, ctx = phi5 if family == "phi" else qap5
    subset = (0, *sorted(rest))
    eps, _, _ = faces._frame_lp(ctx, subset, [t for t in range(len(vs)) if t not in subset])
    result = is_face(vs, subset, ctx)
    assert isinstance(result, FaceCertificate) == (eps > 0)
    assert _verifies(vs, subset, result)


def _closure(identity, maps):
    """Every product of the maps, each a tuple of images."""
    group, queue = {identity}, [identity]
    for x in queue:
        for g in maps:
            y = tuple(g[t] for t in x)
            if y not in group:
                group.add(y)
                queue.append(y)
    return group


# two fix-first representatives of qap(5) triples, with stabilisers of order 72 and 20
QAP5_STABILISER_SUBSETS = ((0, 3, 4), (0, 33, 64))


@pytest.mark.parametrize(
    "case", PHI5_FACETEST_PAIRS + tuple(("qap", s) for s in QAP5_STABILISER_SUBSETS), ids=str
)
def test_picked_generators_generate_the_whole_stabiliser(case, phi5, qap5, monkeypatch):
    """The moves _stabiliser_moves hands the orbit LP are as many as the oracle's
    n! loop finds in the stabiliser, one distinct vertex map each and closed under
    composition, and the orbit LP labels every vertex and coordinate by the
    least point of its orbit under the group they generate."""
    if case[0] == "qap":
        (vs, ctx), subset = qap5, case[1]
    else:
        (vs, ctx), subset = phi5, (0, *case)
    moves = faces._stabiliser_moves(ctx, subset)
    vmaps = {tuple(vmap) for vmap, _ in moves}
    assert len(vmaps) == len(moves) == len(oracles.stabiliser(ctx.symmetry(), subset))
    assert _closure(tuple(range(len(vs))), vmaps) == vmaps
    labels, least = [], faces._least_images

    def recording(maps):
        labels.append(least(maps))
        return labels[-1]

    monkeypatch.setattr(faces, "_least_images", recording)
    assert _verifies(vs, subset, _orbit_lp_result(ctx, subset))
    expected = []
    for size, maps in ((len(vs), vmaps), (vs.scheme.ambient_dim, {tuple(cmap) for _, cmap in moves})):
        group = _closure(tuple(range(size)), maps)
        expected.append([min(g[x] for g in group) for x in range(size)])
    assert labels == expected


def test_spread_dual_witness_passes_check(tmp_path, capsys):
    from polyface.cli import main

    vpath, cpath = tmp_path / "phi5.json", tmp_path / "wit.json"
    assert main(["generate", "--family", "phi", "--n", "5", "--out", str(vpath)]) == 0
    assert main(["face", "--vertices", str(vpath), "--subset", "0,3,4", "--out", str(cpath)]) == 1
    assert json.loads(cpath.read_text())["kind"] == "nonface"
    assert main(["check", "--vertices", str(vpath), "--certificate", str(cpath)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "certificate verifies"


def test_orbit_lp_scan_with_a_shared_context_finds_the_phi5_counterexample(phi5):
    vs, ctx = phi5
    rep = k_neighborly_scan(vs, 3, fix_first=True, stop_at_first=True, ctx=ctx)
    assert rep.counterexample_subset == (0, 3, 4)


def test_a_context_built_for_another_vertex_set_is_refused():
    vs, other = phi_vertices(4), _reordered(phi_vertices(4), (1, 0, *range(2, 24)))
    ctx = FaceContext(other)
    with pytest.raises(ValueError, match="another vertex set"):
        is_face(vs, (0, 1, 2), ctx)
    with pytest.raises(ValueError, match="another vertex set"):
        k_neighborly_scan(vs, 3, ctx=ctx)
    copy = VertexSet.from_json(vs.to_json())  # equal, not identical: accepted
    assert is_face(copy, (0, 3, 4), FaceContext(vs)) == is_face(vs, (0, 3, 4))


# --- scans: coordinate fixings, then the switching and bit-permutation orbits of bqp


def _counting(monkeypatch, name):
    """Calls of faces.<name>, recorded by their second argument (the subset)."""
    calls, original = [], getattr(faces, name)
    monkeypatch.setattr(faces, name, lambda first, subset, *rest: calls.append(subset) or original(first, subset, *rest))
    return calls


def test_qap4_fix_first_scan_solves_no_lp(monkeypatch):
    """Every one of the 10 representatives is singled out by its coordinate fixings."""
    lps, fixed = _recording_lp_solve(monkeypatch), _counting(monkeypatch, "_fixing_certificate")
    rep = k_neighborly_scan(qap_vertices(4), 3, fix_first=True)
    assert (rep.total_subsets, rep.faces_certified) == (253, 253)
    assert "LPs for 10 of the 10 orbits" in rep.symmetry_reduction
    assert (len(lps), len(fixed)) == (0, 10)


@pytest.mark.parametrize("n", [4, 5])
def test_qap_fix_first_scan_builds_no_hull_frame(n, monkeypatch):
    """Fixings certify every representative of a fix-first qap(4) or qap(5) triple
    scan, so the hull frame, built by the first LP, is never built."""
    monkeypatch.setattr(faces, "affine_hull_frame", lambda points, dim: pytest.fail("a hull frame was built"))
    vs = qap_vertices(n)
    rep = k_neighborly_scan(vs, 3, fix_first=True)
    assert rep.is_k_neighborly and rep.total_subsets == rep.faces_certified == comb(len(vs) - 1, 2)


_SCAN_BASES = {  # each base with the k it is scanned at
    "qap4": (qap_vertices(4), (2, 3)), "phi4": (phi_vertices(4), (2, 3)), "bqp3": (bqp_vertices(3), (2, 3, 4))
}


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(_SCAN_BASES)), st.integers(0, 2**32 - 1))
def test_orbit_scan_counts_match_is_face_on_a_symmetric_reordering(name, seed):
    """Reordered by a seeded move (a, a, transpose) that keeps vertex 0 first, the
    orbit scan gives the counts, counterexample and witness of an is_face loop
    over the same subsets in lex order, with stop_at_first on and off."""
    base, ks = _SCAN_BASES[name]
    rng = random.Random(seed)
    a = list(range(base.scheme.n))
    rng.shuffle(a)
    fix_first = base.scheme.family != "bqp"
    order = _coordinate_vertex_map(base, (tuple(a), tuple(a), fix_first and rng.random() < 0.5))
    assert order[0] == 0
    vs = _reordered(base, order)
    ctx = FaceContext(vs)
    for k in ks:
        if fix_first:
            scanned = [(0,) + rest for rest in combinations(range(1, len(vs)), k - 1)]
        else:
            scanned = list(combinations(range(len(vs)), k))
        verdicts = {s: is_face(vs, s, ctx) for s in scanned}
        nonfaces = [s for s in scanned if isinstance(verdicts[s], NonFaceWitness)]
        first = nonfaces[0] if nonfaces else None
        for stop in (False, True):
            rep = k_neighborly_scan(vs, k, fix_first=fix_first, stop_at_first=stop, ctx=ctx)
            total = scanned.index(first) + 1 if stop and nonfaces else len(scanned)
            faces_before = total - 1 if stop and nonfaces else total - len(nonfaces)
            assert (rep.total_subsets, rep.faces_certified) == (total, faces_before)
            assert (rep.counterexample_subset, rep.stopped_early) == (first, stop and first is not None)
            assert rep.counterexample_witness == (verdicts[first] if nonfaces else None)


def test_phi4_fix_first_scan_takes_both_routes(monkeypatch):
    """5 representatives by fixings, the other 5 (the non-face among them) by is_face."""
    fixed, solved = _counting(monkeypatch, "_fixing_certificate"), _counting(monkeypatch, "is_face")
    rep = k_neighborly_scan(phi_vertices(4), 3, fix_first=True)
    assert (rep.total_subsets, rep.faces_certified, rep.counterexample_subset) == (253, 249, (0, 3, 4))
    assert (len(fixed), len(solved)) == (5, 5)
    assert (0, 3, 4) in solved and not set(fixed) & set(solved)


def test_bqp4_fixing_certificates_take_the_plus_minus_one_form(monkeypatch):
    """bqp vertices differ in weight: +1 on I, -1 off U, offset |I|."""
    ctx = FaceContext(bqp_vertices(4))
    assert ctx.weight is None
    certs, fixing = [], faces._fixing_certificate
    monkeypatch.setattr(faces, "_fixing_certificate", lambda *args: certs.append(args) or fixing(*args))
    solved = _counting(monkeypatch, "is_face")
    rep = k_neighborly_scan(ctx.vs, 3, ctx=ctx)
    assert (rep.total_subsets, rep.faces_certified, len(certs), len(solved)) == (560, 560, 1, 5)
    for _, subset, inter, union, _ in certs:
        cert = fixing(ctx.vs, subset, inter, union, None)
        want = [1 if inter >> o & 1 else 0 if union >> o & 1 else -1 for o in range(16)]
        assert list(cert.normal) == want and -1 in want
        assert (cert.offset, cert.epsilon) == (bin(inter).count("1"), 1)


def _coordinate_face(vs, subset):
    """The vertices that agree with every coordinate on which the subset agrees, by sets."""
    inter = set.intersection(*(set(vs.vertices[s]) for s in subset))
    union = set.union(*(set(vs.vertices[s]) for s in subset))
    return inter, union, [t for t, v in enumerate(vs.vertices) if inter <= set(v) <= union]


@cache
def _walk_contexts() -> dict:
    bases = {"phi4": phi_vertices(4), "qap4": qap_vertices(4), "bqp4": bqp_vertices(4), "phi5": phi_vertices(5)}
    return {name: FaceContext(vs) for name, vs in bases.items()}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["phi4", "qap4", "bqp4", "phi5"]), st.data())
def test_coordinate_face_equals_the_walk_over_every_mask(name, data):
    """_coordinate_face, which walks the shortest incidence list of I's coordinates when I is not 0, lists
    the same (I, U, F) as the walk over every vertex mask; subsets of one vertex (I = U) to eight."""
    ctx = _walk_contexts()[name]
    subset = data.draw(st.lists(st.integers(0, len(ctx.vs) - 1), min_size=1, max_size=8, unique=True))
    assert faces._coordinate_face(ctx, subset) == oracles.walked_coordinate_face(ctx, subset)


_FACE_BASES = {  # phi(4) less its last vertex has no symmetry table
    "phi4": phi_vertices(4), "qap4": qap_vertices(4), "bqp4": bqp_vertices(4),
    "phi4-less-one": _reordered(phi_vertices(4), range(23)),
}
_FACE_CONTEXTS = {}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_FACE_BASES)), st.data())
def test_is_face_inside_the_coordinate_face_agrees_with_the_frame_lp_over_every_row(name, data):
    """is_face decides a subset inside its coordinate face F (fixings, or the frame LP
    over F's rows and a lifted certificate) with the verdict of the frame LP over every
    vertex; each result passes substitution, and a witness puts no weight off F."""
    vs = _FACE_BASES[name]
    ctx = _FACE_CONTEXTS.setdefault(name, FaceContext(vs))
    size = data.draw(st.integers(1, 5))
    subset = tuple(sorted(data.draw(st.sets(st.integers(0, len(vs) - 1), min_size=size, max_size=size))))
    others = [t for t in range(len(vs)) if t not in subset]
    eps, _, _ = faces._frame_lp(ctx, subset, others)
    result = is_face(vs, subset, ctx)
    assert isinstance(result, FaceCertificate) == (eps > 0)
    assert _verifies(vs, subset, result)
    if isinstance(result, NonFaceWitness):
        _, _, face = _coordinate_face(vs, subset)
        assert all(m == 0 for t, m in zip(others, result.mu) if t not in face)


@pytest.mark.parametrize(
    "make, subset, size", [(phi_vertices, (0, 3, 4), 6), (bqp_vertices, (0, 1, 6), 5)], ids=["phi4", "bqp4"]
)
def test_a_coordinate_face_missing_a_vertex_makes_is_face_raise(make, subset, size, monkeypatch):
    """With any one vertex of F beyond the subset dropped, the LP never sees it, and the
    certificate of the non-face (0, 3, 4) of phi(4), or of the face (0, 1, 6) of bqp(4),
    fails substitution on it."""
    vs = make(4)
    ctx = FaceContext(vs)
    inter, union, face = faces._coordinate_face(ctx, subset)
    assert len(face) == size
    for dropped in set(face) - set(subset):
        less = [t for t in face if t != dropped]
        monkeypatch.setattr(faces, "_coordinate_face", lambda ctx, s, less=less: (inter, union, less))
        with pytest.raises(InternalInconsistencyError, match="failed substitution"):
            is_face(vs, subset, ctx)


_FIXING_BASES = {"qap3": qap_vertices(3), "phi4": phi_vertices(4), "bqp3": bqp_vertices(3)}
_FIXING_CONTEXTS = {}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_FIXING_BASES)), st.data())
def test_fixing_certificates_verify_and_need_every_coordinate(name, data):
    """Whenever the bitmask rule says F = S, the fixing certificate passes substitution
    and is_face agrees that S is a face.  In either form, dropping a coordinate of I
    breaks it; in the 1-on-U form every nonzero coordinate is needed, and a -1 off U
    of the other form is needed exactly when dropping it lets some other vertex in."""
    vs = _FIXING_BASES[name]
    ctx = _FIXING_CONTEXTS.setdefault(name, FaceContext(vs))
    size = data.draw(st.integers(1, min(6, len(vs) - 1)))
    subset = tuple(sorted(data.draw(st.sets(st.integers(0, len(vs) - 1), min_size=size, max_size=size))))
    inter, union, face = _coordinate_face(vs, subset)
    fixed = faces._coordinate_face(ctx, subset)
    assert fixed == (sum(1 << o for o in inter), sum(1 << o for o in union), face)
    if face != list(subset):
        return
    assert isinstance(is_face(vs, subset, ctx), FaceCertificate)
    for weight in {ctx.weight, None}:  # the +-1 form holds on any 0/1 set: check it on qap and phi too
        cert = faces._fixing_certificate(vs, subset, *fixed[:2], weight)
        assert verify_face_certificate(vs, subset, cert)
        for o, x in enumerate(cert.normal):
            if x == 0:
                continue
            dropped = FaceCertificate(cert.normal[:o] + (Q(0),) + cert.normal[o + 1 :], cert.offset, cert.epsilon)
            needed = True
            if x < 0:  # off U: the weaker fixings cut out a face larger than S unless no vertex has o
                needed = any(inter <= set(v) <= union | {o} for v in vs.vertices if o in v)
            assert verify_face_certificate(vs, subset, dropped) is not needed


def test_bqp_orbit_scan_finds_the_non_faces_a_subset_by_subset_scan_finds(monkeypatch):
    """bqp(3) 4-subsets include non-faces: the orbit scan gives every subset the verdict
    is_face gives it, and the same first counterexample with the same witness."""
    vs = bqp_vertices(3)
    ctx = FaceContext(vs)
    rep = k_neighborly_scan(vs, 4, ctx=ctx)
    assert rep.symmetry_reduction.startswith(
        "Z_2^3 semidirect S_3 (switchings and bit permutations): LPs for 6 of the 6 orbits of 4-subsets"
    )
    direct = {s: is_face(vs, s, ctx) for s in combinations(range(8), 4)}
    nonfaces = [s for s, cert in direct.items() if isinstance(cert, NonFaceWitness)]
    assert (rep.total_subsets, rep.faces_certified) == (70, 70 - len(nonfaces)) and nonfaces
    assert rep.counterexample_subset == nonfaces[0]
    assert rep.counterexample_witness == direct[nonfaces[0]]
    for subset, cert in oracles.carried_orbit_scan(vs, 4, ctx):
        assert type(cert) is type(direct[subset]) and _verifies(vs, subset, cert)
    stopped = k_neighborly_scan(vs, 4, ctx=ctx, stop_at_first=True)
    assert (stopped.counterexample_subset, stopped.counterexample_witness) == (nonfaces[0], direct[nonfaces[0]])


def test_bqp_orbit_scan_with_the_bits_shuffled_gives_the_same_counts():
    base = bqp_vertices(4)
    index = {label: t for t, label in enumerate(base.labels)}
    order = [index[label[2] + label[0] + label[3] + label[1]] for label in base.labels]
    assert order[0] == 0 and order != list(range(16))
    rep = k_neighborly_scan(_reordered(base, order), 3)
    assert (rep.total_subsets, rep.faces_certified) == (560, 560)
    assert "LPs for 6 of the 6 orbits of 3-subsets" in rep.symmetry_reduction


def test_bqp_set_without_a_vertex_is_scanned_subset_by_subset():
    vs = _reordered(bqp_vertices(3), range(7))
    with pytest.raises(ValueError, match="^bit-permutation reduction refused"):
        FaceContext(vs).symmetry()
    rep = k_neighborly_scan(vs, 3)
    assert (rep.total_subsets, rep.faces_certified, rep.symmetry_reduction) == (35, 35, "none (exhaustive scan)")
    tiny = VertexSet(bqp_scheme(1), ("0", "1"), ((), (0,)))  # m = 1 has no transposition to check
    rep = k_neighborly_scan(tiny, 1)
    assert (rep.total_subsets, rep.faces_certified, rep.symmetry_reduction) == (2, 2, "none (exhaustive scan)")


def test_a_wrong_bqp_coordinate_map_is_caught_and_nothing_is_carried(monkeypatch):
    """With each bit permutation replaced by its inverse, the m-cycle moves the
    vertices unlike their bit vectors: no orbit was enumerated, and the scan decides every subset."""
    right = faces.coordinate_map
    monkeypatch.setattr(
        faces, "coordinate_map", lambda scheme, a, b, transpose: right(scheme, inverse(a), inverse(b), transpose)
    )
    monkeypatch.setattr(faces._BitSymmetry, "representatives", lambda *args: pytest.fail("an orbit was enumerated"))
    fixed, solved = _counting(monkeypatch, "_fixing_certificate"), _counting(monkeypatch, "is_face")
    vs = bqp_vertices(3)
    ctx = FaceContext(vs)
    rep = k_neighborly_scan(vs, 3, ctx=ctx)
    assert (rep.total_subsets, rep.faces_certified, rep.symmetry_reduction) == (56, 56, "none (exhaustive scan)")
    assert sorted(fixed + solved) == list(combinations(range(8), 3))
    with pytest.raises(ValueError, match="unlike their bit vectors"):
        ctx.symmetry()


def _switching_without_the_diagonal(m):
    """The switching with the x_ii term of each x_ii - x_i1 dropped: x_i1 goes to -x_i1."""
    rows = bqp_switching(m)
    return {o: (c, tuple((s, x) for s, x in terms if s == o)) for o, (c, terms) in rows.items()}


def _switching_of_bit_1(m):
    """The switching of bit 1, the switching of bit 0 with bits 0 and 1 swapped in every offset."""
    swap = coordinate_map(bqp_scheme(m), (1, 0, *range(2, m)), (1, 0, *range(2, m)), False)
    return {swap[o]: (c, tuple((swap[s], x) for s, x in terms)) for o, (c, terms) in bqp_switching(m).items()}


@pytest.mark.parametrize("wrong", [_switching_without_the_diagonal, _switching_of_bit_1], ids=["no-diagonal", "bit-1"])
def test_a_wrong_bqp_switching_is_caught_and_nothing_is_carried(wrong, monkeypatch):
    """With the switching's affine map wrong, it maps some vertex elsewhere than
    switching bit 0 of its bit vector does: no orbit was enumerated, and the scan decides every subset."""
    monkeypatch.setattr(faces, "bqp_switching", wrong)
    monkeypatch.setattr(faces._BitSymmetry, "representatives", lambda *args: pytest.fail("an orbit was enumerated"))
    fixed, solved = _counting(monkeypatch, "_fixing_certificate"), _counting(monkeypatch, "is_face")
    vs = bqp_vertices(3)
    ctx = FaceContext(vs)
    rep = k_neighborly_scan(vs, 3, ctx=ctx)
    assert (rep.total_subsets, rep.faces_certified, rep.symmetry_reduction) == (56, 56, "none (exhaustive scan)")
    assert sorted(fixed + solved) == list(combinations(range(8), 3))
    with pytest.raises(ValueError, match="unlike their bit vectors"):
        ctx.symmetry()


@pytest.mark.parametrize(
    "m, k, count", [(3, 3, 3), (3, 4, 6), (4, 2, 4), (4, 3, 6), (5, 3, 10)],
    ids=["bqp3-triples", "bqp3-quadruples", "bqp4-pairs", "bqp4-triples", "bqp5-triples"],
)
def test_bqp_orbits_are_those_of_every_switching_and_bit_permutation(m, k, count):
    """The bqp orbits found by canonical form have the representatives, positions and
    sizes of the orbits under all 2^m m! vertex maps, each built by applying the affine
    formulas of the switchings and the bit permutation to every vertex's 0/1 point."""
    vs = bqp_vertices(m)
    maps = oracles.bqp_group_maps(vs)
    assert len(maps) == len({tuple(vmap) for vmap in maps}) == 2**m * factorial(m)
    reps = faces._Orbits(FaceContext(vs), k).reps
    assert reps == oracles.group_orbits(maps, k) and len(reps) == count


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_bqp_orbits_on_a_drawn_vertex_order_are_those_of_the_group(data):
    """On bqp(2..5) with its vertices in a drawn order, vertex 0 not always the zero
    vector, the orbits found by canonical form are those of every switching and bit
    permutation at each k from 1 to 4 (to 3 on bqp(5)), each the images of its first
    k-subset under all 2^m m! vertex maps of the group."""
    m = data.draw(st.sampled_from([2, 3, 4, 5]))
    k = data.draw(st.integers(1, 3 if m == 5 else min(4, 2**m - 1)))
    vs = _reordered(bqp_vertices(m), data.draw(st.permutations(range(2**m))))
    assert faces._Orbits(FaceContext(vs), k).reps == oracles.group_orbits(oracles.bqp_group_maps(vs), k)


def test_bqp6_triple_orbits_are_those_of_the_walk():
    """The 16 orbits of the 41,664 bqp(6) triples by canonical form are those the
    oracle walk finds, with the same positions and sizes."""
    ctx = FaceContext(bqp_vertices(6))
    reps = faces._Orbits(ctx, 3).reps
    assert (len(reps), sum(size for *_, size in reps)) == (16, 41664)
    assert reps == oracles.walked_orbits(ctx.symmetry(), 3)


@pytest.mark.parametrize("k", [2, 3])
def test_bqp_orbits_that_do_not_cover_the_scan_are_an_error(k, monkeypatch):
    """The bqp orbit sizes must sum to the scanned count: with the last element of every
    centraliser dropped, or one orbit size raised by 1, _Orbits raises."""
    centraliser = faces._BitSymmetry.centraliser
    with monkeypatch.context() as m:
        m.setattr(faces._BitSymmetry, "centraliser", lambda table, x: centraliser(table, x)[:-1])
        with pytest.raises(InternalInconsistencyError, match=f"not the {comb(16, k)} scanned"):
            faces._Orbits(FaceContext(bqp_vertices(4)), k)
    representatives = faces._BitSymmetry.representatives
    monkeypatch.setattr(
        faces._BitSymmetry, "representatives",
        lambda *args: [(i, s, size + (i == 0)) for i, s, size in representatives(*args)],
    )
    with pytest.raises(InternalInconsistencyError, match="orbits hold"):
        k_neighborly_scan(bqp_vertices(4), k)


def test_bqp_fix_first_is_still_refused():
    with pytest.raises(ValueError, match="qap or phi"):
        k_neighborly_scan(bqp_vertices(3), 3, fix_first=True)
