from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyface import faces
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
    witness_oracle_is_face,
)
from polyface.families import VertexSet, bqp_vertices, phi_scheme, phi_vertices, qap_vertices


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
            oracle = witness_oracle_is_face(vs, subset, ctx)
            assert isinstance(primary, FaceCertificate) == oracle


def _verifies(vs, subset, result):
    if isinstance(result, FaceCertificate):
        return verify_face_certificate(vs, subset, result)
    return verify_nonface_witness(vs, subset, result)


def test_nonface_witness_comes_from_the_support_lp_alone(monkeypatch):
    def no_witness_lp(*args):
        raise AssertionError("is_face called the witness-LP")

    monkeypatch.setattr(faces, "_witness_lp", no_witness_lp)
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
    assert isinstance(result, FaceCertificate) == witness_oracle_is_face(vs, subset, ctx)
    assert _verifies(vs, subset, result)


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
        assert rep.valid_inequality and rep.attained


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


def test_verify_rejects_tampered_certificate():
    vs = qap_vertices(3)
    cert = is_face(vs, (0, 1, 2))
    assert isinstance(cert, FaceCertificate)
    worse = FaceCertificate(cert.normal, cert.offset, -cert.epsilon)
    assert not verify_face_certificate(vs, (0, 1, 2), worse)
    shifted = FaceCertificate(cert.normal, cert.offset + 1, cert.epsilon)
    assert not verify_face_certificate(vs, (0, 1, 2), shifted)


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


def test_scan_parallel_matches_serial():
    vs = phi_vertices(3)
    serial = k_neighborly_scan(vs, 3)
    parallel = k_neighborly_scan(vs, 3, jobs=2)
    assert serial == parallel


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
    eqs = [(off, val) for off, val in _thm2_equations(2)]
    for triple in combinations(range(4), 3):
        inner = is_face(standalone, triple, ctx)
        assert isinstance(inner, FaceCertificate)
        lifted = compose_with_face(vs, face_subset, eqs, triple, inner)
        global_subset = [face_subset[i] for i in triple]
        assert verify_face_certificate(vs, global_subset, lifted)
        # cross-check against the direct LP on the full vertex set
        direct = is_face(vs, global_subset)
        assert isinstance(direct, FaceCertificate)


def _thm2_equations(k):
    ps = phi_scheme(2 * k)
    return [(ps.encode((2 * i - 1, 2 * i), (2 * i - 1, 2 * i)), 1) for i in range(1, k + 1)]
