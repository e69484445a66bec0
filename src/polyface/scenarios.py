"""Named verification scenarios with machine-readable reports.

Each scenario replays one claim about the three families end to end and
returns its steps: pass/fail plus any certificates produced.
``run_scenario`` times the call and wraps the steps in a report.  Reports
are deterministic apart from the wall-clock duration field.

Scenario names (CLI tokens): thm1, prop1, lemma1, thm2,
phi-not-3-neighborly, qap-3-neighborly, nonisomorphism,
corollary-3n-face.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial

from .faces import (
    FaceCertificate,
    FaceContext,
    compose_with_face,
    face_by_equations,
    is_face,
    k_neighborly_scan,
)
from .families import VertexSet, bqp_vertices, phi_vertices, qap_vertices
from .maps import (
    FaceIsoResult,
    brute_force_iso_search,
    lemma1_face_iso,
    prop1_projection,
    thm1_embedding,
    thm2_face_iso,
)


@dataclass
class Step:
    name: str
    description: str
    passed: bool
    details: dict = field(default_factory=dict)
    certificate: dict | None = None

    def to_json(self) -> dict:
        data = {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "details": self.details,
        }
        if self.certificate is not None:
            data["certificate"] = self.certificate
        return data


@dataclass
class Report:
    scenario: str
    parameters: dict
    steps: list[Step]
    duration_seconds: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "parameters": self.parameters,
            "passed": self.passed,
            "steps": [s.to_json() for s in self.steps],
            "duration_seconds": self.duration_seconds,
        }


def _one_positions(vec):
    """The one-positions of a 0/1 vector, or None if an entry is neither 0 nor 1."""
    ones = tuple(i for i, x in enumerate(vec) if x)
    return ones if all(vec[i] == 1 for i in ones) else None


def _round_trip(res: FaceIsoResult, targets: VertexSet) -> tuple[bool, bool]:
    """(invertible, matches): inverse(forward(v)) == v on every face vertex v, and
    forward maps each face vertex to its correspondent, one to one onto targets."""
    corr = dict(res.correspondence.pairs)
    invertible, matches = True, sorted(corr[v] for v in res.face.subset) == list(range(len(targets)))
    for vidx in res.face.subset:
        z = res.vertex_set.dense(vidx)
        image = res.forward.apply(z)
        invertible &= res.inverse.apply(image) == z
        matches &= _one_positions(image) == targets.vertices[corr[vidx]]
    return invertible, matches


def scenario_prop1(n: int) -> list[Step]:
    """The projection carries assignment tensors onto edge permutations."""
    steps = []
    pmap = prop1_projection(n)
    qs, ps = qap_vertices(n), phi_vertices(n)
    label_to_phi = {lab: i for i, lab in enumerate(ps.labels)}
    images = [_one_positions(pmap.apply_vertex(v)) for v in qs.vertices]
    pointwise = all(image == ps.vertices[label_to_phi[lab]] for image, lab in zip(images, qs.labels))
    steps.append(
        Step(
            "label-respecting projection",
            f"every assignment tensor of order {n} maps to the edge matrix of the same generator",
            pointwise,
            {"vertices": len(qs)},
        )
    )
    image_set = set(images)
    surjective = image_set == set(ps.vertices) and len(image_set) == len(qs)
    steps.append(
        Step(
            "surjectivity onto the edge-permutation vertices",
            "the image of the generator set equals the full target vertex set, bijectively",
            surjective,
            {"image_size": len(image_set), "target_size": len(ps)},
        )
    )
    return steps


def scenario_thm1(n: int) -> list[Step]:
    """Assignment tensors are exactly a coordinate-fixed face of the quadric cube."""
    steps = []
    emb = thm1_embedding(n)
    cube = bqp_vertices(n * n)

    def ones(idx):
        return set(cube.vertices[idx])

    def gsum(idx, group):
        o = ones(idx)
        return sum(1 for off in group if off in o)

    zero_face = face_by_equations(cube, emb.row_zero_fixings)
    valid = all(r.attained for r in zero_face.equations)
    cert_ok = zero_face.certificate is not None
    steps.append(
        Step(
            "same-row zero fixings cut a face",
            "each fixed coordinate is nonnegative on every vertex and vanishes on some vertex",
            valid and cert_ok,
            {"face_vertices": len(zero_face.subset)},
            certificate=zero_face.certificate.to_json(zero_face.subset) if cert_ok else None,
        )
    )
    f1 = list(zero_face.subset)
    rows_le = all(all(gsum(i, g) <= 1 for g in emb.row_sum_groups) for i in f1)
    steps.append(
        Step(
            "row sums at most one on the zero-fixed face",
            "with the same-row products gone, each generator row carries at most one 1",
            rows_le,
            {"checked_vertices": len(f1)},
        )
    )
    f2 = [i for i in f1 if all(gsum(i, g) == 1 for g in emb.row_sum_groups)]
    f3_by_zeros = [
        i for i in f2 if all(off not in ones(i) for off, _ in emb.col_zero_fixings)
    ]
    f3_by_sums = [i for i in f2 if all(gsum(i, g) == 1 for g in emb.col_sum_groups)]
    steps.append(
        Step(
            "column equations agree with their coordinate form",
            "on the row-stochastic face, vanishing same-column products select exactly "
            "the vertices with all column sums equal to one",
            f3_by_zeros == f3_by_sums,
            {"row_stochastic_vertices": len(f2), "final_vertices": len(f3_by_sums)},
        )
    )
    want = set(qap_vertices(n).vertices)
    got = {cube.vertices[i] for i in f3_by_sums}
    steps.append(
        Step(
            "filtered vertices are the assignment tensors",
            "under the shared flat-offset indexing the face vertex set equals the "
            f"assignment vertex set of order {n}",
            got == want and len(f3_by_sums) == factorial(n),
            {"expected": factorial(n), "found": len(f3_by_sums), "cube_vertices": len(cube)},
        )
    )
    return steps


def scenario_lemma1(n: int) -> list[Step]:
    """The order-3 edge polytope sits inside phi(n) as a coordinate-zero face."""
    steps = []
    res = lemma1_face_iso(n)
    vs, face, phi3 = res.vertex_set, res.face, res.extra["phi3"]
    cert_ok = face.certificate is not None
    steps.append(
        Step(
            "face extraction",
            "fixing every coordinate that moves a graph vertex above 3 leaves the "
            "six generators permuting only the first three",
            len(face.subset) == 6 and cert_ok,
            {"face_vertices": len(face.subset)},
            certificate=face.certificate.to_json(face.subset) if cert_ok else None,
        )
    )
    corr = dict(res.correspondence.pairs)
    invertible, label_respecting = _round_trip(res, phi3)
    steps.append(
        Step(
            "mutually inverse affine maps",
            "projection to the low block and the indicator-based reconstruction "
            "compose to the identity on the face",
            invertible,
            {"face_vertices": len(face.subset)},
        )
    )
    steps.append(
        Step(
            "forward image is the order-3 vertex set",
            "each face vertex maps to the edge matrix of its restriction to {1,2,3}",
            label_respecting,
            {},
        )
    )
    h_ok = True
    for vidx in face.subset:
        x3 = phi3.dense(corr[vidx])
        h12 = sum(x3[c] for c in res.extra["h12_cells"]) - 1
        expect = 1 if vs.labels[vidx][0] == "2" else 0
        if h12 != expect or not 0 <= h12 <= 1:
            h_ok = False
    steps.append(
        Step(
            "indicator h12 characterization",
            "the four-cell combination minus one equals 1 exactly on face vertices "
            "whose generator sends 1 to 2, and stays within [0, 1]",
            h_ok,
            {},
        )
    )
    return steps


def scenario_thm2(k: int) -> list[Step]:
    """The Boolean quadric polytope of order k is a face of phi(2k)."""
    steps = []
    res = thm2_face_iso(k)
    vs, face, bqp = res.vertex_set, res.face, res.extra["bqp"]
    cert_ok = face.certificate is not None
    steps.append(
        Step(
            "face extraction",
            "fixing each intra-pair coordinate to one leaves the generators that "
            "swap or fix every pair (2i-1, 2i)",
            len(face.subset) == 2 ** k and cert_ok,
            {"face_vertices": len(face.subset), "expected": 2 ** k},
            certificate=face.certificate.to_json(face.subset) if cert_ok else None,
        )
    )
    invertible, matches = _round_trip(res, bqp)
    steps.append(
        Step(
            "mutually inverse affine maps",
            "the three-coordinate reads and the block-product reconstruction "
            "compose to the identity on the face",
            invertible,
            {},
        )
    )
    steps.append(
        Step(
            "correspondence with quadric vertices",
            "face vertices map onto the tensor squares of the pair-unchanged bit vectors",
            matches,
            {},
        )
    )
    groups_ok = True
    for vidx in face.subset:
        z = vs.dense(vidx)
        for kind, offs in res.extra["consistency_groups"]:
            vals = [z[o] for o in offs]
            if kind == "equal" and len(set(vals)) != 1:
                groups_ok = False
            if kind == "sum1" and sum(vals) != 1:
                groups_ok = False
    steps.append(
        Step(
            "consistency equation groups",
            "all five displayed equality/sum groups hold on every face vertex, "
            "for every block pair",
            groups_ok,
            {"groups": len(res.extra["consistency_groups"])},
        )
    )
    return steps


def scenario_phi_not_3_neighborly(n: int) -> list[Step]:
    """Some triple of edge-permutation vertices is not a face."""
    vs = phi_vertices(n)
    rep = k_neighborly_scan(vs, 3, fix_first=n >= 5, stop_at_first=True)
    found = rep.counterexample_subset is not None
    return [
        Step(
            "counterexample triple",
            "the scan finds a vertex triple whose affine hull meets the convex hull "
            "of the remaining vertices",
            found,
            {
                "subsets_scanned": rep.total_subsets,
                "counterexample": list(rep.counterexample_subset) if found else None,
                "symmetry_reduction": rep.symmetry_reduction,
            },
            certificate=rep.counterexample_witness.to_json(rep.counterexample_subset) if found else None,
        )
    ]


def scenario_qap_3_neighborly(n: int) -> list[Step]:
    """Every assignment-tensor triple is a face."""
    vs = qap_vertices(n)
    fix = n >= 4
    rep = k_neighborly_scan(vs, 3, fix_first=fix)
    expected = comb(factorial(n) - 1, 2) if fix else comb(factorial(n), 3)
    return [
        Step(
            "all triples certified",
            "every scanned triple admits a supporting hyperplane with positive gap",
            rep.is_k_neighborly and rep.total_subsets == expected,
            {
                "subsets_scanned": rep.total_subsets,
                "faces_certified": rep.faces_certified,
                "expected_subsets": expected,
                "symmetry_reduction": rep.symmetry_reduction,
            },
        )
    ]


def scenario_nonisomorphism(n: int) -> list[Step]:
    """The two n!-vertex families are not isomorphic, affinely or facially."""
    if n != 3:
        raise ValueError("the exhaustive bijection search is sized for n = 3")
    steps = []
    qs, ps = qap_vertices(3), phi_vertices(3)
    qctx, pctx = FaceContext(qs), FaceContext(ps)
    qrep = k_neighborly_scan(qs, 3, ctx=qctx)
    steps.append(
        Step(
            "assignment triples are all faces",
            "all 20 triples of the 6 assignment tensors are certified faces",
            qrep.is_k_neighborly and qrep.total_subsets == 20,
            {"faces_certified": qrep.faces_certified},
        )
    )
    prep = k_neighborly_scan(ps, 3, ctx=pctx)
    wit_ok = prep.counterexample_subset is not None
    steps.append(
        Step(
            "edge-permutation counterexample triple",
            "the even-generator triple shares its barycenter with the odd triple, "
            "so it is not a face",
            wit_ok,
            {"counterexample": list(prep.counterexample_subset) if wit_ok else None},
            certificate=prep.counterexample_witness.to_json(prep.counterexample_subset)
            if wit_ok
            else None,
        )
    )
    steps.append(
        Step(
            "face-structure distinction",
            "one family is 3-neighborly and the other is not, so no bijection can "
            "preserve the face lattice",
            qrep.is_k_neighborly and prep.counterexample_subset is not None,
            {},
        )
    )
    dim_q, dim_p = qctx.frame.dim, pctx.frame.dim
    steps.append(
        Step(
            "hull dimension gap",
            "the affine hulls have different dimensions",
            dim_q == 5 and dim_p == 4,
            {"assignment_hull_dim": dim_q, "edge_hull_dim": dim_p},
        )
    )
    search = brute_force_iso_search(qs, ps)
    steps.append(
        Step(
            "exhaustive bijection search",
            "no affine isomorphism exists under any of the 720 vertex bijections",
            (not search.found) and search.tried == 720,
            {"bijections_tried": search.tried},
        )
    )
    return steps


def scenario_corollary_3n_face(k: int) -> list[Step]:
    """phi(2k) has a 3-neighborly face with 2^k vertices."""
    steps = []
    res = thm2_face_iso(k)
    vs, face = res.vertex_set, res.face
    n2 = 2 * k
    steps.append(
        Step(
            "face size",
            f"the pair-fixing face of the order-{n2} polytope has 2^({n2}//2) vertices",
            len(face.subset) == 2 ** (n2 // 2),
            {"face_vertices": len(face.subset)},
        )
    )
    standalone = VertexSet(
        scheme=vs.scheme,
        labels=tuple(vs.labels[i] for i in face.subset),
        vertices=tuple(vs.vertices[i] for i in face.subset),
    )
    # one support LP per triple: these certificates serve both steps below
    ctx = FaceContext(standalone)
    triples = list(combinations(range(len(standalone)), 3))
    inner = [is_face(standalone, triple, ctx) for triple in triples]
    faces_certified = sum(isinstance(cert, FaceCertificate) for cert in inner)
    steps.append(
        Step(
            "standalone 3-neighborliness",
            "every triple of face vertices is a face of the face polytope",
            faces_certified == len(triples),
            {"triples": len(triples), "faces_certified": faces_certified},
        )
    )
    lifted_count = 0
    for triple, cert in zip(triples, inner):
        if not isinstance(cert, FaceCertificate):
            break
        compose_with_face(vs, face, triple, cert)
        lifted_count += 1
    steps.append(
        Step(
            "triples remain faces of the whole polytope",
            "each standalone certificate composes with the pair-fixing functional "
            f"into a hyperplane supporting the triple against all {len(vs)} vertices",
            lifted_count == comb(2 ** k, 3),
            {"lifted_certificates": lifted_count},
        )
    )
    if k == 2:
        full = FaceContext(vs)
        direct_ok = all(
            isinstance(is_face(vs, [face.subset[i] for i in triple], full), FaceCertificate)
            for triple in triples
        )
        steps.append(
            Step(
                "direct cross-check",
                "the same triples certified by full LPs over all 24 vertices",
                direct_ok,
                {},
            )
        )
    return steps


# name -> (scenario, parameter name, lowest and highest desk-scale value);
# the CLI refuses values outside the range unless forced.
SCENARIOS = {
    "thm1": (scenario_thm1, "n", 2, 3),
    "prop1": (scenario_prop1, "n", 3, 5),
    "lemma1": (scenario_lemma1, "n", 4, 5),
    "thm2": (scenario_thm2, "k", 2, 3),
    "phi-not-3-neighborly": (scenario_phi_not_3_neighborly, "n", 3, 6),
    "qap-3-neighborly": (scenario_qap_3_neighborly, "n", 3, 6),
    "nonisomorphism": (scenario_nonisomorphism, "n", 3, 3),
    "corollary-3n-face": (scenario_corollary_3n_face, "k", 2, 3),
}


def run_scenario(name: str, param: int) -> Report:
    """Run one scenario and time it; every scenario takes its parameter and returns its steps."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    func, param_name, _, _ = SCENARIOS[name]
    t0 = time.monotonic()
    steps = func(param)
    return Report(name, {param_name: param}, steps, time.monotonic() - t0)
