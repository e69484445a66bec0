"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every test also asserts its stated wall-clock budget.  The n = 5
edge-permutation scan solves one LP per symmetry orbit and takes about a
second.
"""

import json
import random
import time
from fractions import Fraction as Q
from itertools import combinations
from math import comb

import pytest
from oracles import lp_solve, make_lp, verify_lp_certificate, witness_oracle_is_face

from polyface.cli import main as cli_main
from polyface.exactmath import affine_dependencies, affine_hull_frame
from polyface.faces import (
    FaceCertificate,
    FaceContext,
    is_face,
    k_neighborly_scan,
    verify_nonface_witness,
)
from polyface.families import VertexSet, bqp_vertices, phi_vertices, qap_vertices
from polyface.scenarios import run_scenario

PHI3_MATRICES = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
]


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.criterion}: {status} ({elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_phi3_structure(tmp_path):
    with Budget(1, 1.0):
        path = tmp_path / "phi3.json"
        assert cli_main(["generate", "--family", "phi", "--n", "3", "--out", str(path)]) == 0
        vs = VertexSet.load(path)
        assert len(vs) == 6
        for idx, want in enumerate(PHI3_MATRICES):
            dense = vs.dense(idx)
            got = tuple(tuple(dense[r * 3 + c] for c in range(3)) for r in range(3))
            assert got == want
        deps = affine_dependencies(vs.dense_all())
        assert deps == [(1, 1, 1, -1, -1, -1)]


def test_criterion_02_nonface_triple(tmp_path):
    with Budget(2, 1.0):
        vpath = tmp_path / "phi3.json"
        cpath = tmp_path / "witness.json"
        assert cli_main(["generate", "--family", "phi", "--n", "3", "--out", str(vpath)]) == 0
        code = cli_main(
            ["face", "--vertices", str(vpath), "--subset", "0,1,2", "--out", str(cpath)]
        )
        assert code == 1
        wit = json.loads(cpath.read_text())
        assert wit["kind"] == "nonface"
        assert all(x == "1/3" for x in wit["point"])
        assert wit["alpha"] == ["1/3", "1/3", "1/3"]
        assert wit["mu"] == ["1/3", "1/3", "1/3"]
        # independent re-verification
        assert cli_main(["check", "--vertices", str(vpath), "--certificate", str(cpath)]) == 0


@pytest.mark.parametrize(
    "n,budget,fix_first",
    [(3, 1.0, False), (4, 30.0, False), (5, 600.0, True)],
    ids=["n3", "n4", "n5"],
)
def test_criterion_03_phi_not_3_neighborly(tmp_path, n, budget, fix_first):
    with Budget(f"3(n={n})", budget):
        vpath = tmp_path / f"phi{n}.json"
        rpath = tmp_path / f"report{n}.json"
        assert cli_main(["generate", "--family", "phi", "--n", str(n), "--out", str(vpath)]) == 0
        argv = [
            "neighborly", "--vertices", str(vpath), "--k", "3",
            "--stop-at-first", "--out", str(rpath),
        ]
        if fix_first:
            argv.append("--fix-first")
        assert cli_main(argv) == 1
        report = json.loads(rpath.read_text())
        assert report["counterexample"] is not None
        wpath = tmp_path / f"witness{n}.json"
        wpath.write_text(json.dumps(report["counterexample"]))
        assert cli_main(["check", "--vertices", str(vpath), "--certificate", str(wpath)]) == 0


@pytest.mark.parametrize("n,budget", [(3, 5.0), (4, 300.0)], ids=["n3", "n4"])
def test_criterion_04_qap_3_neighborly(n, budget):
    with Budget(f"4(n={n})", budget):
        vs = qap_vertices(n)
        rep = k_neighborly_scan(vs, 3, fix_first=(n == 4))
        assert rep.is_k_neighborly
        expected = 20 if n == 3 else comb(23, 2)
        assert rep.total_subsets == expected == rep.faces_certified


def test_criterion_05_bqp_3_neighborly():
    with Budget(5, 120.0):
        for m in (2, 3, 4):
            vs = bqp_vertices(m)
            rep = k_neighborly_scan(vs, 3)
            assert rep.is_k_neighborly
            assert rep.total_subsets == comb(2 ** m, 3)


def test_criterion_06_quadric_face_filtering():
    with Budget(6, 10.0):
        for n in (2, 3):
            rep = run_scenario("thm1", n)
            assert rep.passed
            final_step = rep.steps[-1]
            assert final_step.details["cube_vertices"] == 2 ** (n * n)
            assert final_step.details["found"] == (2 if n == 2 else 6)


def test_criterion_07_projection():
    with Budget(7, 5.0):
        for n in (3, 4, 5):
            rep = run_scenario("prop1", n)
            assert rep.passed


def test_criterion_08_lemma1_face_iso():
    with Budget(8, 5.0):
        for n in (4, 5):
            rep = run_scenario("lemma1", n)
            assert rep.passed
            assert rep.steps[0].details["face_vertices"] == 6


def test_criterion_09_thm2_face_iso():
    with Budget(9, 10.0):
        for k in (2, 3):
            rep = run_scenario("thm2", k)
            assert rep.passed
            assert rep.steps[0].details["face_vertices"] == 2 ** k


def test_criterion_10_corollary_3n_face():
    with Budget(10, 120.0):
        for k in (2, 3):
            rep = run_scenario("corollary-3n-face", k)
            assert rep.passed
            lifted = next(s for s in rep.steps if s.name == "triples remain faces of the whole polytope")
            assert lifted.details["lifted_certificates"] == comb(2 ** k, 3)


def test_criterion_11_nonisomorphism():
    with Budget(11, 30.0):
        rep = run_scenario("nonisomorphism", 3)
        assert rep.passed
        search = next(s for s in rep.steps if s.name == "exhaustive bijection search")
        assert search.details["bijections_tried"] == 720
        dims = next(s for s in rep.steps if s.name == "hull dimension gap")
        assert dims.details == {"assignment_hull_dim": 5, "edge_hull_dim": 4}


def _random_small_lp(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    cons = []
    for _ in range(m):
        coeffs = tuple(Q(rng.randint(-4, 4)) for _ in range(n))
        cons.append((coeffs, rng.choice(("<=", ">=", "=")), Q(rng.randint(-5, 5))))
    lower = [rng.choice([None, Q(-4), Q(0)]) for _ in range(n)]
    upper = []
    for lo in lower:
        hi = rng.choice([None, Q(4), Q(6)])
        if lo is not None and hi is not None and hi < lo:
            hi = lo
        upper.append(hi)
    return make_lp([Q(rng.randint(-5, 5)) for _ in range(n)], cons, lower=lower, upper=upper)


def test_criterion_12a_lp_determinism_and_self_verification():
    with Budget("12a", 240.0):
        rng = random.Random(20240817)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(1000):
            lp = _random_small_lp(rng)
            first = lp_solve(lp)
            assert verify_lp_certificate(lp, first)
            again = lp_solve(lp)
            assert again == first
            statuses[first.status] += 1
        assert all(v > 0 for v in statuses.values())


def test_criterion_12b_oracle_equivalence():
    with Budget("12b", 300.0):
        sets = [phi_vertices(3), qap_vertices(3), bqp_vertices(2), bqp_vertices(3)]
        total = 0
        for vs in sets:
            ctx = FaceContext(vs)
            n = len(vs)
            for size in range(1, n):
                for subset in combinations(range(n), size):
                    primary = is_face(vs, subset, ctx)
                    oracle = witness_oracle_is_face(vs, subset)
                    assert isinstance(primary, FaceCertificate) == oracle
                    total += 1
        assert total == 62 + 62 + 14 + 254
