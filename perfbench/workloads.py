"""The three benchmark workloads, their inputs and their correctness gates.

Each workload has a set-up (timed as ``setup_s``), a pass (the timed
work, always the same for a given seed) and checks that run after each
set-up and each pass, outside their timing.

Inputs come from the seed only.  For ``phi5-facetest`` and
``small-scans`` the seed picks a symmetry of the vertex family that fixes
vertex 0 (conjugation by a permutation, optionally followed by
inversion, for qap and phi; a permutation of the bits for bqp) and
reorders the vertices by it.  Such a reordering permutes the ambient
coordinates, so the affine-hull frame gives every vertex position the
same frame coordinates and every LP is the same for every seed: the
program sees a different vertex order, but the work is fixed.  Face-test
cost varies about tenfold between triples of one symmetry orbit, so
independently sampled triples would need about 150 phi(5) tests per run
for a steady mean.  ``cold-verify`` builds its context from the file that
``polyface generate`` writes, so there the seed picks the qap(5) triple.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from pathlib import Path

from polyface import cli, faces, families

# phi(5) face-test design: triples (0, i, j) by vertex position.  Drawn
# once with random.Random(1705) from all pairs, plus (3, 4), the first
# non-face of the fix-first scan; it is the only non-face among them.
PHI5_PAIRS = (
    (1, 20), (3, 4), (4, 75), (6, 93), (7, 86), (7, 106), (34, 116), (35, 63),
    (42, 90), (45, 59), (49, 85), (49, 100), (49, 105), (51, 54), (55, 76),
    (66, 115), (67, 77), (76, 87), (76, 100), (84, 113), (87, 115), (99, 111),
    (103, 115), (104, 107),
)
PHI4_PAIRS = ((1, 2), (3, 4), (5, 9), (8, 12), (10, 20))  # (3, 4) and (8, 12) are non-faces


class Gate:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    """Set-up, pass and checks of one workload; see the module docstring."""

    name: str
    active: tuple[str, ...]  # spans a traced run must record

    def check_setup(self, state, gate: Gate) -> None:
        """Check what one set-up produced; most set-ups produce no verdict."""


def _inverse(p: list[int]) -> list[int]:
    inv = [0] * len(p)
    for i, img in enumerate(p, start=1):
        inv[img - 1] = i
    return inv


def symmetric_order(vs, rng: random.Random):
    """vs reordered by a seeded coordinate symmetry that keeps vertex 0 first."""
    n = vs.scheme.n
    if vs.scheme.family == "bqp":
        bits = list(range(n))
        rng.shuffle(bits)

        def image(label: str) -> str:
            return "".join(label[b] for b in bits)

    else:
        g = list(range(1, n + 1))
        rng.shuffle(g)
        g_inv = _inverse(g)
        invert = rng.random() < 0.5

        def image(label: str) -> str:
            p = [int(c) for c in label]
            s = [g_inv[p[g[i] - 1] - 1] for i in range(n)]  # g^-1 . p . g
            return "".join(map(str, _inverse(s) if invert else s))

    index = {label: i for i, label in enumerate(vs.labels)}
    order = [index[image(label)] for label in vs.labels]
    if order[0] != 0:
        raise RuntimeError("the symmetry moved vertex 0")
    return families.VertexSet(
        vs.scheme,
        tuple(vs.labels[i] for i in order),
        tuple(vs.vertices[i] for i in order),
    )


def _through_file(vs, path: Path):
    """The program reads its input from a vertex file, as a user's would."""
    vs.save(path)
    return families.VertexSet.load(path)


def check_face_tests(tests, gate: Gate) -> None:
    """Re-verify every certificate is_face returned, by substitution."""
    for t in tests:
        if isinstance(t.result, faces.FaceCertificate):
            ok = faces.verify_face_certificate(t.vs, t.subset, t.result)
        elif isinstance(t.result, faces.NonFaceWitness):
            ok = faces.verify_nonface_witness(t.vs, t.subset, t.result)
        else:
            ok = False
        gate.expect(ok, f"is_face{t.subset}: {t.result!r}"[:300])


def check_unprobed(errors, tests, gate: Gate) -> None:
    """Count the exceptions that the is_face probe has not already
    recorded, so that one failed operation counts once."""
    probed = {id(t.result) for t in tests}
    for exc in errors:
        if id(exc) not in probed:
            gate.expect(False, "".join(traceback.format_exception(exc))[-300:])


def _nonfaces(tests) -> int:
    return sum(isinstance(t.result, faces.NonFaceWitness) for t in tests)


class Phi5FaceTest(Workload):
    """is_face on a fixed design of phi(5) triples through vertex 0.

    Closed loop with one caller: the next test starts when the previous
    one returns.  The context is built once, in set-up.
    """

    name = "phi5-facetest"
    active = (
        "families.phi_vertices", "families.VertexSet.save", "families.VertexSet.load",
        "faces.FaceContext.__init__", "exactmath.affine_hull_frame", "faces.is_face",
        "simplex.lp_solve", "faces.verify_face_certificate", "faces.verify_nonface_witness",
    )

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n = 4 if tiny else 5
        self.triples = tuple((0, i, j) for i, j in (PHI4_PAIRS if tiny else PHI5_PAIRS))
        self.nonfaces = 2 if tiny else 1

    def setup(self, workdir: Path):
        vs = symmetric_order(families.phi_vertices(self.n), random.Random(self.seed))
        vs = _through_file(vs, workdir / "phi.json")
        return vs, faces.FaceContext(vs)

    def run_pass(self, state):
        vs, ctx = state
        errors = []
        for t in self.triples:
            try:
                faces.is_face(vs, t, ctx)
            except Exception as exc:
                errors.append(exc)
        return errors

    def check(self, state, errors, tests, gate: Gate) -> None:
        check_unprobed(errors, tests, gate)
        check_face_tests(tests, gate)
        gate.expect(
            [t.subset for t in tests] == list(self.triples), "face tests differ from the design"
        )
        gate.expect(_nonfaces(tests) == self.nonfaces, f"expected {self.nonfaces} non-faces")


class SmallScans(Workload):
    """k_neighborly_scan(k=3) on three small vertex sets, contexts from set-up."""

    name = "small-scans"
    active = (
        "families.generate", "families.VertexSet.save", "families.VertexSet.load",
        "faces.FaceContext.__init__", "exactmath.affine_hull_frame", "faces.k_neighborly_scan",
        "faces.is_face", "simplex.lp_solve", "faces.verify_face_certificate",
        "faces.verify_nonface_witness",
    )

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        # (family, n, fix_first, subsets, faces): the known verdicts
        if tiny:
            self.specs = (("qap", 3, True, 10, 10), ("phi", 3, True, 10, 9), ("bqp", 3, False, 56, 56))
        else:
            self.specs = (
                ("qap", 4, True, 253, 253), ("phi", 4, True, 253, 249), ("bqp", 4, False, 560, 560)
            )

    def setup(self, workdir: Path):
        rng = random.Random(self.seed)
        state = []
        for family, n, *_ in self.specs:
            vs = symmetric_order(families.generate(family, n), rng)
            vs = _through_file(vs, workdir / f"{family}{n}.json")
            state.append((vs, faces.FaceContext(vs)))
        return state

    def run_pass(self, state):
        reports = []
        for (vs, ctx), (_, _, fix_first, *_) in zip(state, self.specs):
            try:
                reports.append(faces.k_neighborly_scan(vs, 3, fix_first=fix_first, ctx=ctx))
            except Exception as exc:
                reports.append(exc)
        return reports

    def check(self, state, reports, tests, gate: Gate) -> None:
        check_face_tests(tests, gate)
        check_unprobed([rep for rep in reports if isinstance(rep, Exception)], tests, gate)
        for (vs, _), spec, rep in zip(state, self.specs, reports):
            family, n, _, subsets, certified = spec
            if isinstance(rep, Exception):
                continue
            gate.expect(
                (rep.total_subsets, rep.faces_certified) == (subsets, certified),
                f"{family}({n}): {rep.faces_certified}/{rep.total_subsets} faces, "
                f"expected {certified}/{subsets}",
            )
            if certified < subsets:
                gate.expect(
                    rep.counterexample_subset is not None
                    and faces.verify_nonface_witness(
                        vs, rep.counterexample_subset, rep.counterexample_witness
                    ),
                    f"{family}({n}): counterexample missing or unverified",
                )


class ColdVerify(Workload):
    """The cold user path through cli.main, in process, with files on disk.

    Set-up is ``polyface generate``, which writes the vertex file.  The
    pass runs ``face`` and ``check`` on that file and then the ``verify``
    scenarios.  Every command rebuilds what it needs from its input
    files, so no context is shared between commands.
    """

    name = "cold-verify"
    active = (
        "cli.main", "cli.cmd_generate", "cli.cmd_face", "cli.cmd_check", "cli.cmd_verify",
        "scenarios.run_scenario", "maps.brute_force_iso_search", "exactmath.affine_dependencies",
        "exactmath.affine_hull_frame", "families.generate", "families.VertexSet.save",
        "families.VertexSet.load", "faces.FaceContext.__init__", "faces.k_neighborly_scan",
        "faces.is_face", "simplex.lp_solve", "faces.verify_face_certificate",
        "faces.verify_nonface_witness",
    )
    SCENARIOS = ("thm1", "prop1", "lemma1", "thm2", "nonisomorphism", "corollary-3n-face")

    def __init__(self, seed: int, tiny: bool = False):
        """The reference vertex set for the gate, and the seeded face triple.

        The triple is the identity and two transpositions, one of the 45
        such triples.  Their LP part costs 0.25 to 2.8 s on qap(5), against
        0.3 to 5 s for arbitrary triples through the identity, which would
        leave wall_s, mostly the 15 s context build, with a seed-to-seed
        spread of about 0.12.
        """
        self.n = 3 if tiny else 5
        # scenario -> (parameter flag, value), inside each CLI guard
        self.params = {
            "thm1": ("--n", 2 if tiny else 3),
            "prop1": ("--n", 3 if tiny else 5),
            "lemma1": ("--n", 4 if tiny else 5),
            "thm2": ("--k", 2 if tiny else 3),
            "nonisomorphism": ("--n", 3),
            "corollary-3n-face": ("--k", 2 if tiny else 3),
        }
        self.ref = families.qap_vertices(self.n)
        swaps = [i for i, label in enumerate(self.ref.labels) if sum(
            int(c) != k for k, c in enumerate(label, start=1)) == 2]
        i, j = sorted(random.Random(seed).sample(swaps, 2))
        self.triple = (0, i, j)

    def setup(self, workdir: Path):
        gen = workdir / "qap.json"
        return workdir, _cli(["generate", "--family", "qap", "--n", str(self.n), "--out", str(gen)])

    def check_setup(self, state, gate: Gate) -> None:
        workdir, code = state
        gate.expect(code == 0, f"generate: exit {code!r}")
        try:
            gen = families.VertexSet.load(workdir / "qap.json")
            same = (gen.labels, gen.vertices) == (self.ref.labels, self.ref.vertices)
        except (OSError, ValueError, KeyError):
            same = False
        gate.expect(same, "generated vertex file missing or different from qap_vertices")

    def commands(self, workdir: Path):
        gen, cert = str(workdir / "qap.json"), str(workdir / "cert.json")
        cmds = [
            ["face", "--vertices", gen, "--subset", ",".join(map(str, self.triple)), "--out", cert],
            ["check", "--vertices", gen, "--certificate", cert],
        ]
        for name in self.SCENARIOS:
            flag, value = self.params[name]
            cmds.append(["verify", name, flag, str(value), "--out", str(workdir / f"{name}.json")])
        return cmds

    def run_pass(self, state):
        workdir, _ = state
        return [_cli(argv) for argv in self.commands(workdir)]

    def check(self, state, codes, tests, gate: Gate) -> None:
        workdir, _ = state
        check_face_tests(tests, gate)
        for argv, code in zip(self.commands(workdir), codes):
            gate.expect(code == 0, f"{' '.join(argv[:2])}: exit {code!r}")
        try:
            subset, cert = faces.certificate_from_json(_read_json(workdir / "cert.json"))
            ok = (
                subset == self.triple
                and isinstance(cert, faces.FaceCertificate)
                and faces.verify_face_certificate(self.ref, subset, cert)
            )
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        gate.expect(ok, f"face certificate for {self.triple} missing or unverified")
        for name in self.SCENARIOS:
            try:
                report = _read_json(workdir / f"{name}.json")
                ok = report["scenario"] == name and report["passed"] is True
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            gate.expect(ok, f"scenario {name} report missing or not passed")


def _cli(argv: list[str]):
    """Exit code of ``polyface <argv>`` run in process, or the traceback
    of an exception that escaped it."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        return traceback.format_exc()


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (Phi5FaceTest, SmallScans, ColdVerify)}
