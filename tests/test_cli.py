import hashlib
import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyface import cli
from polyface.cli import main
from polyface.exactmath import affine_dependencies
from polyface.faces import NeighborlinessReport
from polyface.families import MAX_DENSE_CELLS, VertexSet, generate
from polyface.scenarios import SCENARIOS

# certificates `polyface face` writes for phi(3): {0, 1} is a face, {0, 1, 2} is not
PHI3_FACE = {
    "kind": "face",
    "subset": [0, 1],
    "frame": "ambient",
    "a": ["1/5", "-1/5", "0", "2/5", "1/5", "0", "0", "0", "0"],
    "b": "2/5",
    "epsilon": "1/5",
}
PHI3_NONFACE = {
    "kind": "nonface",
    "subset": [0, 1, 2],
    "alpha": ["1/3"] * 3,
    "mu": ["1/3"] * 3,
    "point": ["1/3"] * 9,
}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_phi3(tmp_path, capsys):
    path = tmp_path / "phi3.json"
    code, out, _ = run(["generate", "--family", "phi", "--n", "3", "--out", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert data["family"] == "phi"
    assert data["ambient_dim"] == 9
    assert len(data["vertices"]) == 6
    assert data["labels"] == ["123", "231", "312", "321", "213", "132"]


def test_generate_guard_and_force(tmp_path, capsys):
    path = tmp_path / "big.json"
    code, _, err = run(["generate", "--family", "qap", "--n", "8", "--out", str(path)], capsys)
    assert code == 2
    assert "--force" in err
    code, _, _ = run(["generate", "--family", "bqp", "--n", "2", "--out", str(path)], capsys)
    assert code == 0


def test_generate_warns_only_past_the_guard(tmp_path, capsys, monkeypatch):
    path = tmp_path / "qap.json"
    code, _, err = run(["generate", "--family", "qap", "--n", "6", "--out", str(path)], capsys)
    assert (code, err) == (0, "")
    monkeypatch.setitem(cli.GENERATE_GUARDS, "qap", 6)  # the warning without generating qap(8)
    code, _, err = run(["generate", "--family", "qap", "--n", "7", "--force", "--out", str(path)], capsys)
    assert (code, err) == (0, "warning: qap(7) has 5,040 vertices; generation may be slow\n")


def test_generate_below_the_family_minimum_is_an_error(tmp_path, capsys):
    path = tmp_path / "phi2.json"
    code, out, err = run(["generate", "--family", "phi", "--n", "2", "--out", str(path)], capsys)
    assert code == 2
    assert (out, err) == ("", "error: phi needs n >= 3\n")
    assert not path.exists()


def test_generate_bad_family_guarded_by_argparse(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--family", "tsp", "--n", "3", "--out", str(tmp_path / "x.json")])


def test_face_nonface_exit_codes_and_check(tmp_path, capsys):
    vpath = tmp_path / "phi3.json"
    run(["generate", "--family", "phi", "--n", "3", "--out", str(vpath)], capsys)

    cpath = tmp_path / "wit.json"
    code, out, _ = run(
        ["face", "--vertices", str(vpath), "--subset", "0,1,2", "--out", str(cpath)], capsys
    )
    assert code == 1
    wit = json.loads(cpath.read_text())
    assert wit["kind"] == "nonface"
    assert wit["alpha"] == ["1/3", "1/3", "1/3"]
    assert set(wit["point"]) == {"1/3"}

    code, _, _ = run(["check", "--vertices", str(vpath), "--certificate", str(cpath)], capsys)
    assert code == 0

    fpath = tmp_path / "cert.json"
    code, _, _ = run(
        ["face", "--vertices", str(vpath), "--subset", "0", "--out", str(fpath)], capsys
    )
    assert code == 0
    cert = json.loads(fpath.read_text())
    assert cert["kind"] == "face"
    code, _, _ = run(["check", "--vertices", str(vpath), "--certificate", str(fpath)], capsys)
    assert code == 0


def test_check_rejects_tampered_epsilon(tmp_path, capsys):
    vpath = tmp_path / "qap3.json"
    run(["generate", "--family", "qap", "--n", "3", "--out", str(vpath)], capsys)
    cpath = tmp_path / "cert.json"
    code, _, _ = run(
        ["face", "--vertices", str(vpath), "--subset", "0,1,2", "--out", str(cpath)], capsys
    )
    assert code == 0
    data = json.loads(cpath.read_text())
    data["epsilon"] = "-" + data["epsilon"]
    cpath.write_text(json.dumps(data))
    code, out, _ = run(["check", "--vertices", str(vpath), "--certificate", str(cpath)], capsys)
    assert code == 1


def _negative_mu(wit, vs):
    """mu plus a multiple of an affine dependency among the other vertices that takes one entry to -1: both sums
    and the point are kept."""
    others = [t for t in range(len(vs)) if t not in wit["subset"]]
    dep = affine_dependencies([vs.dense(t) for t in others])[0]
    mu = [Q(x) for x in wit["mu"]]
    i = next(i for i, d in enumerate(dep) if d)
    lam = -(mu[i] + 1) / dep[i]
    wit["mu"] = [str(x + lam * d) for x, d in zip(mu, dep)]
    assert min(map(Q, wit["mu"])) == -1 and sum(map(Q, wit["mu"])) == 1


def _raised_alpha_at_the_zero_vertex(wit, vs):
    """alpha raised by 1 at vertex 0 of bqp, the zero vector: the combination is kept, but alpha sums to 2."""
    assert wit["subset"][0] == 0 and not vs.vertices[0]
    wit["alpha"][0] = str(Q(wit["alpha"][0]) + 1)


def _point_off_in_one_entry(wit, vs):
    wit["point"][0] = str(Q(wit["point"][0]) + 1)


@pytest.mark.parametrize(
    "family, n, subset, tamper",
    [
        ("phi", 4, "0,3,4", _negative_mu),
        ("bqp", 3, "0,1,2,3,4,5,6", _raised_alpha_at_the_zero_vertex),
        ("phi", 4, "0,3,4", _point_off_in_one_entry),
    ],
    ids=["negative-mu", "alpha-sum", "point"],
)
def test_check_refuses_a_witness_that_breaks_one_condition(tmp_path, capsys, family, n, subset, tamper):
    """A non-face witness that `face` writes passes `check`; with one condition broken and the others kept
    (mu >= 0, sum alpha = 1, the stored point), check exits 1."""
    vpath, wpath = tmp_path / "vertices.json", tmp_path / "wit.json"
    run(["generate", "--family", family, "--n", str(n), "--out", str(vpath)], capsys)
    assert run(["face", "--vertices", str(vpath), "--subset", subset, "--out", str(wpath)], capsys)[0] == 1
    assert run(["check", "--vertices", str(vpath), "--certificate", str(wpath)], capsys)[0] == 0
    wit = json.loads(wpath.read_text())
    tamper(wit, generate(family, n))
    wpath.write_text(json.dumps(wit))
    code, out, _ = run(["check", "--vertices", str(vpath), "--certificate", str(wpath)], capsys)
    assert code == 1, out


def _gap_too_wide(cert, vs):
    """epsilon 1 above the gap to the nearest other vertex: the subset's values still equal b."""
    values = [sum((Q(cert["a"][o]) for o in v), Q(0)) for v in vs.vertices]
    nearest = max(x for t, x in enumerate(values) if t not in cert["subset"])
    cert["epsilon"] = str(Q(cert["b"]) - nearest + 1)


def _offset_raised(cert, vs):
    """b raised by 1: every other vertex is then further below b - epsilon, but the subset is off b."""
    cert["b"] = str(Q(cert["b"]) + 1)


def _zero_epsilon(cert, vs):
    cert["epsilon"] = "0"


@pytest.mark.parametrize("tamper", [_gap_too_wide, _offset_raised, _zero_epsilon], ids=["gap", "offset", "eps-zero"])
def test_check_refuses_a_certificate_that_breaks_one_condition(tmp_path, capsys, tamper):
    """A face certificate that `face` writes passes `check`; with one condition broken and the others kept
    (the gap to every other vertex, a . v = b on the subset, epsilon > 0), check exits 1."""
    vpath, cpath = tmp_path / "vertices.json", tmp_path / "cert.json"
    run(["generate", "--family", "qap", "--n", "3", "--out", str(vpath)], capsys)
    assert run(["face", "--vertices", str(vpath), "--subset", "0,1,2", "--out", str(cpath)], capsys)[0] == 0
    assert run(["check", "--vertices", str(vpath), "--certificate", str(cpath)], capsys)[0] == 0
    cert = json.loads(cpath.read_text())
    tamper(cert, generate("qap", 3))
    cpath.write_text(json.dumps(cert))
    code, out, _ = run(["check", "--vertices", str(vpath), "--certificate", str(cpath)], capsys)
    assert code == 1, out


def test_check_mismatched_ambient_dim_is_an_error(tmp_path, capsys):
    v3 = tmp_path / "phi3.json"
    v4 = tmp_path / "phi4.json"
    run(["generate", "--family", "phi", "--n", "3", "--out", str(v3)], capsys)
    run(["generate", "--family", "phi", "--n", "4", "--out", str(v4)], capsys)
    cpath = tmp_path / "cert.json"
    run(["face", "--vertices", str(v3), "--subset", "0", "--out", str(cpath)], capsys)
    code, _, err = run(["check", "--vertices", str(v4), "--certificate", str(cpath)], capsys)
    assert code == 2
    assert "dimension" in err


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "face", "subset": [0], "a": ["1/0"] + ["0"] * 8, "b": "0", "epsilon": "1"},
        [{"kind": "face", "subset": [0]}],
        {**PHI3_FACE, "b": float("inf")},
        {**PHI3_FACE, "subset": [False, True]},
        {**PHI3_FACE, "subset": [0.0, 1]},
        {**PHI3_FACE, "subset": "01"},
        {**PHI3_FACE, "a": [0.2, -0.2, 0, 0.4, 0.2, 0, 0, 0, 0]},
        {**PHI3_FACE, "a": "123456789"},
        {**PHI3_FACE, "b": 0.4},
        {**PHI3_FACE, "epsilon": True},
        {**PHI3_NONFACE, "alpha": [0.5, 0.25, 0.25]},
        {**PHI3_NONFACE, "mu": [True, False, False]},
        {**PHI3_FACE, "epsilon": "1e1000000"},
        {**PHI3_FACE, "b": "0.4"},
        {**PHI3_FACE, "a": [" 1/5"] + PHI3_FACE["a"][1:]},
        {**PHI3_NONFACE, "alpha": ["1_0", "0", "0"]},
    ],
    ids=[
        "zero-denominator",
        "top-level-list",
        "infinite-offset",
        "boolean-subset",
        "float-subset",
        "string-subset",
        "float-normal",
        "string-normal",
        "float-offset",
        "boolean-epsilon",
        "float-alpha",
        "boolean-mu",
        "exponent-epsilon",
        "decimal-offset",
        "padded-normal",
        "underscore-alpha",
    ],
)
def test_check_malformed_certificate_is_an_error(tmp_path, capsys, data):
    vpath = tmp_path / "phi3.json"
    run(["generate", "--family", "phi", "--n", "3", "--out", str(vpath)], capsys)
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(data))
    code, _, err = run(["check", "--vertices", str(vpath), "--certificate", str(cpath)], capsys)
    assert code == 2
    assert "malformed certificate" in err


@pytest.fixture(scope="module")
def phi3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("phi3") / "phi3.json"
    assert main(["generate", "--family", "phi", "--n", "3", "--out", str(path)]) == 0
    return path


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=10) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
spoiled_certificates = st.sampled_from([PHI3_FACE, PHI3_NONFACE]).flatmap(
    lambda cert: st.builds(
        lambda key, value: {**cert, key: value}, st.sampled_from(sorted(cert)), json_values
    )
)


@settings(max_examples=60, deadline=None)
@given(spoiled_certificates)
@example({**PHI3_FACE, "b": float("inf")})
@example({**PHI3_FACE, "subset": [False, True]})
def test_check_survives_any_one_field_replaced(phi3_file, cert):
    cpath = phi3_file.parent / "cert.json"
    cpath.write_text(json.dumps(cert))
    assert main(["check", "--vertices", str(phi3_file), "--certificate", str(cpath)]) in (0, 1, 2)


small_int_lists = st.lists(st.lists(st.integers(-1, 10), max_size=4), max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["family", "n", "ambient_dim", "labels", "vertices"]), json_values | small_int_lists)
def test_face_and_neighborly_survive_any_one_vertex_field_replaced(phi3_file, field, value):
    vpath = phi3_file.parent / "spoiled.json"
    vpath.write_text(json.dumps({**json.loads(phi3_file.read_text()), field: value}))
    for argv in (
        ["face", "--subset", "0,1"],
        ["neighborly", "--k", "2"],
        ["neighborly", "--k", "2", "--fix-first"],
    ):
        assert main(argv + ["--vertices", str(vpath)]) in (0, 1, 2)


def _exit_code(argv):
    """main's exit code and stderr, with argparse's SystemExit read as its code."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=12) | st.lists(st.integers(-2, 8), max_size=7).map(lambda xs: ",".join(map(str, xs))))
@example("٣")
@example("1_0")
@example("9" * 5000)
@example("0,,1")
def test_face_survives_any_subset_text(phi3_file, subset):
    code, err = _exit_code(["face", "--vertices", str(phi3_file), "--subset", subset])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


flag_values = st.text(max_size=6) | st.integers(-2, 7).map(str)


@settings(max_examples=40, deadline=None)
@given(flag_values)
@example("2")
@example("3")
@example("9" * 5000)
def test_neighborly_survives_any_k(phi3_file, k):
    code, err = _exit_code(["neighborly", "--vertices", str(phi3_file), "--k", k])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spoil",
    [
        lambda d: {k: v for k, v in d.items() if k != "labels"},
        lambda d: {**d, "vertices": [[float(x) for x in d["vertices"][0]]] + d["vertices"][1:]},
        lambda d: {**d, "n": str(d["n"])},
        lambda d: [d],
        lambda d: {**d, "vertices": [[0, True]] + d["vertices"][1:]},
        lambda d: {**d, "vertices": [[0, [1]]] + d["vertices"][1:]},
        lambda d: {**d, "vertices": [[0, "1"]] + d["vertices"][1:]},
        lambda d: {**d, "vertices": [3] + d["vertices"][1:]},
        lambda d: {**generate("qap", 3).to_json(), "ambient_dim": 81.0},
        lambda d: {"family": "bqp", "n": 1, "ambient_dim": True, "labels": ["0", "1"], "vertices": [[], [0]]},
    ],
    ids=[
        "no-labels", "float-offsets", "string-n", "top-level-list",
        "bool-offsets", "nested-list", "string-offset", "scalar-vertex",
        "qap3-float-ambient-dim", "bqp1-true-ambient-dim",
    ],
)
def test_face_malformed_vertex_file_is_an_error(tmp_path, capsys, spoil):
    vpath = tmp_path / "phi3.json"
    run(["generate", "--family", "phi", "--n", "3", "--out", str(vpath)], capsys)
    vpath.write_text(json.dumps(spoil(json.loads(vpath.read_text()))))
    code, _, err = run(["face", "--vertices", str(vpath), "--subset", "0"], capsys)
    assert code == 2
    assert err.startswith("error: vertex file")


@pytest.mark.parametrize(
    "argv, deep",
    [
        (["face", "--vertices", "{deep}", "--subset", "0,1"], "vertex file"),
        (["neighborly", "--vertices", "{deep}", "--k", "2"], "vertex file"),
        (["check", "--vertices", "{deep}", "--certificate", "{cert}"], "vertex file"),
        (["check", "--vertices", "{phi3}", "--certificate", "{deep}"], "certificate file"),
    ],
    ids=["face", "neighborly", "check-vertex-file", "check-certificate-file"],
)
def test_deeply_nested_json_is_an_error(tmp_path, capsys, argv, deep):
    """JSON nested past the parser's recursion limit is malformed input, not a RecursionError."""
    paths = {name: tmp_path / f"{name}.json" for name in ("deep", "phi3", "cert")}
    paths["deep"].write_text("[" * 100_000)
    run(["generate", "--family", "phi", "--n", "3", "--out", str(paths["phi3"])], capsys)
    paths["cert"].write_text(json.dumps(PHI3_FACE))
    code, out, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {deep} nests its JSON too deeply to read")


def test_neighborly_exit_codes(tmp_path, capsys):
    vpath = tmp_path / "phi3.json"
    run(["generate", "--family", "phi", "--n", "3", "--out", str(vpath)], capsys)
    rpath = tmp_path / "report.json"
    code, _, _ = run(
        ["neighborly", "--vertices", str(vpath), "--k", "2", "--out", str(rpath)], capsys
    )
    assert code == 0
    report = json.loads(rpath.read_text())
    assert report["faces_certified"] == 15

    code, _, _ = run(
        ["neighborly", "--vertices", str(vpath), "--k", "3", "--stop-at-first"], capsys
    )
    assert code == 1

    bpath = tmp_path / "bqp2.json"
    run(["generate", "--family", "bqp", "--n", "2", "--out", str(bpath)], capsys)
    code, _, _ = run(["neighborly", "--vertices", str(bpath), "--k", "3"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "family, n, size, first",
    [("bqp", 7, 128, 0), ("bqp", 7, 127, 0), ("phi", 5, 120, 0), ("qap", 5, 120, 1)],
    ids=["bqp-7-128", "bqp-7-127", "phi-5-120", "qap-5-120-vertex-1-first"],
)
def test_neighborly_warns_of_a_long_scan(tmp_path, capsys, monkeypatch, family, n, size, first):
    """Over 100 vertices without --fix-first the CLI warns exactly when the symmetry check refuses the file, so
    that the scan decides its subsets one by one.

    The full bqp(7) and phi(5) files are split into orbits, so they get no
    warning.  bqp(7) less its last vertex fails the check, and so does
    qap(5) with vertex 1 moved first, whose vertex 0 is then not the
    identity.  The scan is stubbed out."""
    vs = generate(family, n)
    order = [first] + [t for t in range(size) if t != first]
    vs = VertexSet(vs.scheme, tuple(vs.labels[t] for t in order), tuple(vs.vertices[t] for t in order))
    vpath = tmp_path / f"{family}{n}.json"
    vs.save(str(vpath))
    stub = NeighborlinessReport(3, 0, 0, None, None, "stub", False)
    monkeypatch.setattr(cli, "k_neighborly_scan", lambda vs, k, **options: stub)
    code, _, err = run(["neighborly", "--vertices", str(vpath), "--k", "3"], capsys)
    assert code == 0
    warning = f"warning: a scan of every 3-subset of {size} vertices is long-running\n"
    assert err == (warning if size == 127 or first else "")


@pytest.mark.parametrize(
    "argv", [["face", "--subset", "0,1"], ["neighborly", "--k", "3"]], ids=["face", "neighborly"]
)
def test_vertex_file_too_big_to_densify_is_an_error(tmp_path, capsys, argv):
    """Four one-position phi(100) vertices would densify to 98 million cells.

    The bound is the dense size of bqp(16), the largest set generate
    writes without --force."""
    assert MAX_DENSE_CELLS == 2 ** 16 * 16 ** 2
    vpath = tmp_path / "phi100.json"
    data = {"family": "phi", "n": 100, "ambient_dim": comb(100, 2) ** 2, "labels": list("abcd")}
    vpath.write_text(json.dumps({**data, "vertices": [[0], [1], [2], [3]]}))
    start = time.perf_counter()
    code, out, err = run(argv + ["--vertices", str(vpath)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: vertex set too large to densify: 4 vertices") and "Traceback" not in err


def test_neighborly_bad_k_is_error(tmp_path, capsys):
    vpath = tmp_path / "phi3.json"
    run(["generate", "--family", "phi", "--n", "3", "--out", str(vpath)], capsys)
    code, _, err = run(["neighborly", "--vertices", str(vpath), "--k", "9"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["neighborly", "--vertices", "{v}", "--k", "2", "--jobs", "2"], ["verify", "thm1", "--jobs", "2"]],
    ids=["neighborly", "verify"],
)
def test_jobs_flag_is_refused(phi3_file, tmp_path, argv):
    out = tmp_path / "report.json"
    code, err = _exit_code([a.format(v=phi3_file) for a in argv] + ["--out", str(out)])
    assert code == 2
    assert "unrecognized arguments: --jobs 2" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_scenarios_and_report_file(tmp_path, capsys):
    rpath = tmp_path / "report.json"
    code, out, _ = run(["verify", "prop1", "--n", "3", "--out", str(rpath)], capsys)
    assert code == 0
    assert "[PASS]" in out
    report = json.loads(rpath.read_text())
    assert report["passed"] is True
    assert report["scenario"] == "prop1"


def test_verify_guard(tmp_path, capsys):
    code, _, err = run(["verify", "nonisomorphism", "--n", "4"], capsys)
    assert code == 2
    assert "guard" in err


def test_verify_qap_3_neighborly_guard_stops_at_n7(capsys):
    code, out, err = run(["verify", "qap-3-neighborly", "--n", "7"], capsys)
    assert code == 2
    assert "guard is n in [3, 6]" in err and out == ""


@pytest.mark.parametrize(
    "spoil",
    [
        lambda d: {**d, "labels": d["labels"][:-1], "vertices": d["vertices"][:-1]},
        lambda d: {**d, **{key: d[key][1::-1] + d[key][2:] for key in ("labels", "vertices")}},
    ],
    ids=["vertex-removed", "first-two-swapped"],
)
def test_neighborly_fix_first_refuses_a_broken_symmetry(tmp_path, capsys, spoil):
    vpath = tmp_path / "qap3.json"
    run(["generate", "--family", "qap", "--n", "3", "--out", str(vpath)], capsys)
    vpath.write_text(json.dumps(spoil(json.loads(vpath.read_text()))))
    code, out, err = run(["neighborly", "--vertices", str(vpath), "--k", "3", "--fix-first"], capsys)
    assert code == 2
    assert err.startswith("error: fix-first reduction refused") and "Traceback" not in err
    assert out == ""


def test_verify_k_parameter(capsys):
    code, out, _ = run(["verify", "thm2", "--k", "2"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv, flag",
    [(["verify", "prop1", "--k", "4"], "--n"), (["verify", "thm2", "--n", "3"], "--k")],
    ids=["prop1-k", "thm2-n"],
)
def test_verify_flag_the_scenario_does_not_take_is_an_error(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and f"takes {flag}" in err


def test_verify_default_parameter(capsys):
    code, _, _ = run(["verify", "thm1"], capsys)
    assert code == 0


def test_report_determinism_apart_from_duration(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(["verify", "lemma1", "--n", "4", "--out", str(p1)], capsys)
    run(["verify", "lemma1", "--n", "4", "--out", str(p2)], capsys)
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    d1.pop("duration_seconds")
    d2.pop("duration_seconds")
    assert d1 == d2


def test_missing_file_is_error(capsys):
    code, _, err = run(["face", "--vertices", "/nonexistent.json", "--subset", "0"], capsys)
    assert code == 2


def test_main_parses_each_call_as_a_fresh_parser_would(tmp_path, capsys, monkeypatch):
    """main builds its parser once per process.  Commands run through that one parser, with an argparse error
    (exit 2) among them and options given to one call and left out of the next, give the exit codes, stdout,
    stderr and files that a fresh parser for each call gives."""
    vpath = tmp_path / "phi3.json"
    run(["generate", "--family", "phi", "--n", "3", "--out", str(vpath)], capsys)
    commands = [
        ["face", "--vertices", "{v}", "--subset", "0,1", "--out", "{out}/face.json"],
        ["face", "--vertices", "{v}", "--subset", "0,1,2"],
        ["face", "--vertices", "{v}", "--subsets", "0,1"],
        ["neighborly", "--vertices", "{v}", "--k", "3", "--stop-at-first", "--out", "{out}/n0.json"],
        ["neighborly", "--vertices", "{v}", "--k", "3", "--out", "{out}/n1.json"],
        ["verify", "lemma1", "--n", "4", "--out", "{out}/lemma1.json"],
        ["verify", "lemma1"],
        ["check", "--vertices", "{v}", "--certificate", "{out}/face.json"],
    ]

    def replay(out):
        out.mkdir()
        log = []
        for argv in commands:
            try:
                code = main([a.format(v=vpath, out=out) for a in argv])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            stdout = re.sub(r" in \d+\.\d\ds$", "", captured.out, flags=re.M).replace(str(out), "<out>")
            log.append((code, stdout, captured.err))
        files = {p.name: re.sub(r'"duration_seconds": [^,\n]+', "", p.read_text()) for p in sorted(out.iterdir())}
        return log, files

    assert cli._parser() is cli._parser()
    shared = replay(tmp_path / "shared")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = replay(tmp_path / "fresh")
    assert shared == fresh
    assert [code for code, _, _ in shared[0]] == [0, 1, 2, 1, 1, 0, 0, 0]
    assert "polyface face: error:" in shared[0][2][2]
    assert sorted(shared[1]) == ["face.json", "lemma1.json", "n0.json", "n1.json"]


CLI_OUTPUTS_DIGEST = "dd491c861af2d3fc5719921a7de610614c91a12f240fdb6ed7eeba6ea8015726"


def test_cli_outputs_are_pinned(tmp_path, capsys):
    """Exit code, stdout and every written file of a fixed command list match a pinned digest.

    The timing fields are stripped and the temporary directory is named
    by a placeholder.  Stderr is left out: its exception text differs
    across Python versions."""
    v = {name: tmp_path / f"{name}.json" for name in ("phi3", "phi4", "qap3", "qap4", "bqp3")}
    commands = [["generate", "--family", name[:3], "--n", name[3], "--out", "{%s}" % name] for name in v]
    for i, (name, subset) in enumerate([("phi3", "0,1"), ("phi3", "0,1,2"), ("qap3", "0,1,2"), ("phi4", "0,3,4")]):
        commands.append(["face", "--vertices", "{%s}" % name, "--subset", subset, "--out", f"{{out}}/face{i}.json"])
    commands += [
        ["check", "--vertices", "{phi3}", "--certificate", "{out}/face0.json"],
        ["check", "--vertices", "{phi3}", "--certificate", "{out}/face1.json"],
        ["check", "--vertices", "{qap3}", "--certificate", "{out}/face2.json"],
        ["check", "--vertices", "{phi4}", "--certificate", "{out}/face0.json"],
        ["neighborly", "--vertices", "{phi4}", "--k", "3", "--fix-first", "--out", "{out}/n0.json"],
        ["neighborly", "--vertices", "{qap4}", "--k", "3", "--fix-first", "--out", "{out}/n1.json"],
        ["neighborly", "--vertices", "{bqp3}", "--k", "3", "--out", "{out}/n2.json"],
        ["neighborly", "--vertices", "{phi3}", "--k", "3", "--stop-at-first", "--out", "{out}/n3.json"],
    ]
    commands += [["verify", name, "--out", f"{{out}}/{name}.json"] for name in sorted(SCENARIOS)]
    names = {**v, "out": tmp_path}
    log = []
    for argv in commands:
        written = set(tmp_path.iterdir())
        code = main([a.format(**names) for a in argv])
        out = re.sub(r" in \d+\.\d\ds$", "", capsys.readouterr().out, flags=re.M)
        files = [
            re.sub(r'"duration_seconds": [^,\n]+', '"duration_seconds"', p.read_text())
            for p in sorted(set(tmp_path.iterdir()) - written)
        ]
        log.append((argv, code, out.replace(str(tmp_path), "<tmp>"), files))
    assert [code for _, code, _, _ in log] == [0] * 5 + [0, 1, 0, 1] + [0, 0, 0, 2] + [1, 0, 0, 1] + [0] * 8
    assert hashlib.sha256(repr(log).encode()).hexdigest() == CLI_OUTPUTS_DIGEST
