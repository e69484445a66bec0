"""Command-line surface.

Subcommands: generate, face, neighborly, verify, check.  Exit-code
contract: 0 = verified / face / k-neighborly, 1 = refuted / non-face /
counterexample found, 2 = error (bad input, guard violation, or a
certificate from the LP that fails its own substitution check).

All emitted files are JSON with rationals serialized as exact "p/q"
strings; no floats appear anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .faces import (
    FaceCertificate,
    FaceContext,
    InternalInconsistencyError,
    certificate_from_json,
    is_face,
    k_neighborly_scan,
    verify_face_certificate,
    verify_nonface_witness,
)
from .families import GENERATE_GUARDS, VertexSet, generate, load_json, vertex_count
from .scenarios import SCENARIOS, run_scenario

def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _write_json(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=1, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_generate(args) -> int:
    family, n = args.family, args.n
    guard = GENERATE_GUARDS[family]
    if n > guard:
        if not args.force:
            name = "m" if family == "bqp" else "n"
            print(
                f"error: {family} guard is {name} <= {guard} (got {n}); use --force to override",
                file=sys.stderr,
            )
            return 2
        _warn(f"{family}({n}) has {vertex_count(family, n):,} vertices; generation may be slow")
    vs = generate(family, n)
    vs.save(args.out)
    print(f"wrote {len(vs)} vertices of {family}({n}) (ambient dim {vs.scheme.ambient_dim}) to {args.out}")
    return 0


def cmd_face(args) -> int:
    vs = VertexSet.load(args.vertices)
    subset = tuple(int(s) for s in args.subset.split(","))
    result = is_face(vs, subset)
    data = result.to_json(subset)
    _write_json(data, args.out)
    if isinstance(result, FaceCertificate):
        print(f"face: subset {list(subset)} is the vertex set of a face (gap {data['epsilon']})")
        return 0
    print(f"non-face: subset {list(subset)} shares a point with the hull of the rest")
    return 1


def _scans_orbits(ctx: FaceContext) -> bool:
    """Whether a scan without --fix-first splits the subsets into orbits: only on a bqp set that passes the
    symmetry check, whose outcome the context keeps for the scan."""
    if ctx.vs.scheme.family != "bqp":
        return False
    try:
        ctx.symmetry()
    except ValueError:
        return False
    return True


def cmd_neighborly(args) -> int:
    vs = VertexSet.load(args.vertices)
    ctx = FaceContext(vs)
    long_scan = len(vs) > 100 and args.k >= 3 and not args.stop_at_first
    if long_scan and not args.fix_first and not _scans_orbits(ctx):
        _warn(f"a scan of every {args.k}-subset of {len(vs)} vertices is long-running")
    report = k_neighborly_scan(
        vs,
        args.k,
        fix_first=args.fix_first,
        stop_at_first=args.stop_at_first,
        ctx=ctx,
    )
    if report.counterexample_subset is None:
        print(
            f"{args.k}-neighborly: {report.faces_certified}/{report.total_subsets} "
            "subsets certified as faces"
        )
    else:
        print(
            f"not {args.k}-neighborly: counterexample {list(report.counterexample_subset)} "
            f"after {report.total_subsets} subsets"
        )
    _write_json(report.to_json(), args.out)
    return 0 if report.counterexample_subset is None else 1


def cmd_verify(args) -> int:
    name = args.scenario
    _, param_name, lo, hi = SCENARIOS[name]
    other = "k" if param_name == "n" else "n"
    if getattr(args, other) is not None:
        print(f"error: scenario {name} takes --{param_name}, not --{other}", file=sys.stderr)
        return 2
    param = getattr(args, param_name)
    if param is None:
        param = lo
    if not lo <= param <= hi and not args.force:
        print(
            f"error: scenario {name} guard is {param_name} in [{lo}, {hi}] (got {param}); "
            "use --force to override",
            file=sys.stderr,
        )
        return 2
    report = run_scenario(name, param)
    for step in report.steps:
        mark = "PASS" if step.passed else "FAIL"
        print(f"[{mark}] {name} {param_name}={param}: {step.name}")
    if args.out:
        _write_json(report.to_json(), args.out)
    print(f"scenario {name}: {'verified' if report.passed else 'refuted'} in {report.duration_seconds:.2f}s")
    return 0 if report.passed else 1


def cmd_check(args) -> int:
    vs = VertexSet.load(args.vertices)
    data = load_json(args.certificate, "certificate file")
    try:
        subset, cert = certificate_from_json(data)
    except (KeyError, ValueError) as exc:
        print(f"error: malformed certificate: {exc}", file=sys.stderr)
        return 2
    if isinstance(cert, FaceCertificate):
        kind, vector, verify = "certificate", cert.normal, verify_face_certificate
    else:
        kind, vector, verify = "witness", cert.point, verify_nonface_witness
    if len(vector) != vs.scheme.ambient_dim:
        print(f"error: {kind} ambient dimension does not match the vertex file", file=sys.stderr)
        return 2
    ok = verify(vs, subset, cert)
    print("certificate verifies" if ok else "certificate FAILS verification")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyface",
        description="exact vertex generators, face certificates, and scenario verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a vertex-set JSON file")
    g.add_argument("--family", required=True, choices=("bqp", "qap", "phi"))
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--out", required=True)
    g.add_argument("--force", action="store_true", help="override the desk-scale guard")

    f = sub.add_parser("face", help="certify a vertex subset as face or non-face")
    f.add_argument("--vertices", required=True)
    f.add_argument("--subset", required=True, help="comma-separated vertex indices, e.g. 0,1,2")
    f.add_argument("--out", default=None, help="write the certificate JSON here")

    n = sub.add_parser("neighborly", help="scan k-subsets for face status")
    n.add_argument("--vertices", required=True)
    n.add_argument("--k", required=True, type=int)
    n.add_argument(
        "--fix-first",
        action="store_true",
        help="scan the subsets through vertex 0 (qap or phi), one LP per orbit representative "
        "under left and right multiplication and inversion",
    )
    n.add_argument("--stop-at-first", action="store_true", help="stop at the first counterexample")
    n.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="run a named verification scenario")
    v.add_argument("scenario", choices=sorted(SCENARIOS))
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--out", default=None)
    v.add_argument("--force", action="store_true", help="override the scenario parameter guard")

    c = sub.add_parser("check", help="re-verify an emitted certificate by substitution")
    c.add_argument("--vertices", required=True)
    c.add_argument("--certificate", required=True)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser``'s parser, built once per process: parsing leaves it as it was, so each call of main
    parses as a fresh parser would."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up per call, so a wrapped cmd_* is the one called
    try:
        return command(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
