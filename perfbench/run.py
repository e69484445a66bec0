"""Benchmark of the polyface program: one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload phi5-facetest --seed 1 --seconds 15 --trace 0

Workloads: phi5-facetest, small-scans, cold-verify (see workloads.py and
README.md).  The program is imported from ``src/`` of the same checkout,
in this process, and runs with jobs=1.

A run sets up at least three times and reports the median as
``setup_s``, then repeats the workload's pass until ``--seconds`` have
passed (at least one pass; every pass does the same work) and reports
medians over passes.  Every pass is checked: certificates are re-verified
by substitution and known verdicts and exit codes are compared.  A
failed check is counted in ``failed``, never dropped.

With ``--trace 1`` the run makes one untraced pass, then sets up and runs
one pass again with every public polyface function wrapped in a span,
and reports the per-layer metrics; spans are written to
``.perfbench-out/`` when the run ends.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
# Set-up repeats: at least SETUP_MIN_REPEATS, and more while SETUP_BUDGET_S
# lasts, so that a set-up of a few milliseconds still gets a steady median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 25, 1.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "subset_p50_ms": "ms",
    "subset_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

SCENARIO_METRICS = ("thm1", "prop1", "lemma1", "thm2", "nonisomorphism", "corollary-3n-face")
CLI_COMMANDS = ("generate", "face", "check", "verify")
SELF_LAYERS = ("bench", "families", "exactmath", "simplex", "faces", "maps", "scenarios", "cli")

PER_LAYER = {
    "simplex.lp_calls": "count",
    "simplex.witness_lp_calls": "count",
    "simplex.lp_s": "s",
    "simplex.lp_ms_per_call": "ms",
    "simplex.lp_rows_total": "count",
    "simplex.lp_cols_max": "count",
    "simplex.result_bits_max": "bits",
    "faces.is_face_calls": "count",
    "faces.is_face_s": "s",
    "faces.self_s": "s",
    "faces.rowgen_lps_per_test": "lps/test",
    "faces.certs_per_lp": "certs/lp",
    "faces.nonfaces": "count",
    "faces.verify_s": "s",
    "faces.context_s": "s",
    "faces.scan_s": "s",
    "faces.subsets_scanned": "count",
    "exactmath.hull_frame_s": "s",
    "exactmath.hull_frame_calls": "count",
    "exactmath.frame_dim": "count",
    "exactmath.affine_dependencies_s": "s",
    "families.generate_s": "s",
    "families.load_s": "s",
    "families.save_s": "s",
    "families.bytes_written": "bytes",
    "maps.iso_search_s": "s",
    "maps.bijections_tried": "count",
    **{f"scenarios.{name}_s": "s" for name in SCENARIO_METRICS},
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    **{f"layer.{layer}_self_s": "s" for layer in SELF_LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def latency_stats(latencies: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail rank in %) of one pass, in ms.

    The tail is the highest percentile with at least ten samples beyond
    it: the sample with exactly ten larger ones.
    """
    xs = sorted(latencies)
    n = len(xs)
    tail, rank = (xs[n - 11], (n - 10) / n) if n > 10 else (xs[-1], 1.0)
    return 1000 * statistics.median(xs), 1000 * tail, 100 * rank


def layer_metrics(spans: list[list], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced set-up plus pass."""
    from perfbench.spans import layer_of, outer_time, self_times
    from polyface.scenarios import SCENARIOS

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[0]].append(i)

    def total(*names: str) -> float:
        return outer_time(spans, set(names))

    m: dict[str, float] = {}
    lps = [spans[i][4] for i in by_name["simplex.lp_solve"]]
    m["simplex.lp_calls"] = len(lps)
    m["simplex.witness_lp_calls"] = sum(1 for info in lps if info[2])
    m["simplex.lp_s"] = total("simplex.lp_solve")
    m["simplex.lp_ms_per_call"] = 1000 * m["simplex.lp_s"] / len(lps) if lps else 0.0
    m["simplex.lp_rows_total"] = sum(info[0] for info in lps)
    m["simplex.lp_cols_max"] = max((info[1] for info in lps), default=0)
    m["simplex.result_bits_max"] = max((info[3] for info in lps), default=0)

    face_ids = set(by_name["faces.is_face"])
    not_self = {
        "simplex.lp_solve",
        "faces.verify_face_certificate",
        "faces.verify_nonface_witness",
        "faces.FaceContext.__init__",
    }
    face_self = sum(spans[i][2] - spans[i][1] for i in face_ids)
    face_lps = support_lps = 0
    for rec in spans:
        if rec[3] in face_ids and rec[0] in not_self:
            face_self -= rec[2] - rec[1]
            if rec[0] == "simplex.lp_solve":
                face_lps += 1
                support_lps += not rec[4][2]
    tests = len(face_ids)
    m["faces.is_face_calls"] = tests
    m["faces.is_face_s"] = total("faces.is_face")
    m["faces.self_s"] = face_self
    m["faces.rowgen_lps_per_test"] = support_lps / tests if tests else 0.0
    m["faces.certs_per_lp"] = tests / face_lps if face_lps else 0.0
    m["faces.nonfaces"] = sum(1 for i in face_ids if spans[i][4])
    m["faces.verify_s"] = total("faces.verify_face_certificate", "faces.verify_nonface_witness")
    m["faces.context_s"] = total("faces.FaceContext.__init__")
    m["faces.scan_s"] = total("faces.k_neighborly_scan")
    m["faces.subsets_scanned"] = sum(spans[i][4] for i in by_name["faces.k_neighborly_scan"])

    frames = by_name["exactmath.affine_hull_frame"]
    m["exactmath.hull_frame_s"] = total("exactmath.affine_hull_frame")
    m["exactmath.hull_frame_calls"] = len(frames)
    m["exactmath.frame_dim"] = max((spans[i][4] for i in frames), default=0)
    m["exactmath.affine_dependencies_s"] = total("exactmath.affine_dependencies")

    m["families.generate_s"] = total(
        "families.generate", "families.bqp_vertices", "families.qap_vertices", "families.phi_vertices"
    )
    m["families.load_s"] = total("families.VertexSet.load")
    m["families.save_s"] = total("families.VertexSet.save")
    m["families.bytes_written"] = sum(spans[i][4] for i in by_name["families.VertexSet.save"])

    m["maps.iso_search_s"] = total("maps.brute_force_iso_search")
    m["maps.bijections_tried"] = sum(spans[i][4] for i in by_name["maps.brute_force_iso_search"])
    for name in SCENARIO_METRICS:
        m[f"scenarios.{name}_s"] = total(f"scenarios.{SCENARIOS[name][0].__name__}")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = total(f"cli.cmd_{cmd}")

    own = self_times(spans)
    for layer in SELF_LAYERS:
        m[f"layer.{layer}_self_s"] = 0.0
    for rec, t in zip(spans, own):
        m[f"layer.{layer_of(rec[0])}_self_s"] += t
    root, passed = spans[0], spans[by_name["bench.pass"][0]]
    m["trace.wall_s"] = root[2] - root[1]
    m["trace.overhead_ratio"] = (passed[2] - passed[1]) / untraced_wall
    m["trace.spans"] = len(spans)
    return m


def trace_checks(spans: list[list], active) -> list[str]:
    """Harness failures: a function the workload must reach produced no
    span, or the spans do not nest (see ``spans.nesting_problems``)."""
    from perfbench.spans import nesting_problems

    called = {rec[0] for rec in spans}
    problems = [f"no call of {name} was traced" for name in active if name not in called]
    return problems + nesting_problems(spans)


def run(args, workdir: Path, tiny: bool = False) -> tuple[dict, dict, list | None]:
    """Set up, measure, check.  Returns (result, record, spans).

    ``tiny`` selects the smallest sizes, for the smoke test.
    """
    from perfbench.clock import SpeedClock
    from perfbench.spans import Instrument
    from perfbench.workloads import WORKLOADS, Gate

    workload = WORKLOADS[args.workload](args.seed, tiny)
    gate = Gate()
    setups: list[tuple[float, float]] = []  # raw perf_counter intervals
    passes: list[tuple[float, float, list[tuple[float, float]]]] = []
    traced = None
    with SpeedClock() as clock:
        while not setups or not args.trace and (
            len(setups) < SETUP_MIN_REPEATS
            or len(setups) < SETUP_MAX_REPEATS and sum(b - a for a, b in setups) < SETUP_BUDGET_S
        ):
            state = None  # free the previous context before building the next
            t0 = time.perf_counter()
            state = workload.setup(workdir)
            setups.append((t0, time.perf_counter()))
            workload.check_setup(state, gate)

        start = time.perf_counter()
        while True:
            inst = Instrument()
            inst.install(spans=False)
            try:
                t0 = time.perf_counter()
                outputs = workload.run_pass(state)
                t1 = time.perf_counter()
            finally:
                inst.uninstall()
            workload.check(state, outputs, inst.face_tests, gate)
            passes.append((t0, t1, [(t.start, t.end) for t in inst.face_tests]))
            if args.trace or t1 - start >= args.seconds:
                break

        if args.trace:
            state = outputs = None
            traced = Instrument()
            traced.install(spans=True)
            try:
                with traced.span("bench.run"):
                    with traced.span("bench.setup"):
                        state = workload.setup(workdir)
                    with traced.span("bench.pass"):
                        outputs = workload.run_pass(state)
            finally:
                traced.uninstall()
            workload.check_setup(state, gate)
            workload.check(state, outputs, traced.face_tests, gate)

    # Every time reported below is on the clock's reference axis.
    walls = [clock.duration(t0, t1) for t0, t1, _ in passes]
    stats = [latency_stats([clock.duration(a, b) for a, b in tests]) for *_, tests in passes]
    setup_times = [clock.duration(a, b) for a, b in setups]
    spans = None
    problems: list[str] = []
    if traced is not None:
        spans = traced.spans
        problems = trace_checks(spans, workload.active)
        for rec in spans:  # a span never closed, already reported, is scaled as empty
            rec[1], rec[2] = clock.scaled(rec[1]), clock.scaled(max(rec[1], rec[2]))
        metrics = layer_metrics(spans, walls[0])
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "subset_p50_ms": statistics.median(p50 for p50, _, _ in stats),
            "subset_tail_ms": statistics.median(tail for _, tail, _ in stats),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    failures = gate.failures + problems
    attempted = gate.attempted + len(problems)
    slowest, fastest = clock.speed_range()
    record = {
        "environment": environment(args),
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_wall_raw_s": [t1 - t0 for t0, t1, _ in passes],
        "setup_runs_s": setup_times,
        "setup_runs_raw_s": [b - a for a, b in setups],
        "speed_samples": clock.samples,
        "speed_range": [slowest, fastest],
        "subset_tail_rank_pct": stats[0][2],
        "subset_samples_per_pass": len(passes[0][2]),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record, spans


def write_trace(path: Path, record: dict, result: dict, spans: list[list]) -> None:
    names: dict[str, int] = {}
    rows = [[names.setdefault(r[0], len(names)), r[1], r[2], r[3]] for r in spans]
    path.write_text(
        json.dumps(
            {
                "record": record,
                "metrics": result["metrics"],
                "span_names": list(names),
                "spans": rows,  # [name index, start, end, parent index]
            }
        )
    )


def parse_args(argv=None):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def import_program() -> None:
    """Import polyface from src/ of this checkout, and from nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import polyface

    origin = Path(polyface.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"polyface was imported from {origin}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        result, record, spans = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if spans is not None:
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json", record, result, spans)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:32} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':32} {record['fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
