"""Smoke test of the benchmark harness at the smallest sizes.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from perfbench import run

run.import_program()

from perfbench.spans import FaceTest  # noqa: E402
from perfbench.workloads import WORKLOADS, Gate, check_face_tests, check_unprobed  # noqa: E402
from polyface.faces import is_face  # noqa: E402
from polyface.families import qap_vertices  # noqa: E402

DETERMINISTIC_UNITS = {"count", "bits", "bytes"}


def _run(tmp_path, workload, seed, trace):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    return run.run(args, Path(tempfile.mkdtemp(dir=tmp_path)), tiny=True)


def test_declared_metrics_match_the_harness():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result, record, _ = _run(tmp_path, workload, 1, 0)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = record["environment"]
    for key in ("python", "nproc", "platform", "commit", "seed", "trace"):
        assert key in env
    assert record["subset_samples_per_pass"] >= 1
    assert 0 < record["subset_tail_rank_pct"] <= 100


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_repeat_their_counts(tmp_path, workload):
    first, record, spans = _run(tmp_path, workload, 1, 1)
    second, _, _ = _run(tmp_path, workload, 1, 1)
    assert first["correct"] and second["correct"], record["failures"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.PER_LAYER
    names = {rec[0] for rec in spans}
    assert set(WORKLOADS[workload].active) <= names
    for name, m in first["metrics"].items():
        if m["unit"] in DETERMINISTIC_UNITS:
            assert second["metrics"][name]["value"] == m["value"], name
    for name in ("simplex.lp_calls", "faces.nonfaces", "exactmath.frame_dim"):
        assert first["metrics"][name]["value"] > 0
    layer_sum = sum(m["value"] for k, m in first["metrics"].items() if k.startswith("layer."))
    assert layer_sum == pytest.approx(first["metrics"]["trace.wall_s"]["value"], rel=1e-9)


@pytest.mark.parametrize("workload", ["phi5-facetest", "small-scans"])
def test_seeded_symmetry_keeps_the_lp_work(tmp_path, workload):
    one, _, _ = _run(tmp_path, workload, 1, 1)
    two, _, _ = _run(tmp_path, workload, 2, 1)
    for name in ("simplex.lp_calls", "simplex.lp_rows_total", "simplex.result_bits_max", "faces.nonfaces"):
        assert one["metrics"][name]["value"] == two["metrics"][name]["value"], name


def test_cold_verify_searches_bijections(tmp_path):
    result, _, _ = _run(tmp_path, "cold-verify", 1, 1)
    assert result["metrics"]["maps.bijections_tried"]["value"] == 720


def test_trace_check_flags_a_layer_that_reads_zero_calls(tmp_path):
    _, _, spans = _run(tmp_path, "phi5-facetest", 1, 1)
    problems = run.trace_checks(spans, ("faces.is_face", "maps.fit_affine_map"))
    assert problems == ["no call of maps.fit_affine_map was traced"]


def test_trace_check_flags_spans_that_do_not_nest():
    def span(name, start, end, parent):
        return [name, start, end, parent, None]

    good = [span("bench.run", 1.0, 9.0, -1), span("cli.main", 2.0, 4.0, 0), span("faces.is_face", 5.0, 8.0, 0)]
    assert run.trace_checks(good, ()) == []
    broken = [
        span("bench.run", 1.0, 9.0, -1),
        span("faces.is_face", 2.0, 0.0, 0),  # never closed
        span("simplex.lp_solve", 8.0, 10.0, 0),  # ends after its parent
        span("cli.main", 9.5, 9.6, -1),  # a second root
        span("maps.fit_affine_map", 9.4, 9.45, 3),  # starts before its parent
        span("bench.pass", 10.0, 20.0, -1),
        span("faces.is_face", 10.0, 16.0, 5),  # overlaps its sibling
        span("faces.is_face", 14.0, 20.0, 5),
    ]
    problems = run.trace_checks(broken, ())
    assert [p.split()[1] for p in problems] == ["1", "2", "3", "4", "5", "5"], problems
    assert "not closed" in problems[0] and "negative self time" in problems[-1]


def test_gate_counts_a_tampered_certificate():
    vs = qap_vertices(3)
    cert = is_face(vs, (0, 1, 2))
    bad = type(cert)(cert.normal, cert.offset + 1, cert.epsilon)
    raised, elsewhere = ValueError("raised by is_face"), ValueError("raised outside is_face")
    tests = [FaceTest(0.0, 0.0, vs, (0, 1, 2), cert), FaceTest(0.0, 0.0, vs, (0, 1, 2), bad),
             FaceTest(0.0, 0.0, vs, (0, 1, 2), raised)]
    gate = Gate()
    check_face_tests(tests, gate)
    assert gate.attempted == 3 and len(gate.failures) == 2
    check_unprobed([raised, elsewhere], tests, gate)  # the probe already counted `raised`
    assert gate.attempted == 4 and len(gate.failures) == 3


def test_latency_quantiles():
    xs = [i / 1000 for i in range(1, 41)]
    p50, tail, rank = run.latency_stats(xs[::-1])
    assert rank == 75.0
    assert p50 == pytest.approx(20.5)
    assert tail == pytest.approx(30.0)  # ten samples, 31 to 40 ms, lie beyond it
    assert run.latency_stats([0.005] * 7) == (5.0, 5.0, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-scans", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
