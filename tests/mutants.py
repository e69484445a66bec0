"""Mutation check: each listed mutant of the program must fail the tests named for it.

A mutant is one exact-text replacement in one file of ``src/polyface``
(DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).  Each is applied alone to a fresh copy of
``src/`` (with ``tests/`` and ``pyproject.toml`` beside it, so that
pytest imports the copy), and the tests named for it run there with
``-x``.  The mutant is killed when they fail.  Before any mutant, the
named tests must pass on the unmutated copy, and every mutant's text
must occur exactly once in its file, so the list cannot drift from the
code unnoticed.

Run from the repository root, stdlib only (pytest and hypothesis for the
tests themselves):

    python tests/mutants.py

It prints one line per mutant and exits 0 when every mutant is killed,
1 when any survives, and 2 when the list no longer applies or the named
tests fail unmutated.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/polyface
    old: str
    new: str
    tests: tuple[str, ...]


_WITNESS_CHECK = "tests/test_cli.py::test_check_refuses_a_witness_that_breaks_one_condition"
_CERTIFICATE_CHECK = "tests/test_cli.py::test_check_refuses_a_certificate_that_breaks_one_condition"
_SUMS = "        if sum(wit.alpha) != 1 or sum(wit.mu) != 1 or any(m < 0 for m in wit.mu):\n"
_WRITER = "tests/test_families.py::test_save_writes_the_bytes_of_json_dumps"
_PRECEDENCE = "tests/test_families.py::test_vertex_checks_keep_their_precedence"
_RANGE = "v[0] and v[-1] < dim if ordered else 0 <= min(v) <= max(v) < dim"

MUTANTS = (
    Mutant(
        "verify_nonface_witness without mu >= 0",
        "faces.py",
        _SUMS,
        "        if sum(wit.alpha) != 1 or sum(wit.mu) != 1:\n",
        (f"{_WITNESS_CHECK}[negative-mu]",),
    ),
    Mutant(
        "verify_nonface_witness without sum alpha = 1",
        "faces.py",
        _SUMS,
        "        if sum(wit.mu) != 1 or any(m < 0 for m in wit.mu):\n",
        (f"{_WITNESS_CHECK}[alpha-sum]",),
    ),
    Mutant(
        "verify_nonface_witness without the point comparison",
        "faces.py",
        "return _combination(vs, wit.alpha, idx) == tuple(wit.point) == _combination(vs, wit.mu, others)",
        "return _combination(vs, wit.alpha, idx) == _combination(vs, wit.mu, others)",
        (f"{_WITNESS_CHECK}[point]",),
    ),
    Mutant(
        "verify_nonface_witness without the type check",
        "faces.py",
        "        if not set(map(type, chain(wit.alpha, wit.mu, wit.point))) <= _RATIONAL_TYPES:\n"
        "            return False\n",
        "",
        ("tests/test_faces.py::test_verify_nonface_witness_refuses_floats_and_booleans",),
    ),
    Mutant(
        "verify_face_certificate without the gap test",
        "faces.py",
        "        return max(values) <= low\n",
        "        return True\n",
        (f"{_CERTIFICATE_CHECK}[gap]",),
    ),
    Mutant(
        "verify_face_certificate without the offset test on the subset",
        "faces.py",
        "            if values[s] != offset:\n                return False\n",
        "",
        (f"{_CERTIFICATE_CHECK}[offset]",),
    ),
    Mutant(
        "verify_face_certificate admitting epsilon 0",
        "faces.py",
        "        if eps <= 0:\n",
        "        if eps < 0:\n",
        (f"{_CERTIFICATE_CHECK}[eps-zero]",),
    ),
    Mutant(
        "_checked_symmetry over the first 100 vertices",
        "faces.py",
        "for v, w in zip(vs.vertices, vmap)",
        "for v, w in zip(vs.vertices[:100], vmap)",
        ("tests/test_faces.py::test_symmetry_check_reads_every_vertex_of_each_generator",),
    ),
    Mutant(
        "_Orbits raising only above the count",
        "faces.py",
        "        if covered != self.count:\n",
        "        if covered > self.count:\n",
        ("tests/test_faces.py::test_orbits_missing_one_orbit_are_an_error",),
    ),
    Mutant(
        "_Orbits without the sum-to-count check",
        "faces.py",
        "        if covered != self.count:\n"
        "            raise InternalInconsistencyError(f\"the orbits hold {covered} subsets, not the {self.count} scanned\")\n",
        "",
        ("tests/test_faces.py::test_orbits_that_do_not_cover_the_scan_are_an_error",),
    ),
    Mutant(
        "the k/N scaling dropped from the through-vertex-0 orbit size",
        "faces.py",
        "size * k // len(least) if fix_first else size",
        "size",
        ("tests/test_faces.py::test_scan_fix_first_counts_and_guards",),
    ),
    Mutant(
        "face_by_equations skipping the first zero coordinate's incidence list",
        "faces.py",
        "set().union(*map(vs.incidence.__getitem__, zeros))",
        "set().union(*map(vs.incidence.__getitem__, zeros[1:]))",
        ("tests/test_faces.py::test_face_by_equations_matches_the_mask_walk",),
    ),
    Mutant(
        "VertexSet.save writing a label without json.dumps",
        "families.py",
        "map(json.dumps, self.labels)",
        "map('\"{}\"'.format, self.labels)",
        (_WRITER,),
    ),
    Mutant(
        "VertexSet.save writing an empty vertex as [\\n  ]",
        "families.py",
        '"\\n  ]" if length else "[]"',
        '"\\n  ]" if length else "[\\n  ]"',
        (_WRITER, "tests/test_families.py::test_generated_files_are_pinned"),
    ),
    Mutant(
        "VertexSet.save writing each offset with %d",
        "families.py",
        'repeat("%s", length)',
        'repeat("%d", length)',
        ("tests/test_families.py::test_save_writes_each_offset_as_str_does",),
    ),
    Mutant(
        "VertexSet admitting a sorted vertex that ends at the dimension",
        "families.py",
        _RANGE,
        _RANGE.replace("v[-1] < dim", "v[-1] <= dim"),
        (_PRECEDENCE,),
    ),
    Mutant(
        "VertexSet without the lower end of a sorted vertex",
        "families.py",
        "0 <= " + _RANGE,
        _RANGE.replace("v[0] and ", ""),
        (_PRECEDENCE,),
    ),
    Mutant(
        "VertexSet reading every vertex's range off its ends, sorted or not",
        "families.py",
        _RANGE,
        "v[0] and v[-1] < dim",
        (_PRECEDENCE,),
    ),
)


def _copy(dest: Path) -> None:
    """The source tree, the tests and the pytest configuration, copied under dest."""
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, dest / tree, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(cwd: Path, tests) -> int:
    """pytest's exit code for the named tests run in cwd: 0 all passed, 1 some failed."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "--no-header", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / "src" / "polyface" / m.path).read_text().count(m.old)
        if count != 1:
            print(f"mutant {m.name!r}: its text occurs {count} times in {m.path}, not once")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        named = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(clean, named) != 0:
            print("the named tests fail on the unmutated source")
            return 2
        survivors = errors = 0
        for i, m in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant{i}"
            _copy(copy)
            target = copy / "src" / "polyface" / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            start = time.perf_counter()
            code = _pytest(copy, m.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            survivors += code == 0
            errors += code not in (0, 1)
            print(f"{verdict:<10} {time.perf_counter() - start:6.1f} s  {m.name}")
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - survivors - errors} of {len(MUTANTS)} mutants killed")
    return 2 if errors else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
