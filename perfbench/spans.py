"""Spans and face-test probes for the polyface benchmark.

The benchmark never edits the program.  It replaces each public function
of every polyface module with a wrapper, at every module attribute that
refers to it: callers look functions up in their own module
(``polyface.faces.lp_solve``, ``polyface.scenarios.is_face``,
``polyface.cli.is_face``), so patching only the defining module would
leave those calls unseen.  ``install`` refuses to finish while any
binding still holds an original function.

Two kinds of wrapper exist:

* the probe on ``is_face`` records each face test's latency, its inputs
  and its result, so the correctness gate can re-check every certificate
  and the end-to-end metrics can report per-test latency.  It is cheap
  (two clock reads) and is installed in untraced runs too;
* span wrappers record name, start, end and parent for every public
  function.  They are installed only in traced runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = ("families", "exactmath", "simplex", "faces", "maps", "scenarios", "cli")

# Public methods that are layer entry points.  Classes are not wrapped
# themselves, because callers test results with isinstance.
METHODS = {
    "faces": (("FaceContext", "__init__"),),
    "families": (("VertexSet", "load"), ("VertexSet", "save")),
}

PROBED = ("faces", "is_face")


class HarnessError(RuntimeError):
    """The instrumentation itself is broken; its numbers cannot be trusted."""


@dataclass
class FaceTest:
    start: float  # time.perf_counter() around the call
    end: float
    vs: Any
    subset: tuple
    result: Any  # a certificate, or the exception is_face raised


def _lp_info(args, kwargs, res):
    lp = kwargs["lp"] if "lp" in kwargs else args[0]
    bits = 0
    for vec in (res.primal, res.dual):
        for x in vec or ():
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return len(lp.constraints), lp.num_vars, not any(lp.objective), bits


def _save_info(args, kwargs, res):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


# Facts read from a call's arguments or result, stored on its span.
INFO: dict[str, Callable] = {
    "simplex.lp_solve": _lp_info,
    "exactmath.affine_hull_frame": lambda a, k, r: r.dim,
    "maps.brute_force_iso_search": lambda a, k, r: r.tried,
    "faces.k_neighborly_scan": lambda a, k, r: r.total_subsets,
    "faces.is_face": lambda a, k, r: type(r).__name__ == "NonFaceWitness",
    "families.VertexSet.save": _save_info,
}


class Instrument:
    """Installs and removes the wrappers; owns the spans and probe records.

    A span is ``[name, start, end, parent, info]``; ``parent`` indexes
    ``spans`` (-1 for a root).  Spans are appended when they open, so a
    parent always precedes its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.face_tests: list[FaceTest] = []
        self._stack: list[int] = []
        self._patched: list[Callable[[], None]] = []

    # -- wrappers ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span such as ``bench.pass``."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        return wrapper

    def _probe_wrapper(self, fn: Callable) -> Callable:
        tests, clock = self.face_tests, time.perf_counter

        @functools.wraps(fn)
        def wrapper(vs, subset, *args, **kwargs):
            t0 = clock()
            try:
                result = fn(vs, subset, *args, **kwargs)
            except Exception as exc:
                tests.append(FaceTest(t0, clock(), vs, tuple(subset), exc))
                raise
            tests.append(FaceTest(t0, clock(), vs, tuple(subset), result))
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, spans: bool) -> None:
        """Wrap every binding of the probed function, and with spans=True
        every public function and entry-point method of every layer.

        Bindings are module attributes and the values of module-level
        registries such as ``scenarios.SCENARIOS``, whose entries hold
        functions that ``run_scenario`` calls without a module lookup.
        """
        if self._patched:
            raise HarnessError("instrument is already installed")
        modules = {layer: importlib.import_module(f"polyface.{layer}") for layer in LAYERS}
        replacement: dict[int, Callable] = {}
        originals: dict[int, str] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                probed = (layer, attr) == PROBED
                if attr.startswith("_") or not (spans or probed):
                    continue
                wrapped = self._span_wrapper(f"{layer}.{attr}", obj) if spans else obj
                replacement[id(obj)] = self._probe_wrapper(wrapped) if probed else wrapped
                originals[id(obj)] = f"{layer}.{attr}"
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacement:
                    self._set(mod, attr, replacement[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        new = _substitute(val, replacement)
                        if new is not val:
                            self._set_item(obj, key, new)
        if spans:
            for layer, methods in METHODS.items():
                for cls_name, meth in methods:
                    cls = getattr(modules[layer], cls_name)
                    raw = inspect.getattr_static(cls, meth)
                    static = isinstance(raw, staticmethod)
                    wrapped = self._span_wrapper(
                        f"{layer}.{cls_name}.{meth}", raw.__func__ if static else raw
                    )
                    self._set(cls, meth, staticmethod(wrapped) if static else wrapped)
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                values = list(obj.values()) if isinstance(obj, dict) else [obj]
                for val in values:
                    for item in val if isinstance(val, tuple) else (val,):
                        if id(item) in originals:
                            self.uninstall()
                            raise HarnessError(
                                f"{mod.__name__}.{attr} still refers to {originals[id(item)]}"
                            )

    def _set(self, owner, attr: str, value) -> None:
        old = inspect.getattr_static(owner, attr)
        self._patched.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def _set_item(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        self._patched.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._patched:
            self._patched.pop()()


def _substitute(val, replacement: dict[int, Callable]):
    """val with every original function in it replaced; val itself if none."""
    if id(val) in replacement:
        return replacement[id(val)]
    if isinstance(val, tuple) and any(id(x) in replacement for x in val):
        return tuple(replacement.get(id(x), x) for x in val)
    return val


# -- metrics computed from spans ------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def nesting_problems(spans: list[list]) -> list[str]:
    """Ways the spans fail to nest, each of which makes self times wrong.

    Every span must be closed after it opened, the first span must be the
    only root, every other span must lie inside its parent, and children
    must not overlap, which shows as a negative self time.  Times are the
    raw ``time.perf_counter()`` values, where an unclosed span ends at 0.
    """
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} was not closed")
        elif (parent < 0) != (i == 0):
            problems.append(f"span {i} {name} has parent {parent}; span 0 must be the only root")
        elif parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
            problems.append(f"span {i} {name} is not inside its parent span {parent}")
    # 1 ns of slack for the rounding of differences between clock readings
    problems += [
        f"span {i} {spans[i][0]} has negative self time: its children overlap"
        for i, t in enumerate(self_times(spans))
        if t < -1e-9 and spans[i][2] >= spans[i][1]
    ]
    return problems


def outer_time(spans: list[list], names: set[str]) -> float:
    """Total duration of spans in names that have no ancestor in names."""
    inside = [False] * len(spans)
    total = 0.0
    for i, rec in enumerate(spans):
        p = rec[3]
        inside[i] = p >= 0 and (inside[p] or spans[p][0] in names)
        if rec[0] in names and not inside[i]:
            total += rec[2] - rec[1]
    return total
