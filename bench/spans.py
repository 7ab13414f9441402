"""In-memory span tracing for the benchmark, installed from outside the library.

A Tracer replaces functions at the module bindings where callers look them
up (``qmeasure.scenario.compose`` as well as ``qmeasure.intersubjectivity.
compose``), so the library itself is never edited. Each wrapped call records
one span: name, start, end, parent span id, op id, whether it raised, and an
optional integer tag (the compound dimension for ``compose``). Spans stay in
memory; ``summarize`` turns them into per-layer call counts, inclusive time
and self time, where self time is a span's duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

# the library modules whose public functions are traced
TRACED_MODULES = (
    "scenario",
    "serialize",
    "measurement",
    "intersubjectivity",
    "observables",
    "linalg",
    "cli",
)

# span row layout
NAME, START, END, PARENT, OP, ERROR, TAG = range(7)


def _span_name(module: str, func: str) -> str:
    # serialize's encoders and decoders form one layer each
    if module == "serialize" and func.endswith("_from_json"):
        return "serialize.from_json"
    if module == "serialize" and func.endswith("_to_json"):
        return "serialize.to_json"
    return f"{module}.{func}"


def _compose_dim(args, kwargs):
    p1 = kwargs.get("process1", args[1] if len(args) > 1 else None)
    p2 = kwargs.get("process2", args[2] if len(args) > 2 else None)
    try:
        return int(p1.system_dim * p1.apparatus_dim * p2.apparatus_dim)
    except AttributeError:
        return None


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._patches = []

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def _wrap(self, fn, name, tag_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1, self._op, False,
                   tag_of(args, kwargs) if tag_of else None]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            except Exception:
                row[ERROR] = True
                raise
            finally:
                stack.pop()
                row[END] = clock()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package, extra=()):
        """Wrap the public functions of TRACED_MODULES at every binding in package.

        extra is a sequence of (owner, attribute, span name) for functions
        outside the library, such as the benchmark's own report dump.
        """
        traced = {short: importlib.import_module(f"{package.__name__}.{short}")
                  for short in TRACED_MODULES}
        modules = [package] + [
            m for m in vars(package).values()
            if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")
        ]
        wrappers = {}
        for short, module in traced.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    tag_of = _compose_dim if (short, attr) == ("intersubjectivity",
                                                               "compose") else None
                    wrappers[id(obj)] = self._wrap(obj, _span_name(short, attr), tag_of)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        pvm = traced["observables"].Pvm
        self._patch(pvm, "__post_init__",
                    self._wrap(pvm.__post_init__, "observables.pvm_checks"))
        for owner, attr, name in extra:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_op(self, op_id: int):
        """Open the root span of one op; every span until end_op nests under it."""
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id, False, None])

    def end_op(self, failed: bool = False):
        row = self.spans[self._stack.pop()]
        row[END] = time.perf_counter()
        row[ERROR] = failed
        self._op = -1

    def absorb(self, rows):
        """Add spans recorded in a child process under the currently open span.

        Child ids are shifted past the spans already held; the child's root
        spans get the open span as parent. perf_counter is the system-wide
        monotonic clock on Linux, so child times share this process's base.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for row in rows:
            row = list(row)
            row[PARENT] = parent if row[PARENT] < 0 else row[PARENT] + base
            row[OP] = self._op
            self.spans.append(row)


def self_times(spans):
    """Self time of every span: its duration minus the union of its children.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping or overhanging children are counted
    once and only inside the parent.
    """
    children = defaultdict(list)
    for i, row in enumerate(spans):
        if row[PARENT] >= 0:
            children[row[PARENT]].append(i)
    out = []
    for i, row in enumerate(spans):
        lo, hi = row[START], row[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for s, e in sorted((max(spans[c][START], lo), min(spans[c][END], hi))
                           for c in children.get(i, ())):
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def _outermost(spans, i) -> bool:
    """True unless an ancestor of span i has the same name (recursion, or a
    serialize decoder calling another decoder)."""
    name = spans[i][NAME]
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return False
        parent = spans[parent][PARENT]
    return True


def summarize(spans):
    """Per span name: calls, inclusive seconds (outermost spans only), self
    seconds, errors; per (name, tag): calls and inclusive seconds."""
    selfs = self_times(spans)
    layers = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "errors": 0})
    tagged = defaultdict(lambda: {"calls": 0, "incl_s": 0.0})
    for i, row in enumerate(spans):
        stats = layers[row[NAME]]
        stats["calls"] += 1
        stats["self_s"] += selfs[i]
        stats["errors"] += bool(row[ERROR])
        duration = row[END] - row[START]
        if _outermost(spans, i):
            stats["incl_s"] += duration
        if row[TAG] is not None:
            cell = tagged[(row[NAME], row[TAG])]
            cell["calls"] += 1
            cell["incl_s"] += duration
    return dict(layers), dict(tagged)
