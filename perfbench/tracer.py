"""Span tracing of the package's layers, installed from outside the package.

The tracer wraps each layer's public functions and rebinds every module-level
name that refers to them, so calls between modules (``from .zeta_czp import
zeta_czp`` copies the binding into ``zeta_char``, ``verify`` and ``cli``) go
through the wrapper too.  After rebinding, ``Tracer.leftover_references``
looks for any remaining reference to an unwrapped original; a non-empty list
means some calls would escape the trace.

A span is (name, start, end, parent, thread).  Spans are kept per thread in
flat arrays while the program runs and written out by ``write``.  A layer's
self time is a span's duration minus the durations of its child spans in the
same thread; a span started in a worker thread records its submitting span as
a cross-thread parent, and the time the parent spends waiting on such
children is reported apart from its self time.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import itertools
import json
import sys
import threading
import types
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "verify",
    "report",
    "zeta_char",
    "zeta_czp",
    "padic",
    "kernels",
    "euler",
    "fermionic",
    "characters",
)
PACKAGE = "padiczeta"
# The padic layer is traced only through these PadicContext methods; its
# module-level helpers run per element (millions of calls a sweep) and its
# arithmetic is counted (PADIC_OPS) rather than spanned.
PADIC_METHODS = ("unit_power", "log", "exp")
PADIC_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
)
NO_PARENT = -1


class _ThreadSpans:
    """Spans of one thread, in completion order."""

    def __init__(self, tid: int):
        self.tid = tid
        self.next_sid = 0
        self.stack: list[int] = []
        self.name = array("l")
        self.sid = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cross_parent: dict[int, tuple[int, int]] = {}
        self.terms: dict[int, int] = {}


def _public_functions(module) -> dict[str, types.FunctionType]:
    return {
        name: value
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType)
        and not name.startswith("_")
        and value.__module__ == module.__name__
    }


def _depths_terms(fn):
    """For a kernel with (p, ..., depths) arguments: args -> p**max(depths)."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    if "depths" not in sig.parameters or "p" not in sig.parameters:
        return None

    def terms(args, kwargs) -> int:
        bound = sig.bind(*args, **kwargs)
        return bound.arguments["p"] ** max(bound.arguments["depths"])

    return terms


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._register = threading.Lock()
        self._ops = itertools.count()
        self.originals: dict[str, object] = {}
        self._own_cells: set[int] = set()
        self.notes: list[str] = []

    # ---- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans(threading.get_ident())
            with self._register:
                self._threads.append(spans)
            self._local.spans = spans
            return spans

    def current(self) -> tuple[int, int]:
        """(thread id, span id) of the innermost open span of this thread."""
        spans = self._spans()
        return spans.tid, spans.stack[-1] if spans.stack else NO_PARENT

    def wrap(self, name: str, fn, terms=None, cross_parent=None):
        """fn with a span named ``name`` around every call.

        ``terms(args, kwargs)`` attaches a work count to the span.
        ``cross_parent`` = (thread id, span id) is the parent recorded when the
        call starts a thread's outermost span in another thread.
        """
        nid = self._name_id(name)
        get_spans = self._spans

        def traced(*args, **kwargs):
            spans = get_spans()
            sid = spans.next_sid
            spans.next_sid = sid + 1
            stack = spans.stack
            if stack:
                parent = stack[-1]
            else:
                parent = NO_PARENT
                if cross_parent is not None and cross_parent[0] != spans.tid:
                    spans.cross_parent[sid] = cross_parent
            if terms is not None:
                spans.terms[sid] = terms(args, kwargs)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.name.append(nid)
                spans.sid.append(sid)
                spans.parent.append(parent)
                spans.start.append(t0)
                spans.end.append(t1)

        self._own_cells.update(id(cell) for cell in traced.__closure__)
        return traced

    def _count(self, fn):
        tick = self._ops.__next__

        def counted(*args):
            tick()
            return fn(*args)

        self._own_cells.update(id(cell) for cell in counted.__closure__)
        return counted

    def ops(self) -> int:
        """PadicNumber arithmetic calls counted so far (read once, at the end:
        reading advances the counter)."""
        return next(self._ops)

    # ---- installation -------------------------------------------------------

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap every layer's public functions and rebind all references."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            if layer == "padic":
                continue
            module = modules[layer]
            for fname, fn in _public_functions(module).items():
                terms = _depths_terms(fn) if layer == "kernels" else None
                if layer == "kernels" and terms is None:
                    continue  # helpers such as wrap_mod; only sums are kernels
                key = f"{layer}.{fname}"
                self.originals[key] = fn
                replacements[id(fn)] = self.wrap(key, fn, terms)
        package_modules = [
            m
            for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        self._rebind_captured(replacements)

        padic = modules["padic"]
        for meth in PADIC_METHODS:
            fn = padic.PadicContext.__dict__[meth]
            key = f"padic.{meth}"
            self.originals[key] = fn
            setattr(padic.PadicContext, meth, self.wrap(key, fn))
        for op in PADIC_OPS:
            fn = padic.PadicNumber.__dict__.get(op)
            if fn is not None:
                self.originals[f"padic.PadicNumber.{op}"] = fn
                setattr(padic.PadicNumber, op, self._count(fn))

        self._wrap_identities(modules["verify"])

    def _wrap_identities(self, verify) -> None:
        """One span per verification task, named after its identity.

        Relies on verify's registry of task builders (name -> builder(cfg)
        returning (name, callable) pairs); without it the identity spans are
        missing and the per-identity times read 0.
        """
        builders = getattr(verify, "_BUILDERS", None)
        if not isinstance(builders, dict):
            self.notes.append("verify has no _BUILDERS registry: no identity spans")
            return
        for identity, builder in list(builders.items()):
            builders[identity] = self._wrap_builder(identity, builder)

    def _wrap_builder(self, identity: str, builder):
        name = f"verify.identity:{identity}"

        def build(cfg):
            parent = self.current()
            return [
                (task_name, self.wrap(name, fn, cross_parent=parent))
                for task_name, fn in builder(cfg)
            ]

        return build

    def _rebind_captured(self, replacements: dict[int, object]) -> None:
        """Point closures and dataclass default factories at the wrappers.

        A dataclass field with ``default_factory=f`` keeps f in the Field and
        in a closure cell of the generated ``__init__``.
        """
        targets = [fn for fn in self.originals.values() if id(fn) in replacements]
        for ref in gc.get_referrers(*targets):
            if isinstance(ref, types.CellType) and id(ref) not in self._own_cells:
                ref.cell_contents = replacements[id(ref.cell_contents)]
            elif isinstance(ref, dataclasses.Field):
                wrapper = replacements.get(id(ref.default_factory))
                if wrapper is not None:
                    ref.default_factory = wrapper

    def leftover_references(self) -> list[str]:
        """Holders of an original function other than its wrapper.

        Anything listed here can still call the original, bypassing the trace.
        """
        keys = {id(fn): key for key, fn in self.originals.items()}
        found = []
        for ref in gc.get_referrers(*self.originals.values()):
            if ref is self.originals or isinstance(ref, types.FrameType):
                continue
            if isinstance(ref, types.CellType):
                if id(ref) in self._own_cells:
                    continue
                values = (ref.cell_contents,)
            elif isinstance(ref, dict):
                values = ref.values()
            elif isinstance(ref, (list, tuple, set)):
                values = ref
            else:
                values = vars(ref).values() if hasattr(ref, "__dict__") else ()
            held = sorted({keys[id(v)] for v in values if id(v) in keys})
            found.append(f"{type(ref).__name__} holds {', '.join(held) or '?'}")
        return found

    # ---- output -------------------------------------------------------------

    def threads(self) -> list[_ThreadSpans]:
        with self._register:
            return list(self._threads)

    def write(self, path) -> None:
        """One JSON header line, then per thread the raw span arrays in order
        name, span id, parent id, start, end (sizes given in the header)."""
        threads = self.threads()
        header = {
            "names": self.names,
            "threads": [
                {
                    "tid": t.tid,
                    "spans": len(t.sid),
                    "cross_parent": {str(k): v for k, v in t.cross_parent.items()},
                    "typecodes": ["l", "q", "q", "d", "d"],
                }
                for t in threads
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for t in threads:
                for arr in (t.name, t.sid, t.parent, t.start, t.end):
                    arr.tofile(fh)


# ---- analysis -----------------------------------------------------------------


def self_times(parents, durations) -> list[float]:
    """Self time of each span: its duration minus its same-thread children's.

    ``parents[i]`` is the index of span i's parent in the same lists, or
    NO_PARENT.
    """
    child = [0.0] * len(durations)
    for i, parent in enumerate(parents):
        if parent != NO_PARENT:
            child[parent] += durations[i]
    return [d - c for d, c in zip(durations, child)]


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarise(names: list[str], threads: list[_ThreadSpans]) -> dict:
    """Aggregate spans by name.

    Returns a dict with, per span name, ``calls``, ``self_s``, ``total_s``,
    ``terms`` and ``wait_s`` (time spent waiting on cross-thread children);
    ``thread_self`` (per thread id, the sum of its spans' self times);
    ``with_child[(parent, child)]``, the number of ``parent`` spans with at
    least one direct ``child`` span; and ``under[(parent, child)]``, the
    number of ``child`` spans whose direct parent is a ``parent`` span.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    terms: dict[str, int] = defaultdict(int)
    wait_s: dict[str, float] = defaultdict(float)
    with_child: dict[tuple[str, str], int] = defaultdict(int)
    under: dict[tuple[str, str], int] = defaultdict(int)
    thread_self: dict[int, float] = {}
    index = {}  # (tid, sid) -> (thread, position), for cross-thread parents
    for t in threads:
        for i, sid in enumerate(t.sid):
            index[(t.tid, sid)] = (t, i)
    for t in threads:
        pos = {sid: i for i, sid in enumerate(t.sid)}
        durations = [e - s for s, e in zip(t.start, t.end)]
        parents = [pos[p] if p != NO_PARENT else NO_PARENT for p in t.parent]
        selfs = self_times(parents, durations)
        seen_pairs = set()
        for i, nid in enumerate(t.name):
            name = names[nid]
            calls[name] += 1
            self_s[name] += selfs[i]
            total_s[name] += durations[i]
            terms[name] += t.terms.get(t.sid[i], 0)
            parent = parents[i]
            if parent != NO_PARENT:
                pname = names[t.name[parent]]
                under[(pname, name)] += 1
                if (parent, name) not in seen_pairs:
                    seen_pairs.add((parent, name))
                    with_child[(pname, name)] += 1
        thread_self[t.tid] = sum(selfs)
    waiting: dict[tuple[int, int], list] = defaultdict(list)
    for t in threads:
        for sid, parent in t.cross_parent.items():
            _, i = index[(t.tid, sid)]
            waiting[tuple(parent)].append((t.start[i], t.end[i]))
    for parent, intervals in waiting.items():
        if parent not in index:
            continue
        pt, i = index[parent]
        lo, hi = pt.start[i], pt.end[i]
        clipped = [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]
        wait_s[names[pt.name[i]]] += covered(clipped)
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "total_s": dict(total_s),
        "terms": dict(terms),
        "wait_s": dict(wait_s),
        "thread_self": thread_self,
        "with_child": dict(with_child),
        "under": dict(under),
    }
