"""Spans around calls into widecat's layers, installed from outside `src/`.

`Tracer.install` rebinds every traced function in each widecat module
namespace that holds it (``from .reduction import e_table`` makes a second
binding that calling ``reduction.e_table`` would miss) and wraps traced
methods on their class.  The benchmark's own stages are spans too
(`Tracer.span`), so every traced call has a parent and the self times of all
spans add up to the duration of the top-level stages.

Spans (name, start, end, parent) are kept in flat arrays while the run is
going and written out at the end.  The memo accessors of `Context` are called
millions of times per run (mostly cache hits), so they are counted rather
than recorded as spans: each call adds to a call count and a self time, and
that self time is charged to the enclosing span as if it were a child.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# (module, attribute) of every traced callable; "Class.method" wraps a method.
TRACED = (
    ("widecat.linalg", "rref"),
    ("widecat.linalg", "row_space_reduce"),
    ("widecat.linalg", "nullspace"),
    ("widecat.linalg", "solve_matrix"),
    ("widecat.modules", "hom_basis"),
    ("widecat.modules", "decompose"),
    ("widecat.modules", "kernel"),
    ("widecat.modules", "cokernel"),
    ("widecat.homology", "minimal_presentation"),
    ("widecat.homology", "ar_translate"),
    ("widecat.homology", "ar_translate_inverse"),
    ("widecat.homology", "ext1_dim"),
    ("widecat.homology", "chain_maps_mod_homotopy"),
    ("widecat.homology", "cone_homology"),
    ("widecat.arquiver", "build_ar_quiver"),
    ("widecat.taurigid", "strigid_objects"),
    ("widecat.taurigid", "ext_projective_ids"),
    ("widecat.taurigid", "is_support_tau_rigid"),
    ("widecat.reduction", "wide_of"),
    ("widecat.reduction", "e_table"),
    ("widecat.reduction", "e_map_key"),
    ("widecat.reduction", "f_map"),
    ("widecat.reduction", "rel_presentation"),
    ("widecat.category", "enumerate_wide_subcategories"),
    ("widecat.category", "WideCategory.__init__"),
    ("widecat.category", "WideCategory.compose"),
    ("widecat.category", "category_json"),
    ("widecat.sequences", "phi"),
    ("widecat.sequences", "phi_inverse"),
    ("widecat.sequences", "factorizations"),
    ("widecat.sequences", "enumerate_signed_sequences"),
)

# Counted, not recorded as spans (see the module docstring).
COUNTED = (
    ("widecat.context", "Context.hom"),
    ("widecat.context", "Context.ext1"),
    ("widecat.context", "Context.gen_members"),
)


def layer_name(module: str, attr: str) -> str:
    """`widecat.context` + `Context.hom` -> `context.Context.hom`."""
    return module.split(".", 1)[1] + "." + attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._child = array("d")  # time covered by direct children
        self._outer = array("b")  # 1 when no enclosing span has the same name
        self._active: list[int] = []  # open spans per name id
        self._stack: list[int] = []
        self._counted: dict[str, list] = {}  # name -> [calls, self seconds]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._child.append(0.0)
        self._outer.append(self._active[name_id] == 0)
        self._active[name_id] += 1
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self._end[idx] = end
        parent = self._parent[idx]
        if parent >= 0:
            self._child[parent] += end - self._start[idx]
        self._active[self._name[idx]] -= 1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span for one of the benchmark's own stages."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap_span(self, name: str, fn):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    def _wrap_counted(self, name: str, fn):
        acc = self._counted.setdefault(name, [0, 0.0])
        stack, child, clock = self._stack, self._child, time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not stack:  # outside every stage: count the call only
                acc[0] += 1
                return fn(*args, **kwargs)
            parent = stack[-1]
            before = child[parent]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                own = clock() - start - (child[parent] - before)
                acc[0] += 1
                acc[1] += own
                child[parent] += own
        return counted

    def install(self) -> None:
        """Wrap every traced and counted callable wherever widecat binds it."""
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "widecat" or n.startswith("widecat."))]
        wrappers = [(entry, self._wrap_span) for entry in TRACED]
        wrappers += [(entry, self._wrap_counted) for entry in COUNTED]
        for (module, attr), wrap in wrappers:
            owner = sys.modules[module]
            name = layer_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, wrap(name, orig), orig)
                continue
            orig = getattr(owner, attr)
            wrapped = wrap(name, orig)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._rebind(ns, key, wrapped, orig)

    def _rebind(self, holder, key: str, new, old) -> None:
        setattr(holder, key, new)
        self._undo.append((holder, key, old))

    def uninstall(self) -> None:
        for holder, key, old in reversed(self._undo):
            setattr(holder, key, old)
        self._undo.clear()

    def span_count(self) -> int:
        return len(self._start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds.

        Inclusive time counts only outermost spans of a name, so a function
        reached again below itself is not counted twice.  Self time is a
        span's duration minus the time its direct children cover.  Counted
        callables have no inclusive time.
        """
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(len(self._start)):
            row = out[self.names[self._name[i]]]
            dur = self._end[i] - self._start[i]
            row["calls"] += 1
            row["self_s"] += dur - self._child[i]
            if self._outer[i]:
                row["incl_s"] += dur
        for name, (calls, own) in self._counted.items():
            out[name] = {"calls": calls, "incl_s": 0.0, "self_s": own}
        return out

    def write_to(self, fh) -> None:
        """Spans as tab-separated lines: index, parent, name, start, end."""
        names, name, parent = self.names, self._name, self._parent
        start, end = self._start, self._end
        fh.write("index\tparent\tname\tstart\tend\n")
        for i in range(len(start)):
            fh.write(f"{i}\t{parent[i]}\t{names[name[i]]}"
                     f"\t{start[i]:.9f}\t{end[i]:.9f}\n")
