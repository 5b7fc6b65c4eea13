"""Span tracing of percoperm's layers, installed from outside the program.

A layer is one module of the package.  ``Tracer.installed()`` replaces each
public function of each layer (and each public method of its classes) by a
wrapper that records a span, in the defining module and in every
``percoperm`` module that imported it by name, and puts the originals back
on exit.  Generator functions are left alone: their span would end before
their work does.

Spans are (name, start, end, parent span, operation id), kept in flat
arrays and written out with ``write``.  Self time and call counts are
summed as spans close.  Every wrapper frame raises the recursion limit by
one while it runs, so a deep recursion fails at the same depth traced or
untraced.  Worker processes forked while tracing record nothing.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("perm", "percolation", "melds", "counting", "series")
FIELDS = (("name", "H"), ("start_ns", "q"), ("end_ns", "q"), ("parent", "i"), ("op", "i"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.spans = {field: array(code) for field, code in FIELDS}
        self._open: list[list[int]] = []  # [span index, ns covered by children]
        self.op = -1
        self.active = False
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def _enter(self, nid: int) -> list[int]:
        spans = self.spans
        entry = [len(spans["start_ns"]), 0]
        spans["name"].append(nid)
        spans["parent"].append(self._open[-1][0] if self._open else -1)
        spans["op"].append(self.op)
        spans["end_ns"].append(0)
        self._open.append(entry)
        spans["start_ns"].append(time.perf_counter_ns())
        return entry

    def _exit(self, nid: int, entry: list[int]) -> None:
        end = time.perf_counter_ns()
        spans = self.spans
        index, child_ns = entry
        spans["end_ns"][index] = end
        duration = end - spans["start_ns"][index]
        self._open.pop()
        self.self_ns[nid] += duration - child_ns
        self.calls[nid] += 1
        if self._open:
            self._open[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        """Root span of one operation."""
        self.op = op
        nid = self._name_id(name)
        entry = self._enter(nid)
        try:
            yield
        finally:
            self._exit(nid, entry)

    def wrap(self, func, name: str):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            sys.setrecursionlimit(sys.getrecursionlimit() + 1)
            entry = tracer._enter(nid)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._exit(nid, entry)
                sys.setrecursionlimit(sys.getrecursionlimit() - 1)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public functions for the duration of the block."""
        undo = []
        wrapped = {}  # original function -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"percoperm.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    undo += self._wrap_methods(obj, f"{layer}.{name}")
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{name}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "percoperm" and not module_name.startswith("percoperm."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    undo.append((module, name, obj))
                    setattr(module, name, wrapped[obj])
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def _wrap_methods(self, cls, prefix: str) -> list:
        undo = []
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            func = raw.__func__ if binder else raw
            if not inspect.isfunction(func) or inspect.isgeneratorfunction(func):
                continue
            traced = self.wrap(func, f"{prefix}.{name}")
            undo.append((cls, name, raw))
            setattr(cls, name, binder(traced) if binder else traced)
        return undo

    def totals(self) -> dict[str, tuple[float, int]]:
        """Name -> (self seconds, calls)."""
        return {name: (self.self_ns[i] / 1e9, self.calls[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """One JSON header line, then each field's array as raw native bytes."""
        header = {"names": self.names, "count": len(self.spans["start_ns"]),
                  "fields": [list(f) for f in FIELDS], "byteorder": sys.byteorder}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                self.spans[field].tofile(out)


def load_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by ``Tracer.write``: (names, field -> array)."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        fields = {}
        for field, code in header["fields"]:
            fields[field] = array(code)
            fields[field].fromfile(src, header["count"])
    return header["names"], fields
