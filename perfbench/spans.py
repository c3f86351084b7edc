"""Outside-in span recording around calls into pihall.

A `Recorder` keeps every span in flat arrays (span id = position; parent,
name, query id, start, end) and aggregates calls, self time and inclusive
time per span name as spans close.  Self time is a span's duration minus
the durations of its direct child spans.

`install` wraps the boundaries listed in `layers.BOUNDARIES` at runtime.
Module-level functions are rebound under every name that refers to them in
any loaded ``pihall`` module, including functions held in module-level
lists and dicts (``suites.SUITES``), so a call through an alias cannot
escape its span.  Methods are rebound on their class.  A boundary whose
target no longer exists is reported as missing, never wrapped with a stub.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: Counter = Counter()
        self.stack: list[list] = []   # [span id, name id, start, child seconds]
        self.query_id = -1
        self.on = False           # spans are recorded only while on
        self.auto_query = False   # each top-level span starts a new query id

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        sid = len(self.start)
        stack = self.stack
        if self.auto_query and not stack:
            self.query_id += 1
        self.parent.append(stack[-1][0] if stack else -1)
        self.name.append(nid)
        self.query.append(self.query_id)
        self.end.append(0.0)
        t = time.perf_counter()
        self.start.append(t)
        stack.append([sid, nid, t, 0.0])

    def exit(self) -> None:
        t = time.perf_counter()
        sid, nid, t0, child = self.stack.pop()
        self.end[sid] = t
        dur = t - t0
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        if self.stack:
            self.stack[-1][3] += dur

    def open_names(self) -> list[str]:
        """Names of the open spans, outermost first."""
        return [self.names[frame[1]] for frame in self.stack]

    # -- aggregates --------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) for a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_s[nid], self.total_s[nid]

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans with this name from span id `since` on,
        in start order."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [self.end[i] - self.start[i]
                for i in range(since, len(self.name)) if self.name[i] == nid]

    def top_level_seconds(self) -> float:
        """Summed duration of the spans that have no parent span."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.parent)) if self.parent[i] == -1)

    def summary(self) -> dict:
        return {
            "spans": len(self.start),
            "by_name": {n: {"calls": self.calls[i],
                            "self_s": self.self_s[i],
                            "total_s": self.total_s[i]}
                        for i, n in enumerate(self.names)},
            "counters": dict(self.counters),
        }

    def write_spans(self, path) -> None:
        """All spans as columns, readable with numpy.load."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names, dtype=object).astype(str),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            query=np.frombuffer(self.query, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def _wrap(rec: Recorder, orig, nid: int, probe):
    if probe is None:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return orig(*args, **kwargs)
            rec.enter(nid)
            try:
                return orig(*args, **kwargs)
            finally:
                rec.exit()
        return wrapper

    @functools.wraps(orig)
    def probed(*args, **kwargs):
        if not rec.on:
            return orig(*args, **kwargs)
        token = probe.before(rec, args, kwargs)
        rec.enter(nid)
        try:
            result = orig(*args, **kwargs)
        except BaseException:
            rec.exit()
            probe.after(rec, token, args, None, failed=True)
            raise
        rec.exit()
        probe.after(rec, token, args, result, failed=False)
        return result
    return probed


def _pihall_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pihall" or name.startswith("pihall."))]


def _resolve(target: str):
    """(owner, attribute, original) for 'pkg.module:Qual.name', or None."""
    modname, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # plain functions only: a staticmethod, classmethod or inherited method
    # would change meaning if replaced by a plain wrapper
    if isinstance(owner, type):
        orig = owner.__dict__.get(attr)
    else:
        orig = getattr(owner, attr, None)
    if not inspect.isfunction(orig):
        return None
    return owner, attr, orig


class Installation:
    """Wrapped boundaries of one recorder; `remove` restores every binding."""

    def __init__(self):
        self.missing: list[str] = []
        self.escaped: list[str] = []
        self._undo: list = []

    def remove(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()


def install(rec: Recorder, boundaries) -> Installation:
    inst = Installation()
    modules = _pihall_modules()
    for b in boundaries:
        found = _resolve(b.target)
        if found is None:
            inst.missing.append(b.target)
            continue
        owner, attr, orig = found
        wrapper = _wrap(rec, orig, rec.name_id(b.span), b.probe)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            inst._undo.append(functools.partial(setattr, owner, attr, orig))
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    inst._undo.append(functools.partial(setattr, mod, key, orig))
                elif isinstance(val, (list, dict)):
                    slots = range(len(val)) if isinstance(val, list) else list(val)
                    for i in slots:
                        if val[i] is orig:
                            val[i] = wrapper
                            inst._undo.append(
                                functools.partial(val.__setitem__, i, orig))
        for mod in modules:
            for key, val in vars(mod).items():
                if isinstance(val, tuple) and any(v is orig for v in val):
                    inst.escaped.append(f"{mod.__name__}.{key} holds {b.target}")
    return inst
