"""Spans around the engine's public functions, recorded from outside the engine.

``Tracer.install`` rebinds each listed function in every ``modtriples.*``
module namespace (and module-level dict, such as the parser table in
``formats``) that holds it, and patches class attributes for methods.
``Tracer.restore`` puts every original object back.  Spans live in
flat arrays in memory: name, start, end, parent span and request id.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.request_id = -1
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn: Callable, bucket: Optional[Callable] = None,
             observe: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call.

        ``bucket(args)`` appends a suffix to the span name;
        ``observe(tracer, args, result)`` runs after the span is closed.
        """
        nid = self.name_id(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends = self.start, self.end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(self.name_id(f"{name}.{bucket(args)}") if bucket else nid)
            parents.append(tracer.current)
            requests.append(tracer.request_id)
            ends.append(0.0)
            prev, tracer.current = tracer.current, idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = prev
            if observe:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value, in_dict: bool = False) -> None:
        old = owner[attr] if in_dict else owner.__dict__[attr]
        self._patches.append((owner, attr, old, in_dict))
        if in_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self, targets) -> None:
        """Wrap each target: (span name, module name, attribute path, bucket, observe).

        An attribute path ``Class.method`` patches the class attribute,
        keeping classmethods classmethods.
        """
        owners = {t[1]: importlib.import_module(t[1]) for t in targets}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "modtriples" or n.startswith("modtriples.")) and m is not None]
        for span, module_name, path, bucket, observe in targets:
            owner = owners[module_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(span, raw.__func__, bucket, observe))
                else:
                    wrapped = self.wrap(span, raw, bucket, observe)
                self._set(cls, meth, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(span, original, bucket, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)
                    elif type(value) is dict:
                        for key, item in list(value.items()):
                            if item is original:
                                self._set(value, key, wrapped, in_dict=True)

    def restore(self) -> None:
        for owner, attr, old, in_dict in reversed(self._patches):
            if in_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part covered by its child spans."""
        n = len(self.name)
        own = [self.end[i] - self.start[i] for i in range(n)]
        dur = list(own)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, summed self time)}."""
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for i, s in enumerate(self.self_times()):
            nid = self.name[i]
            calls[nid] += 1
            selfs[nid] += s
        return {name: (calls[i], selfs[i]) for i, name in enumerate(self.names)}

    def calls_under(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` with an ancestor span named ``ancestor``."""
        if child not in self._ids or ancestor not in self._ids:
            return 0
        cid, aid = self._ids[child], self._ids[ancestor]
        inside = [False] * len(self.name)  # span i is, or lies under, an ancestor span
        count = 0
        for i in range(len(self.name)):
            p = self.parent[i]
            under = p >= 0 and inside[p]
            inside[i] = under or self.name[i] == aid
            count += under and self.name[i] == cid
        return count

    def write(self, path: Path) -> None:
        """Spans as raw arrays plus a JSON index naming them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name, self.parent, self.request, self.start, self.end):
                arr.tofile(fh)
        index = {"spans": len(self.name), "names": self.names,
                 "layout": ["name:i32", "parent:i32", "request:i32", "start:f64", "end:f64"]}
        path.with_suffix(".json").write_text(json.dumps(index, indent=1), encoding="utf-8")
