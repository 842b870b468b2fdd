"""Spans around wproj's layers, installed from outside the library.

The tracer rebinds public names in the modules that import them (for
example ``wproj.scan.wgcd``) to timing wrappers.  A span holds its name,
start, end, parent span and request id (the point a scan row or audit
point is about; children inherit it).  Spans are kept in flat arrays
while the program runs and are aggregated or written out at the end.
Only the calling process is traced: run with ``--workers 1``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array


def _arg(i):
    return lambda args: args[i]


def _coords(args):
    return args[0].coords


# span name -> where the callable is bound ("module:attr" or
# "module:Class.attr"), and how to read the request id from its arguments
LAYERS = (
    ("wpoly.evaluate", ("wproj.gcdops:evaluate", "wproj.localheights:evaluate"), None),
    ("gcdops.values_at", ("wproj.gcdops:Subscheme.values_at",), None),
    ("gcdops.wgcd", ("wproj.gcdops:wgcd", "wproj.scan:wgcd", "wproj.points:wgcd",
                     "wproj.cli:wgcd"), None),
    ("gcdops.log_hwgcd", ("wproj.scan:log_hwgcd", "wproj.cli:log_hwgcd"), _arg(0)),
    ("scan.evaluate_point", ("wproj.scan:evaluate_point",), _arg(1)),
    ("scan.vojta_scan", ("wproj.cli:vojta_scan",), None),
    ("scan.sing1_audit", ("wproj.cli:sing1_audit",), None),
    ("arith.factorize", ("wproj.arith:factorize", "wproj.gcdops:factorize"), None),
    ("arith.sympy_fallback", ("sympy:factorint",), None),
    ("arith.s_part", ("wproj.scan:s_part",), None),
    ("arith.logvalue_cmp", ("wproj.arith:LogValue.__lt__",), None),
    ("arith.logvalue_of_rational", ("wproj.arith:LogValue.of_rational",), None),
    ("points.wpoint_of", ("wproj.points:WPoint.of",), _arg(1)),
    ("points.sign_canon", ("wproj.scan:sign_canon", "wproj.points:sign_canon"), _coords),
    ("singular.is_singular", ("wproj.scan:is_singular", "wproj.cli:is_singular"), _coords),
    ("heights.wheight", ("wproj.heights:wheight", "wproj.localheights:wheight",
                         "wproj.cli:wheight"), None),
    ("localheights.global_sum", ("wproj.cli:global_sum",), None),
    ("localheights.zeta", tuple(f"{m}:zeta_{k}" for m in ("wproj.localheights", "wproj.cli")
                                for k in ("hyperplane", "principal", "subscheme")), None),
    ("cli.format", tuple(f"wproj.cli:{f}" for f in (
        "format_scan_csv", "format_scan_json", "format_audit_csv", "format_audit_json",
        "_emit")), None),
)

# generators whose next() calls are spans; the request id is the yielded point
ENUMERATORS = ("wproj.scan:candidate_points", "wproj.scan:_canonical_points")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.rid = array("l")
        self.rids: list = []
        self.stack: list[int] = []
        self.yielded = 0

    def _open(self, name: int, rid=None) -> int:
        idx = len(self.start)
        parent = self.stack[-1] if self.stack else -1
        if rid is not None:
            self.rids.append(rid)
            rid_idx = len(self.rids) - 1
        else:
            rid_idx = self.rid[parent] if parent >= 0 else -1
        self.parent.append(parent)
        self.name.append(name)
        self.rid.append(rid_idx)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, rid_of=None):
        ni = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(ni, rid_of(args) if rid_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_enumerator(self, name: str, fn):
        ni = self._name(name)

        def traced_iter(it):
            while True:
                idx = self._open(ni)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(idx)
                    return
                self._close(idx)
                self.rids.append(item)
                self.rid[idx] = len(self.rids) - 1
                self.yielded += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return traced_iter(iter(fn(*args, **kwargs)))

        return traced

    def install(self) -> None:
        """Rebind every layer's names to traced wrappers."""
        for span, targets, rid_of in LAYERS:
            wrapped: dict[int, object] = {}
            for target in targets:
                owner, attr, fn = _resolve(target)
                raw = fn.__func__ if isinstance(fn, classmethod) else fn
                if id(raw) not in wrapped:
                    wrapped[id(raw)] = self.wrap(span, raw, rid_of)
                new = wrapped[id(raw)]
                setattr(owner, attr, classmethod(new) if isinstance(fn, classmethod) else new)
        for target in ENUMERATORS:
            owner, attr, fn = _resolve(target)
            setattr(owner, attr, self.wrap_enumerator("scan.enumerate", fn))

    def aggregate(self) -> dict[str, list]:
        """{span name: [calls, self seconds]}; self time is the span's
        duration minus the time its direct children cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path) -> None:
        """One line per span: id, parent, name, start, end (seconds from
        the first span) and request id."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_s\tend_s\trequest_id\n")
            for i in range(len(self.start)):
                r = self.rid[i]
                rid = "" if r < 0 else "[" + ":".join(str(v) for v in self.rids[r]) + "]"
                f.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                        f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{rid}\n")


def _resolve(target: str):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    fn = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, fn
