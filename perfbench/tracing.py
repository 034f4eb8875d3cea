"""Spans around the public entry points of the addbasis layers.

A :class:`Tracer` replaces each traced function, wherever an ``addbasis``
module holds a reference to it, with a wrapper that records one span
(name, start, end, parent) per call.  Spans stay in memory until the run
ends.  Per-layer self time is a span's duration minus the time its child
spans cover.  The originals are restored by :meth:`Tracer.uninstall`, so
untraced rounds run the program exactly as shipped.

:class:`NullTracer` has the same interface and records nothing; the traced
run times its reference rounds with it, so that the difference between
the two is the tracing overhead.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from math import gcd, lcm
from time import perf_counter

# (span name, module, attribute) for module-level functions; the wrapper
# replaces every reference an addbasis module holds to the same object.
FUNCTIONS = (
    ("orders.order", "addbasis.orders", "order"),
    ("invariants.instance", "addbasis.invariants", "instance_invariants"),
    ("invariants.eta", "addbasis.invariants", "eta_with_witness"),
    ("invariants.mu", "addbasis.invariants", "mu_with_witness"),
    ("bounds.verify", "addbasis.bounds", "verify_instance"),
    ("sweeps.write", "addbasis.sweeps", "_absorb_rows"),
)
# (span name, attribute) for methods of EventuallyPeriodicSet
METHODS = (
    ("periodic.normalize", "normalize"),
    ("periodic.remove_finite", "remove_finite"),
    ("periodic.adjoin", "adjoin"),
    ("periodic.sumset", "sumset"),
    ("periodic.sumset", "__add__"),
)


class NullTracer:
    """Records nothing.  ``serial`` asks workloads to run pool work items
    in this process, one at a time, as the traced rounds do."""

    def __init__(self, serial: bool = False):
        self.serial = serial

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    @contextmanager
    def span(self, name: str):
        yield


class Tracer(NullTracer):
    def __init__(self):
        super().__init__(serial=True)
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._undo: list = []
        self.residue_args: list = []  # sets passed to the residue engine
        self.steps = {"orders.residue": 0, "orders.bitset": 0}
        self.sumset_args: list = []

    # -- span recording ------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "orders.order":
            def wrapper(a, *args, **kwargs):
                method = kwargs.get("method", args[1] if len(args) > 1 else "auto")
                engine = "orders.bitset" if method == "bitset" else "orders.residue"
                idx = tracer._open(engine)
                try:
                    res = fn(a, *args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer.steps[engine] += res.order
                if engine == "orders.residue":
                    tracer.residue_args.append(a)
                return res
        elif name == "periodic.sumset":
            def wrapper(a, b):
                idx = tracer._open(name)
                try:
                    return fn(a, b)
                finally:
                    tracer._close(idx)
                    tracer.sumset_args.append((a, b))
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        from addbasis.periodic import EventuallyPeriodicSet as EPS

        mods = [m for k, m in sys.modules.items()
                if k == "addbasis" or k.startswith("addbasis.")]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, attr in METHODS:
            original = EPS.__dict__[attr]
            self._undo.append((EPS, attr, original))
            setattr(EPS, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: [calls, total seconds, self seconds]}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        hits = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            hits += p >= 0
        return hits

    def residue_keys(self) -> tuple[int, int]:
        """(distinct residue keys, affine orbits) over the residue calls.

        A key is (n, F mod n, R) of the canonical set: all the residue
        engine reads.  Its answer is invariant under x -> ux + t for every
        unit u mod n, so keys fall into orbits under that group.
        """
        from addbasis.periodic import EventuallyPeriodicSet as EPS

        normalize = EPS.__dict__["normalize"]
        keys = set()
        for a in self.residue_args:
            s = normalize(a)
            n = s.modulus
            keys.add((n, frozenset(f % n for f in s.finite_part), s.residues))
        orbits = set()
        for n, fs, rs in keys:
            best = None
            for u in range(1, n + 1):
                if gcd(u, n) != 1:
                    continue
                for t in range(n):
                    image = (tuple(sorted((u * f + t) % n for f in fs)),
                             tuple(sorted((u * r + t) % n for r in rs)))
                    if best is None or image < best:
                        best = image
            orbits.add((n, best))
        return len(keys), len(orbits)

    def sumset_bits(self) -> int:
        """Computed bit operations of the sumset kernel: per call, the
        shift-ORs (elements of the sparser operand in the window) times the
        window width T1 + T2 + 4 lcm(n1, n2) + 1."""
        from addbasis.periodic import EventuallyPeriodicSet as EPS

        normalize = EPS.__dict__["normalize"]
        bits = 0
        for a, b in self.sumset_args:
            a, b = normalize(a), normalize(b)
            bound = a.threshold + b.threshold + 4 * lcm(a.modulus, b.modulus)
            shifts = min(len(a.prefix(bound)), len(b.prefix(bound)))
            bits += shifts * (bound + 1)
        return bits

    def write(self, path, info: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"info": info}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
