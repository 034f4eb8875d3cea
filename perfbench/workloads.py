"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up), then runs whole rounds of the same operations.  ``run_round``
fills a :class:`Round` with the latency of every request, the operations
done and the operations that failed, and raises :class:`CheckFailed` when
an output disagrees with the independent oracles in ``oracles.py``.

A request is what the workload's caller issues and waits for; an
operation is the unit counted in ``attempted`` and in ``ops_per_s``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

import oracles as ref

# Entry points are called through their modules, so that a Tracer's
# wrappers see the benchmark's own calls too.
from addbasis import bounds, orders, sweeps
from addbasis.periodic import EventuallyPeriodicSet

POOL_WORKERS = 2


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Round:
    def __init__(self):
        self.latencies: list[float] = []
        self.ops = 0
        self.failed = 0
        self.layers: dict = {}  # per-layer numbers only the workload knows


def build_set(spec) -> EventuallyPeriodicSet:
    finite, threshold, n, residues = spec
    return EventuallyPeriodicSet.from_parts(finite, threshold, n, residues)


# ----------------------------------------------------------------------

class TwoResidueSweep:
    """Fresh exhaustive two-residue sweep, cut halfway through a row, then
    resumed.  One request is the fresh sweep plus the resume; one
    operation is a record delivered by either call."""

    SIZES = {"full": 10, "smoke": 5}
    ORACLE_SAMPLE = {"full": 12, "smoke": 4}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.n_max = self.SIZES[size]
        self.sample = self.ORACLE_SAMPLE[size]
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.expected = self._enumerate()
        self.reference: list | None = None  # records of the first round

    def _enumerate(self) -> set:
        """Keys of the documented instance family: cores {a, b} mod n with
        gcd(b - a, n) = 1 (otherwise A \\ X has gcd > 1), times the
        adjoined progressions of length <= 4 and difference <= n."""
        keys = set()
        for n in range(2, self.n_max + 1):
            xs = [(0,)] + [tuple(i * s for i in range(length))
                           for length in (2, 3, 4) for s in range(1, n + 1)]
            for a in range(n):
                for b in range(a + 1, n):
                    if gcd(b - a, n) == 1:
                        keys.update((n, a, b, x) for x in xs)
        return keys

    @staticmethod
    def _records(raw: bytes) -> list[dict]:
        """Rows after the header, without their timestamps."""
        rows = [json.loads(line) for line in raw.decode().splitlines()[1:]]
        return [{k: v for k, v in r.items() if k != "ts"} for r in rows]

    def run_round(self, tracer, rnd: Round) -> None:
        path = self.workdir / "two_residue.jsonl"
        with tracer.span("sweeps.fresh"):
            t0 = perf_counter()
            fresh = sweeps.exhaustive_two_residue_sweep(self.n_max,
                                                        out=str(path))
            t1 = perf_counter()
        raw = path.read_bytes()
        cut = len(raw) // 2
        if raw[cut - 1:cut] == b"\n":
            cut -= 1  # leave the final row torn
        path.write_bytes(raw[:cut])
        with tracer.span("sweeps.resume"):
            t2 = perf_counter()
            resumed = sweeps.exhaustive_two_residue_sweep(
                self.n_max, out=str(path), resume=True)
            t3 = perf_counter()
        resumed_raw = path.read_bytes()
        path.unlink()
        rnd.latencies.append((t1 - t0) + (t3 - t2))
        rnd.failed = fresh.errors + resumed.errors
        rnd.ops = fresh.records_written + resumed.records_written + rnd.failed
        rnd.layers = {
            "rows_written": fresh.records_written + resumed.records_written,
            "bytes_written": len(raw) + len(resumed_raw) - cut,
            "resume_rows_written": resumed.records_written,
        }
        self._check(raw, resumed_raw, fresh, resumed)

    def _check(self, raw: bytes, resumed_raw: bytes, fresh, resumed) -> None:
        expect(fresh.errors == 0 and resumed.errors == 0, "sweep error rows")
        records = self._records(raw)
        expect(fresh.records_written == len(self.expected) == len(records),
               f"fresh sweep wrote {fresh.records_written} records, the "
               f"enumeration has {len(self.expected)}")
        if self.reference is None:
            self._check_records(records)
            self.reference = records
        expect(records == self.reference, "records changed between rounds")
        after = self._records(resumed_raw)
        keys = [json.dumps(r["params"], sort_keys=True) for r in after]
        expect(len(keys) == len(set(keys)), "resumed file repeats a key")
        expect(after == records, "resumed records differ from the fresh records")

    def _check_records(self, rows: list[dict]) -> None:
        got = set()
        for r in rows:
            p = r["params"]
            n, a, b, x = p["n"], p["a"], p["b"], tuple(p["x"])
            got.add((n, a, b, x))
            expect(r["kind"] == "record", f"non-record row {p}")
            expect(Fraction(r["d"]) == ref.d_of(x), f"d of {p}")
            h, g = r["h"], r["g"]
            dens = Fraction(2, n)
            bounds = (ref.rhs_d(h, ref.d_of(x)), ref.rhs_eta(h, r["eta"]),
                      ref.rhs_mu(h, r["mu"]), ref.rhs_mu_improved(h, r["mu"]),
                      ref.rhs_density(dens))
            expect(all(g <= rhs for rhs in bounds) and h <= ref.rhs_density(dens),
                   f"bound fails on {p}")
            if len(x) == 1:
                expect(g <= ref.rhs_single_upper(h), f"single bound on {p}")
        expect(got == self.expected, "record keys differ from the enumeration")
        for r in self.rng.sample(rows, self.sample):
            p = r["params"]
            n, x = p["n"], tuple(p["x"])
            top = max(x) + 1
            core = [y for y in range(top) if y % n in (p["a"], p["b"])]
            spec = (tuple(sorted(set(core) | set(x))), top, n, (p["a"], p["b"]))
            expect(ref.order_holds(spec, r["h"]), f"h of {p}")
            expect(ref.order_holds(ref.remove(spec, x), r["g"]), f"g of {p}")
            expect(ref.eta(spec, x) == r["eta"], f"eta of {p}")
            expect(ref.mu(spec, x) == r["mu"], f"mu of {p}")


# ----------------------------------------------------------------------

class CyclicBases:
    """Every basis of Z/nZ containing 0, n <= n_max, on a pool of two
    workers.  One request is one exhaustive call; one operation is a
    basis checked.  Under a tracer the pool's work items run serially in
    this process, one span each, so their times can be read apart."""

    SIZES = {"full": 18, "smoke": 8}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.n_max = self.SIZES[size]
        self.expected = [ref.cyclic_bases_with_zero(n)
                         for n in range(1, self.n_max + 1)]

    def run_round(self, tracer, rnd: Round) -> None:
        if tracer.serial:
            items = []
            t0 = perf_counter()
            for n in range(1, self.n_max + 1):
                with tracer.span("sweeps.cyclic.item"):
                    s = perf_counter()
                    items.append(sweeps._klopsch_lev_n(n))
                    rnd.layers.setdefault("item_s", []).append(perf_counter() - s)
            rnd.latencies.append(perf_counter() - t0)
            per_n = items
        else:
            t0 = perf_counter()
            summary = sweeps.klopsch_lev_exhaustive(self.n_max,
                                             parallelism=POOL_WORKERS)
            rnd.latencies.append(perf_counter() - t0)
            per_n = summary["per_n"]
            expect(summary["violations"] == 0, "cyclic violations")
            expect(summary["bases_checked"] == sum(self.expected),
                   "bases_checked differs from the Möbius count")
        counts = [row["bases"] for row in per_n]
        rnd.ops = sum(counts)
        rnd.layers["subsets"] = sum(2 ** (n - 1) for n in range(1, self.n_max + 1))
        rnd.layers["bases"] = rnd.ops
        expect(counts == self.expected,
               f"per-n base counts {counts} differ from the Möbius count")
        for row in per_n:
            expect(row["violations_divisor_bound"] == 0
                   and row["violations_product_bound"] == 0,
                   f"violation at n={row['n']}")
            num, den = row["max_product_ratio"]
            expect(Fraction(num, den) < 1, f"product ratio >= 1 at n={row['n']}")


# ----------------------------------------------------------------------

class BitsetCrosscheck:
    """Both order engines on A and A \\ X over the cubic and quadratic
    construction grids.  One request is one grid cell; one operation is
    one order computation (four per cell)."""

    GRIDS = {"full": ((3, 4), (5, 5)), "smoke": ((2, 3), (3, 3))}

    def __init__(self, seed: int, size: str, workdir: Path):
        (d_max, k_max), (h_max, mu_max) = self.GRIDS[size]
        self.cells = []
        for d in range(1, d_max + 1):
            for k in range(2, k_max + 1):
                x = tuple(i * k for i in range(d + 1))
                self.cells.append(self._cell(f"cubic(d={d},k={k})", x,
                                             d * k ** 3, (1, d * k * k),
                                             d * k ** 3 - 1))
        for h in range(2, h_max + 1):
            for mu in range(2, mu_max + 1):
                n = h * (h - 1) * mu + 1
                self.cells.append(self._cell(f"quadratic(h={h},mu={mu})",
                                             (0, 1), n, (mu, h * mu), n - 1))
        self.reference: list | None = None

    @staticmethod
    def _cell(label, x, n, residues, g_expected):
        top = max(x) + 1
        core = [y for y in range(top) if y % n in residues]
        spec = (tuple(sorted(set(core) | set(x))), top, n, residues)
        return (label, build_set(spec), build_set(ref.remove(spec, x)),
                spec, g_expected)

    def run_round(self, tracer, rnd: Round) -> None:
        answers = []
        for label, a, rest, spec, g_expected in self.cells:
            t0 = perf_counter()
            hb = orders.order(a, method="bitset").order
            hr = orders.order(a).order
            gb = orders.order(rest, method="bitset").order
            gr = orders.order(rest).order
            rnd.latencies.append(perf_counter() - t0)
            rnd.ops += 4
            expect(hb == hr, f"engines disagree on G(A) of {label}")
            expect(gb == gr == g_expected, f"G(A \\ X) of {label}: {gb}, {gr}")
            answers.append(hr)
        if self.reference is None:
            for (label, _, _, spec, _), h in zip(self.cells, answers):
                expect(ref.order_holds(spec, h), f"G(A) of {label} = {h}")
            self.reference = answers
        expect(answers == self.reference, "orders changed between rounds")


# ----------------------------------------------------------------------

# Sets on which mu_with_witness's scan window, max X + diam X + n + 1,
# ends before the successor of max X that realises mu.  They do not depend
# on the seed, so every round fails exactly these queries.
MU_WINDOW_FAULTS = (
    (((0, 1, 6), 9, 1, (0,)), (6,)),
    (((0, 2, 20), 30, 3, (0, 1)), (20,)),
    (((0, 30, 33), 45, 5, (0, 2)), (30, 33)),
)


def min_period(n: int, residues) -> int:
    rs = set(residues)
    return next(m for m in range(1, n + 1)
                if n % m == 0 and all((r + m) % n in rs for r in rs))


def mu_window_fault(spec, x) -> bool:
    """True iff the closed-form mu lies beyond the documented scan window
    of ``invariants.mu_with_witness``, which then reports a larger mu."""
    rest = ref.remove(spec, x)
    lo, hi = min(x), max(x)
    window = hi + (hi - lo) + min_period(rest[2], rest[3]) + 1
    seen = ref.members(rest, window) or ref.members(rest, rest[1] + rest[2])[:1]
    scanned = min(max(hi, y) - min(lo, y) for y in seen)
    return scanned != ref.mu(spec, x)


class PointQueries:
    """Closed loop, one caller: ``verify_instance`` on seeded random
    removal instances.  One request and one operation is one query."""

    SIZES = {"full": 200, "smoke": 20}

    def __init__(self, seed: int, size: str, workdir: Path):
        rng = random.Random(seed)
        self.skipped_faults = 0
        specs = []
        while len(specs) < self.SIZES[size]:
            spec, x = self._draw(rng)
            if (ref.gcd_of_differences(spec) != 1
                    or ref.gcd_of_differences(ref.remove(spec, x)) != 1):
                continue  # not a basis, or X not removable
            if mu_window_fault(spec, x):
                # how often this happens depends on the seed; the fault
                # is measured on the fixed MU_WINDOW_FAULTS instead
                self.skipped_faults += 1
                continue
            specs.append((spec, x))
        specs.extend(MU_WINDOW_FAULTS)
        self.queries = [(spec, x, bounds.RemovalInstance(build_set(spec), x, f"q{i}"))
                        for i, (spec, x) in enumerate(specs)]
        self.expected: list | None = None

    @staticmethod
    def _draw(rng):
        """Modulus 2-30, 1-4 tail residues, a sparse finite part below a
        threshold up to 120, and 1-4 removed elements."""
        n = rng.randint(2, 30)
        residues = tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
        threshold = rng.randint(n, 120)
        finite = tuple(y for y in range(threshold) if rng.random() < 0.06)
        spec = (finite, threshold, n, residues)
        pool = ref.members(spec, threshold + 2 * n)
        x = tuple(sorted(rng.sample(pool, rng.randint(1, min(4, len(pool))))))
        return spec, x

    @staticmethod
    def _reference(spec, x, h: int, g: int):
        """Oracle values (h, g, eta, mu, rhs...) given claimed h and g,
        or None if the claims fail the order oracle."""
        if not (ref.order_holds(spec, h)
                and ref.order_holds(ref.remove(spec, x), g)):
            return None
        eta, mu = ref.eta(spec, x), ref.mu(spec, x)
        dens_rest = ref.density(ref.remove(spec, x))
        return (h, g, eta, mu, ref.rhs_d(h, ref.d_of(x)), ref.rhs_eta(h, eta),
                ref.rhs_mu(h, mu), ref.rhs_mu_improved(h, mu),
                ref.rhs_density(dens_rest), ref.rhs_density(ref.density(spec)))

    @staticmethod
    def _answer(rep):
        inv = rep.invariants
        return (rep.h, rep.g, inv.eta, inv.mu, Fraction(rep.rhs_d), rep.rhs_eta,
                rep.rhs_mu, rep.rhs_mu_improved, rep.rhs_density_removed,
                rep.rhs_density_base)

    def run_round(self, tracer, rnd: Round) -> None:
        reports = []
        for _, _, inst in self.queries:
            t0 = perf_counter()
            reports.append(bounds.verify_instance(inst))
            rnd.latencies.append(perf_counter() - t0)
        rnd.ops = len(reports)
        if self.expected is None:
            self.expected = []
            for (spec, x, inst), rep in zip(self.queries, reports):
                want = self._reference(spec, x, rep.h, rep.g)
                expect(want is not None, f"h or g of {inst.label}")
                expect(rep.g <= min(want[4:9]) and rep.h <= want[9]
                       and (len(x) > 1 or rep.g <= ref.rhs_single_upper(rep.h)),
                       f"bound fails on {inst.label}")
                self.expected.append(want)
        for want, rep in zip(self.expected, reports):
            got = self._answer(rep)
            if got[3] != want[3]:
                rnd.failed += 1  # wrong mu, and the mu bounds built on it
                expect(got[:3] + got[4:6] + got[8:] == want[:3] + want[4:6]
                       + want[8:], f"{rep.label}: {got} != {want}")
            else:
                expect(got == want, f"{rep.label}: {got} != {want}")


WORKLOADS = {
    "two_residue_sweep": TwoResidueSweep,
    "cyclic_bases": CyclicBases,
    "bitset_crosscheck": BitsetCrosscheck,
    "point_queries": PointQueries,
}
