"""Parameter sweeps with resumable JSONL persistence, plus the two
exhaustive verification drives (two-residue families and cyclic bases).

Sweep results are written as line-delimited JSON: one header line
carrying a hash of the generating configuration, then one line per
instance, in enumeration order.  A file therefore holds the first
instances of its enumeration, and re-running with ``resume`` skips that
many.  Record payloads are deterministic given the engine version; only
the timestamps vary between runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from math import gcd
from operator import or_
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__ as ENGINE_VERSION
from .bounds import (
    BoundReport,
    RemovalInstance,
    cubic_family_instance,
    klopsch_lev_rhs,
    quadratic_family_instance,
    verify_instance,
)
from .errors import (BoundViolation, InternalInconsistency,
                     PersistenceError, ToolkitError)
from .orders import DEFAULT_H_CAP, _cover
from .periodic import (EventuallyPeriodicSet, _json_field, _json_keys,
                       as_finite_set)

FAMILIES = {"cubic": {"d": [1], "k": [2]}, "quadratic": {"h": [2], "mu": [2]},
            "two_residue": {"n_max": 12}}  # range axes and their defaults


@dataclass(frozen=True)
class SweepConfig:
    family: str
    ranges: dict
    h_cap: int = DEFAULT_H_CAP
    out: str | None = None
    parallelism: int = 1
    resume: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {tuple(FAMILIES)}")
        _json_keys(self.ranges, FAMILIES[self.family],
                   f"{self.family} sweeps have no range axis")
        if self.h_cap < 1:
            raise ValueError("h_cap must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

    @classmethod
    def from_json(cls, obj: dict | str) -> "SweepConfig":
        """Parse a config; an unknown or mistyped field raises ValueError.
        Range axes are ints (n_max), int lists or {"min": int, "max": int}."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError(f"sweep config must be an object, got {obj!r}")
        _json_keys(obj, cls.__dataclass_fields__, "sweep config has no field")
        ranges = obj.get("ranges", {})
        if not isinstance(ranges, dict):
            raise ValueError(f"JSON field 'ranges' must be an object, "
                             f"got {ranges!r}")
        for name, axis in ranges.items():
            if name != "n_max" and isinstance(axis, dict):
                _json_keys(axis, ("min", "max"), f"axis {name!r} has no key")
                if any(type(axis.get(k)) is not int for k in ("min", "max")):
                    raise ValueError(f"range axis {name!r} must have int "
                                     f"'min' and 'max', got {axis!r}")
            else:
                _json_field(ranges, name, 0 if name == "n_max" else [])
        out, resume = obj.get("out"), obj.get("resume", False)
        if out is not None and not isinstance(out, str):
            raise ValueError(f"JSON field 'out' must be a string, got {out!r}")
        if not isinstance(resume, bool):
            raise ValueError(f"JSON field 'resume' must be a boolean, "
                             f"got {resume!r}")
        return cls(
            family=obj["family"],
            ranges=dict(ranges),
            h_cap=_json_field(obj, "h_cap", DEFAULT_H_CAP),
            out=out,
            parallelism=_json_field(obj, "parallelism", 1),
            resume=resume,
        )

    def content_hash(self) -> str:
        """Hash of the math-relevant fields (not out/parallelism/resume)."""
        payload = json.dumps(
            {"family": self.family, "ranges": self.ranges, "h_cap": self.h_cap},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class SweepSummary:
    records_written: int = 0
    records_skipped: int = 0
    errors: int = 0
    violations: int = 0
    max_ratio_d: tuple[int, int] | None = None  # (p, q) in lowest terms
    max_ratio_mu: tuple[int, int] | None = None

    def _fold(self, ratio_d, ratio_mu) -> None:
        """Fold ratio_d = (p, q), if any, and ratio_mu into the maxima."""
        if ratio_d is not None:
            self.max_ratio_d = _max_ratio(self.max_ratio_d, ratio_d)
        self.max_ratio_mu = _max_ratio(self.max_ratio_mu, ratio_mu)

    def to_json(self) -> dict:
        return {key: rational_to_json(*v) if type(v) is tuple else v
                for key, v in vars(self).items()}


def rational_to_json(p: int, q: int) -> int | str:
    """Exact JSON encoding of p/q (q > 0): an int when it is integral,
    "p/q" in lowest terms otherwise."""
    g = gcd(p, q)
    p, q = p // g, q // g
    return p if q == 1 else f"{p}/{q}"


def _max_ratio(best, ratio) -> tuple[int, int]:
    """The larger of the pair ``best``, if any, and ratio = (p, q), q > 0,
    compared by cross-multiplication; a new maximum in lowest terms."""
    p, q = ratio
    if best is not None and p * best[1] <= best[0] * q:
        return best
    g = gcd(p, q)
    return p // g, q // g


def _ratios(g: int, h: int, d: int, mu: int) -> tuple:
    """The ratios of a sweep row as int pairs (p, q): g/(d·h³), None when
    d = 0, and g/(μ·h²)."""
    return (g, d * h**3) if d else None, (g, mu * h * h)


def make_record(family: str, params: dict, report: BoundReport,
                h_nominal: int | None) -> dict:
    """One sweep row.  Ratios use the computed order h = G(A); the
    family's nominal order parameter is recorded separately when defined.
    """
    inv = report.invariants
    h, g = report.h, report.g
    ratio_d, ratio_mu = _ratios(g, h, inv.d_x, inv.mu)
    return {
        "kind": "record",
        "family": family,
        "params": params,
        "h": h,
        "g": g,
        "h_nominal": h_nominal,
        "delta": inv.delta_x,
        "diam": inv.diam_x,
        "d": inv.d_x,
        "eta": inv.eta,
        "mu": inv.mu,
        "ratio_d": None if ratio_d is None else rational_to_json(*ratio_d),
        "ratio_mu": rational_to_json(*ratio_mu),
        "engine_version": ENGINE_VERSION,
    }


# ----------------------------------------------------------------------
# parameter enumeration

def _axis_values(axis) -> list[int]:
    """A range axis is either an explicit list or {"min": a, "max": b}."""
    if isinstance(axis, dict):
        return list(range(axis["min"], axis["max"] + 1))
    return list(axis)


def _family_tasks(cfg: SweepConfig) -> list[dict]:
    """The params of every task of the configured family, in order."""
    r = {**FAMILIES[cfg.family], **cfg.ranges}  # in the order of FAMILIES
    if cfg.family == "two_residue":
        return [{"n": n} for n in range(2, r["n_max"] + 1)]
    return [dict(zip(r, v)) for v in product(*map(_axis_values, r.values()))]


def _build_instance(family: str, params: dict,
                    cores: dict) -> tuple[RemovalInstance, int | None]:
    """One instance of the family and its nominal order parameter, if the
    family has one.  A two-residue core is built once per (n, a, b) and
    kept in ``cores``, which the task's instances share."""
    if family == "cubic":
        return cubic_family_instance(params["d"], params["k"]), 3 * params["k"]
    if family == "quadratic":
        return (quadratic_family_instance(params["h"], params["mu"]),
                params["h"])
    n, a, b = params["n"], params["a"], params["b"]
    x = as_finite_set(params["x"])
    core = cores.get((n, a, b))
    if core is None:
        core = cores[n, a, b] = EventuallyPeriodicSet.from_periodic(n, (a, b))
    return RemovalInstance(core.adjoin(x), x,
                           f"two_residue(n={n},a={a},b={b},"
                           f"s={x[1] - x[0] if len(x) > 1 else 0},"
                           f"len={len(x)})"), None


def _task_params(family: str, params: dict) -> Iterable[dict]:
    """The params of one task's instances, in order and one at a time:
    those of one n for two_residue, else the task's own."""
    return (_two_residue_params(params["n"])
            if family == "two_residue" else [params])


def _run_family_task(args: tuple) -> list[dict]:
    """Worker: the rows of one task's instances after the first ``skip``.
    The instances share one order memo and their cores, both per task."""
    family, params, h_cap, skip = args
    memo, cores = {}, {}
    return [_verify_row(family, p, h_cap, memo, cores)
            for p in islice(_task_params(family, params), skip, None)]


def _verify_row(family: str, params: dict, h_cap: int, memo: dict,
                cores: dict) -> dict:
    """The record row of one instance, or its error row."""
    try:
        inst, h_nominal = _build_instance(family, params, cores)
        report = verify_instance(inst, h_cap, memo)
    except (BoundViolation, InternalInconsistency):
        raise
    except ToolkitError as exc:
        return {"kind": "error", "family": family, "params": params,
                "error": f"{type(exc).__name__}: {exc}",
                "engine_version": ENGINE_VERSION}
    return make_record(family, params, report, h_nominal)


# ----------------------------------------------------------------------
# two-residue exhaustive family

def _two_residue_params(n: int) -> Iterator[dict]:
    """Parameters of every removal instance built from a two-progression
    core mod n.

    Core: A* = {x : x mod n in {a, b}} over all residue pairs a < b.
    Removed sets: arithmetic progressions X = {0, s, ..., (L-1)s} of
    length L <= 4 and difference s <= n, adjoined to the core
    (A = A* ∪ X).  Every element of A \\ X lies in the core, so
    delta(A \\ X) = gcd(b - a, n): X is removable iff that gcd is 1, and
    then A ⊇ A \\ X is a basis too.  Only that gcd filters instances.
    """
    x_choices = [(0,)]
    for length in (2, 3, 4):
        for s in range(1, n + 1):
            x_choices.append(tuple(i * s for i in range(length)))
    for a in range(n):
        for b in range(a + 1, n):
            if gcd(b - a, n) != 1:
                continue
            for x in x_choices:
                yield {"n": n, "a": a, "b": b, "x": list(x)}


# ----------------------------------------------------------------------
# persistence and the sweep driver

def _sweep_rows(path: Path) -> Iterator[tuple[int, object]]:
    """(offset past the line, parsed row) for each complete non-blank line
    of a sweep file, one at a time; a final line without a newline is a
    torn write and is not yielded.  A line that is not UTF-8 JSON raises
    ValueError."""
    with path.open("rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                return
            text = line.decode()
            if text.strip():
                yield fh.tell(), json.loads(text)


def _read_existing(path: Path, cfg: SweepConfig, summary: SweepSummary,
                   family_tasks: list) -> list[int]:
    """How many instances of each task a sweep file already holds, after
    checking its header; the records' ratios are folded into ``summary``.

    A sweep writes one row per instance in enumeration order, and every
    run appends, so a file it wrote holds the first instances of its
    enumeration, in order.  The rows are therefore walked beside the
    enumeration, and the first row that is not a record or error row of
    this family with the next instance's params, compared with their JSON
    types (a duplicated, reordered or foreign row, one past the last
    instance, or params such as true for 1 or 2.0 for 2), is refused, as
    is a record whose ratios are not those of its own ints g, h, d, mu.

    A run killed mid-write leaves a final line without a newline; that
    partial row is dropped (truncated away, so appends stay well formed)
    and its instance simply gets recomputed.  The file is truncated only
    once its header, configuration hash and every row are accepted, so a
    file that is refused stays as it was.
    """
    skips = [0] * len(family_tasks)
    expected = ((task, p) for task, params in enumerate(family_tasks)
                for p in _task_params(cfg.family, params))
    rows = _sweep_rows(path)
    try:
        end, header = next(rows, (0, None))
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise PersistenceError(f"{path}: missing sweep header")
        if header.get("config_hash") != cfg.content_hash():
            raise PersistenceError(
                f"{path}: existing results were produced by a different "
                "configuration; refusing to resume")
        for i, (end, row) in enumerate(rows, start=1):
            task, params = next(expected, (None, None))
            try:
                _check_row(row, cfg.family, params, summary)
            except (KeyError, ValueError) as exc:
                raise PersistenceError(
                    f"{path}: corrupt sweep file: row {i}: {exc!r}") from exc
            skips[task] += 1
    except ValueError as exc:  # a line that is not UTF-8, or not JSON
        raise PersistenceError(f"{path}: corrupt sweep file: {exc}") from exc
    if end < path.stat().st_size:
        os.truncate(path, end)
    return skips


def _check_row(row, family: str, params: dict | None,
               summary: SweepSummary) -> None:
    """Fold into ``summary`` the ratios of a row read where the instance
    with ``params`` belongs (None past the last instance); a row that is
    not that instance's row raises ValueError or KeyError."""
    if not (isinstance(row, dict) and row.get("family") == family
            and row.get("kind") in ("record", "error")
            and _same_json(row.get("params"), params)):
        raise ValueError(f"not the row of the next instance, {params!r}")
    if row["kind"] == "error":
        return
    g, h, d, mu = ints = [row[key] for key in ("g", "h", "d", "mu")]
    if any(type(v) is not int for v in ints) or d < 0 or min(h, mu) < 1:
        raise ValueError(f"g, h, d and mu are not sweep ints: {ints!r}")
    ratios = _ratios(g, h, d, mu)
    encoded = [None if r is None else rational_to_json(*r) for r in ratios]
    if not _same_json([row["ratio_d"], row["ratio_mu"]], encoded):
        raise ValueError(f"ratios are not those of g, h, d, mu = {ints!r}")
    summary._fold(*ratios)


def _same_json(a, b) -> bool:
    """a == b with the types compared too: JSON true is not 1, 2.0 not 2."""
    if type(a) is dict and type(b) is dict and a.keys() == b.keys():
        return all(_same_json(v, b[k]) for k, v in a.items())
    if type(a) is list and type(b) is list and len(a) == len(b):
        return all(map(_same_json, a, b))
    return type(a) is type(b) and a == b


def run_sweep(cfg: SweepConfig) -> SweepSummary:
    """Run the configured sweep, appending JSONL rows, and summarise.

    Engine errors become error rows and never abort the sweep;
    BoundViolation and the bug trap InternalInconsistency are fatal.
    Results are written in enumeration order regardless of parallelism.
    On resume, the instances already in the file, a prefix of the
    enumeration, are skipped before any engine work, and the summary's
    ratio maxima also cover the records already in the file.  A config
    that enumerates no parameters raises ValueError before ``out`` is
    opened.
    """
    family_tasks = _family_tasks(cfg)
    if not family_tasks:
        raise ValueError(f"sweep config enumerates no {cfg.family} "
                         f"parameters: {cfg.ranges!r}")
    summary = SweepSummary()
    path = Path(cfg.out) if cfg.out else None
    skips = [0] * len(family_tasks)  # instances already in the file
    out_fh = None
    if path is not None:
        if cfg.resume and path.exists() and path.stat().st_size > 0:
            skips = _read_existing(path, cfg, summary, family_tasks)
            summary.records_skipped = sum(skips)
            out_fh = path.open("a")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            out_fh = path.open("w")
            header = {"kind": "header", "family": cfg.family,
                      "config_hash": cfg.content_hash(),
                      "engine_version": ENGINE_VERSION,
                      "written_at": _utc_now()}
            out_fh.write(json.dumps(header, sort_keys=True) + "\n")

    tasks = [(cfg.family, params, cfg.h_cap, skip)
             for params, skip in zip(family_tasks, skips)]
    try:
        for rows in _map(_run_family_task, tasks, cfg.parallelism):
            _absorb_rows(rows, summary, out_fh)
    finally:
        if out_fh is not None:
            out_fh.close()
    return summary


def _map(fn, items, parallelism: int) -> Iterator:
    """fn over items in order: on a pool of worker processes no wider
    than ``parallelism``, the number of items or the CPU count, when that
    is above 1, else in this process."""
    workers = min(parallelism, len(items), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, items, chunksize=1)
    else:
        yield from map(fn, items)


def _absorb_rows(rows: list[dict], summary: SweepSummary, out_fh) -> None:
    for row in rows:
        if row["kind"] == "error":
            summary.errors += 1
        else:
            summary.records_written += 1
            summary._fold(*_ratios(row["g"], row["h"], row["d"], row["mu"]))
        if out_fh is not None:
            stamped = dict(row, ts=_utc_now())
            out_fh.write(json.dumps(stamped, sort_keys=True) + "\n")


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def exhaustive_two_residue_sweep(n_max: int, h_cap: int = DEFAULT_H_CAP,
                                 out: str | None = None,
                                 parallelism: int = 1,
                                 resume: bool = False) -> SweepSummary:
    """Verify every two-progression removal instance with modulus <= n_max;
    n_max < 2 enumerates nothing and raises ValueError."""
    cfg = SweepConfig(family="two_residue", ranges={"n_max": n_max},
                      h_cap=h_cap, out=out, parallelism=parallelism,
                      resume=resume)
    return run_sweep(cfg)


def read_records(path: str | Path) -> Iterator[dict]:
    """Yield the record rows (not header/error rows) of a sweep file, one
    at a time; a torn final line is skipped, as a resume drops it."""
    for _, row in _sweep_rows(Path(path)):
        if row.get("kind") == "record":
            yield row


def export_csv(jsonl_path: str | Path, csv_path: str | Path) -> int:
    """Flatten a sweep record file to CSV, writing each record as it is
    read; returns the number of rows."""
    import csv

    fields = ["family", "params", "h", "g", "h_nominal", "delta", "diam",
              "d", "eta", "mu", "ratio_d", "ratio_mu", "engine_version"]
    count = 0
    with Path(csv_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for count, row in enumerate(read_records(jsonl_path), start=1):
            flat = dict(row, params=json.dumps(row["params"], sort_keys=True,
                                               separators=(",", ":")))
            writer.writerow([flat.get(f) for f in fields])
    return count


# ----------------------------------------------------------------------
# exhaustive check of bases in Z/nZ

def _dilation_tables(n: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Byte tables of the dilations x ↦ u·x of Z/nZ by the units
    1 < u < n, acting on masks of subsets of {1, ..., n - 1} (bit j marks
    the element j + 1; 0 is fixed and left out).

    Returns (shift, table) per byte of such a mask: table[b] holds, for
    every such u in turn, the mask of the images of the elements that
    byte b marks at that shift.  A dilation is a bijection, so the images
    of distinct elements are distinct bits, and the image of a whole mask
    is the sum of its bytes' entries.
    """
    units = [u for u in range(2, n) if gcd(u, n) == 1]
    tables = []
    for shift in range(0, n - 1, 8):
        table = [(0,) * len(units)]
        for b in range(1, 1 << min(8, n - 1 - shift)):
            x = shift + (b & -b).bit_length()  # the lowest marked element
            table.append(tuple(map(or_, table[b & (b - 1)],
                                   [1 << (u * x % n - 1) for u in units])))
        tables.append((shift, table))
    return tables


def _affine_orbits(n: int) -> Iterator[tuple[int, int]]:
    """Yield (c, weight) for one subset of Z/nZ that contains 0 per
    affine orbit: c is its mask (bit x marks x, so bit 0 is set), and
    weight is the number of subsets in the orbit that contain 0.  The
    proof is in ``_klopsch_lev_n``.  The marks take 2^(n-1) bytes.
    """
    tables = _dilation_tables(n)
    half_mask = (1 << (n - 1)) - 1
    seen = bytearray(1 << (n - 1))  # indexed by c >> 1
    half = 0
    while half >= 0:
        weight = 0
        for image in (half, *map(sum, zip(*[table[(half >> shift) & 255]
                                             for shift, table in tables]))):
            m = (image << 1) | 1  # uC
            twice = m | (m << n)  # bits e to e + n - 1 are uC - e
            while m:
                low = m & -m  # 1 << e for an element e of uC
                rot = (twice >> low.bit_length()) & half_mask  # (uC - e) >> 1
                if not seen[rot]:
                    seen[rot] = 1
                    weight += 1
                m ^= low
        yield (half << 1) | 1, weight
        half = seen.find(0, half + 1)


def _klopsch_lev_n(n: int) -> dict:
    """Check every basis of Z/nZ that contains 0 against the divisor
    bound and the product inequality |C| * rho < 2n.

    C inside a proper subgroup pZ/nZ (p prime) is skipped; every other
    C ∋ 0 generates Z/nZ, and as 0 ∈ C, hC = (h+1)C = hC + C would make
    hC a union of cosets of that group.  So hC grows strictly until it
    is all of Z/nZ, and a stall is a bug.  The growth runs on
    ``orders._cover``, the covering driver of the residue engine, with
    s = C and D = C.

    Each C is checked once per orbit under the affine maps
    x ↦ u(x - t), u a unit mod n.  Such a map is a bijection, so it
    keeps |C|; it maps h-fold sums to h-fold sums, h(u(C - t)) =
    u(hC) - uht, so u(C - t) covers Z/nZ at exactly the h at which C
    does.  C and its image thus have the same rho, and both inequalities
    hold on one exactly when they hold on the other.  It also keeps
    being trapped in a proper subgroup: for C ∋ 0 and t ∈ C, C and
    C - t generate the same group as C - C, and a unit maps each
    subgroup of Z/nZ onto itself.

    The members of C's orbit are the sets u(C - t) over all units u and
    all t in Z/nZ, and u(C - t) contains 0 exactly when t ∈ C.  As
    u(C - t) = uC - ut and t ↦ ut maps C onto uC, those members are the
    sets uC - e over the units u and the elements e of uC: the dilated
    images uC, from ``_dilation_tables``, each rotated by each of its own
    elements.  The enumeration runs through the subsets C ∋ 0 in
    increasing order, and the first one that is not marked represents its
    orbit: it marks every member of the orbit that contains 0, itself
    (u = 1, e = 0) included.  Orbits are disjoint and every mark stays in
    its own orbit, so no member was marked before, and the number of sets
    it newly marks is the number of members that contain 0.  That is the
    orbit's weight.  The base count and both violation counts add it, so
    they equal the counts over all subsets.  The maximum of
    |C| * rho / 2n needs no weight.
    """
    prime_masks = [sum(1 << v for v in range(0, n, p))
                   for p in range(2, n + 1)
                   if n % p == 0 and all(p % q for q in range(2, p))]
    # a basis containing 0 has rho <= n - 1, and d = n qualifies for it
    rhs = [0, 0] + [klopsch_lev_rhs(n, rho) for rho in range(2, n)]
    bases = 0
    viol_31 = 0
    viol_32 = 0
    best = (0, 1)  # max of |C|*rho / 2n
    for c, orbit in _affine_orbits(n):
        if any(c & ~pm == 0 for pm in prime_masks):
            continue  # trapped in a proper subgroup: not a basis
        rho = 1 + _cover(c, c & (c - 1), n, n)  # bit 0 of c is 0 ∈ C
        bases += orbit
        size = c.bit_count()
        if size * rho >= 2 * n:
            viol_32 += orbit
        best = _max_ratio(best, (size * rho, 2 * n))
        if rho >= 2 and size > rhs[rho]:
            viol_31 += orbit
    return {"n": n, "bases": bases, "violations_divisor_bound": viol_31,
            "violations_product_bound": viol_32, "max_product_ratio": best}


def klopsch_lev_exhaustive(n_max: int, parallelism: int = 1) -> dict:
    """Run the cyclic-basis checks for every n <= n_max and summarise.

    Raises BoundViolation if any proven inequality fails anywhere, and
    ValueError for n_max above 28, so that the marks of one n (2^(n-1)
    bytes, 128 MB at n = 28) stay small.
    """
    if not 3 <= n_max <= 28:
        raise ValueError("n_max must be between 3 and 28")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    # largest n first: it takes longest, so the pool starts it first
    per_n = list(_map(_klopsch_lev_n, range(n_max, 0, -1), parallelism))
    per_n.reverse()
    total = sum(row["bases"] for row in per_n)
    v31 = sum(row["violations_divisor_bound"] for row in per_n)
    v32 = sum(row["violations_product_bound"] for row in per_n)
    best = reduce(_max_ratio, (row["max_product_ratio"] for row in per_n),
                  None)
    if v31 or v32:
        raise BoundViolation(
            f"cyclic basis bounds failed: divisor={v31} product={v32} "
            f"(n <= {n_max})")
    return {
        "n_max": n_max,
        "bases_checked": total,
        "violations": 0,
        "max_product_ratio": rational_to_json(*best),
        "per_n": per_n,
    }
