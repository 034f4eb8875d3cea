"""Sweep driver: persistence, resume, determinism, exhaustive checks."""

import csv
import hashlib
import json
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import chain, combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addbasis import (
    InternalInconsistency,
    PersistenceError,
    SweepConfig,
    SweepSummary,
    exhaustive_two_residue_sweep,
    export_csv,
    klopsch_lev_exhaustive,
    read_records,
    run_sweep,
    verify_instance,
)
from addbasis import orders, sweeps
from conftest import naive_cyclic_order


def _rows(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _stripped(rows):
    return [{k: v for k, v in row.items() if k != "ts"} for row in rows]


def _encoded(f):
    """The JSON encoding of a Fraction: an int, or "p/q" in lowest terms."""
    return f.numerator if f.denominator == 1 else \
        f"{f.numerator}/{f.denominator}"


_pairs = st.tuples(st.integers(0, 2000), st.integers(1, 400))


class TestRunSweep:
    def test_cubic_sweep_records(self, tmp_path):
        out = tmp_path / "cubic.jsonl"
        cfg = SweepConfig("cubic", {"d": [1], "k": {"min": 2, "max": 4}},
                          out=str(out))
        summary = run_sweep(cfg)
        assert summary.records_written == 3
        assert summary.errors == 0
        records = list(read_records(out))
        assert [r["params"] for r in records] == [
            {"d": 1, "k": 2}, {"d": 1, "k": 3}, {"d": 1, "k": 4}]
        assert [r["g"] for r in records] == [7, 26, 63]
        assert [r["h_nominal"] for r in records] == [6, 9, 12]

    def test_ratio_fields_are_consistent(self, tmp_path):
        # each ratio is the lowest-terms encoding of its Fraction
        quad, two = tmp_path / "quad.jsonl", tmp_path / "two.jsonl"
        run_sweep(SweepConfig("quadratic", {"h": [2, 3], "mu": [2]},
                              out=str(quad)))
        exhaustive_two_residue_sweep(7, out=str(two))
        for rec in chain(read_records(quad), read_records(two)):
            h, g, d, mu = rec["h"], rec["g"], Fraction(rec["d"]), rec["mu"]
            assert rec["ratio_d"] == (
                _encoded(Fraction(g) / (d * h**3)) if d > 0 else None)
            assert rec["ratio_mu"] == _encoded(Fraction(g, mu * h * h))

    @given(st.integers(0, 10**6), st.integers(1, 10**6))
    def test_pair_encoding_matches_fraction(self, p, q):
        assert sweeps.rational_to_json(p, q) == _encoded(Fraction(p, q))

    @given(st.lists(st.tuples(st.none() | _pairs, _pairs),
                    min_size=1, max_size=12))
    def test_maxima_match_fraction_max(self, ratios):
        # _max_ratio compares pairs in integers, including pairs not in
        # lowest terms; each maximum is the Fraction maximum's pair
        summary = SweepSummary()
        for d, m in ratios:
            summary._fold(d, (2 * m[0], 2 * m[1]))
        ds = [Fraction(*d) for d, _ in ratios if d is not None]
        best_mu = max(Fraction(*m) for _, m in ratios)
        assert summary.max_ratio_d == (
            (max(ds).numerator, max(ds).denominator) if ds else None)
        assert summary.max_ratio_mu == (best_mu.numerator,
                                        best_mu.denominator)

    def test_resume_skips_existing(self, tmp_path):
        out = tmp_path / "s.jsonl"
        cfg = SweepConfig("cubic", {"d": [1, 2], "k": [2]}, out=str(out))
        first = run_sweep(cfg)
        assert first.records_written == 2
        cfg2 = SweepConfig("cubic", {"d": [1, 2], "k": [2]}, out=str(out),
                           resume=True)
        second = run_sweep(cfg2)
        assert second.records_written == 0
        assert second.records_skipped == 2
        assert len(_rows(out)) == 3  # header + two records, no duplicates

    def test_error_rows_count_toward_the_resume(self, tmp_path):
        # h_cap 4 is below g = G(A ∖ X) of every instance, so each one
        # becomes an error row, and a resume skips those as well
        out = tmp_path / "capped.jsonl"
        cfg = dict(family="cubic", ranges={"d": [1, 2], "k": [2, 3]},
                   h_cap=4, out=str(out))
        fresh = run_sweep(SweepConfig(**cfg))
        rows = _rows(out)[1:]
        assert [r["kind"] for r in rows] == ["error"] * 4
        assert {r["error"] for r in rows} == {
            "OrderCapExceeded: no order found for h <= 4"}
        assert (fresh.errors, fresh.records_written) == (4, 0)
        assert fresh.max_ratio_d is None and fresh.max_ratio_mu is None
        out.write_bytes(out.read_bytes()[:-9])  # tear the last row
        resumed = run_sweep(SweepConfig(**cfg, resume=True))
        assert (resumed.errors, resumed.records_skipped,
                resumed.records_written) == (1, 3, 0)
        assert _stripped(_rows(out)[1:]) == _stripped(rows)

    def test_resume_rejects_other_config(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run_sweep(SweepConfig("cubic", {"d": [1], "k": [2]}, out=str(out)))
        with pytest.raises(PersistenceError):
            run_sweep(SweepConfig("cubic", {"d": [1], "k": [3]},
                                  out=str(out), resume=True))

    def test_resume_recovers_from_a_torn_write(self, tmp_path):
        out = tmp_path / "s.jsonl"
        cfg = SweepConfig("cubic", {"d": [1, 2], "k": [2]}, out=str(out))
        run_sweep(cfg)
        # simulate a crash mid-append: drop the trailing newline and half
        # of the final record
        raw = out.read_bytes()
        out.write_bytes(raw[:-25])
        summary = run_sweep(SweepConfig("cubic", {"d": [1, 2], "k": [2]},
                                        out=str(out), resume=True))
        assert summary.records_written == 1  # only the torn tuple reruns
        rows = _rows(out)  # every line parses again
        assert [r["params"]["d"] for r in rows if r.get("kind") == "record"] \
            == [1, 2]

    def test_determinism_modulo_timestamps(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            run_sweep(SweepConfig("quadratic", {"h": [2, 3], "mu": [2, 3]},
                                  out=str(out)))
        strip = lambda p: _stripped([r for r in _rows(p)
                                     if r.get("kind") == "record"])
        assert strip(a) == strip(b)

    def test_parallel_width_does_not_change_results(self, tmp_path):
        seq, par = tmp_path / "seq.jsonl", tmp_path / "par.jsonl"
        s1 = run_sweep(SweepConfig("quadratic", {"h": [2, 3, 4], "mu": [2]},
                                   out=str(seq), parallelism=1))
        s2 = run_sweep(SweepConfig("quadratic", {"h": [2, 3, 4], "mu": [2]},
                                   out=str(par), parallelism=3))
        assert (s1.records_written, s1.max_ratio_mu) == \
            (s2.records_written, s2.max_ratio_mu)
        strip = lambda p: _stripped([r for r in _rows(p)
                                     if r.get("kind") == "record"])
        assert strip(seq) == strip(par)

    def test_pool_is_no_wider_than_its_items_or_the_cpus(self, monkeypatch):
        # a stand-in executor records the width asked for, so no process
        # starts, whatever the parallelism
        widths = []

        class RecordingPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(sweeps, "ProcessPoolExecutor", RecordingPool)
        for cpus in (64, 2, None):
            monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
            klopsch_lev_exhaustive(8, parallelism=10**6)  # 8 items
            run_sweep(SweepConfig("cubic", {"d": [1], "k": [2, 3, 4]},
                                  parallelism=10**6))  # 3 tasks
        assert widths == [8, 3, 2, 2]  # one CPU, or None: no pool

    def test_summary_without_persistence(self):
        summary = run_sweep(SweepConfig("cubic", {"d": [1], "k": [2, 3]}))
        assert summary.records_written == 2
        assert summary.max_ratio_mu is not None

    def test_empty_range(self, tmp_path):
        # a config that enumerates nothing is refused before ``out`` opens
        out = tmp_path / "none.jsonl"
        with pytest.raises(ValueError, match="enumerates no cubic"):
            run_sweep(SweepConfig("cubic", {"d": [], "k": [2]},
                                  out=str(out)))
        assert not out.exists()
        with pytest.raises(ValueError, match="enumerates no two_residue"):
            exhaustive_two_residue_sweep(1, out=str(out))
        assert not out.exists()

    def test_csv_export(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run_sweep(SweepConfig("cubic", {"d": [1], "k": [2, 3]}, out=str(out)))
        csv_path = tmp_path / "s.csv"
        assert export_csv(out, csv_path) == 2
        with csv_path.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["family", "params", "h", "g", "h_nominal",
                          "delta", "diam", "d", "eta", "mu", "ratio_d",
                          "ratio_mu", "engine_version"]
        assert len(rows) == 2
        first = dict(zip(header, rows[0]))
        assert first["params"] == '{"d":1,"k":2}'
        assert (first["h"], first["g"]) == ("3", "7")
        assert (first["ratio_d"], first["ratio_mu"]) == ("7/27", "7/18")

    def test_torn_final_row_is_skipped_on_read(self, tmp_path):
        # a torn final row is dropped by read_records and export_csv, as
        # a resume drops it: the export holds exactly the complete rows
        out = tmp_path / "two.jsonl"
        exhaustive_two_residue_sweep(5, out=str(out))
        whole = list(read_records(out))
        assert export_csv(out, tmp_path / "whole.csv") == len(whole)
        out.write_bytes(out.read_bytes()[:-9])
        assert list(read_records(out)) == whole[:-1]
        assert export_csv(out, tmp_path / "torn.csv") == len(whole) - 1
        assert (tmp_path / "torn.csv").read_text().splitlines() == \
            (tmp_path / "whole.csv").read_text().splitlines()[:-1]


class TestTwoResidueSweep:
    def test_small_run_contains_the_known_instances(self, tmp_path):
        out = tmp_path / "two.jsonl"
        summary = exhaustive_two_residue_sweep(8, h_cap=64, out=str(out))
        assert summary.violations == 0 and summary.errors == 0
        rows = {json.dumps(r["params"], sort_keys=True): r
                for r in read_records(out)}
        # the adjoined-AP instance at (d, k) = (1, 2)
        key = json.dumps({"a": 1, "b": 4, "n": 8, "x": [0, 2]},
                         sort_keys=True)
        assert rows[key]["g"] == 7 and rows[key]["h"] == 3
        # the (h, mu) = (2, 2) two-element instance lives at n = 5
        key = json.dumps({"a": 2, "b": 4, "n": 5, "x": [0, 1]},
                         sort_keys=True)
        assert rows[key]["g"] == 4 and rows[key]["h"] == 2

    def test_trivial_modulus_two(self, tmp_path):
        out = tmp_path / "tiny.jsonl"
        summary = exhaustive_two_residue_sweep(2, h_cap=16, out=str(out))
        assert summary.violations == 0
        assert all(r["g"] <= 2 for r in read_records(out))

    def test_bug_trap_aborts_the_sweep(self, monkeypatch):
        # a stalled covering driver is a bug, not an ineligible instance,
        # so it must not turn into an error row
        monkeypatch.setattr(orders, "_rotate_into", lambda acc, *_: acc)
        with pytest.raises(InternalInconsistency, match="stalled"):
            exhaustive_two_residue_sweep(4)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_memo_rows_equal_plain_verification(self, tmp_path,
                                                parallelism):
        # each task's order memo lives in its worker; every row must be
        # the row of a verification without it
        out = tmp_path / "two.jsonl"
        summary = exhaustive_two_residue_sweep(12, out=str(out),
                                               parallelism=parallelism)
        rows = _stripped(_rows(out)[1:])
        assert len(rows) == summary.records_written == 5359
        for row in rows:
            inst, h_nominal = sweeps._build_instance("two_residue",
                                                     row["params"], {})
            assert row == sweeps.make_record(
                "two_residue", row["params"], verify_instance(inst),
                h_nominal)
        assert summary.max_ratio_d == summary.max_ratio_mu == (1, 1)

    def test_removed_set_order_is_n_minus_1(self):
        # A \ X lies in the core, so R = C = {a, b}, and R + kD with
        # D = {0, b - a} is a progression of k + 2 classes: G = n - 1
        for task in range(2, 13):
            for row in sweeps._run_family_task(("two_residue", {"n": task},
                                                64, 0)):
                assert row["g"] == row["params"]["n"] - 1

    def test_merged_orbits_are_caught(self, monkeypatch):
        # a key that merges affine orbits answers with another set's
        # order; the sampled recomputation must catch it
        monkeypatch.setattr(orders, "_affine_key", lambda a: (0, 0))
        with pytest.raises(InternalInconsistency, match="order memo"):
            exhaustive_two_residue_sweep(8)

    def test_all_recorded_pairs_are_removable_bases(self, tmp_path):
        from math import gcd
        out = tmp_path / "two.jsonl"
        exhaustive_two_residue_sweep(6, h_cap=32, out=str(out))
        for rec in read_records(out):
            p = rec["params"]
            assert gcd(p["b"] - p["a"], p["n"]) == 1


def _cut_in_half(path):
    """Keep the first half of a sweep file, ending in a torn row."""
    raw = path.read_bytes()
    cut = len(raw) // 2
    if raw[cut - 1:cut] == b"\n":
        cut -= 1
    path.write_bytes(raw[:cut])


class TestTwoResidueResume:
    def test_records_match_the_golden_hash(self, tmp_path):
        out = tmp_path / "two.jsonl"
        exhaustive_two_residue_sweep(8, out=str(out))
        rows = _stripped(_rows(out)[1:])
        blob = "\n".join(json.dumps(r, sort_keys=True) for r in rows)
        assert len(rows) == 1225
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "712e53bd47f43067762958ade383a7b52993577d2b5a16655abce208212354fa")

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_resumed_summary_covers_the_whole_file(self, tmp_path,
                                                   parallelism):
        out = tmp_path / "two.jsonl"
        fresh = exhaustive_two_residue_sweep(6, out=str(out))
        _cut_in_half(out)
        resumed = exhaustive_two_residue_sweep(6, out=str(out), resume=True,
                                               parallelism=parallelism)
        records = list(read_records(out))
        assert resumed.records_written + resumed.records_skipped \
            == fresh.records_written == len(records)
        assert resumed.records_skipped > 0
        best = max(Fraction(r["ratio_d"])
                   for r in records if r["ratio_d"] is not None)
        assert resumed.max_ratio_d == fresh.max_ratio_d == (
            best.numerator, best.denominator)
        assert resumed.max_ratio_mu == fresh.max_ratio_mu

    @pytest.mark.parametrize("field,value", [
        ("ratio_mu", "1/0"), ("ratio_mu", None), ("ratio_d", "2/x"),
        ("ratio_d", [1, 2]), ("params", ...), ("params", [5]),
        ("kind", "header"), ("family", "cubic"), (None, b"\xff"),
        # the row's own params, {"a": 0, "b": 1, "n": 2, "x": [0, 1]}, with
        # JSON true for 1 and 2.0 for 2: equal in Python, not in JSON
        ("params", {"a": 0, "b": True, "n": 2.0, "x": [0, 1]}),
        ("params", {"a": 0, "b": 1, "n": 2, "x": [0, True]}),
        # ratios that are not those of the row's own ints: its ratio_mu is
        # 1/2, and d is 1; and ints that are not JSON ints
        ("ratio_mu", "100/1"), ("d", 2), ("g", True), ("g", "1")])
    def test_corrupt_row_is_refused_before_truncation(self, tmp_path,
                                                      field, value):
        out = tmp_path / "two.jsonl"
        exhaustive_two_residue_sweep(5, out=str(out))
        lines = out.read_bytes().splitlines(keepends=True)
        if field is None:  # a row whose bytes are not UTF-8
            lines[2] = value + b"\n"
        else:
            row = json.loads(lines[2])
            if value is ...:
                del row[field]
            else:
                row[field] = value
            lines[2] = json.dumps(row).encode() + b"\n"
        out.write_bytes(b"".join(lines)[:-9])  # and a torn final row
        before = out.read_bytes()
        with pytest.raises(PersistenceError, match="corrupt sweep file"):
            exhaustive_two_residue_sweep(5, out=str(out), resume=True)
        assert out.read_bytes() == before

    def test_refused_resume_leaves_the_file_untouched(self, tmp_path):
        out = tmp_path / "two.jsonl"
        exhaustive_two_residue_sweep(6, out=str(out))
        _cut_in_half(out)
        before = out.read_bytes()
        with pytest.raises(PersistenceError):
            exhaustive_two_residue_sweep(5, out=str(out), resume=True)
        assert out.read_bytes() == before

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_resume_verifies_only_missing_instances(self, tmp_path,
                                                    monkeypatch, parallelism):
        out = tmp_path / "two.jsonl"
        exhaustive_two_residue_sweep(6, out=str(out))
        full = [r["params"] for r in read_records(out)]
        _cut_in_half(out)
        whole_lines = out.read_bytes().rsplit(b"\n", 1)[0].splitlines()
        kept = whole_lines[1:]  # rows before the torn one
        verified, shipped = [], []
        real_verify, real_task = sweeps.verify_instance, sweeps._run_family_task

        def counting_verify(inst, *args, **kwargs):
            verified.append(inst.label)
            return real_verify(inst, *args, **kwargs)

        def recording_task(args):
            shipped.append(args)
            return real_task(args)

        # threads stand in for the process pool so the counts are visible
        monkeypatch.setattr(sweeps, "verify_instance", counting_verify)
        monkeypatch.setattr(sweeps, "_run_family_task", recording_task)
        monkeypatch.setattr(sweeps, "ProcessPoolExecutor", ThreadPoolExecutor)
        resumed = exhaustive_two_residue_sweep(6, out=str(out), resume=True,
                                               parallelism=parallelism)
        assert len(verified) == resumed.records_written \
            == len(full) - len(kept)
        assert resumed.records_skipped == len(kept)
        # each task is shipped the number of its rows in the kept prefix
        kept_n = [json.loads(line)["params"]["n"] for line in kept]
        assert [skip for *_, skip in shipped] == \
            [kept_n.count(params["n"]) for _, params, *_ in shipped]
        assert [r["params"] for r in read_records(out)] == full

    def test_resume_and_export_memory_is_flat(self, tmp_path):
        # both read the file a row at a time, so the traced peak of a file
        # of 5,359 rows (n <= 12) stays near that of 363 rows (n <= 6)
        peaks = []
        for n_max in (6, 12):
            out = tmp_path / f"two{n_max}.jsonl"
            exhaustive_two_residue_sweep(n_max, out=str(out))
            tracemalloc.start()
            try:
                resumed = exhaustive_two_residue_sweep(n_max, out=str(out),
                                                       resume=True)
                resume_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                export_csv(out, tmp_path / f"two{n_max}.csv")
                peaks.append((resume_peak, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            assert resumed.records_written == 0
        (small_resume, small_export), (large_resume, large_export) = peaks
        assert large_resume < small_resume + 2**20
        assert large_export < small_export + 2**20

    def test_torn_half_resumes_to_the_golden_hash(self, tmp_path):
        out = tmp_path / "two.jsonl"
        exhaustive_two_residue_sweep(8, out=str(out))
        _cut_in_half(out)
        exhaustive_two_residue_sweep(8, out=str(out), resume=True)
        rows = _stripped(_rows(out)[1:])
        blob = "\n".join(json.dumps(r, sort_keys=True) for r in rows)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "712e53bd47f43067762958ade383a7b52993577d2b5a16655abce208212354fa")

    @pytest.mark.parametrize("case", [
        "duplicated", "swapped", "foreign", "foreign_appended",
        "duplicated_last"])
    def test_misplaced_row_is_refused_before_truncation(self, tmp_path, case):
        # a file written by the sweep holds the first instances of its
        # enumeration in order, so a row out of that order was not
        # written by it, even with a well-formed record
        out = tmp_path / "two.jsonl"
        exhaustive_two_residue_sweep(5, out=str(out))
        lines = out.read_bytes().splitlines(keepends=True)
        foreign = json.loads(lines[3])
        foreign.update(params={"n": 5, "a": 0, "b": 1, "x": [0, 99]},
                       ratio_mu=100)
        foreign = json.dumps(foreign, sort_keys=True).encode() + b"\n"
        if case == "duplicated":
            lines.insert(4, lines[3])
        elif case == "swapped":
            lines[3], lines[4] = lines[4], lines[3]
        elif case == "foreign":
            lines.insert(4, foreign)
        elif case == "foreign_appended":
            lines.append(foreign)
        else:
            lines.append(lines[-1])
        if not case.endswith(("appended", "last")):
            # keep a prefix, so that no row runs past the last instance
            # and only the params give the misplaced row away
            lines = lines[:8]
        out.write_bytes(b"".join(lines) + lines[1][:20])  # and a torn row
        before = out.read_bytes()
        with pytest.raises(PersistenceError, match="corrupt sweep file"):
            exhaustive_two_residue_sweep(5, out=str(out), resume=True)
        assert out.read_bytes() == before


def _direct_cyclic_row(n):
    """The row of ``_klopsch_lev_n(n)``, counted over every subset of
    Z/nZ that contains 0 with the brute-force order."""
    bases = divisor = product = 0
    best = Fraction(0)
    for size in range(n):
        for rest in combinations(range(1, n), size):
            rho = naive_cyclic_order(n, (0,) + rest)
            if rho is None:
                continue
            bases += 1
            product += (size + 1) * rho >= 2 * n
            divisor += rho >= 2 and size + 1 > sweeps.klopsch_lev_rhs(n, rho)
            best = max(best, Fraction((size + 1) * rho, 2 * n))
    return {"n": n, "bases": bases, "violations_divisor_bound": divisor,
            "violations_product_bound": product,
            "max_product_ratio": (best.numerator, best.denominator)}


class TestKlopschLevExhaustive:
    def test_summary_matches_direct_enumeration(self):
        # independent route: every subset containing 0, one at a time,
        # against the rows that are checked once per affine orbit
        summary = klopsch_lev_exhaustive(12)
        direct = [_direct_cyclic_row(n) for n in range(1, 13)]
        assert summary["per_n"] == direct
        assert summary["bases_checked"] == sum(r["bases"] for r in direct)
        assert summary["violations"] == 0

    @pytest.mark.parametrize("n", range(1, 17))
    def test_affine_orbits_cover_every_subset(self, n):
        # subgroup-trapped orbits included: the members containing 0 of
        # the yielded orbits, u(C - t) for the units u and t in C, are
        # every subset containing 0, each once, and each weight counts them
        units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
        orbits = list(sweeps._affine_orbits(n))
        covered = set()
        for c, weight in orbits:
            assert c & 1
            elems = [x for x in range(n) if c >> x & 1]
            members = {sum(1 << (u * (x - t) % n) for x in elems)
                       for u in units for t in elems}
            assert weight == len(members)
            assert covered.isdisjoint(members)
            covered |= members
        assert len({c for c, _ in orbits}) == len(orbits)
        assert sum(weight for _, weight in orbits) == 2 ** (n - 1)
        assert len(covered) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 11, 12])
    def test_orbit_weights_reach_the_divisor_count(self, monkeypatch, n):
        # with a right-hand side of 0 every basis with rho >= 2 violates
        # the divisor bound, so the count must carry each orbit's weight
        monkeypatch.setattr(sweeps, "klopsch_lev_rhs", lambda n, rho: 0)
        row = sweeps._klopsch_lev_n(n)
        assert row == _direct_cyclic_row(n)
        # only the whole group covers itself at rho = 1
        assert row["violations_divisor_bound"] == row["bases"] - 1

    def test_known_extremes(self):
        summary = klopsch_lev_exhaustive(8)
        # {1, 4} mod 8 has order 7, giving |C| * rho = 14 < 16
        ratio = summary["max_product_ratio"]
        assert Fraction(*map(int, ratio.split("/"))) == Fraction(14, 16)

    def test_validates_input(self, monkeypatch):
        with pytest.raises(ValueError):
            klopsch_lev_exhaustive(2)
        # the marks of n = 29 alone would take 256 MB: refused before any
        # n is checked
        monkeypatch.setattr(sweeps, "_klopsch_lev_n", None)
        with pytest.raises(ValueError, match="n_max"):
            klopsch_lev_exhaustive(29)
        with pytest.raises(ValueError, match="parallelism"):
            klopsch_lev_exhaustive(8, parallelism=0)

    def test_stalled_growth_is_a_bug(self, monkeypatch):
        # every enumerated subset generates Z/nZ, so its h-fold sums can
        # stall short of the group only through a fault in the kernel
        monkeypatch.setattr(orders, "_rotate_into", lambda acc, *_: acc)
        with pytest.raises(InternalInconsistency, match="stalled"):
            sweeps._klopsch_lev_n(6)

    def test_parallel_summary_matches_sequential(self):
        seq = klopsch_lev_exhaustive(8)
        par = klopsch_lev_exhaustive(8, parallelism=2)
        assert seq["bases_checked"] == par["bases_checked"]
        assert seq["max_product_ratio"] == par["max_product_ratio"]
        assert seq["per_n"] == par["per_n"]
