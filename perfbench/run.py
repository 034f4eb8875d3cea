"""Benchmark of addbasis, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ``src``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics under ``--trace 0``, the per-layer metrics under ``--trace 1``.
The line before it records the machine facts.  See README.md in this
directory for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import traceback
from array import array
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

LAYER_METRICS = (
    # (metric, unit) in the order BENCHMARK.json lists them
    ("periodic.normalize.calls", "count"),
    ("periodic.normalize.self_s", "s"),
    ("periodic.remove_finite.calls", "count"),
    ("periodic.remove_finite.self_s", "s"),
    ("periodic.adjoin.self_s", "s"),
    ("periodic.sumset.calls", "count"),
    ("periodic.sumset.self_s", "s"),
    ("periodic.sumset.bits", "bits"),
    ("orders.residue.calls", "count"),
    ("orders.residue.self_s", "s"),
    ("orders.residue.steps", "count"),
    ("orders.residue.distinct_keys", "count"),
    ("orders.residue.orbits", "count"),
    ("orders.residue.calls_per_orbit", "ratio"),
    ("orders.bitset.calls", "count"),
    ("orders.bitset.self_s", "s"),
    ("orders.bitset.steps", "count"),
    ("invariants.calls", "count"),
    ("invariants.eta.self_s", "s"),
    ("invariants.mu.self_s", "s"),
    ("bounds.verify.calls", "count"),
    ("bounds.verify.self_s", "s"),
    ("sweeps.rows_written", "count"),
    ("sweeps.bytes_written", "bytes"),
    ("sweeps.write.self_s", "s"),
    ("sweeps.resume.verify_calls", "count"),
    ("sweeps.resume.rows_written", "count"),
    ("sweeps.resume.useful_ratio", "ratio"),
    ("sweeps.cyclic.subsets", "count"),
    ("sweeps.cyclic.bases", "count"),
    ("sweeps.cyclic.busy_s", "s"),
    ("sweeps.cyclic.largest_item_s", "s"),
    ("sweeps.cyclic.idle_s", "s"),
    ("trace.overhead_pct", "%"),
)


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (set-up
    interpreters and pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the package and builds
    the workload's inputs, as a user's process would."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def pool_idle_s(item_s: list[float], workers: int) -> float:
    """Idle worker time of a pool that hands items out in order to the
    first free worker (``Executor.map`` with chunksize 1)."""
    free = [0.0] * workers
    for t in item_s:
        i = free.index(min(free))
        free[i] += t
    return workers * max(free) - sum(item_s)


def round_layers(tracer, rnd, workers: int, first: dict | None) -> dict:
    """Per-layer numbers of one traced round.  Rounds repeat the same
    inputs, so the residue keys and sumset bits of the ``first`` traced
    round stand for every later one."""
    tot = tracer.layer_totals()

    def calls(name):
        return tot.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return tot.get(name, [0, 0.0, 0.0])[2]

    if first is None:
        keys, orbits = tracer.residue_keys()
        bits = tracer.sumset_bits()
    else:
        keys = first["orders.residue.distinct_keys"]
        orbits = first["orders.residue.orbits"]
        bits = first["periodic.sumset.bits"]
    verify_in_resume = tracer.count_under("bounds.verify", "sweeps.resume")
    resume_rows = rnd.layers.get("resume_rows_written", 0)
    item_s = rnd.layers.get("item_s", [])
    return {
        "periodic.normalize.calls": calls("periodic.normalize"),
        "periodic.normalize.self_s": self_s("periodic.normalize"),
        "periodic.remove_finite.calls": calls("periodic.remove_finite"),
        "periodic.remove_finite.self_s": self_s("periodic.remove_finite"),
        "periodic.adjoin.self_s": self_s("periodic.adjoin"),
        "periodic.sumset.calls": calls("periodic.sumset"),
        "periodic.sumset.self_s": self_s("periodic.sumset"),
        "periodic.sumset.bits": bits,
        "orders.residue.calls": calls("orders.residue"),
        "orders.residue.self_s": self_s("orders.residue"),
        "orders.residue.steps": tracer.steps["orders.residue"],
        "orders.residue.distinct_keys": keys,
        "orders.residue.orbits": orbits,
        "orders.residue.calls_per_orbit":
            calls("orders.residue") / orbits if orbits else 0,
        "orders.bitset.calls": calls("orders.bitset"),
        "orders.bitset.self_s": self_s("orders.bitset"),
        "orders.bitset.steps": tracer.steps["orders.bitset"],
        "invariants.calls": calls("invariants.instance"),
        "invariants.eta.self_s": self_s("invariants.eta"),
        "invariants.mu.self_s": self_s("invariants.mu"),
        "bounds.verify.calls": calls("bounds.verify"),
        "bounds.verify.self_s": self_s("bounds.verify"),
        "sweeps.rows_written": rnd.layers.get("rows_written", 0),
        "sweeps.bytes_written": rnd.layers.get("bytes_written", 0),
        "sweeps.write.self_s": self_s("sweeps.write"),
        "sweeps.resume.verify_calls": verify_in_resume,
        "sweeps.resume.rows_written": resume_rows,
        "sweeps.resume.useful_ratio":
            resume_rows / verify_in_resume if verify_in_resume else 0,
        "sweeps.cyclic.subsets": rnd.layers.get("subsets", 0),
        "sweeps.cyclic.bases": rnd.layers.get("bases", 0),
        "sweeps.cyclic.busy_s": sum(item_s),
        "sweeps.cyclic.largest_item_s": max(item_s, default=0.0),
        "sweeps.cyclic.idle_s": pool_idle_s(item_s, workers) if item_s else 0.0,
    }


def measure(workload, seconds: float, trace: bool, on_progress) -> dict:
    """Run whole rounds until ``seconds`` of measured time have passed;
    ``on_progress(share)`` is called before each round with the share of
    the measuring time used so far.

    Under --trace 1 the rounds alternate between a reference round with a
    NullTracer and a traced round, so that the overhead compares rounds
    of the same work run the same way.
    """
    from tracing import NullTracer, Tracer
    from workloads import POOL_WORKERS, CheckFailed, Round

    out = {"correct": True, "attempted": 0, "failed": 0,
           "latencies": array("d"),
           "ops": 0, "rounds": 0, "reference_s": [], "traced_s": [],
           "layers": [], "tracer": None, "error": None}
    measured = 0.0
    while (not out["rounds"] or measured < seconds
           or (trace and not out["layers"])):
        on_progress(measured / seconds if seconds else 1.0)
        traced = trace and out["rounds"] % 2 == 1
        tracer = Tracer() if traced else NullTracer(serial=trace)
        rnd = Round()
        tracer.install()
        t0 = perf_counter()
        try:
            workload.run_round(tracer, rnd)
        except CheckFailed as exc:
            out["correct"], out["error"] = False, str(exc)
        except Exception as exc:  # the program itself failed: report it
            traceback.print_exc()
            out["correct"], out["error"] = False, repr(exc)
            rnd.ops = rnd.failed = max(rnd.ops, 1)
        finally:
            tracer.uninstall()
        out["attempted"] += rnd.ops
        out["failed"] += rnd.failed
        if not out["correct"]:
            break
        out["rounds"] += 1
        if traced:
            out["traced_s"].append(sum(rnd.latencies))
            out["layers"].append(round_layers(
                tracer, rnd, POOL_WORKERS,
                out["layers"][0] if out["layers"] else None))
            out["tracer"] = tracer
        else:
            out["reference_s"].append(sum(rnd.latencies))
            out["latencies"].extend(rnd.latencies)
            out["ops"] += rnd.ops
        measured += perf_counter() - t0 if trace else sum(rnd.latencies)
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, info).

    The set-up is timed SETUP_REPEATS times in fresh interpreters, spread
    evenly over the measuring time so that its median sees the same
    machine as the rounds do.
    """
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=workdir))
    workload = WORKLOADS[workload_name](seed, size, tmp)
    setup_times: list[float] = []

    def on_progress(share: float) -> None:
        if not trace:
            while len(setup_times) < min(SETUP_REPEATS,
                                         1 + int(share * SETUP_REPEATS)):
                setup_times.append(time_setup(workload_name, seed))

    try:
        m = measure(workload, seconds, trace, on_progress)
        on_progress(1.0)
        rss_mb = peak_rss_mb()  # before sorting the latencies below
    finally:
        shutil.rmtree(tmp)
    info = dict(machine_facts(), workload=workload_name, seed=seed,
                size=size, rounds=m["rounds"], requests=len(m["latencies"]),
                round_s=[round(t, 6) for t in m["reference_s"]],
                request_p50_ms=1000 * statistics.median(m["latencies"] or [0]),
                error=m["error"])
    if hasattr(workload, "skipped_faults"):
        info["seeded_mu_faults_skipped"] = workload.skipped_faults
    if trace:
        metrics = {}
        if m["layers"]:
            ref_s = statistics.median(m["reference_s"])
            overhead = 100 * (statistics.median(m["traced_s"]) / ref_s - 1)
            for name, unit in LAYER_METRICS:
                value = overhead if name == "trace.overhead_pct" else \
                    statistics.fmean(r[name] for r in m["layers"])
                metrics[name] = {"value": value, "unit": unit}
            m["tracer"].write(
                workdir / f"spans-{workload_name}.jsonl", info)
    else:
        lat = m["latencies"] or [0.0]
        busy = sum(lat)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ops_per_s": {"value": m["ops"] / busy if busy else 0.0,
                          "unit": "1/s"},
            "request_p99_ms": {"value": 1000 * quantile(lat, 99), "unit": "ms"},
        }
    result = {"correct": m["correct"], "attempted": m["attempted"],
              "failed": m["failed"], "metrics": metrics}
    return result, info


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced, all checks on."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, info = run(name, seed=1, seconds=0, trace=trace,
                               size="smoke")
            print(json.dumps({"info": info, "result": result}))
            ok &= result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import addbasis  # noqa: F401
    except ImportError as exc:
        print(f"cannot import addbasis from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, "full", ROOT / ".perfbench")
        return 0
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
