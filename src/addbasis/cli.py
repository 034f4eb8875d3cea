"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 engine error (not a basis, cap
exceeded, malformed instance), 3 bound violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import (
    RemovalInstance,
    cubic_family_instance,
    quadratic_family_instance,
    verify_instance,
)
from .errors import BoundViolation, ToolkitError
from .invariants import instance_invariants
from .orders import DEFAULT_H_CAP, order
from .periodic import EventuallyPeriodicSet
from .sweeps import (
    SweepConfig,
    export_csv,
    klopsch_lev_exhaustive,
    run_sweep,
)

USAGE_ERROR, ENGINE_ERROR, VIOLATION_ERROR = 1, 2, 3


def _read_json_arg(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return json.loads(text)


def _emit(payload: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _cmd_order(args) -> int:
    s = EventuallyPeriodicSet.from_json(_read_json_arg(args.set))
    res = order(s, args.h_cap, method=args.method)
    _emit({"order": res.order,
           "cofinite_from": res.cofinite_witness_threshold},
          args.json,
          [f"order {res.order} (h-fold sumset contains every x >= "
           f"{res.cofinite_witness_threshold})"])
    return 0


def _cmd_invariants(args) -> int:
    inst = RemovalInstance.from_json(_read_json_arg(args.instance))
    payload = instance_invariants(inst).to_json()
    _emit(payload, args.json,
          [f"{key} = {val}" for key, val in payload.items()])
    return 0


def _cmd_verify(args) -> int:
    inst = RemovalInstance.from_json(_read_json_arg(args.instance))
    report = verify_instance(inst, args.h_cap)
    payload = report.to_json()
    lines = [
        f"instance      {report.label or '(unlabelled)'}",
        f"G(A)          {report.h}",
        f"G(A \\ X)      {report.g}",
        f"invariants    {json.dumps(payload['invariants'], sort_keys=True)}",
        f"bound rhs     {json.dumps(payload['rhs'], sort_keys=True)}",
        f"flags         {json.dumps(payload['flags'], sort_keys=True)}",
        "all bounds hold",
    ]
    _emit(payload, args.json, lines)
    return 0


def _cmd_construct(args) -> int:
    if args.family == "cubic":
        inst = cubic_family_instance(args.d, args.k)
    else:
        inst = quadratic_family_instance(args.h, args.mu)
    print(json.dumps(inst.to_json(), sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(_read_json_arg(args.config))
    if args.csv and not cfg.out:
        print("--csv requires a sweep config with an 'out' path",
              file=sys.stderr)
        return USAGE_ERROR
    payload = run_sweep(cfg).to_json()
    if args.csv:
        payload["csv_rows"] = export_csv(cfg.out, args.csv)
    _emit(payload, args.json,
          [f"{key} = {val}" for key, val in payload.items()])
    return 0


def _cmd_klopsch_lev(args) -> int:
    summary = klopsch_lev_exhaustive(args.n_max, parallelism=args.parallelism)
    _emit(summary, args.json,
          [f"checked {summary['bases_checked']} bases for n <= "
           f"{summary['n_max']}: 0 violations, max |C|*rho/2n = "
           f"{summary['max_product_ratio']}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addbasis",
        description="exact computations with asymptotic additive bases")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="order of an asymptotic basis")
    p.add_argument("set", help="set JSON file, or - for stdin")
    p.add_argument("--h-cap", type=int, default=DEFAULT_H_CAP)
    p.add_argument("--method", choices=("residue", "bitset"),
                   default="residue")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("invariants",
                       help="delta/diam/d/eta/mu of an instance")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("verify", help="verify all bounds on an instance")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("--h-cap", type=int, default=DEFAULT_H_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="emit a family instance as JSON")
    fam = p.add_subparsers(dest="family", required=True)
    pc = fam.add_parser("cubic", help="adjoined-AP family (d, k)")
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.set_defaults(func=_cmd_construct)
    pq = fam.add_parser("quadratic", help="two-element removal family (h, mu)")
    pq.add_argument("--h", type=int, required=True)
    pq.add_argument("--mu", type=int, required=True)
    pq.set_defaults(func=_cmd_construct)

    p = sub.add_parser("sweep", help="run a parameter sweep from a config")
    p.add_argument("--config", required=True,
                   help="sweep config JSON file, or - for stdin")
    p.add_argument("--csv", help="also export records to this CSV path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("klopsch-lev",
                       help="exhaustive cyclic-basis bound check")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_klopsch_lev)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except BoundViolation as exc:
        print(f"BOUND VIOLATION: {exc}", file=sys.stderr)
        return VIOLATION_ERROR
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ENGINE_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
