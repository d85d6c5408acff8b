"""The ``repro bench`` subcommands: run, record and compare micro-ops.

Run ops and write ``BENCH_<name>.json``::

    repro bench list
    repro bench run --quick --name ci --out artifacts/
    repro bench kernel --profile       # simkernel group + per-event-type
                                       # breakdown of the DES kernel loop
    repro bench platform --quick       # the multi-tenant platform suite
                                       # (see repro.platform.bench)

Check a run against a committed reference document — every reference op
must reappear with the same checksum (speedups are printed for
information; the timing authority is ``benchmarks/e2e``)::

    repro bench compare BENCH_reference.json BENCH_ci.json --portable-only
    repro bench compare BENCH_platform.json BENCH_platform_ci.json --portable-only
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict

from ..cli import EXIT_FAILED, EXIT_OK, fail, read_json, write_json
from .ops import ALL_OPS
from .runner import compare, run_suite

__all__ = ["add_parser", "write_results"]


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "bench",
        help="hot-path micro-ops with checksummed outputs",
        description="Hot-path microbenchmarks with checksummed outputs.",
    )
    sub = parser.add_subparsers(required=True, metavar="<command>")

    p_list = sub.add_parser("list", help="list the registered ops")
    p_list.set_defaults(handler=_cmd_list)

    p_run = sub.add_parser("run", help="run the op suite into BENCH_<name>.json")
    _add_result_arguments(p_run, name="local")
    p_run.add_argument(
        "--ops", default=None, help="comma-separated op names to run (default: all)"
    )
    p_run.set_defaults(handler=_cmd_run)

    p_kernel = sub.add_parser(
        "kernel", help="DES kernel event-throughput group (simkernel ops)"
    )
    _add_result_arguments(p_kernel, name="kernel")
    p_kernel.add_argument(
        "--profile", action="store_true",
        help="also replay the step-loop workload under the instrumented "
        "kernel loop and report per-event-type count/time + the "
        "timeout-delay histogram (embedded in the JSON)",
    )
    p_kernel.set_defaults(handler=_cmd_kernel)

    p_platform = sub.add_parser(
        "platform",
        help="multi-tenant platform suite (jobs/hour, p95 queue wait, "
        "cost/job vs per-job isolation)",
    )
    _add_result_arguments(p_platform, name="platform")
    p_platform.add_argument("--seed", type=int, default=0, help="scenario seed")
    p_platform.set_defaults(handler=_cmd_platform)

    p_compare = sub.add_parser(
        "compare", help="check a new BENCH_*.json against a reference document"
    )
    p_compare.add_argument(
        "compare", nargs=2, metavar="FILE",
        help="the BASELINE document, then the NEW one",
    )
    p_compare.add_argument(
        "--portable-only",
        action="store_true",
        help="only enforce checksums marked portable (cross-machine runs)",
    )
    p_compare.set_defaults(handler=_cmd_compare)


def _add_result_arguments(parser, name: str) -> None:
    parser.add_argument(
        "--name", default=name, help="result name: writes BENCH_<name>.json"
    )
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer repetitions, identical workload sizes (checksums comparable)",
    )


def write_results(doc: Dict[str, Any], out_dir: str) -> str:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path."""
    path = os.path.join(out_dir, f"BENCH_{doc['name']}.json")
    write_json(path, doc)
    return path


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _print_op_table(doc: Dict[str, Any], p99: bool = False) -> None:
    for entry in doc["ops"]:
        tail = f"{entry['p99_ns'] / 1e6:10.3f} ms p99  " if p99 else ""
        print(
            f"  {entry['p50_ns'] / 1e6:10.3f} ms p50  "
            f"{entry['p95_ns'] / 1e6:10.3f} ms p95  {tail}{entry['op']}"
        )


def _cmd_list(args: Any) -> int:
    for op in ALL_OPS:
        suffix = f" — {op.note}" if op.note else ""
        print(f"{op.name}  [{op.group}]{suffix}")
    return EXIT_OK


def _cmd_run(args: Any) -> int:
    only = args.ops.split(",") if args.ops else None
    try:
        doc = run_suite(
            ALL_OPS, name=args.name, quick=args.quick, only=only, progress=_progress
        )
    except ValueError as exc:
        return fail(str(exc))
    path = write_results(doc, args.out)
    _print_op_table(doc)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_kernel(args: Any) -> int:
    only = [op.name for op in ALL_OPS if op.group == "simkernel"]
    doc = run_suite(
        ALL_OPS, name=args.name, quick=args.quick, only=only, progress=_progress
    )
    if args.profile:
        from .hostbench import format_profile, profile_step_loop

        doc["profile"] = profile_step_loop()
        print(format_profile(doc["profile"]))
    path = write_results(doc, args.out)
    _print_op_table(doc, p99=True)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_platform(args: Any) -> int:
    from ..platform.bench import run_platform_suite

    doc = run_platform_suite(
        name=args.name, quick=args.quick, seed=args.seed, progress=_progress
    )
    path = write_results(doc, args.out)
    _print_op_table(doc)
    section = doc["platform"]
    metrics = section["metrics"]
    comparison = section["comparison"]
    print(
        f"  jobs={metrics['jobs']:.0f} tenants={metrics['tenants']:.0f} "
        f"jobs/hour={metrics['jobs_per_hour']:.1f}"
    )
    print(
        f"  queue wait p50={metrics['queue_wait_p50_s']:.2f}s "
        f"p95={metrics['queue_wait_p95_s']:.2f}s "
        f"mean={metrics['queue_wait_mean_s']:.2f}s"
    )
    print(
        f"  cost/job shared=${comparison['cost_per_job_shared_usd']:.6f} "
        f"isolated=${comparison['cost_per_job_isolated_usd']:.6f} "
        f"savings={comparison['savings_pct']:.1f}%"
    )
    print(f"  digest={section['digest']}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_compare(args: Any) -> int:
    docs = []
    for path in args.compare:
        try:
            docs.append(read_json(path))
        except (OSError, ValueError) as exc:
            return fail(f"cannot read {path}: {exc}")
    baseline, new = docs
    try:
        header = f"compare: {baseline['name']} -> {new['name']}"
        result = compare(baseline, new, portable_only=args.portable_only)
    except (KeyError, TypeError) as exc:
        return fail(
            f"{' / '.join(args.compare)}: not a BENCH_*.json ops-document ({exc!r})"
        )
    print(header)
    for line in result.lines:
        print(f"  {line}")
    print("PASS: checksums intact" if result.ok else "FAIL: see lines above")
    return EXIT_OK if result.ok else EXIT_FAILED
