"""Quickstart: train a matrix-factorization model with MLLess.

Runs a small PMF job on synthetic MovieLens-like data across 8 serverless
workers with the ISP significance filter enabled, then prints the loss
trajectory, the execution time, and the itemized bill.

    python examples/quickstart.py
    python examples/quickstart.py --backend local
    python examples/quickstart.py --backend procs
    python examples/quickstart.py --faults chaos
    python examples/quickstart.py --report /tmp/quickstart.json
    python examples/quickstart.py --trace /tmp/quickstart-trace.json

``--backend local`` runs the same training logic for real: one thread
per worker, real queues, wall-clock time — no simulation, no bill.
``--backend procs`` goes one further: one OS *process* per role with
gradients in shared memory, so workers use real cores in parallel.

The ``--trace`` file is Chrome trace-event JSON: drag it into
https://ui.perfetto.dev to see every activation, step, barrier and
storage request on the simulated timeline.  The lossless dump lands next
to it at ``<PATH>.jsonl`` for ``python -m repro trace summary|cost``.
"""

import argparse
import json

from repro import FAULT_PROFILES, JobConfig, run_mlless
from repro.core.capabilities import COST_METERING, FAULTS, TRACING, Refusal, check, supports
from repro.ml.data import MovieLensSpec, movielens_like
from repro.ml.models import PMF
from repro.ml.optim import InverseSqrtLR, MomentumSGD


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--faults", choices=["off"] + sorted(FAULT_PROFILES), default="off",
        help="inject a named fault profile (seed-deterministic)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write a JSON run report (summary + extras) to PATH",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace: Chrome trace JSON at PATH (Perfetto), "
        "lossless JSONL at PATH.jsonl",
    )
    parser.add_argument(
        "--backend", choices=["sim", "local", "procs"], default="sim",
        help="execution backend: 'sim' = discrete-event simulation "
        "(default), 'local' = real threads + wall-clock time, "
        "'procs' = one OS process per role + shared-memory gradients",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    faults = None if args.faults == "off" else FAULT_PROFILES[args.faults]
    asked = {FAULTS: faults is not None, TRACING: args.trace is not None}
    try:  # before the dataset is built; run_mlless would say the same
        check([feature for feature, on in asked.items() if on], args.backend)
    except Refusal as refusal:
        raise SystemExit(str(refusal))

    spec = MovieLensSpec(
        n_users=500, n_movies=400, n_ratings=40_000, batch_size=500
    )
    dataset = movielens_like(spec, seed=1)
    print(f"dataset: {dataset}")

    config = JobConfig(
        model=PMF(spec.n_users, spec.n_movies, rank=8, l2=0.02,
                  rating_offset=3.5),
        make_optimizer=lambda: MomentumSGD(
            lr=InverseSqrtLR(8.0), momentum=0.9, nesterov=True
        ),
        dataset=dataset,
        n_workers=8,
        significance_v=0.7,     # the ISP significance filter
        target_loss=0.70,       # stop at RMSE 0.70
        max_steps=500,
        seed=42,
        faults=faults,
    )
    tracer = None
    if args.trace is not None:
        from repro.trace import Tracer

        tracer = Tracer()
    result = run_mlless(config, tracer=tracer, backend=args.backend)

    seconds_kind = "simulated" if args.backend == "sim" else "real wall-clock"
    print(f"\nconverged: {result.converged} in {result.total_steps} steps")
    print(f"execution time: {result.exec_time:.1f} {seconds_kind} seconds")
    print(f"mean step duration: {result.mean_step_duration() * 1000:.0f} ms")

    times, losses = result.losses()
    print("\nloss trajectory (every ~10th step):")
    for i in range(0, len(times), max(1, len(times) // 10)):
        print(f"  t={times[i] - result.started_at:7.2f}s  rmse={losses[i]:.4f}")

    if not supports(COST_METERING, args.backend):
        print(f"\nno bill: the {args.backend} backend runs on your own "
              "machine (cost metering is sim-only)")
    else:
        print(f"\ntotal cost: ${result.total_cost:.5f}")
        for component, cost in sorted(result.meter.breakdown().items()):
            print(f"  {component:<10s} ${cost:.5f}")
        print(f"Perf/$: {result.perf_per_dollar:,.0f}")

    if faults is not None:
        injected = int(result.extras.get("faults_injected", 0))
        recovered = int(result.extras.get("faults_recovered", 0))
        print(f"faults injected: {injected}, recoveries: {recovered}")

    trace_section = None
    if tracer is not None:
        from repro.experiments.report import render_table
        from repro.trace import CostLedger
        from repro.trace_cli import write_run_trace

        billing = result.meter.faas
        ledger = CostLedger.from_trace(tracer, billing)
        print()
        print(render_table(ledger.category_table(),
                           "FaaS cost attribution by category"))
        reconciled = ledger.reconcile()
        print(f"attributed: {100 * reconciled['attributed_fraction']:.2f}% "
              f"of billed GB-s (ledger error "
              f"{reconciled['abs_error']:.2e})")
        chrome_path, jsonl_path = write_run_trace(
            tracer, args.trace, billing=billing
        )
        print(f"trace written to {chrome_path} "
              f"(open in https://ui.perfetto.dev); JSONL at {jsonl_path}")
        trace_section = {
            "chrome_trace": chrome_path,
            "jsonl": jsonl_path,
            "attributed_fraction": reconciled["attributed_fraction"],
            "cost_by_category": {
                cat: round(entry["cost"], 10)
                for cat, entry in sorted(ledger.by_category().items())
            },
        }

    if args.report is not None:
        report = {
            "summary": result.summary(),
            "extras": {k: v for k, v in sorted(result.extras.items())},
            "backend": args.backend,
            "faults_profile": args.faults,
            "loss_trajectory": [
                [round(t - result.started_at, 6), loss]
                for t, loss in zip(times, losses)
            ],
            "cost_breakdown": {
                k: round(v, 8) for k, v in sorted(result.meter.breakdown().items())
            },
        }
        if trace_section is not None:
            report["trace"] = trace_section
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
        print(f"report written to {args.report}")


if __name__ == "__main__":
    main()
