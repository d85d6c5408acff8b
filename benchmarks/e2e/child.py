"""One (workload, rep) in its own process; prints one JSON line.

Modes:

``plain``   everything off — the end-to-end numbers come from here.
``spans``   timing wrappers from :mod:`spans` installed, kernel profile
            on, and the program's own ``Tracer`` on for sim single-job
            workloads (the ``CostLedger`` split needs its spans; its
            host cost is the ``trace.self_s`` row) — the per-layer
            host-time budget, counts and modelled-time split.

The parent passes its ``time.monotonic()`` at spawn, so ``setup_host_s``
covers interpreter start, imports and input construction.  The host
speed probe (:mod:`hostprobe`) runs right before and right after the
job, outside both set-up and ``wall_s``; ``setup_s`` and ``wall_ref_s``
are the two on the probe's clock.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any role it forked and reaped."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _model_split(tracer, billing) -> Dict[str, float]:
    """Billed simulated seconds by phase (Jiang et al.'s decomposition).

    Categories come from ``CostLedger.by_category``; the ledger does not
    keep the service a ``storage.*`` span hit, so mini-batch loads are
    taken from the object-store spans and subtracted from communication.
    """
    from repro.trace import CostLedger

    seconds = {
        category: bucket["seconds"]
        for category, bucket in CostLedger.from_trace(tracer, billing).by_category().items()
    }
    load = sum(
        span.end - span.start
        for span in tracer.spans
        if span.category.startswith("storage.")
        and span.attrs.get("service") == "cos"
        and span.end is not None
    )
    comm = sum(
        value
        for category, value in seconds.items()
        if category.startswith(("storage.", "mq.", "net.")) or category == "broadcast"
    )
    return {
        "model.coldstart_s": seconds.get("coldstart", 0.0),
        "model.load_s": load,
        "model.compute_s": seconds.get("compute", 0.0),
        "model.comm_s": max(comm - load, 0.0),
        "model.sync_wait_s": seconds.get("barrier", 0.0),
        "model.idle_s": seconds.get("idle", 0.0),
    }


def _layer_metrics(workload, rec, instances, filter_counts, wall: float,
                   outputs: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers of one ``spans`` run."""
    totals = rec.totals()

    def self_s(key: str) -> float:
        return totals.get(key, (0, 0.0, 0.0))[1]

    def calls(prefix: str) -> int:
        return sum(c for key, (c, _, _) in totals.items() if key.startswith(prefix))

    out: Dict[str, float] = {
        key: self_s(key) for key in totals if key not in ("sim.run_s", "harness.run")
    }

    # sim: kernel profile (count + callback time per event type)
    events = 0
    callback_ns = 0
    for env in instances["env"]:
        for stats in env.profile_report()["event_types"].values():
            events += stats["count"]
            callback_ns += stats["total_ns"]
    run_self = self_s("sim.run_s")
    run_inclusive = totals.get("sim.run_s", (0, 0.0, 0.0))[2]
    dispatch = max(run_inclusive - callback_ns / 1e9, 0.0) if events else 0.0
    out["sim.events"] = events
    out["sim.dispatch_s"] = dispatch
    # kernel code that runs inside callbacks (Process._resume, conditions)
    out["sim.resume_s"] = max(run_self - dispatch, 0.0)
    out["sim.us_per_event"] = 1e6 * dispatch / events if events else 0.0
    out["exec.resumes"] = totals.get("exec.drive_s", (0, 0.0, 0.0))[0]

    # counts the program already keeps
    def requests(label: str) -> int:
        return sum(s.metrics.total_requests for s in instances[label])

    out["storage.kv_requests"] = requests("kv")
    out["storage.kv_bytes"] = sum(
        s.metrics.bytes_in + s.metrics.bytes_out for s in instances["kv"]
    )
    out["storage.mq_messages"] = sum(
        s.metrics.requests.get("publish", 0) for s in instances["mq"]
    )
    out["storage.cos_requests"] = requests("cos")
    out["net.calls"] = calls("net.")
    out["ml.calls"] = calls("ml.")
    records = [r for p in instances["faas"] for r in p.billing.records]
    out["faas.activations"] = len(records)
    out["faas.cold_starts"] = sum(1 for r in records if r.cold)
    out["faas.billed_gb_s"] = sum(r.gb_seconds for r in records)
    out["faults.injected"] = sum(f.stats.total_injected for f in instances["faults"])
    out["faults.recovered"] = sum(f.stats.total_recovered for f in instances["faults"])
    out["trace.spans"] = sum(len(t.spans) for t in instances["tracer"])
    offered = filter_counts["offered"]
    out["core.isp_pass_rate"] = filter_counts["passed"] / offered if offered else 0.0

    if workload.workers:
        if outputs.get("final_workers") is not None:
            out["core.scale_in_events"] = workload.workers - outputs["final_workers"]
        if workload.is_sim:
            # activations beyond one per role: duration-cap relaunches
            # and crash re-invocations
            out["core.relaunches"] = max(len(records) - (workload.workers + 1), 0)

    # share of wall the wrapped boundaries explain
    accounted = sum(
        s for key, (_, s, _) in totals.items() if key != "harness.run"
    )
    lanes = 1 if workload.is_sim else workload.workers + 1
    out["unaccounted_frac"] = 1.0 - accounted / (wall * lanes)
    if workload.backend == "local":
        ml = sum(s for key, (_, s, _) in totals.items() if key.startswith("ml."))
        out["exec.non_ml_frac"] = 1.0 - ml / (wall * workload.workers)
    return out


def run(args) -> Dict[str, Any]:
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (import cost is part of set-up)
    import repro  # noqa: F401
    import hostprobe
    from workloads import WORKLOADS, JobWorkload

    parts: Dict[str, float] = {"import_s": time.perf_counter() - t0}
    workload = WORKLOADS[args.workload]

    rec = instances = filter_counts = restore = tracer = None
    if args.mode == "spans" and workload.backend != "procs":
        # Forked procs roles are not traced from inside: wrappers in the
        # parent would be inherited by the roles and record nowhere.
        import repro.platform.scenario  # noqa: F401  (boundary modules)
        import repro.scenarios.compiler  # noqa: F401
        import spans
        from repro.trace import Tracer

        rec = spans.Recorder()
        instances, filter_counts, restore = spans.install(rec)
        if isinstance(workload, JobWorkload) and workload.is_sim:
            # fault-storm's spec turns the tracer on inside
            # run_scenario_spec; the API-driven jobs get theirs here
            tracer = Tracer()

    try:
        state = workload.prepare(args.seed, parts, tracer=tracer, variant=args.variant)
        setup_host_s = time.monotonic() - args.spawned_at
        probe_before = hostprobe.probe()
        frame = rec.enter("harness.run", workload.name) if rec is not None else None
        start = time.perf_counter()
        result = workload.run(state)
        wall = time.perf_counter() - start
        if frame is not None:
            rec.leave(frame)
        probe = 0.5 * (probe_before + hostprobe.probe())
        outputs = workload.outputs(state, result)
    finally:
        if restore is not None:
            restore()

    report: Dict[str, Any] = {
        "ok": True,
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "wall_s": wall,
        "wall_ref_s": hostprobe.to_ref(wall, probe),
        "host_probe_s": probe,
        "setup_host_s": setup_host_s,
        # set-up ends where the first probe starts: that reading is its own
        "setup_s": hostprobe.to_ref(setup_host_s, probe_before),
        "setup_parts": parts,
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": outputs,
    }
    if not workload.is_sim:
        # stage + spawn + join/teardown around the timed training loop
        report["job_setup_s"] = max(wall - outputs["job_exec_s"], 0.0)
    if rec is not None:
        report["layers"] = _layer_metrics(
            workload, rec, instances, filter_counts, wall, outputs
        )
        traced = [t for t in instances["tracer"] if t.spans]
        if traced:
            report["layers"].update(
                _model_split(traced[0], instances["faas"][0].billing)
            )
        if args.dump:
            rec.dump(args.dump, {"workload": workload.name, "seed": args.seed,
                                 "wall_s": wall})
    return report


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans"), default="plain")
    parser.add_argument("--variant", default=None)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--dump", default=None)
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except Exception as error:  # boundary: report, then fail the rep
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": f"{type(error).__name__}: {error}"}))
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
