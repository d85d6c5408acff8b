#!/usr/bin/env python3
"""End-to-end benchmark: six workloads, host time by layer.

Two ways in, one measurement loop:

``python3 benchmarks/e2e/run.py [--seed N] [--reps N] [--trace] [--check-repeat]``
    the whole set: every end-to-end metric for every workload, output
    checks, and (``--trace``) the per-layer pass.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    the driver contract in ``BENCHMARK.json``: one workload, a warm-up rep
    and as many timed reps as end within ``S`` seconds, one JSON object
    on the last line.

Every (workload, rep) runs in its own child process, one at a time; the
harness itself starts no threads.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from metrics import END_TO_END, EXACT, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a child may take this many times its expected length before it is
#: killed and counted as a failed rep
TIMEOUT_FACTOR = 10
#: expected child length (set-up + run) on the 2-core reference host
EXPECTED_CHILD_S = 6.0
#: (untraced, traced[, extra]) child rounds per workload in the set's
#: --trace pass; the driver contract uses its time budget instead
TRACE_ROUNDS = 2
SHM_DIR = "/dev/shm"


# -- children ----------------------------------------------------------------


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}
    except OSError:
        return set()


def _teardown(proc: subprocess.Popen, shm_before: set, failed: bool) -> None:
    """Reap the child's whole process group; after a failed rep also
    unlink the shared-memory segments it left behind."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # forked roles share the group
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    if failed:
        for name in _shm_segments() - shm_before:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except OSError:
                pass


def launch(workload: str, seed: int, mode: str = "plain",
           variant: Optional[str] = None, dump: Optional[str] = None) -> Dict[str, Any]:
    """Run one rep in a fresh process; a hung or crashed rep is a failure."""
    timeout = TIMEOUT_FACTOR * EXPECTED_CHILD_S
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode]
    if variant:
        argv += ["--variant", variant]
    if dump:
        argv += ["--dump", dump]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # The workloads do no multi-threaded BLAS work (every pin in
    # expected.json holds at one thread), but OpenBLAS' pool start-up
    # made ``import numpy`` bimodal (0.54 s / 0.72 s, in phases lasting
    # minutes) depending on whether the second core was free.
    for pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pool] = "1"
    shm_before = _shm_segments()
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=REPO, text=True, start_new_session=True)
    report: Dict[str, Any]
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        lines = stdout.strip().splitlines()
        report = json.loads(lines[-1]) if lines else {"ok": False, "error": "no output"}
        if proc.returncode != 0 and report.get("ok"):
            report = {"ok": False, "error": f"exit code {proc.returncode}"}
        if not report.get("ok"):
            report["stderr"] = stderr[-2000:]
    except subprocess.TimeoutExpired:
        report = {"ok": False, "error": f"timeout after {timeout:.0f}s"}
    except ValueError as error:
        report = {"ok": False, "error": f"unparseable child output: {error}"}
    finally:
        _teardown(proc, shm_before, failed=proc.returncode != 0)
    return report


# -- output checks -----------------------------------------------------------


def _close(a: float, b: float, rel: float = EXACT) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_rep(workload, rep: Dict[str, Any]) -> List[str]:
    """Why this rep's outputs are wrong (empty: they are right)."""
    if not rep.get("ok"):
        return [rep.get("error", "failed")]
    out = rep["outputs"]
    problems = []
    if workload.steps:
        if out["steps"] != workload.steps:
            problems.append(f"committed {out['steps']} steps, expected {workload.steps}")
        loss = out["final_loss"]
        if loss is None or not math.isfinite(loss) or loss > workload.loss_ceiling:
            problems.append(f"final_loss {loss} above ceiling {workload.loss_ceiling}")
    if workload.is_sim and not (out["model_time_s"] > 0 and out["model_cost_usd"] > 0):
        problems.append("simulated time and cost must be positive")
    if "faults_injected" in out and not (
        out["faults_injected"] > 0 and out["faults_recovered"] > 0
    ):
        problems.append("fault storm injected or recovered nothing")
    if "attributed_fraction" in out and out["attributed_fraction"] != 1.0:
        problems.append(f"attributed_fraction {out['attributed_fraction']} != 1.0")
    if "jobs" in out and out["jobs"] <= 0:
        problems.append("platform completed no jobs")
    return problems


def same_outputs(workload, first: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    """Reps of one seed must agree: digest on sim, final loss elsewhere."""
    a, b = first["outputs"], other["outputs"]
    if workload.is_sim:
        if a["digest"] != b["digest"]:
            return [f"digest {b['digest'][:12]} differs from rep 0's {a['digest'][:12]}"]
    elif not _close(a["final_loss"], b["final_loss"]):
        return [f"final_loss {b['final_loss']!r} differs from {a['final_loss']!r}"]
    return []


def check_expected(name: str, rep: Dict[str, Any]) -> List[str]:
    """Seed-0 pins from expected.json."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        pins = json.load(handle)[name]
    problems = []
    for key, want in pins.items():
        got = rep["outputs"].get(key)
        same = _close(got, want) if isinstance(want, float) and got is not None else got == want
        if not same:
            problems.append(f"{key}: got {got!r}, pinned {want!r}")
    return problems


# -- measuring ---------------------------------------------------------------


def e2e_values(workload, rep: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics one healthy untraced rep yields."""
    out = rep["outputs"]
    values = {
        key: rep[key]
        for key in ("wall_s", "wall_ref_s", "setup_host_s", "setup_s",
                    "host_probe_s", "peak_rss_mb")
    }
    if workload.steps:
        values["steps_per_s"] = out["steps"] / rep["wall_s"]
    if "jobs" in out:
        values["jobs_per_s"] = out["jobs"] / rep["wall_s"]
        values["queue_wait_p95_s"] = out["queue_wait_p95_s"]
    if workload.is_sim:
        values["model_time_s"] = out["model_time_s"]
        values["model_cost_usd"] = out["model_cost_usd"]
    return values


def summarize(samples: List[float]) -> Dict[str, float]:
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


class Measurement:
    """Timed reps of one workload at one seed, with their verdicts."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.reps: List[Dict[str, Any]] = []
        #: the healthy warm-up rep: its job is discarded, its set-up counts
        self.warm: Optional[Dict[str, Any]] = None
        self.problems: List[str] = []
        self.failed = 0

    def add(self, rep: Dict[str, Any], label: str = "") -> bool:
        """Check a rep; healthy reps are kept, others counted as failed."""
        problems = check_rep(self.workload, rep)
        if not problems and self.reps:
            problems = same_outputs(self.workload, self.reps[0], rep)
        if problems:
            self.failed += 1
            self.problems += [f"{self.name} {label or 'rep'}: {p}" for p in problems]
            return False
        self.reps.append(rep)
        return True

    @property
    def attempted(self) -> int:
        return len(self.reps) + self.failed

    def e2e(self) -> Dict[str, Dict[str, float]]:
        columns: Dict[str, List[float]] = {}
        for rep in self.reps:
            for key, value in e2e_values(self.workload, rep).items():
                columns.setdefault(key, []).append(value)
        if self.warm is not None and self.reps:
            # one more set-up sample: after the first run in a checkout
            # the warm-up child sets up no colder than the timed ones
            for key in ("setup_host_s", "setup_s"):
                columns[key].append(self.warm[key])
        summary = {key: summarize(values) for key, values in columns.items()}
        rate = self.failed / self.attempted if self.attempted else 1.0
        summary["fail_rate"] = {"median": rate, "q1": rate, "q3": rate,
                                "n": self.attempted}
        return summary


def _rounds(count: Optional[int], deadline: Optional[float], longest: float = 0.0):
    """Yield round numbers: ``count`` of them, or — when ``count`` is None —
    one, then as many more as end before ``deadline`` (on the
    ``time.monotonic()`` clock) if none takes longer than the longest so
    far; ``longest`` is a first guess."""
    done = 0
    while (
        done < count
        if count is not None
        else done < 1 or time.monotonic() + longest <= deadline
    ):
        t0 = time.monotonic()
        yield done
        done += 1
        longest = max(longest, time.monotonic() - t0)


def measure(name: str, seed: int, reps: Optional[int],
            deadline: Optional[float]) -> Measurement:
    """One warm-up whose job time is discarded, then ``reps`` timed reps
    (or as many as end before ``deadline``, at least one), all untraced."""
    m = Measurement(name, seed)
    t0 = time.monotonic()
    warm = launch(name, seed)
    warm_s = time.monotonic() - t0
    if check_rep(m.workload, warm):
        m.add(warm, "warm-up")  # counts as a failed attempt
    else:
        m.warm = warm
    for timed in _rounds(reps, deadline, warm_s):
        if m.failed and not m.reps:
            break  # nothing works; do not sit through another timeout
        m.add(launch(name, seed), f"rep {timed}")
    if seed == 0 and m.reps:
        pins = check_expected(name, m.reps[0])
        if pins:
            m.failed += 1
            m.problems += [f"{name} expected.json: {p}" for p in pins]
    print(f"  {name}: {len(m.reps)} timed reps, {m.failed} failed")
    return m


def _median(reps: List[Dict[str, Any]], get: Callable[[Dict[str, Any]], float]) -> float:
    return statistics.median(get(r) for r in reps) if reps else 0.0


def _extra_child(name: str, seed: int) -> Optional[Dict[str, Any]]:
    """The third child of a traced round, where a workload needs one."""
    if name == "fault-storm-sim":  # trace.overhead_frac: critical path off
        return launch(name, seed, variant="no-critical-path")
    if name == "pmf-bsp-procs":  # exec.procs_over_local
        return launch("pmf-bsp-local", seed)
    return None


def trace_pass(name: str, seed: int, rounds: Optional[int],
               deadline: Optional[float]) -> Dict[str, Any]:
    """Per-layer numbers: rounds of (untraced, traced[, extra]) children."""
    workload = WORKLOADS[name]
    m = Measurement(name, seed)
    traced: List[Dict[str, Any]] = []
    extra: List[Dict[str, Any]] = []
    problems: List[str] = []
    os.makedirs(OUT, exist_ok=True)
    dump = os.path.join(OUT, f"spans-{name}.jsonl")
    children = 0
    for _ in _rounds(rounds, deadline):
        if not m.add(launch(name, seed), "untraced"):
            break  # nothing to hold a traced child against
        rep = launch(name, seed, mode="spans", dump=dump)
        # wrappers must not change what the program computes
        bad = check_rep(workload, rep) or same_outputs(workload, m.reps[0], rep)
        if bad:
            problems += [f"{name} traced: {p}" for p in bad]
        else:
            traced.append(rep)
        other = _extra_child(name, seed)
        children += 1 if other is None else 2
        if other is not None and other.get("ok"):
            extra.append(other)
        elif other is not None:
            problems.append(f"{name} extra child: {other.get('error')}")

    layers = _layer_table(name, m.reps, traced, extra, problems)
    print(f"  {name}: {len(traced)} traced reps, {len(problems) + m.failed} problems")
    return {
        "layers": layers,
        "attempted": m.attempted + children,
        "failed": m.failed + len(problems),
        "problems": m.problems + problems,
    }


def _layer_table(name: str, plain: List[Dict[str, Any]], traced: List[Dict[str, Any]],
                 extra: List[Dict[str, Any]], problems: List[str]) -> Dict[str, float]:
    """Every per-layer metric (0 where not exercised) from a traced pass:
    medians of the traced reps' layer numbers, plus what the untraced and
    extra children contribute.  Cross-child check failures go to ``problems``."""
    workload = WORKLOADS[name]
    layers: Dict[str, float] = {key: 0.0 for key, _, _ in PER_LAYER}
    # (the procs spans child installs no wrappers and reports no layers)
    for key in {key for rep in traced for key in rep.get("layers", ())} & set(layers):
        layers[key] = _median(traced, lambda r: r["layers"].get(key, 0.0))
    source = traced or plain
    for part in ("import_s", "dataset_s", "world_s"):
        layers[f"experiments.{part}"] += _median(
            source, lambda r: r["setup_parts"].get(part, 0.0)
        )
    layers["scenarios.load_s"] = _median(source, lambda r: r["setup_parts"].get("load_s", 0.0))
    if name == "pmf-bsp-procs":
        layers["unaccounted_frac"] = 1.0  # roles are not traced from inside
    if not plain:
        return layers

    # children run at different moments are compared on the probe's clock
    plain_ref = _median(plain, lambda r: r["wall_ref_s"])
    plain_wall = _median(plain, lambda r: r["wall_s"])
    out = plain[0]["outputs"]
    if traced:
        layers["trace_overhead_frac"] = (
            _median(traced, lambda r: r["wall_ref_s"]) / plain_ref - 1.0
        )
    if workload.is_sim:
        layers["model.time_s"] = out["model_time_s"]
        layers["model.cost_usd"] = out["model_cost_usd"]
    else:
        layers["exec.job_setup_s"] = _median(plain, lambda r: r["job_setup_s"])
    if workload.steps:
        layers["core.steps"] = workload.steps
        layers["exec.step_ms"] = 1e3 * plain_wall / workload.steps
        layers["exec.steps_per_s"] = workload.steps / plain_wall
    if "jobs" in out:
        layers["platform.jobs"] = out["jobs"]
        layers["platform.jobs_per_s"] = out["jobs"] / plain_wall
        for key in ("scheduler_dispatches", "scheduler_wakeups", "cold_fraction",
                    "queue_wait_p50_s", "queue_wait_p95_s"):
            layers[f"platform.{key}"] = out[key]
    if not extra:
        return layers

    other_ref = _median(extra, lambda r: r["wall_ref_s"])
    if name == "fault-storm-sim":
        layers["trace.overhead_frac"] = plain_ref / other_ref - 1.0
    else:
        layers["exec.procs_over_local"] = other_ref / plain_ref
        if not _close(extra[0]["outputs"]["final_loss"], out["final_loss"]):
            problems.append("pmf-bsp-procs and pmf-bsp-local end at different losses")
    return layers


# -- printing ----------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.4g}"
    return f"{value:.4f}"


def _bound_text(metric) -> str:
    if metric.bound is None:
        return "not gated"
    return "bound exact" if metric.bound == EXACT else f"bound {metric.bound:.0%}"


def print_e2e(results: Dict[str, Measurement]) -> None:
    print("\nend-to-end (median [q1, q3] n; untraced reps)")
    summaries = {name: m.e2e() for name, m in results.items()}
    for metric in END_TO_END:
        print(f"  {metric.name} ({metric.unit}, {metric.better} is better, "
              f"{_bound_text(metric)})")
        for name in results:
            if not metric.reported_by(name):
                continue
            s = summaries[name].get(metric.name)
            if s is None:
                print(f"    {name:<22} n/a (no healthy rep)")
            else:
                print(f"    {name:<22} {_fmt(s['median']):>10} "
                      f"[{_fmt(s['q1'])}, {_fmt(s['q3'])}] n={s['n']}")


def print_layers(traces: Dict[str, Dict[str, Any]]) -> None:
    names = list(traces)
    print("\nper-layer (traced pass; 0 = layer not exercised)")
    print("  " + f"{'metric':<30}{'unit':<7}" + "".join(f"{n[:14]:>15}" for n in names))
    for key, unit, _ in PER_LAYER:
        row = "".join(f"{_fmt(traces[n]['layers'][key]):>15}" for n in names)
        print(f"  {key:<30}{unit:<7}{row}")


# -- modes -------------------------------------------------------------------


def run_contract(args) -> int:
    """One workload, one JSON object on the last line (BENCHMARK.json)."""
    deadline = time.monotonic() + args.seconds  # warm-up included
    if args.trace:
        result = trace_pass(args.workload, args.seed, None, deadline)
        metrics = {
            key: {"value": result["layers"][key], "unit": unit}
            for key, unit, _ in PER_LAYER
        }
        attempted, failed, problems = result["attempted"], result["failed"], result["problems"]
    else:
        m = measure(args.workload, args.seed, None, deadline)
        summary = m.e2e()
        for metric in END_TO_END:
            if metric.name in summary and metric.reported_by(args.workload):
                s = summary[metric.name]
                print(f"  {metric.name:<16} {_fmt(s['median']):>10} {metric.unit:<4} "
                      f"[{_fmt(s['q1'])}, {_fmt(s['q3'])}] n={s['n']}")
        metrics = {
            metric.name: {"value": summary[metric.name]["median"], "unit": metric.unit}
            for metric in END_TO_END
            if metric.contract and metric.name in summary
        }
        attempted, failed, problems = m.attempted, m.failed, m.problems
        if not m.reps:
            failed = max(failed, 1)
    for problem in problems:
        print(f"  FAILED CHECK {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_set(args) -> Dict[str, Measurement]:
    print(f"measuring {len(WORKLOADS)} workloads, seed {args.seed}, "
        f"1 warm-up + {args.reps} timed reps each")
    return {name: measure(name, args.seed, args.reps, None) for name in WORKLOADS}


def compare_sets(first: Dict[str, Measurement], second: Dict[str, Measurement]):
    """One row per (workload, metric): both medians and the verdict."""
    rows = []
    for name in first:
        a, b = first[name].e2e(), second[name].e2e()
        for metric in END_TO_END:
            if not metric.reported_by(name):
                continue
            if metric.name not in a or metric.name not in b:
                rows.append((name, metric.name, None, None, None, "MISS"))
                continue
            x, y = a[metric.name]["median"], b[metric.name]["median"]
            if metric.bound is None:
                rows.append((name, metric.name, x, y, (y - x) / x, "not gated"))
                continue
            if metric.bound == EXACT:
                ok, change = _close(x, y), (y - x) / x if x else 0.0
            elif metric.name == "fail_rate":
                ok, change = x == 0 and y == 0, y - x
            else:
                change = (y - x) / x if metric.better == "lower" else (x - y) / x
                ok = change <= metric.bound
            rows.append((name, metric.name, x, y, change, "ok" if ok else "MISS"))
    return rows


def run_suite(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    results = run_set(args)
    print_e2e(results)
    problems = [p for m in results.values() for p in m.problems]
    observed = {
        name: m.reps[0]["outputs"] for name, m in results.items() if m.reps
    }
    with open(os.path.join(OUT, "observed.json"), "w", encoding="utf-8") as handle:
        json.dump(observed, handle, indent=2, sort_keys=True)

    if args.check_repeat:
        print("\n--check-repeat: measuring the set a second time")
        again = run_set(args)
        problems += [p for m in again.values() for p in m.problems]
        rows = compare_sets(results, again)
        print("\nrepeat check (second median vs first; worse-by share vs bound)")
        for name, metric, x, y, change, verdict in rows:
            shown = "n/a" if x is None else f"{_fmt(x):>10} {_fmt(y):>10} {change:+.2%}"
            print(f"  {name:<22}{metric:<18}{shown}  {verdict}")
        with open(os.path.join(OUT, "check-repeat.json"), "w", encoding="utf-8") as handle:
            json.dump([dict(zip(("workload", "metric", "first", "second",
                                 "worse_by", "verdict"), row)) for row in rows],
                      handle, indent=2)
        problems += [f"{n} {k}: repeat outside bound" for n, k, *_, v in rows if v == "MISS"]

    if args.trace:
        print("\ntraced pass")
        traces = {
            name: trace_pass(name, args.seed, TRACE_ROUNDS, None)
            for name in WORKLOADS
        }
        print_layers(traces)
        problems += [p for t in traces.values() for p in t["problems"]]
        with open(os.path.join(OUT, "layers.json"), "w", encoding="utf-8") as handle:
            json.dump({n: t["layers"] for n, t in traces.items()}, handle, indent=2)

    print()
    for problem in problems:
        print(f"FAILED CHECK {problem}")
    print("all output checks passed" if not problems else f"{len(problems)} checks failed")
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0,
                        help="derives job (and dataset) seeds; default 0")
    parser.add_argument("--reps", type=int, default=5, help="timed reps per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also (set) or only (--workload) run the per-layer pass")
    parser.add_argument("--check-repeat", action="store_true",
                        help="measure the set twice and compare medians to the bounds")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="driver contract: measure only this workload")
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="with --workload: stop launching reps that would end later "
                             "than this (the warm-up rep counts)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    return run_contract(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
