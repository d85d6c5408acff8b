"""Harness self-checks.  Run: ``python -m pytest benchmarks/e2e -q``.

Nothing here runs a workload; the arithmetic, the wrapper semantics and
the name tables are checked in isolation, and every boundary path is
resolved against the source tree so a later rename fails here first.
"""

import json
import os
import re
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import hostprobe  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- time budget and clock ---------------------------------------------------


def test_rounds_by_count_or_by_deadline(monkeypatch):
    assert list(run._rounds(3, None)) == [0, 1, 2]
    clock = iter(range(0, 1000, 4))  # every reading is 4 s after the last
    monkeypatch.setattr(run.time, "monotonic", lambda: next(clock))
    # round 0 runs 0..4; at 8 a 4 s round still ends by 22, so round 1
    # runs 12..16; at 20 the next one would end at 24
    assert list(run._rounds(None, 22.0)) == [0, 1]
    assert list(run._rounds(None, -1.0)) == [0]
    # a first guess longer than the budget still leaves the one round
    assert list(run._rounds(None, 10.0, longest=60.0)) == [0]


def test_reference_clock_scales_by_the_probe():
    assert hostprobe.to_ref(3.0, hostprobe.REF_S) == pytest.approx(3.0)
    assert hostprobe.to_ref(3.0, 2 * hostprobe.REF_S) == pytest.approx(1.5)


# -- span arithmetic ---------------------------------------------------------


def test_self_time_is_duration_minus_children(monkeypatch):
    ticks = iter([0, 10, 30, 40, 70, 100])  # a[0 .. 100], b[10 .. 30], c[40 .. 70]
    monkeypatch.setattr(spans, "_now", lambda: next(ticks))
    rec = spans.Recorder()
    a = rec.enter("a")
    b = rec.enter("b")
    rec.leave(b)
    c = rec.enter("b")
    rec.leave(c)
    rec.leave(a)
    totals = rec.totals()
    assert totals["b"] == (2, 50e-9, 50e-9)
    assert totals["a"] == (1, 50e-9, 100e-9)
    # children close first; each names the span that was open around it
    assert [(s[0], s[1]) for s in rec.raw] == [(1, 0), (2, 0), (0, -1)]


def test_each_thread_has_its_own_stack():
    rec = spans.Recorder()
    outer = rec.enter("main")
    seen = []

    def worker():
        frame = rec.enter("worker")
        seen.append(frame[4])  # parent id
        rec.leave(frame)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    rec.leave(outer)
    assert seen == [-1]  # not nested under the main thread's open span
    assert rec.threads_seen() == 2
    calls, self_s, inclusive_s = rec.totals()["main"]
    assert calls == 1 and self_s == inclusive_s


# -- generator wrapper -------------------------------------------------------


def _service(log):
    try:
        got = yield "first"
        log.append(("sent", got))
        try:
            yield "second"
        except KeyError as error:
            log.append(("thrown", type(error).__name__))
            yield "recovered"
        return "result"
    finally:
        log.append("closed")


def test_generator_wrapper_preserves_send_throw_return():
    rec = spans.Recorder()
    log = []
    wrapped = spans.wrap_callable(_service, "svc", rec)

    def caller():
        return (yield from wrapped(log))

    gen = caller()
    assert next(gen) == "first"
    assert gen.send("value") == "second"
    assert gen.throw(KeyError("k")) == "recovered"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "result"
    assert log == [("sent", "value"), ("thrown", "KeyError"), "closed"]
    assert rec.totals()["svc"][0] == 4  # one span per resume


def test_generator_wrapper_close_runs_finally():
    rec = spans.Recorder()
    log = []
    wrapped = spans.wrap_callable(_service, "svc", rec)

    def caller():
        yield from wrapped(log)

    gen = caller()
    next(gen)
    gen.close()
    assert log == ["closed"]
    assert hasattr(wrapped(log), "throw")  # what sim.Process requires


def test_plain_wrapper_returns_raises_and_observes():
    rec = spans.Recorder()
    observed = []

    def divide(a, b):
        return a / b

    wrapped = spans.wrap_callable(divide, "math", rec,
                                  observe=lambda args, result: observed.append(result))
    assert wrapped(6, 3) == 2
    with pytest.raises(ZeroDivisionError):
        wrapped(1, 0)
    assert observed == [2]
    assert rec.totals()["math"][0] == 2
    assert wrapped.__name__ == "divide"


# -- boundary table ----------------------------------------------------------

ALL_PATHS = sorted(
    {path for paths in spans.BOUNDARIES.values() for path in paths}
    | set(spans.TRACKED_CLASSES.values())
)


@pytest.mark.parametrize("path", ALL_PATHS)
def test_boundary_path_resolves(path):
    _, _, raw = spans.resolve(path)
    target = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    assert callable(target), f"{path} is not callable"


def test_install_wraps_then_restores_originals():
    from repro.sim import Environment

    before = {
        path: spans.resolve(path)[2]
        for paths in spans.BOUNDARIES.values()
        for path in paths
    }
    instances, _, restore = spans.install(spans.Recorder())
    try:
        for path, raw in before.items():
            assert spans.resolve(path)[2] is not raw, f"{path} not wrapped"
        env = Environment()
        assert instances["env"] == [env]
        assert env.profile_report()["event_types"] == {}  # profiling is on
    finally:
        restore()
    for path, raw in before.items():
        assert spans.resolve(path)[2] is raw, f"{path} not restored"
    assert Environment() not in instances["env"]


def test_boundary_keys_are_per_layer_metrics():
    declared = {name for name, _, _ in metrics.PER_LAYER}
    derived = {"sim.run_s"}  # reported as sim.dispatch_s + sim.resume_s
    assert set(spans.BOUNDARIES) - derived <= declared


# -- names -------------------------------------------------------------------


def test_names_units_and_benchmark_json_agree():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert 1 <= bench["run_seconds"] <= 60

    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]

    contract = [m for m in metrics.END_TO_END if m.contract]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in contract
    ]
    assert all(0 < m.bound <= 0.25 for m in contract)
    setup = next(m for m in contract if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in contract)

    assert bench["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in metrics.PER_LAYER
    ]
    assert 1 <= len(metrics.PER_LAYER) <= 128

    names = (
        list(workloads.WORKLOADS)
        + [m.name for m in metrics.END_TO_END]
        + [name for name, _, _ in metrics.PER_LAYER]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [m.unit for m in metrics.END_TO_END] + [u for _, u, _ in metrics.PER_LAYER]:
        assert UNIT.fullmatch(unit), unit
    for m in metrics.END_TO_END:
        assert m.better in ("lower", "higher")
        for name in m.workloads or ():
            assert name in workloads.WORKLOADS


def test_expected_pins_cover_every_workload():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    assert set(pins) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        if workload.steps:
            assert pins[name]["steps"] == workload.steps
    assert pins["pmf-bsp-local"]["final_loss"] == pytest.approx(
        pins["pmf-bsp-procs"]["final_loss"], rel=1e-9
    )
    assert pins["platform-diurnal-sim"]["attributed_fraction"] == 1.0
    assert pins["fault-storm-sim"]["attributed_fraction"] == 1.0
