"""Cost-attribution ledger: hand-built decomposition + end-to-end runs.

The synthetic tests pin the decomposition rules (self time, clipping,
container re-labelling, the rounding surcharge) on a trace small enough
to check by hand; the end-to-end tests assert the accounting identities
on real traced jobs — including, property-style, under randomized fault
profiles with the fault-tolerance machinery on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JobConfig, run_mlless
from repro.faas.billing import ActivationRecord, FaaSBilling
from repro.faults import FaultProfile
from repro.ml.data import MovieLensSpec, movielens_like
from repro.ml.models import PMF
from repro.ml.optim import InverseSqrtLR, MomentumSGD
from repro.trace import CostLedger, Span, Tracer, critical_path, straggler_report
from repro.trace.tracer import NO_SPAN

RATE = 1.7e-5


class FakeTrace:
    def __init__(self, spans):
        self.spans = spans
        self.events = []


def make_billing(*records):
    return FaaSBilling(rate_per_gb_s=RATE, records=list(records))


def record(function="worker-0", activation_id=0, memory_mb=2048,
           start=0.0, end=1.0, cold=True, ok=True):
    return ActivationRecord(function, activation_id, memory_mb,
                            start, end, cold, ok)


# ------------------------------------------------------------- synthetic
def hand_built_trace():
    """One activation: coldstart, a step with compute/storage/barrier."""
    spans = [
        Span(0, NO_SPAN, "invoke", "worker-0#0", 0.0, 1.0,
             {"function": "worker-0", "activation_id": 0, "worker": 0}),
        Span(1, 0, "coldstart", "dispatch", 0.0, 0.2),
        Span(2, 0, "step", "step-1", 0.2, 0.9, {"step": 1, "worker": 0}),
        Span(3, 2, "compute", "compute", 0.2, 0.5),
        Span(4, 2, "storage.get", "kv.get", 0.5, 0.8),
        Span(5, 2, "barrier", "barrier-1", 0.8, 0.9, {"step": 1, "worker": 0}),
        Span(6, 5, "mq.publish", "mq.publish", 0.8, 0.85),
    ]
    return FakeTrace(spans)


def test_synthetic_decomposition_by_hand():
    billing = make_billing(record())
    ledger = CostLedger.from_trace(hand_built_trace(), billing)
    by_cat = ledger.by_category()
    gb = 2048 / 1024.0
    assert by_cat["coldstart"]["seconds"] == pytest.approx(0.2)
    assert by_cat["compute"]["seconds"] == pytest.approx(0.3)
    assert by_cat["storage.get"]["seconds"] == pytest.approx(0.3)
    # barrier self time excludes its publish child
    assert by_cat["barrier"]["seconds"] == pytest.approx(0.05)
    assert by_cat["mq.publish"]["seconds"] == pytest.approx(0.05)
    # invoke self time (the uninstrumented 0.9..1.0 gap) lands in idle
    assert by_cat["idle"]["seconds"] == pytest.approx(0.1)
    # the step span is fully covered by its children
    assert by_cat["step"]["seconds"] == pytest.approx(0.0)
    # duration is exactly the billed duration: no rounding surcharge
    assert by_cat["billing.rounding"]["seconds"] == pytest.approx(0.0)
    assert by_cat["coldstart"]["gb_s"] == pytest.approx(0.2 * gb)
    assert ledger.total_cost() == billing.total_cost()
    rec = ledger.reconcile()
    assert rec["attributed_fraction"] == pytest.approx(1.0)
    assert rec["abs_error"] == pytest.approx(0.0, abs=1e-12)


def test_synthetic_phases_and_worker_label():
    billing = make_billing(record())
    ledger = CostLedger.from_trace(hand_built_trace(), billing)
    by_phase = ledger.by_phase()
    # everything inside the step span is "train"
    assert by_phase["train"]["seconds"] == pytest.approx(0.7)
    assert by_phase["dispatch"]["seconds"] == pytest.approx(0.2)
    assert by_phase["runtime"]["seconds"] == pytest.approx(0.1)
    assert set(ledger.by_worker()) == {"worker-0"}
    assert set(ledger.by_function()) == {"worker-0"}


def test_rounding_surcharge_completes_billed_duration():
    # 0.73 s of wall time bills as 0.8 s: 0.07 s of surcharge
    billing = make_billing(record(end=0.73))
    spans = [
        Span(0, NO_SPAN, "invoke", "worker-0#0", 0.0, 0.73,
             {"function": "worker-0", "activation_id": 0}),
        Span(1, 0, "compute", "compute", 0.0, 0.73),
    ]
    ledger = CostLedger.from_trace(FakeTrace(spans), billing)
    by_cat = ledger.by_category()
    assert by_cat["compute"]["seconds"] == pytest.approx(0.73)
    assert by_cat["billing.rounding"]["seconds"] == pytest.approx(0.07)
    assert ledger.row_cost() == pytest.approx(billing.total_cost())


def test_open_span_clips_to_record_end():
    # A crashed activation leaves spans open; they clip to the billed window.
    billing = make_billing(record(end=0.5, ok=False))
    spans = [
        Span(0, NO_SPAN, "invoke", "worker-0#0", 0.0, None,
             {"function": "worker-0", "activation_id": 0}),
        Span(1, 0, "compute", "compute", 0.1, None),
    ]
    ledger = CostLedger.from_trace(FakeTrace(spans), billing)
    by_cat = ledger.by_category()
    assert by_cat["compute"]["seconds"] == pytest.approx(0.4)
    assert by_cat["idle"]["seconds"] == pytest.approx(0.1)
    assert ledger.total_cost() == billing.total_cost()


def test_record_without_invoke_span_is_unattributed():
    billing = make_billing(record(), record(function="ghost", activation_id=9))
    ledger = CostLedger.from_trace(hand_built_trace(), billing)
    rec = ledger.reconcile()
    assert ledger.by_category()["unattributed"]["seconds"] == pytest.approx(1.0)
    # half the GB-s (one of two identical records) is unattributed
    assert rec["attributed_fraction"] == pytest.approx(0.5)
    assert ledger.total_cost() == billing.total_cost()


def test_empty_trace_attributes_nothing_but_reconciles():
    billing = make_billing(record())
    ledger = CostLedger.from_trace(FakeTrace([]), billing)
    assert set(ledger.by_category()) == {"unattributed"}
    assert ledger.total_cost() == billing.total_cost()
    table = ledger.category_table()
    assert table[0]["category"] == "unattributed"
    assert table[0]["share_pct"] == pytest.approx(100.0)


# ------------------------------------------------------------ end-to-end
SPEC = MovieLensSpec(n_users=60, n_movies=50, n_ratings=3_000, rank=3,
                     batch_size=400)


def small_config(faults=None, seed=5, **kwargs):
    defaults = dict(
        model=PMF(SPEC.n_users, SPEC.n_movies, rank=4, l2=0.02,
                  rating_offset=3.5),
        make_optimizer=lambda: MomentumSGD(lr=InverseSqrtLR(8.0), momentum=0.9),
        dataset=movielens_like(SPEC, seed=2),
        n_workers=3,
        significance_v=0.5,
        target_loss=None,
        max_steps=20,
        seed=seed,
        faults=faults,
    )
    defaults.update(kwargs)
    return JobConfig(**defaults)


def run_traced(config):
    tracer = Tracer()
    result = run_mlless(config, tracer=tracer)
    return result, tracer, result.meter.faas


def test_real_run_reconciles_exactly():
    result, tracer, billing = run_traced(small_config())
    assert result.total_steps > 0
    ledger = CostLedger.from_trace(tracer, billing)
    # the headline identity: the ledger reproduces the bill bit-for-bit
    assert ledger.total_cost() == billing.total_cost()
    rec = ledger.reconcile()
    assert rec["abs_error"] < 1e-12
    assert rec["attributed_fraction"] >= 0.99
    categories = set(ledger.by_category())
    assert {"compute", "coldstart", "storage.get", "barrier",
            "billing.rounding"} <= categories
    assert "unattributed" not in categories
    workers = set(ledger.by_worker())
    assert {"worker-0", "worker-1", "worker-2", "supervisor"} <= workers


def test_real_run_critical_path_and_stragglers():
    result, tracer, _billing = run_traced(small_config())
    rows = critical_path(tracer)
    assert rows, "a completed run must yield critical-path steps"
    assert len(rows) <= result.total_steps
    for row in rows:
        assert row["workers"] == 3
        assert row["bound_worker"] in {0, 1, 2}
        assert row["work_s"] > 0.0
        assert row["skew_s"] >= 0.0
        assert row["barrier_s"] >= 0.0
    report = straggler_report(tracer)
    assert [r["worker"] for r in report] == [0, 1, 2]
    assert sum(r["bounded_steps"] for r in report) == len(rows)
    for r in report:
        assert 0.0 <= r["idle_fraction"] < 1.0


# ------------------------------------------- property: faulty runs, too
fault_profiles = st.builds(
    FaultProfile,
    name=st.just("prop"),
    crash_rate=st.floats(min_value=0.0, max_value=0.6),
    crash_window_s=st.just((0.2, 2.0)),
    coldstart_spike_rate=st.floats(min_value=0.0, max_value=0.5),
    straggler_rate=st.floats(min_value=0.0, max_value=0.5),
    message_loss_rate=st.floats(min_value=0.0, max_value=0.15),
    kv_error_rate=st.floats(min_value=0.0, max_value=0.1),
    cos_error_rate=st.floats(min_value=0.0, max_value=0.1),
)


@settings(max_examples=6, deadline=None)
@given(profile=fault_profiles, seed=st.integers(min_value=0, max_value=2**16))
def test_ledger_reconciles_under_random_faults(profile, seed):
    config = small_config(
        faults=profile,
        seed=seed,
        max_steps=8,
        fault_tolerance=True,
    )
    # A context, not the fixture: Hypothesis reruns the body per example.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(JobConfig, "barrier_timeout_s", 5.0)
        _result, tracer, billing = run_traced(config)
    ledger = CostLedger.from_trace(tracer, billing)
    assert ledger.total_cost() == billing.total_cost()
    rec = ledger.reconcile()
    # to-the-cent agreement (and in fact exact row-sum agreement)
    assert round(rec["ledger_row_cost"], 2) == round(rec["billing_total_cost"], 2)
    assert rec["abs_error"] < 1e-9
    assert rec["attributed_fraction"] >= 0.99
