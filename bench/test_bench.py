"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

import riskshare as rs  # noqa: E402


def _digests(rounds, kinds, limit=6):
    out = []
    for op in rounds[0]:
        if op.kind in kinds and len(out) < limit:
            out.append((op.key, workloads.outcome_digest(op.run())))
    return out


def test_generator_is_deterministic_per_seed(tmp_path):
    cheap = {"dilation_entropic.value", "dilation_es.value", "caps", "entropic_caps"}
    a = workloads.profile_atoms(rs, 5, 1, None, None)
    b = workloads.profile_atoms(rs, 5, 1, None, None)
    c = workloads.profile_atoms(rs, 6, 1, None, None)
    assert [op.key for op in a[0]] == [op.key for op in b[0]]
    assert _digests(a, cheap) == _digests(b, cheap)
    assert _digests(a, cheap) != _digests(c, cheap)

    g1 = workloads.general_dual(rs, 5, 1, None, None)
    g2 = workloads.general_dual(rs, 5, 1, None, None)
    assert _digests(g1.rounds, cheap) == _digests(g2.rounds, cheap)

    repo = HERE.parent
    workloads.cli_records(rs, 5, 1, tmp_path / "one", repo)
    workloads.cli_records(rs, 5, 1, tmp_path / "two", repo)
    for name in ("v0_dilation.json", "v0_dilation_alloc.json", "v3_inflation.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def _first(rounds, kind, size=""):
    return next(op for op in rounds[0] if op.kind == kind and size in op.key)


def test_verifier_rejects_a_perturbed_value():
    inputs = workloads.general_dual(rs, 3, 1, None, None).rounds
    for kind, size in (("caps", "/n50"), ("entropic_caps", "/n20/"),
                       ("scenario_hulls", "/n10/"), ("inflated_hulls", "/n20/")):
        op = _first(inputs, kind, size)
        out = op.run()
        assert op.check(out) is None
        assert op.check(dict(out, value=out["value"] + 1e-5)) is not None

    profile = workloads.profile_atoms(rs, 3, 1, None, None)
    op = _first(profile, "inflation_scenarios.value")
    out = op.run()
    assert op.check(out) is None
    assert op.check(dict(out, value=out["value"] * (1 + 1e-6) + 1e-6)) is not None
    op = _first(profile, "dilation_entropic.pareto_prop")
    out = op.run()
    assert op.check(out) is None
    assert op.check(dict(out, efficient=True, witness=None)) is not None


def test_verifier_rejects_a_wrong_ill_posed_error():
    inputs = workloads.general_dual(rs, 3, 1, None, None).rounds
    op = _first(inputs, "scenario_hulls", "/n10/")  # every hull contains P
    assert op.check_error("IllPosedError") is not None

    p = np.full(2, 0.5)
    disjoint = {"family": "scenario_hulls", "probs": p,
                "members": (np.array([[1.5, 0.5]]), np.array([[0.5, 1.5]])),
                "dominating": ()}
    assert verify.check_general(disjoint, np.zeros(2), ("error", "IllPosedError")) is None
    assert verify.check_general(disjoint, np.zeros(2), ("ok", 0.0)) is not None


def test_self_time_on_synthetic_spans():
    s = spans.Span
    recorded = [
        s(0, None, "value", 0.0, 10.0, None),
        s(1, 0, "rho", 1.0, 3.0, None),
        s(2, 0, "rho", 2.0, 4.0, None),       # overlaps its sibling
        s(3, 0, "lp", 8.0, 12.0, None),       # runs past its parent's end
        s(4, 1, "lp", 1.5, 2.5, None),        # grandchild: not value's child
    ]
    got = spans.self_times(recorded)
    assert got["value"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert got["rho"] == pytest.approx((2.0 - 1.0) + 2.0)
    assert got["lp"] == pytest.approx(4.0 + 1.0)
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)], 0.0, 10.0) == pytest.approx(3.0)


def test_deadline_hits_are_counted():
    import signal

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        def stall():
            end = time.perf_counter() + 5.0
            while time.perf_counter() < end:
                pass
            return {"value": 0.0}

        stall_op = workloads.Op("stall", "stall", stall, lambda out: None, deadline=0.05)
        quick_op = workloads.Op("quick", "quick", lambda: {"value": 1.0}, lambda out: None)
        ledger = run.Ledger()
        for op in (stall_op, quick_op, stall_op, quick_op):
            run._execute(op, ledger)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert ledger.attempts == 3  # a failed operation is not run again
    assert ledger.outcomes() == (1, 1, 0)
    assert ledger.failures == {"stall: DeadlineExceeded": 1}
    assert sorted(ledger.latencies())[-1] == 0.05
    assert ledger.wall < 1.0


def test_budget_stops_a_stalled_market_whatever_the_host_speed():
    import signal

    inputs = workloads.general_dual(rs, 1, 1, None, None).rounds
    stalled = _first(inputs, "inflated_hulls", "/n60/")
    quick = _first(inputs, "caps", "/n50/")
    kernel = sys.modules["riskshare.opt_kernel"]
    pivot = kernel._pivot
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        ledger = run.Ledger()
        for op in (stalled, quick):
            run._execute(op, ledger)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert kernel._pivot is pivot  # the counting wrappers are removed
    assert ledger.outcomes() == (1, 1, 0)
    assert ledger.failures == {"inflated_hulls: BudgetExceeded": 1}
    assert sorted(ledger.latencies())[-1] == stalled.deadline

    with run.WorkBudget(10) as budget, pytest.raises(run.BudgetExceeded):
        for _ in range(11):
            kernel.project_to_density(rs.ProbSpace(np.full(2, 0.5)), np.ones(2))
    assert budget.used == 11


def test_repeats_keep_the_fastest_time_and_must_match():
    ledger = run.Ledger()
    op = workloads.Op("same", "same", lambda: {"value": 1.0}, lambda out: None)
    for _ in range(3):
        run._execute(op, ledger)
    rec, _ = ledger.ops["same"]
    assert rec.status == "verified" and rec.best <= ledger.wall / 3

    values = iter([1.0, 2.0])
    flaky = workloads.Op("flaky", "flaky", lambda: {"value": next(values)}, lambda out: None)
    run._execute(flaky, ledger)
    run._execute(flaky, ledger)
    assert ledger.outcomes() == (1, 0, 1)
    assert "differs from an earlier run" in next(iter(ledger.wrong_reasons))


def test_tracer_rebinds_imported_names_and_counts_probe_lps():
    import riskshare.cli
    import riskshare.pareto

    original = riskshare.pareto.value
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert riskshare.pareto.value is not original
        assert riskshare.cli.value is riskshare.pareto.value
        assert rs.value is riskshare.pareto.value
        probe = workloads.lp_count_probe(rs, 1)
        probe.run()
        tracer.drain()
    finally:
        tracer.uninstall()
    assert riskshare.pareto.value is original
    assert tracer.calls["opt_kernel.lp_solve"] == 2401
    assert tracer.calls["pareto.pareto_check"] == 1
    assert tracer.self_s["opt_kernel.lp_solve"] > 0.0
