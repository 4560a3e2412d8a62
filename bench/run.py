"""riskshare benchmark: one closed-loop client per workload.

Usage (from the repository root):

    python3 bench/run.py --workload profile_cli --seed 1 --seconds 45 --trace 0

One process, one thread, BLAS pinned to one thread. Set-up (a fresh import
of the package, input generation, market and spec-file construction) runs
SETUP_REPS times and the median is reported. The timed loop then makes
round(--seconds / PASS_S) passes over the workload's pool of operations,
each attempt under a per-operation deadline and, for general markets, a
work budget (see WorkBudget) that makes stalls fail the same way on a slow
host as on a fast one. Every distinct result is
verified against an independent reference between operations, outside the
timed region, and every repeat must reproduce it exactly.

Each operation is timed by its fastest pass. On a shared host identical
work runs up to half again slower for stretches of seconds to minutes
(other tenants); the fastest of several passes spread over the run filters
the shorter stretches. An operation that fails is not run again and keeps
the time it took. The end-to-end metrics are computed over distinct
operations:

* solves_per_s: verified operations over the summed operation times;
* op_p50_ms, op_p90_ms: latency percentiles, a failed or wrong operation
  counting as its deadline;
* verified_frac: verified operations over operations attempted;
* setup_s, peak_rss_mb: set-up median and ru_maxrss after the loop.

With ``--trace 1`` one pass runs untraced, traced, and untraced again; the
per-layer numbers come from the traced pass (see spans.py), and
trace.overhead_ratio compares it with the faster untraced pass.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext, redirect_stderr  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.BUILDERS)
SETUP_REPS = 7
# Rounds per pool, sized so one pass over the pool takes about PASS_S on
# the 2-vCPU, 2 GHz host the benchmark was tuned on. A run makes
# round(--seconds / PASS_S) whole passes, a number that does not depend on
# how fast the passes go: each operation is timed by its fastest pass, and
# a run that got one pass more would report lower times.
POOL_ROUNDS = {"profile_cli": 2, "general_dual": 2}
PASS_S = 8.75

# Per-layer metrics: (name, unit). Counts and self times are per operation
# of the traced pass.
PER_LAYER = [
    ("opt_kernel.lp_solve.calls", "count/op"),
    ("opt_kernel.lp_solve.self_s", "s/op"),
    ("opt_kernel.lp_solve.failed", "count/op"),
    ("opt_kernel.lp_solve.cells", "count/op"),
    ("opt_kernel.lp_solve.optimal_ratio", "ratio"),
    ("opt_kernel.maximize_over_densities.calls", "count/op"),
    ("opt_kernel.maximize_over_densities.kl_calls", "count/op"),
    ("opt_kernel.maximize_over_densities.self_s", "s/op"),
    ("opt_kernel.maximize_over_densities.failed", "count/op"),
    ("risk_measures.rho.calls", "count/op"),
    ("risk_measures.rho.self_s", "s/op"),
    ("risk_measures.conjugate.calls", "count/op"),
    ("risk_measures.conjugate.self_s", "s/op"),
    ("risk_measures.dual_solve.calls", "count/op"),
    ("risk_measures.dual_solve.self_s", "s/op"),
    ("risk_measures.hull_tv_distance.calls", "count/op"),
    ("risk_measures.hull_tv_distance.self_s", "s/op"),
    ("agent_space.total_risk.calls", "count/op"),
    ("agent_space.total_risk.self_s", "s/op"),
    ("pareto.pareto_check.calls", "count/op"),
    ("pareto.pareto_check.self_s", "s/op"),
    ("pareto.pareto_improve.calls", "count/op"),
    ("pareto.pareto_improve.self_s", "s/op"),
    ("infimal_convolution.value.calls", "count/op"),
    ("infimal_convolution.value.self_s", "s/op"),
    ("infimal_convolution.aggregate_conjugate.calls", "count/op"),
    ("infimal_convolution.aggregate_conjugate.self_s", "s/op"),
    ("prob_core.validate.calls", "count/op"),
    ("prob_core.validate.self_s", "s/op"),
    ("prob_core.kl_divergence.calls", "count/op"),
    ("cli.command.self_s", "s/op"),
    ("cli.load_market.self_s", "s/op"),
    ("cli.record_bytes", "B/op"),
    ("trace.overhead_ratio", "ratio"),
    ("probe.pareto_check_inflated_400.lp_solve.calls", "count"),
]


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside an operation that ran too long.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


class BudgetExceeded(BaseException):
    """Raised inside an operation that took more opt_kernel steps than its
    budget allows."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class WorkBudget:
    """Counts opt_kernel's inner steps during one operation and stops the
    operation past its budget.

    The steps are simplex pivots (``_pivot``) and density projections
    (``project_to_density``, one or more per projected-ascent iteration),
    the loops in which a stalled general market spends its time. Both are
    looked up through the module's globals, so rebinding them there counts
    every call. A step the module no longer has is not counted; the
    wall-clock deadline still stops the operation.
    """

    STEPS = ("_pivot", "project_to_density")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0
        self._undo = []

    def __enter__(self):
        module = sys.modules["riskshare.opt_kernel"]
        for name in self.STEPS:
            fn = getattr(module, name, None)
            if fn is not None:
                self._undo.append((module, name, fn))
                setattr(module, name, self._counted(fn))
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, name, fn = self._undo.pop()
            setattr(module, name, fn)
        return False

    def _counted(self, fn):
        def step(*args, **kwargs):
            self.used += 1
            if self.used > self.limit:
                raise BudgetExceeded()
            return fn(*args, **kwargs)
        return step


class OpRecord:
    """What one distinct operation did over the run."""

    __slots__ = ("best", "spent", "digest", "status")

    def __init__(self):
        self.best = math.inf  # fastest verified attempt, seconds
        self.spent = 0.0      # seconds of the attempt that failed or was wrong
        self.digest = None    # fingerprint of the first result
        self.status = None    # "verified", "failed" or "wrong"


class Ledger:
    """Per-operation records plus attempt totals for one measured pass set."""

    def __init__(self):
        self.ops = {}
        self.attempts = 0
        self.wall = 0.0       # seconds of every attempt
        self.failures = Counter()
        self.wrong_reasons = Counter()
        self.record_bytes = 0
        self.passes = []      # wall seconds of each pass

    def outcomes(self):
        """(verified, failed, wrong) counts over distinct operations."""
        c = Counter(rec.status for rec, _ in self.ops.values())
        return c["verified"], c["failed"], c["wrong"]

    def op_time(self):
        """Seconds the distinct operations took: the fastest attempt of a
        verified one, the failing attempt of the others."""
        return sum(rec.best if rec.status == "verified" else rec.spent
                   for rec, _ in self.ops.values())

    def latencies(self):
        """One sample per distinct operation; a failed or wrong one counts
        as its deadline."""
        return [rec.best if rec.status == "verified" else op.deadline
                for rec, op in self.ops.values()]


def _fresh_import():
    for name in [m for m in sys.modules if m == "riskshare" or m.startswith("riskshare.")]:
        del sys.modules[name]
    rs = importlib.import_module("riskshare")
    importlib.import_module("riskshare.cli")
    return rs


def _setup(workload, seed, workdir):
    """Run set-up SETUP_REPS times; keep the last inputs, report the median.

    Each repetition starts from a collected heap, so none pays for freeing
    the garbage of the one before it.
    """
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        rs = _fresh_import()
        inputs = workloads.BUILDERS[workload](rs, seed, POOL_ROUNDS[workload], workdir, REPO)
        times.append(time.perf_counter() - start)
    return rs, inputs, statistics.median(times)


def _execute(op, ledger, tracer=None):
    """Run one operation under its deadline, then verify it (untimed).

    An operation that failed or returned a wrong result is not run again:
    the program is deterministic, so a repeat would only burn the deadline.
    """
    rec, _ = ledger.ops.setdefault(op.key, (OpRecord(), op))
    if rec.status in ("failed", "wrong"):
        return
    error = None
    out = None
    sink = io.StringIO()
    start = time.perf_counter()
    budget = WorkBudget(op.budget) if op.budget is not None else nullcontext()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline)
            with redirect_stderr(sink), budget:
                out = op.run()
        except (DeadlineExceeded, BudgetExceeded) as exc:
            error = type(exc).__name__
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # any program error is a failed operation
            error = type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except DeadlineExceeded:  # timer fired between the call and disarming it
        error = error or "DeadlineExceeded"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.drain()

    ledger.attempts += 1
    ledger.wall += elapsed
    if error is not None:
        rec.status, rec.spent = "failed", elapsed
        label = f"{op.kind}: {error}"
        if op.check_error is not None and error not in ("DeadlineExceeded", "BudgetExceeded"):
            reason = op.check_error(error)
            if reason is not None:
                label += f" (wrong exit: {reason})"
        ledger.failures[label] += 1
        return
    ledger.record_bytes += sum(len(b) for b in out.get("bytes", ()))
    digest = workloads.outcome_digest(out)
    if rec.digest is None:
        rec.digest = digest
        try:
            reason = op.check(out)
        except Exception as exc:  # a malformed result fails verification
            reason = f"verifier raised {type(exc).__name__}: {exc}"
    else:
        reason = None if digest == rec.digest else \
            "result differs from an earlier run of the same input"
    if reason is None:
        rec.status, rec.best = "verified", min(rec.best, elapsed)
    else:
        rec.status, rec.spent = "wrong", elapsed
        ledger.wrong_reasons[f"{op.kind}: {reason[:160]}"] += 1


def _run_passes(rounds, ledger, passes, tracer=None):
    """Whole passes over the pool of rounds."""
    for _ in range(passes):
        start = ledger.wall
        for ops in rounds:
            for op in ops:
                _execute(op, ledger, tracer)
        ledger.passes.append(ledger.wall - start)


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted average of
    the order statistics around rank q*n. The operations form a mix of
    families with distinct costs, and a plain order statistic jumps when two
    neighbouring operations swap; this one moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def _end_to_end(ledger, setup_s, peak_rss_mb):
    verified, _, _ = ledger.outcomes()
    lat_ms = np.array(ledger.latencies()) * 1e3
    p50, p90 = hd_quantile(lat_ms, 0.5), hd_quantile(lat_ms, 0.9)
    return {
        "solves_per_s": (verified / ledger.op_time(), "1/s"),
        "op_p50_ms": (float(p50), "ms"),
        "op_p90_ms": (float(p90), "ms"),
        "verified_frac": (verified / len(ledger.ops), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(tracer, ledger, untraced_s, probe_lp_calls):
    """Per-layer totals of the traced pass, per attempted operation."""
    ops = ledger.attempts
    calls, self_s, failed, counters = tracer.calls, tracer.self_s, tracer.failed, tracer.counters
    values = {}
    for name, _unit in PER_LAYER:
        layer_fn, _, what = name.rpartition(".")
        if what == "calls":
            values[name] = calls.get(layer_fn, 0) / ops
        elif what == "self_s":
            values[name] = self_s.get(layer_fn, 0.0) / ops
        elif what == "failed":
            values[name] = failed.get(layer_fn, 0) / ops
    values["opt_kernel.lp_solve.cells"] = counters["opt_kernel.lp_solve.cells"] / ops
    lp_calls = calls.get("opt_kernel.lp_solve", 0)
    values["opt_kernel.lp_solve.optimal_ratio"] = \
        counters["opt_kernel.lp_solve.optimal"] / lp_calls if lp_calls else 0.0
    values["opt_kernel.maximize_over_densities.kl_calls"] = \
        counters["opt_kernel.maximize_over_densities.kl_calls"] / ops
    values["cli.record_bytes"] = ledger.record_bytes / ops
    values["trace.overhead_ratio"] = ledger.wall / untraced_s
    values["probe.pareto_check_inflated_400.lp_solve.calls"] = probe_lp_calls
    units = dict(PER_LAYER)
    return {name: (values[name], units[name]) for name, _ in PER_LAYER}


def _report(workload, seed, ledger, metrics):
    verified, failed, wrong = ledger.outcomes()
    n = len(ledger.ops)
    print(f"workload={workload} seed={seed} operations={n} verified={verified} "
          f"failed={failed} wrong={wrong} attempts={ledger.attempts} "
          f"attempt_wall_s={ledger.wall:.3f} op_time_s={ledger.op_time():.3f}")
    print(f"  failed_frac={failed / n:.6f} wrong_frac={wrong / n:.6f} "
          f"latency_samples={n} passes_s=" + ",".join(f"{t:.2f}" for t in ledger.passes))
    for label, count in sorted(ledger.failures.items()):
        print(f"  failure  {count:5d}  {label}")
    for label, count in sorted(ledger.wrong_reasons.items()):
        print(f"  wrong    {count:5d}  {label}")
    for name, (val, unit) in metrics.items():
        print(f"  {name:50s} {val:.6g} {unit}")


def _missing_inputs(workload):
    need = [REPO / "src" / "riskshare" / "__init__.py"]
    if workload == "profile_cli":
        need += [REPO / "markets" / f"{name}.json" for name in ("finite", "aumann", "shapley")]
        need += [REPO / "tests" / "golden" / g
                 for *_, goldens in workloads.FIXTURE_RUNS for g in goldens]
    return [str(p.relative_to(REPO)) for p in need if not p.is_file()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = _missing_inputs(args.workload)
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}; run from the "
              "repository root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    # The verifier's LP reference; loaded first so its import is neither
    # set-up time nor a pause inside the loop.
    import scipy.optimize  # noqa: F401
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = REPO / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        _, inputs, setup_s = _setup(args.workload, args.seed, workdir)
        if not args.trace:
            ledger = Ledger()
            _run_passes(inputs.rounds, ledger, max(1, round(args.seconds / PASS_S)))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = _end_to_end(ledger, setup_s, peak_rss_mb)
            wrong = ledger.outcomes()[2]
        else:
            probe = Ledger()
            tracer = spans.Tracer()
            tracer.install()
            try:
                _execute(inputs.probe, probe, tracer)
            finally:
                tracer.uninstall()
            probe_lp_calls = tracer.calls.get("opt_kernel.lp_solve", 0)
            print(f"probe: one inefficient pareto_check, 400 atoms, n=4, J=3 inflated "
                  f"scenario set: opt_kernel.lp_solve.calls={probe_lp_calls} "
                  f"verified={probe.outcomes()[0] == 1}")
            # The same pass untraced, traced, and untraced again: the
            # per-layer numbers come from the traced pass, the overhead from
            # it against the faster untraced one.
            before, ledger, after = Ledger(), Ledger(), Ledger()
            _run_passes(inputs.rounds, before, 1)
            tracer = spans.Tracer()
            tracer.install()
            try:
                _run_passes(inputs.rounds, ledger, 1, tracer)
            finally:
                tracer.uninstall()
            _run_passes(inputs.rounds, after, 1)
            untraced_s = min(before.wall, after.wall)
            metrics = _per_layer(tracer, ledger, untraced_s, probe_lp_calls)
            wrong = sum(led.outcomes()[2] for led in (probe, before, ledger, after))
        _report(args.workload, args.seed, ledger, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (REPO / ".bench_work").rmdir()
        except OSError:
            pass
    _, failed, _ = ledger.outcomes()
    result = {
        "correct": wrong == 0,
        "attempted": len(ledger.ops),
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
