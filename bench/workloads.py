"""Seeded input generators for the benchmark workloads.

A workload is built once per set-up from ``--seed``: a pool of rounds, each
round a fixed list of operations over freshly drawn markets of the same
shapes, so every round costs about the same and every run has the same mix.
Each operation carries the plain-dict description its independent reference
needs; the program only ever sees the generated markets, spec files and
allocations.

Two workloads (see BUILDERS), with size ladders (N atoms, n states, J
scenarios):

* profile_cli: profile markets in process (profile_atoms: PROFILE_LADDER,
  four profile markets per rung) and through the CLI (cli_records:
  CLI_VARIANTS pairs of spec files with CLI_DILATION_ATOMS and
  CLI_INFLATION_ATOMS atoms, plus the three fixtures in ``markets/``);
* general_dual: the (family, n, count) rows of GENERAL_ROUND.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import verify

PROFILE_LADDER = ((100, 16, 6), (250, 12, 5), (500, 8, 4), (1000, 6, 4), (2000, 4, 3))
# A Pareto check on an inflation profile evaluates every atom's risk by an LP
# (0.8-3.8 s per check from 250 atoms up), so those checks stay at the
# smallest rung to keep a round near three seconds; value() on them still
# climbs the whole ladder, and the traced run's probe covers 400 atoms.
INFLATION_PARETO_MAX_ATOMS = 100
# value() on an inflated scenario set checks every atom by an LP too (0.3 s at
# 1000 atoms); it climbs to this size, the ES base to the top of the ladder.
INFLATION_SCENARIO_MAX_ATOMS = 500
INFLATION_LEVELS = 8  # distinct inflation parameters per inflation profile

# general_dual round: (family, n states, markets per round). Hull markets
# have J = n // 3 + 1 scenarios per agent. Sizes and counts are set for a
# steady mix: the p50 falls inside the caps n=50 block and the p90 inside the
# caps n=200 block (these dense LPs are most of the round's time), so neither
# rests on the boundary between two families. Today almost every n=60 hull
# market and about one entropic market in ten at the larger loss scales
# stalls; with few such markets a round, the share of failed operations
# (about 3%) stays well under a tenth, so the p90 is a measured latency, and
# the number of stalls per run, each costing its budget, varies little.
GENERAL_ROUND = (
    ("caps", 200, 12), ("caps", 100, 8), ("caps", 50, 24),
    ("entropic_caps", 20, 1), ("entropic_caps", 50, 1),
    ("entropic_caps", 100, 1), ("entropic_caps", 200, 1),
    ("scenario_hulls", 10, 10), ("inflated_hulls", 10, 10),
    ("scenario_hulls", 20, 5), ("inflated_hulls", 20, 5),
    ("scenario_hulls", 60, 1), ("inflated_hulls", 60, 1),
)
ENTROPIC_SCALE = (1.0, 12.0)  # loss spread in units of the KL weight
CAPS_ALPHA = (0.1, 0.9)       # level of the tightest ES cap in caps-only markets

CLI_VARIANTS = 5  # generated spec pairs per pool, six commands each
CLI_DILATION_ATOMS = 1000
CLI_DILATION_STATES = 16
CLI_INFLATION_ATOMS = 2000
CLI_INFLATION_STATES = 8
CLI_SWEEP_GRID = "1.0,1.25,1.5,2.0,2.5,3.0,4.0"
CLI_REFINEMENTS = "10,100,1000,2000"
FIXTURE_RUNS = (
    ("value", "finite", (), ("value_finite.json",)),
    ("value", "aumann", (), ("value_aumann.json",)),
    ("value", "shapley", (), ("value_shapley.json",)),
    ("allocate", "aumann", (), ("allocate_aumann.json",)),
    ("allocate", "shapley", (), ("allocate_shapley.json",)),
    ("sweep", "aumann", ("--gamma-grid", "1.0,1.5,2.0,2.5,3.0"),
     ("sweep_aumann.json", "sweep_aumann.json.csv")),
    ("nonattain", "aumann", ("--refinements", "10,100,1000"),
     ("nonattain_aumann.json", "nonattain_aumann.json.csv")),
)

# Per-operation limits. Whether an operation fails must not depend on how
# fast the host runs it, or two runs of the same seed would disagree, so a
# general_dual operation is stopped by a work budget: a count of opt_kernel's
# inner steps (simplex pivots and density projections, see run.WorkBudget).
# The most steps a baseline operation took before it ended: caps-only 1,330
# (n=200); hulls 550 for a success and 1,650 for a ConvergenceError (n=60);
# entropic+caps 82. A stalled one takes 19,000 to 100,000 steps in 4 s
# (hulls) or 1,180 to 11,500 (entropic+caps). A budget exhausted costs about
# 0.4 s on the largest hull and entropic markets.
# The wall-clock deadline is a guard: several times the longest that an
# operation ending within its budget can take, so it stops only an
# operation that would also have exhausted its budget. A failed operation's
# latency counts as its deadline. Profile and CLI operations never stall
# today and have the guard alone.
DEADLINE_S = 30.0
GENERAL_BUDGET = {"caps": 5000, "entropic_caps": 150, "scenario_hulls": 2500,
                  "inflated_hulls": 2500}
GENERAL_DEADLINE_S = {"caps": 5.0, "entropic_caps": 1.5, "scenario_hulls": 1.5,
                      "inflated_hulls": 1.5}


@dataclass
class Op:
    """One benchmark operation.

    run() calls the program and returns a plain outcome dict, which
    outcome_digest() fingerprints for the repeat check; check(outcome)
    returns None when the outcome matches the independent reference, else
    the reason.
    check_error(name), when given, says whether a raised error of that type
    is a wrong exit (returns the reason) or a legitimate one (None).
    budget, when given, caps the operation's opt_kernel steps.
    """

    key: str
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], str | None]
    check_error: Callable[[str], str | None] | None = None
    deadline: float = DEADLINE_S
    budget: int | None = None


@dataclass
class Inputs:
    rounds: list[list[Op]]
    probe: Op  # the traced run's LP-count probe


def _feed(h, part):
    if isinstance(part, np.ndarray):
        h.update(np.ascontiguousarray(part).tobytes())
    elif isinstance(part, bytes):
        h.update(part)
    elif isinstance(part, tuple):
        for item in part:
            _feed(h, item)
    else:
        h.update(repr(part).encode())


def outcome_digest(outcome: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outcome):
        _feed(h, outcome[key])
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Random ingredients
# ---------------------------------------------------------------------------

def _probs(rng, n):
    p = 0.5 / n + 0.5 * rng.dirichlet(np.full(n, 2.0))
    return p / p.sum()


def _scenarios(rng, p, j):
    """j densities; the first is P itself (needed by inflation bases and so
    that every hull contains the reference measure)."""
    rows = [np.ones(p.size)]
    while len(rows) < j:
        w = rng.gamma(1.0, size=p.size) + 1e-3
        rows.append(w / float(p @ w))
    return np.vstack(rows)


def _levels(rng, count):
    levels = np.sort(1.25 + 1.75 * rng.random(INFLATION_LEVELS))
    pick = rng.integers(0, INFLATION_LEVELS, size=count)
    pick[rng.integers(0, count)] = 0  # the smallest level is always present
    return levels[pick]


# ---------------------------------------------------------------------------
# profile_atoms
# ---------------------------------------------------------------------------

def _profile_market(rs, rng, family, n_atoms, n, j):
    p = _probs(rng, n)
    space = rs.ProbSpace(p)
    x = rng.normal(0.0, 1.0, n)
    if family.startswith("dilation"):
        agents = rs.shapley_agents(n_atoms)
        t = np.concatenate([[0.0], (np.arange(n_atoms) + 0.5) / n_atoms, [1.0]])
        gammas = rng.uniform(0.5, 1.5) + rng.uniform(0.5, 2.0) * t + 0.01 * rng.random(t.size)
        if family == "dilation_entropic":
            g0 = float(rng.uniform(0.5, 2.0))
            base, base_ref = rs.Entropic(g0), {"type": "entropic", "gamma": g0}
        else:
            a = float(rng.uniform(0.1, 0.6))
            base, base_ref = rs.ExpectedShortfall(a), {"type": "es", "alpha": a}
        market = rs.Market.dilation(space, agents, base, gammas)
        kind = "dilation"
    else:
        agents = rs.aumann_agents(n_atoms)
        gammas = _levels(rng, n_atoms)
        if family == "inflation_es":
            a = float(rng.uniform(0.3, 0.9))
            base, base_ref = rs.ExpectedShortfall(a), {"type": "es", "alpha": a}
        else:
            dmat = _scenarios(rng, p, j)
            base = rs.ScenarioSet(tuple(space.density(r) for r in dmat))
            base_ref = {"type": "scenario_set", "densities": dmat}
        market = rs.Market.inflation(space, agents, base, gammas)
        kind = "inflation"
    ref = {"kind": kind, "base": base_ref, "probs": p, "gammas": np.asarray(gammas),
           "weights": np.asarray(agents.weights)}
    return market, x, ref


def _profile_ops(rs, market, x, ref, family, tag):
    if ref["kind"] == "dilation":
        best = rs.optimal_allocation_dilated(market, x)
    else:
        best = rs.optimal_allocation_inflated(market, x)
    prop = rs.proportional_split(market.agents, x)

    def run_value():
        r = rs.value(market, x)
        return {"value": r.value, "duality_gap": r.duality_gap,
                "shares": r.allocation.shares}

    def pareto_run(alloc):
        def run():
            v = rs.pareto_check(market, x, alloc)
            return {"efficient": v.efficient, "excess": v.excess,
                    "witness": None if v.witness is None else v.witness.shares}
        return run

    def pareto_check(alloc):
        return lambda out: verify.check_pareto(ref, x, alloc.shares, out,
                                               rs.pareto.PARETO_TOL)

    return [
        Op(f"{tag}/value", f"{family}.value", run_value,
           lambda out: verify.check_profile_value(ref, x, out)),
        Op(f"{tag}/pareto_prop", f"{family}.pareto_prop", pareto_run(prop), pareto_check(prop)),
        Op(f"{tag}/pareto_best", f"{family}.pareto_best", pareto_run(best), pareto_check(best)),
    ]


PROFILE_FAMILIES = ("dilation_entropic", "dilation_es", "inflation_es", "inflation_scenarios")


def profile_atoms(rs, seed, n_rounds, workdir, repo_root):
    rounds = []
    for r, rng in enumerate(_round_rngs(seed, n_rounds)):
        ops = []
        for n_atoms, n, j in PROFILE_LADDER:
            for family in PROFILE_FAMILIES:
                if family == "inflation_scenarios" and n_atoms > INFLATION_SCENARIO_MAX_ATOMS:
                    continue
                market, x, ref = _profile_market(rs, rng, family, n_atoms, n, j)
                fam_ops = _profile_ops(rs, market, x, ref, family, f"r{r}/{family}/N{n_atoms}")
                if family.startswith("inflation") and n_atoms > INFLATION_PARETO_MAX_ATOMS:
                    fam_ops = fam_ops[:1]
                ops.extend(fam_ops)
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def lp_count_probe(rs, seed):
    """One inefficient pareto_check on a 400-atom, 4-state, 3-scenario
    inflated-scenario-set market: the traced run reports its LP count."""
    rng = np.random.default_rng([seed, 400])
    market, x, ref = _profile_market(rs, rng, "inflation_scenarios", 400, 4, 3)
    return _profile_ops(rs, market, x, ref, "inflation_scenarios", "probe")[1]


# ---------------------------------------------------------------------------
# general_dual
# ---------------------------------------------------------------------------

def _general_op(rs, space, x, specs, ref, tag):
    market = rs.Market.general(space, rs.finite_agents(len(specs)),
                               rs.RiskFamily(tuple(specs)))

    def run():
        r = rs.value(market, x)
        return {"value": r.value, "q": r.dual_optimizer.q}

    return Op(tag, ref["family"], run,
              lambda out: verify.check_general(ref, x, ("ok", out["value"])),
              lambda name: verify.check_general(ref, x, ("error", name)),
              GENERAL_DEADLINE_S[ref["family"]], GENERAL_BUDGET[ref["family"]])


def _caps_market(rs, rng, n, alpha, tag):
    """Three ES-type agents whose tightest density cap is 1 / alpha."""
    p = _probs(rng, n)
    space = rs.ProbSpace(p)
    d, g = float(rng.uniform(0.5, 3.0)), float(rng.uniform(1.2, 3.0))
    a2 = alpha * float(rng.uniform(0.2, 1.0))
    a3 = min(1.0, alpha * g * float(rng.uniform(0.2, 1.0)))
    specs = [rs.ExpectedShortfall(alpha), rs.Dilation(rs.ExpectedShortfall(a2), d),
             rs.Inflation(rs.ExpectedShortfall(a3), g)]
    cap = min(1.0 / alpha, 1.0 / a2, g / a3)
    ref = {"family": "caps", "probs": p, "cap": cap}
    return _general_op(rs, space, rng.normal(0.0, 1.0, n), specs, ref, tag)


def _entropic_market(rs, rng, n, scale, tag):
    p = _probs(rng, n)
    space = rs.ProbSpace(p)
    g1, g0 = rng.uniform(0.2, 1.0, 2)
    d = float(rng.uniform(0.5, 2.0))
    a, g = float(rng.uniform(0.1, 0.6)), float(rng.uniform(1.0, 2.0))
    specs = [rs.Entropic(g1), rs.Dilation(rs.Entropic(g0), d),
             rs.Inflation(rs.ExpectedShortfall(a), g)]
    kappa = g1 + d * g0
    x = kappa * scale * rng.normal(0.0, 1.0, n)
    ref = {"family": "entropic_caps", "probs": p, "kappa": kappa, "cap": g / a}
    return _general_op(rs, space, x, specs, ref, tag)


def _hull_market(rs, rng, n, inflated, tag):
    p = _probs(rng, n)
    space = rs.ProbSpace(p)
    j = n // 3 + 1
    mats = [_scenarios(rng, p, j) for _ in range(2)]
    sets = [rs.ScenarioSet(tuple(space.density(r) for r in m)) for m in mats]
    if inflated:
        gammas = rng.uniform(1.2, 3.0, 2)
        specs = [rs.Inflation(s, float(g)) for s, g in zip(sets, gammas)]
        ref = {"family": "inflated_hulls", "probs": p, "members": (),
               "dominating": tuple(zip(gammas, mats))}
    else:
        specs = sets
        ref = {"family": "scenario_hulls", "probs": p, "members": tuple(mats),
               "dominating": ()}
    return _general_op(rs, space, rng.normal(0.0, 1.0, n), specs, ref, tag)


def general_dual(rs, seed, n_rounds, workdir, repo_root):
    rounds = []
    lo, hi = ENTROPIC_SCALE
    lo_a, hi_a = CAPS_ALPHA
    n_entropic = sum(count for family, _, count in GENERAL_ROUND if family == "entropic_caps")
    for r, rng in enumerate(_round_rngs(seed, n_rounds)):
        ops = []
        # Stratified loss scales: each round's entropic markets span the range.
        strata = iter(rng.permutation(n_entropic))
        for family, n, count in GENERAL_ROUND:
            for k in range(count):
                tag = f"r{r}/{family}/n{n}/{k}"
                if family == "caps":
                    # The LP's pivot count follows the cap, so caps are
                    # stratified too: alpha spans CAPS_ALPHA in every round.
                    alpha = lo_a + (hi_a - lo_a) * (k + rng.random()) / count
                    ops.append(_caps_market(rs, rng, n, alpha, tag))
                elif family == "entropic_caps":
                    scale = lo + (hi - lo) * (next(strata) + rng.random()) / n_entropic
                    ops.append(_entropic_market(rs, rng, n, scale, tag))
                else:
                    ops.append(_hull_market(rs, rng, n, family == "inflated_hulls", tag))
        rng.shuffle(ops)
        rounds.append(ops)
    return Inputs(rounds, probe=lp_count_probe(rs, seed))


# ---------------------------------------------------------------------------
# cli_records
# ---------------------------------------------------------------------------

def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _cli_variant(rng, workdir, v):
    """Write one dilation spec (with a proportional-split allocation file)
    and one ES-inflation spec; return their paths and reference data."""
    # Dilation spec: shapley atoms, one explicit parameter per atom.
    n = CLI_DILATION_STATES
    p = _probs(rng, n)
    x = rng.normal(0.0, 1.0, n)
    g0 = float(rng.uniform(0.5, 2.0))
    n_atoms = CLI_DILATION_ATOMS + 2
    gammas = rng.uniform(0.5, 3.0, n_atoms)
    dil = workdir / f"v{v}_dilation.json"
    _write_json(dil, {"probs": p.tolist(), "loss": x.tolist(),
                      "agent_space": {"kind": "shapley", "n": CLI_DILATION_ATOMS},
                      "profile": {"kind": "dilation",
                                  "base": {"type": "entropic", "gamma": g0},
                                  "gammas": gammas.tolist()}})
    weights = np.concatenate([[1.0], np.full(CLI_DILATION_ATOMS, 1.0 / CLI_DILATION_ATOMS),
                              [1.0]])
    prop_rows = np.tile(x / weights.sum(), (n_atoms, 1))
    alloc = workdir / f"v{v}_dilation_alloc.json"
    _write_json(alloc, {"shares": prop_rows.tolist()})
    dil_ref = {"kind": "dilation", "base": {"type": "entropic", "gamma": g0},
               "probs": p, "gammas": gammas, "weights": weights}

    # ES-inflation spec: aumann atoms with an affine parameter formula.
    m = CLI_INFLATION_STATES
    pi = _probs(rng, m)
    xi = rng.normal(0.0, 1.0, m)
    intercept, slope = float(rng.uniform(1.2, 2.0)), float(rng.uniform(0.5, 2.0))
    # nonattain rejects a vacuous experiment, where ES at alpha / intercept is
    # already the worst loss; keep that level clear of the worst state's mass.
    alpha = float(rng.uniform(0.3, 0.9))
    while alpha / intercept < pi[np.argmax(xi)] + 0.05:
        alpha = float(rng.uniform(0.3, 1.0))
    infl = workdir / f"v{v}_inflation.json"
    _write_json(infl, {"probs": pi.tolist(), "loss": xi.tolist(),
                       "agent_space": {"kind": "aumann", "n": CLI_INFLATION_ATOMS},
                       "profile": {"kind": "inflation",
                                   "base": {"type": "expected_shortfall", "alpha": alpha},
                                   "gamma_formula": {"kind": "affine", "intercept": intercept,
                                                     "slope": slope},
                                   "target_gamma": intercept}})
    mids = (np.arange(CLI_INFLATION_ATOMS) + 0.5) / CLI_INFLATION_ATOMS
    infl_ref = {"kind": "inflation", "base": {"type": "es", "alpha": alpha}, "probs": pi,
                "gammas": intercept + slope * mids,
                "weights": np.full(CLI_INFLATION_ATOMS, 1.0 / CLI_INFLATION_ATOMS),
                "formula": (intercept, slope)}
    return (dil, alloc, x, prop_rows, dil_ref), (infl, xi, infl_ref)


def cli_records(rs, seed, n_rounds, workdir, repo_root):
    """CLI_VARIANTS generated spec pairs plus the fixtures, dealt into
    n_rounds rounds. Every pass re-runs the same commands on the same files,
    so each record must repeat byte for byte."""
    from riskshare.cli import main

    workdir.mkdir(parents=True, exist_ok=True)
    ops = []

    def cli_op(tag, args, outs, check):
        paths = tuple(workdir / f"{tag}{suffix}" for suffix in outs)

        def run():
            main.main(args=list(args) + ["--out", str(paths[0])], standalone_mode=False)
            return {"bytes": tuple(path.read_bytes() for path in paths)}

        return Op(tag, args[0], run, check)

    def rec(out):
        return json.loads(out["bytes"][0])

    tol = rs.pareto.PARETO_TOL
    for v in range(CLI_VARIANTS):
        rng = np.random.default_rng([seed, 7, v])
        (dil, alloc, x, prop_rows, dil_ref), (infl, xi, infl_ref) = \
            _cli_variant(rng, workdir, v)
        ops += [
            cli_op(f"v{v}_dil_value", ["value", "--spec", str(dil)], (".json",),
                   lambda out, r=dil_ref, x=x: _check_record_value(r, x, rec(out))),
            cli_op(f"v{v}_dil_allocate", ["allocate", "--spec", str(dil)], (".json",),
                   lambda out, r=dil_ref, x=x: _check_record_allocate(r, x, rec(out))),
            cli_op(f"v{v}_dil_pareto", ["pareto", "--spec", str(dil), "--alloc", str(alloc)],
                   (".json",),
                   lambda out, r=dil_ref, x=x, rows=prop_rows:
                   verify.check_pareto(r, x, rows, _verdict(rec(out)), tol)),
            cli_op(f"v{v}_infl_value", ["value", "--spec", str(infl)], (".json",),
                   lambda out, r=infl_ref, x=xi: _check_record_value(r, x, rec(out))),
            cli_op(f"v{v}_infl_sweep",
                   ["sweep", "--spec", str(infl), "--gamma-grid", CLI_SWEEP_GRID],
                   (".json", ".json.csv"),
                   lambda out, r=infl_ref, x=xi: _check_sweep(r, x, rec(out))),
            cli_op(f"v{v}_infl_nonattain",
                   ["nonattain", "--spec", str(infl), "--refinements", CLI_REFINEMENTS],
                   (".json", ".json.csv"),
                   lambda out, r=infl_ref, x=xi: _check_nonattain(r, x, rec(out))),
        ]

    golden = repo_root / "tests" / "golden"
    for cmd, name, extra, goldens in FIXTURE_RUNS:
        want = tuple((golden / g).read_bytes() for g in goldens)
        spec = repo_root / "markets" / f"{name}.json"
        suffixes = (".json", ".json.csv")[:len(goldens)]
        ops.append(cli_op(f"fixture_{cmd}_{name}", [cmd, "--spec", str(spec), *extra], suffixes,
                          lambda out, want=want: None if out["bytes"] == want
                          else "record differs from the golden file"))

    np.random.default_rng([seed, 8]).shuffle(ops)
    return [ops[r::n_rounds] for r in range(n_rounds)]


def _verdict(rec):
    witness = rec["witness"]
    return {"efficient": rec["efficient"], "excess": rec["excess"],
            "witness": None if witness is None else np.array(witness["shares"])}


def _check_record_value(ref, x, rec):
    alloc = rec["allocation"]
    return verify.check_profile_value(ref, x, {
        "value": rec["value"], "duality_gap": rec["duality_gap"],
        "shares": np.array(alloc["shares"])})


def _check_record_allocate(ref, x, rec):
    reason = verify.check_profile_value(ref, x, {
        "value": rec["value"], "duality_gap": 0.0,
        "shares": np.array(rec["allocation"]["shares"])})
    if reason is None and abs(rec["gap"]) > verify.value_tol(x):
        reason = f"allocation gap {rec['gap']!r} is not 0"
    return reason


def _check_sweep(ref, x, rec):
    tol = verify.value_tol(x)
    grid = [float(g) for g in CLI_SWEEP_GRID.split(",")]
    got = [row["value"] for row in rec["rows"]]
    alpha = ref["base"]["alpha"]
    want = verify.expected_shortfall(ref["probs"], np.tile(x, (len(grid), 1)),
                                     alpha / np.array(grid))
    if [row["parameter"] for row in rec["rows"]] != grid or \
            np.max(np.abs(np.array(got) - want)) > tol:
        return "sweep values differ from ES at alpha / gamma"
    return None


def _check_nonattain(ref, x, rec):
    tol = verify.value_tol(x)
    p, alpha = ref["probs"], ref["base"]["alpha"]
    intercept, slope = ref["formula"]
    counts = [int(c) for c in CLI_REFINEMENTS.split(",")]
    if len(rec["rows"]) != len(counts):
        return "nonattain record has the wrong number of rows"
    target = float(verify.expected_shortfall(p, x, alpha / intercept)[0])
    for row, n in zip(rec["rows"], counts):
        gmin = intercept + slope * 0.5 / n
        want = float(verify.expected_shortfall(p, x, alpha / gmin)[0])
        if row["parameter"] != n or abs(row["value"] - want) > tol or \
                abs(row["gap"] - (want - target)) > tol:
            return f"nonattain row {row!r} differs from ES at alpha / gamma_min"
    return None


# ---------------------------------------------------------------------------

def _round_rngs(seed, n_rounds):
    return [np.random.default_rng([seed, r]) for r in range(n_rounds)]


def profile_cli(rs, seed, n_rounds, workdir, repo_root):
    """Profile markets twice over: in process (profile_atoms) and through
    the click CLI on spec files (cli_records), mixed in every round."""
    profile = profile_atoms(rs, seed, n_rounds, workdir, repo_root)
    cli = cli_records(rs, seed, n_rounds, workdir, repo_root)
    rng = np.random.default_rng([seed, 9])
    rounds = []
    for ops_a, ops_b in zip(profile, cli):
        ops = ops_a + ops_b
        rng.shuffle(ops)
        rounds.append(ops)
    return Inputs(rounds, probe=lp_count_probe(rs, seed))


BUILDERS = {"profile_cli": profile_cli, "general_dual": general_dual}
