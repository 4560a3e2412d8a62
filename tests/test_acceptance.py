"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import riskshare as rs
from riskshare.cli import main

from oracle import brute_force_value, default_grid, es_lp_oracle
from support import (
    random_density,
    random_rv,
    random_space,
    random_spec,
    zero_integral_noise,
)

REPO = Path(__file__).resolve().parent.parent
MARKETS = REPO / "markets"
GOLDEN = Path(__file__).resolve().parent / "golden"

ALL_VARIANTS = ("entropic", "es", "scenario", "dilation", "inflation")


@contextmanager
def criterion(number, description, max_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    if max_seconds is not None:
        assert elapsed < max_seconds, (
            f"criterion {number} took {elapsed:.1f}s, cap {max_seconds}s")
    print(f"ACCEPTANCE {number:2d} PASS — {description} ({elapsed:.2f}s)")


def test_criterion_1_risk_measure_axiom_suite():
    with criterion(1, "risk-measure axioms on 1000 probes across 5 variants",
                   max_seconds=10.0):
        rng = np.random.default_rng(1001)
        probes = 0
        for variant in ALL_VARIANTS:
            for _ in range(200):
                sp = random_space(rng, max_states=10)
                spec = random_spec(rng, sp, variant)
                x = random_rv(rng, sp)
                y = random_rv(rng, sp)
                lam = float(rng.uniform(0.0, 1.0))
                c = float(rng.uniform(-2.0, 2.0))
                rx = rs.rho(spec, sp, x)
                ry = rs.rho(spec, sp, y)
                assert rs.rho(spec, sp, np.maximum(x, y)) >= ry - 1e-9
                assert abs(rs.rho(spec, sp, x + c) - rx - c) <= 1e-9
                mix = rs.rho(spec, sp, lam * x + (1.0 - lam) * y)
                assert lam * rx + (1.0 - lam) * ry - mix >= -1e-9
                probes += 1
        assert probes == 1000


def test_criterion_2_es_cross_validation():
    with criterion(2, "ES sorting rule vs LP oracle on 1000 instances",
                   max_seconds=30.0):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(1000):
            sp = random_space(rng, max_states=12)
            x = random_rv(rng, sp)
            alpha = float(rng.uniform(0.05, 1.0))
            sorted_value = rs.rho(rs.ExpectedShortfall(alpha), sp, x)
            lp_value = es_lp_oracle(sp, alpha, x)
            worst = max(worst, abs(sorted_value - lp_value))
        assert worst <= 1e-9, f"max |delta| = {worst:.3e}"


def test_criterion_3_dilation_profile_closed_form():
    with criterion(3, "dilation closed form + allocation optimality, 100 markets"):
        rng = np.random.default_rng(1003)
        for _ in range(100):
            sp = random_space(rng, max_states=10)
            n_atoms = int(rng.integers(1, 21))
            agents = rs.AgentSpace(tuple(f"a{i}" for i in range(n_atoms)),
                                   rng.uniform(0.2, 2.0, n_atoms))
            gammas = rng.uniform(0.3, 3.0, n_atoms)
            market = rs.Market.dilation(sp, agents, rs.Entropic(1.0), gammas)
            x = random_rv(rng, sp)
            res = rs.value(market, x)
            total_gamma = float(np.dot(agents.weights, gammas))
            assert abs(res.value - rs.rho(rs.Entropic(total_gamma), sp, x)) <= 1e-9
            base_risk = rs.total_risk(agents, market.family, sp, res.allocation)
            assert base_risk - res.value <= 1e-9
            for _ in range(50):
                noise = zero_integral_noise(rng, agents, sp.n_states)
                perturbed = rs.Allocation(res.allocation.shares + noise)
                risk = rs.total_risk(agents, market.family, sp, perturbed)
                assert risk >= base_risk - 1e-9


def test_criterion_4_inflation_profile_closed_form():
    with criterion(4, "inflation closed form + indicator allocation, 100 markets"):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            sp = random_space(rng, max_states=10)
            n_atoms = int(rng.integers(1, 8))
            agents = rs.AgentSpace(tuple(f"a{i}" for i in range(n_atoms)),
                                   rng.uniform(0.2, 2.0, n_atoms))
            alphas = rng.uniform(0.15, 1.0, n_atoms)
            market = rs.Market.inflation(sp, agents, rs.ExpectedShortfall(1.0),
                                         1.0 / alphas)
            x = random_rv(rng, sp)
            res = rs.value(market, x)
            alpha_max = float(np.max(alphas))
            want = rs.rho(rs.ExpectedShortfall(alpha_max), sp, x)
            assert abs(res.value - want) <= 1e-9
            certificate = rs.total_risk(agents, market.family, sp, res.allocation)
            assert abs(certificate - res.value) <= 1e-9


def _duality_markets(rng):
    markets = []
    for _ in range(60):  # entropic dilation profiles
        sp = random_space(rng, max_states=8)
        n = int(rng.integers(1, 6))
        agents = rs.AgentSpace(tuple(f"a{i}" for i in range(n)),
                               rng.uniform(0.2, 2.0, n))
        markets.append(rs.Market.dilation(sp, agents, rs.Entropic(1.0),
                                          rng.uniform(0.3, 3.0, n)))
    for _ in range(20):  # general entropic/ES mixes
        sp = random_space(rng, max_states=8)
        n = int(rng.integers(1, 5))
        agents = rs.AgentSpace(tuple(f"a{i}" for i in range(n)),
                               rng.uniform(0.2, 2.0, n))
        specs = tuple(random_spec(rng, sp, str(rng.choice(["entropic", "es"])))
                      for _ in range(n))
        markets.append(rs.Market.general(sp, agents, rs.RiskFamily(specs)))
    for _ in range(10):  # ES inflation profiles
        sp = random_space(rng, max_states=8)
        n = int(rng.integers(1, 5))
        agents = rs.AgentSpace(tuple(f"a{i}" for i in range(n)),
                               rng.uniform(0.2, 2.0, n))
        markets.append(rs.Market.inflation(sp, agents, rs.ExpectedShortfall(1.0),
                                           rng.uniform(1.0, 4.0, n)))
    for _ in range(10):  # coherent scenario dilations
        sp = random_space(rng, max_states=6)
        n = int(rng.integers(1, 4))
        agents = rs.AgentSpace(tuple(f"a{i}" for i in range(n)),
                               rng.uniform(0.2, 2.0, n))
        dens = [sp.uniform_density()] + [random_density(rng, sp)
                                         for _ in range(2)]
        base = rs.ScenarioSet(tuple(dens))
        markets.append(rs.Market.dilation(sp, agents, base,
                                          rng.uniform(0.5, 2.0, n)))
    return markets


def test_criterion_5_duality():
    with criterion(5, "weak duality on 10000 (market, q) pairs + strong duality"):
        rng = np.random.default_rng(1005)
        markets = _duality_markets(rng)
        pairs = 0
        for market in markets:
            x = random_rv(rng, market.space)
            res = rs.value(market, x)
            if not isinstance(market.kind, rs.GeneralFamily):
                assert res.duality_gap <= 1e-7  # strong duality, closed forms
            for _ in range(100):
                q = random_density(rng, market.space)
                pen = rs.aggregate_conjugate(market, q)
                if pen.finite:
                    slack = res.value - (rs.expect_under(market.space, q, x)
                                         - pen.value)
                    assert slack >= -1e-9
                pairs += 1
        assert pairs == 10_000


def test_criterion_6_oracle_equivalence():
    with criterion(6, "brute-force allocation search vs value on 20 mixed markets",
                   max_seconds=300.0):
        rng = np.random.default_rng(1006)
        for i in range(20):
            n_states = 2 if i % 2 == 0 else 3
            p = rng.uniform(0.2, 1.0, n_states)
            sp = rs.ProbSpace(p / p.sum())
            agents = rs.AgentSpace(("a", "b"), rng.uniform(0.5, 1.5, 2))
            variants = (["entropic", "es"] if i % 3 == 0
                        else ["entropic", "entropic"] if i % 3 == 1
                        else ["es", "es"])
            specs = tuple(random_spec(rng, sp, v) for v in variants)
            market = rs.Market.general(sp, agents, rs.RiskFamily(specs))
            x = random_rv(rng, sp, scale=1.0)
            res = rs.value(market, x)
            found = brute_force_value(market, x,
                                      default_grid(x, n_states, points_per_axis=11))
            assert abs(found - res.value) <= 1e-4, (i, found, res.value)


def test_criterion_7_nonattainment_trend():
    with criterion(7, "non-attainment gap trend over refinements 10/100/1000",
                   max_seconds=10.0):
        sp = rs.ProbSpace([0.25, 0.75])
        x = sp.rv([1.0, 0.0])
        assert rs.rho(rs.ExpectedShortfall(0.5), sp, x) != rs.essup(sp, x)
        results = rs.nonattainment_experiment(
            rs.ExpectedShortfall(1.0), lambda t: 2.0 + t, 2.0, sp, x,
            [10, 100, 1000])
        gaps = {n: gap for n, _, gap in results}
        assert gaps[10] > 0.0 and gaps[100] > 0.0 and gaps[1000] > 0.0
        assert gaps[1000] < gaps[100] < gaps[10]
        assert gaps[1000] <= gaps[10] / 10.0


def test_criterion_8_left_continuity_sweep():
    with criterion(8, "left continuity: monotone sweeps, refined jump <= 1e-3"):
        rng = np.random.default_rng(1008)
        for case in range(50):
            sp = random_space(rng, max_states=8)
            x = random_rv(rng, sp)
            if case % 3 == 0:
                base = rs.ExpectedShortfall(1.0)
            elif case % 3 == 1:
                base = rs.ExpectedShortfall(float(rng.uniform(0.4, 1.0)))
            else:
                dens = (sp.uniform_density(), random_density(rng, sp))
                base = rs.ScenarioSet(dens)
            grid = [1.0, 1.5, 2.0, 3.0, 4.5]
            points = rs.left_continuity_sweep(base, sp, x, grid)
            values = [v for _, v in points]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-9
            # left-limit estimates at interior grid points: the jump
            # value(g) - value(g - h) shrinks below 1e-3 once h = 1e-4
            for g, v in points[1:-1]:
                coarse = rs.rho(rs.inflate(base, g - 1e-2), sp, x)
                fine = rs.rho(rs.inflate(base, g - 1e-4), sp, x)
                assert v - coarse >= -1e-9
                assert v - fine >= -1e-9
                assert abs(v - fine) <= 1e-3


def test_criterion_9_pareto_suite():
    with criterion(9, "pareto verdicts, 50 uniform improvements, oracle agreement"):
        rng = np.random.default_rng(1009)
        # optimal allocations are efficient
        for _ in range(10):
            sp = random_space(rng, max_states=6)
            n = int(rng.integers(1, 6))
            agents = rs.AgentSpace(tuple(f"a{i}" for i in range(n)),
                                   rng.uniform(0.3, 2.0, n))
            market = rs.Market.dilation(sp, agents, rs.Entropic(1.0),
                                        rng.uniform(0.3, 3.0, n))
            x = random_rv(rng, sp)
            alloc = rs.optimal_allocation_dilated(market, x)
            assert rs.pareto_check(market, x, alloc).efficient
        # 50 inefficient allocations with exactly-uniform improvements
        improved = 0
        while improved < 50:
            sp = random_space(rng, max_states=6)
            agents = rs.AgentSpace(("lo", "hi"), rng.uniform(0.5, 1.5, 2))
            market = rs.Market.dilation(sp, agents, rs.Entropic(1.0), [0.5, 3.0])
            x = random_rv(rng, sp)
            alloc = rs.proportional_split(agents, x)
            better = rs.optimal_allocation_dilated(market, x)
            old_total = rs.total_risk(agents, market.family, sp, alloc)
            new_total = rs.total_risk(agents, market.family, sp, better)
            if old_total - new_total <= 1e-9:
                continue
            z = rs.pareto_improve(market, x, alloc, better)
            assert rs.is_feasible(agents, z, x, tol=1e-9)
            r = (old_total - new_total) / agents.total_mass
            for i, spec in enumerate(market.family.specs):
                drop = rs.rho(spec, sp, alloc.shares[i]) - rs.rho(spec, sp, z.shares[i])
                assert abs(drop - r) <= 1e-9
            improved += 1
        # biconditional against the brute-force oracle on small markets
        sp = rs.ProbSpace([0.4, 0.6])
        for _ in range(4):
            market = rs.Market.dilation(sp, rs.finite_agents(2), rs.Entropic(1.0),
                                        rng.uniform(0.5, 2.5, 2))
            x = random_rv(rng, sp, scale=1.0)
            optimum = brute_force_value(market, x, default_grid(x, 2, 11))
            for alloc in (rs.optimal_allocation_dilated(market, x),
                          rs.proportional_split(market.agents, x)):
                verdict = rs.pareto_check(market, x, alloc)
                total = rs.total_risk(market.agents, market.family, sp, alloc)
                assert verdict.efficient == (total <= optimum + 1e-5)


def test_criterion_10_acceptance_set_suite():
    with criterion(10, "500 Aumann samples in the acceptance set + dual bound"):
        rng = np.random.default_rng(1010)
        sp = random_space(rng, max_states=6)
        agents = rs.AgentSpace(("a", "b", "c"), np.array([1.0, 0.5, 1.5]))
        dilation_market = rs.Market.dilation(sp, agents, rs.Entropic(1.0),
                                             [0.5, 1.5, 2.5])
        inflation_market = rs.Market.inflation(sp, agents,
                                               rs.ExpectedShortfall(1.0),
                                               [1.5, 2.0, 3.0])
        samples = []
        for market, seed in ((dilation_market, 21), (inflation_market, 22)):
            batch = rs.aumann_acceptance_sample(market, 250, rng_seed=seed)
            assert len(batch) == 250
            for sample in batch:
                assert rs.acceptance_member(market, sample, tol=1e-7)
            samples.append((market, batch))
        for market, batch in samples:
            for _ in range(50):
                q = random_density(rng, market.space)
                pen = rs.aggregate_conjugate(market, q)
                if not pen.finite:
                    continue
                hull_max = max(rs.expect_under(market.space, q, s) for s in batch)
                assert hull_max <= pen.value + 1e-7


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    with criterion(11, "CLI golden files + exit-code contract"):
        runner = CliRunner()
        for name in ("finite", "aumann", "shapley"):
            outs = []
            for i in range(2):
                out = tmp_path / f"{name}{i}.json"
                result = runner.invoke(main, [
                    "value", "--spec", str(MARKETS / f"{name}.json"),
                    "--out", str(out)])
                assert result.exit_code == 0, result.output
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]
            assert outs[0] == (GOLDEN / f"value_{name}.json").read_bytes()

        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({
            "probs": [0.5, 0.5], "loss": [1.0, 0.0],
            "agents": [{"label": "a", "weight": -2.0,
                        "risk": {"type": "es", "alpha": 0.5}}]}))
        result = runner.invoke(main, ["value", "--spec", str(malformed),
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 2

        ill = tmp_path / "ill.json"
        ill.write_text(json.dumps({
            "probs": [0.5, 0.5], "loss": [1.0, 0.0],
            "agents": [
                {"label": "a", "weight": 1.0,
                 "risk": {"type": "scenario_set", "densities": [[2.0, 0.0]]}},
                {"label": "b", "weight": 1.0,
                 "risk": {"type": "scenario_set", "densities": [[0.0, 2.0]]}},
            ]}))
        result = runner.invoke(main, ["value", "--spec", str(ill),
                                      "--out", str(tmp_path / "i.json")])
        assert result.exit_code == 4
