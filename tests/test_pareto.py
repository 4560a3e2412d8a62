import math

import numpy as np
import pytest

import riskshare as rs
from riskshare.errors import ValidationError

from oracle import brute_force_value, default_grid
from support import (
    random_dilation_market,
    random_inflation_market,
    random_rv,
    random_scenario_set,
    random_space,
    zero_integral_noise,
)


class TestParetoCheck:
    def test_optimal_dilated_allocation_is_efficient(self):
        rng = np.random.default_rng(90)
        for _ in range(10):
            market = random_dilation_market(rng)
            x = random_rv(rng, market.space)
            alloc = rs.optimal_allocation_dilated(market, x)
            verdict = rs.pareto_check(market, x, alloc)
            assert verdict.efficient
            assert verdict.excess <= 1e-7

    def test_proportional_split_with_heterogeneous_tolerances_is_inefficient(self):
        sp = rs.ProbSpace([0.25, 0.25, 0.5])
        x = sp.rv([1.0, -0.5, 2.0])
        market = rs.Market.dilation(sp, rs.finite_agents(2), rs.Entropic(1.0),
                                    [0.5, 3.5])
        prop = rs.proportional_split(market.agents, x)
        verdict = rs.pareto_check(market, x, prop)
        assert not verdict.efficient
        # excess equals total risk minus the closed-form aggregate value
        want = rs.total_risk(market.agents, market.family, sp, prop) - \
            rs.rho(rs.Entropic(4.0), sp, x)
        assert verdict.excess == pytest.approx(want, abs=1e-9)
        assert verdict.witness is not None

    def test_single_atom_market_everything_is_efficient(self):
        rng = np.random.default_rng(91)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        market = rs.Market.dilation(sp, rs.finite_agents(1), rs.Entropic(1.0), [2.0])
        alloc = rs.Allocation(x.reshape(1, -1))  # the only feasible allocation
        assert rs.pareto_check(market, x, alloc).efficient

    def test_infeasible_allocation_rejected(self):
        rng = np.random.default_rng(92)
        market = random_dilation_market(rng)
        x = random_rv(rng, market.space)
        bad = rs.Allocation(np.zeros((market.agents.n_atoms, market.space.n_states)))
        with pytest.raises(ValidationError):
            rs.pareto_check(market, x, bad)

    @pytest.mark.parametrize("tol", [-1e-7, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        rng = np.random.default_rng(93)
        market = random_dilation_market(rng)
        x = random_rv(rng, market.space)
        alloc = rs.optimal_allocation_dilated(market, x)
        with pytest.raises(ValidationError):
            rs.pareto_check(market, x, alloc, tol=tol)

    def test_verdict_excess_matches_efficiency_flag(self):
        rng = np.random.default_rng(93)
        for _ in range(10):
            market = random_dilation_market(rng)
            x = random_rv(rng, market.space)
            alloc = rs.Allocation(
                rs.optimal_allocation_dilated(market, x).shares
                + zero_integral_noise(rng, market.agents, market.space.n_states, 0.5))
            verdict = rs.pareto_check(market, x, alloc, tol=1e-7)
            assert verdict.efficient == (verdict.excess <= 1e-7)


    def test_each_allocation_is_valued_once(self, monkeypatch):
        # The input's atom risks, then the optimal allocation's where the
        # input is inefficient: one _maximize_block call each.
        calls = []
        real = rs.opt_kernel._maximize_block
        monkeypatch.setattr(rs.opt_kernel, "_maximize_block",
                            lambda *a: calls.append(1) or real(*a))
        rng = np.random.default_rng(95)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        agents = rs.aumann_agents(400)
        for market, best in (
                (rs.Market.dilation(sp, agents, rs.Entropic(1.0), rng.uniform(0.5, 3.0, 400)),
                 rs.optimal_allocation_dilated),
                (rs.Market.inflation(sp, agents, random_scenario_set(rng, sp, 3),
                                     rng.uniform(1.2, 3.0, 400)),
                 rs.optimal_allocation_inflated)):
            for alloc, want_calls in ((rs.proportional_split(agents, x), 2),
                                      (best(market, x), 1)):
                calls.clear()
                verdict = rs.pareto_check(market, x, alloc)
                assert verdict.efficient is (verdict.witness is None) is (want_calls == 1)
                assert len(calls) == want_calls


class TestParetoImprove:
    def test_uniform_improvement_by_exactly_r(self):
        rng = np.random.default_rng(94)
        for _ in range(10):
            market = random_dilation_market(rng, max_atoms=4)
            sp = market.space
            x = random_rv(rng, sp)
            alloc = rs.proportional_split(market.agents, x)
            better = rs.optimal_allocation_dilated(market, x)
            old_total = rs.total_risk(market.agents, market.family, sp, alloc)
            new_total = rs.total_risk(market.agents, market.family, sp, better)
            if old_total - new_total <= 1e-12:
                continue  # already optimal (e.g. equal parameters)
            improved = rs.pareto_improve(market, x, alloc, better)
            r = (old_total - new_total) / market.agents.total_mass
            assert rs.is_feasible(market.agents, improved, x, tol=1e-9)
            for i, spec in enumerate(market.family.specs):
                drop = rs.rho(spec, sp, alloc.shares[i]) - \
                    rs.rho(spec, sp, improved.shares[i])
                assert drop == pytest.approx(r, abs=1e-9)

    def test_no_strict_improvement_is_an_error(self):
        rng = np.random.default_rng(95)
        market = random_dilation_market(rng)
        x = random_rv(rng, market.space)
        alloc = rs.optimal_allocation_dilated(market, x)
        with pytest.raises(ValidationError):
            rs.pareto_improve(market, x, alloc, alloc)

    def test_convexity_split_between_identical_atoms(self):
        sp = rs.ProbSpace([0.3, 0.7])
        x = sp.rv([2.0, -1.0])
        market = rs.Market.dilation(sp, rs.finite_agents(2), rs.Entropic(1.0),
                                    [1.0, 1.0])
        lopsided = rs.Allocation(np.vstack([x, np.zeros(2)]))
        split = rs.Allocation(np.vstack([x / 2.0, x / 2.0]))
        improved = rs.pareto_improve(market, x, lopsided, split)
        for i, spec in enumerate(market.family.specs):
            assert rs.rho(spec, sp, improved.shares[i]) < \
                rs.rho(spec, sp, lopsided.shares[i]) - 1e-12

    def test_transfers_sum_to_zero(self):
        rng = np.random.default_rng(96)
        market = random_inflation_market(rng, max_atoms=3)
        x = random_rv(rng, market.space)
        alloc = rs.proportional_split(market.agents, x)
        better = rs.optimal_allocation_inflated(market, x)
        old_total = rs.total_risk(market.agents, market.family, market.space, alloc)
        new_total = rs.total_risk(market.agents, market.family, market.space, better)
        if old_total - new_total > 1e-10:
            improved = rs.pareto_improve(market, x, alloc, better)
            integral = rs.gelfand_integral(market.agents, improved)
            assert np.max(np.abs(integral - x)) <= 1e-9


class TestBiconditionalAgainstOracle:
    def test_oracle_agrees_on_small_markets(self):
        rng = np.random.default_rng(97)
        sp = rs.ProbSpace([0.4, 0.6])
        for _ in range(4):
            market = rs.Market.dilation(
                sp, rs.finite_agents(2), rs.Entropic(1.0),
                rng.uniform(0.5, 2.0, 2))
            x = random_rv(rng, sp, scale=1.0)
            optimum = brute_force_value(market, x, default_grid(x, 2, 11))
            good = rs.optimal_allocation_dilated(market, x)
            bad = rs.Allocation(good.shares
                                + zero_integral_noise(rng, market.agents, 2, 0.6))
            for alloc in (good, bad):
                verdict = rs.pareto_check(market, x, alloc)
                total = rs.total_risk(market.agents, market.family, sp, alloc)
                oracle_efficient = total <= optimum + 1e-5
                assert verdict.efficient == oracle_efficient


@pytest.mark.parametrize("check", ["pareto_check", "acceptance_member", "is_feasible"])
def test_infinite_tolerance_rejected(check):
    # At tol = inf each check passes whatever its input: here an inefficient
    # split, a loss 100 above the acceptance set and a split of 2x given as x.
    rng = np.random.default_rng(94)
    market = random_dilation_market(rng)
    x = random_rv(rng, market.space)
    split = rs.proportional_split(market.agents, x)
    calls = {
        "pareto_check": lambda: rs.pareto_check(market, x, split, tol=math.inf),
        "acceptance_member": lambda: rs.acceptance_member(market, x + 100.0, tol=math.inf),
        "is_feasible": lambda: rs.is_feasible(
            market.agents, rs.proportional_split(market.agents, 2.0 * x), x, tol=math.inf),
    }
    with pytest.raises(ValidationError, match="tolerance must be >= 0 and finite, got inf"):
        calls[check]()
