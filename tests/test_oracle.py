import math

import numpy as np
import pytest

import riskshare as rs
from riskshare.errors import InfeasibleError, ValidationError
from riskshare.opt_kernel import LpProblem, highs_solve

from oracle import (
    GridSpec,
    brute_force_value,
    capped_gibbs_oracle,
    default_grid,
    es_lp_oracle,
    inflated_hull_oracle,
    vertex_enum_lp,
)
from support import random_rv, random_space


class TestEsLpOracle:
    def test_alpha_one_is_expectation(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            sp = random_space(rng, max_states=12)
            x = random_rv(rng, sp)
            assert es_lp_oracle(sp, 1.0, x) == pytest.approx(rs.expect(sp, x), abs=1e-9)

    def test_small_alpha_reaches_essential_supremum(self):
        rng = np.random.default_rng(101)
        sp = random_space(rng, max_states=8)
        x = random_rv(rng, sp)
        alpha = float(np.min(sp.probs)) / 2.0
        assert es_lp_oracle(sp, alpha, x) == pytest.approx(rs.essup(sp, x), abs=1e-9)

    def test_matches_sorting_rule(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            sp = random_space(rng, max_states=12)
            x = random_rv(rng, sp)
            alpha = float(rng.uniform(0.05, 1.0))
            want = rs.rho(rs.ExpectedShortfall(alpha), sp, x)
            assert es_lp_oracle(sp, alpha, x) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_level_outside_unit_interval_is_rejected(self, alpha):
        sp = rs.ProbSpace([0.5, 0.5])
        with pytest.raises(ValidationError):
            es_lp_oracle(sp, alpha, np.zeros(2))


class TestInflatedHullOracle:
    def test_matches_highs_on_the_density_lp(self):
        # Whole-number losses (ties) in every other draw; gamma up to 4.
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(108)
        for draw in range(60):
            sp = random_space(rng, max_states=30)
            n, j = sp.n_states, int(rng.integers(1, 6))
            dmat = np.vstack([np.ones(n)] + [random_density_row(rng, sp) for _ in range(j - 1)])
            x = random_rv(rng, sp)
            if draw % 2:
                x = np.round(x)
            gamma = float(rng.uniform(1.01, 4.0))
            p = sp.probs
            res = linprog(-np.concatenate([p * x, np.zeros(j)]),
                          A_ub=np.hstack([np.eye(n), -gamma * dmat.T]), b_ub=np.zeros(n),
                          A_eq=[np.concatenate([p, np.zeros(j)]),
                                np.concatenate([np.zeros(n), np.ones(j)])],
                          b_eq=[1.0, 1.0], bounds=(0.0, None), method="highs")
            assert res.status == 0
            assert inflated_hull_oracle(p, dmat, x, gamma) == pytest.approx(-res.fun, abs=1e-9)

    def test_one_reference_scenario_is_the_es_oracle(self):
        rng = np.random.default_rng(109)
        for _ in range(30):
            sp = random_space(rng, max_states=20)
            x = random_rv(rng, sp)
            gamma = float(rng.uniform(1.01, 6.0))
            got = inflated_hull_oracle(sp.probs, np.ones((1, sp.n_states)), x, gamma)
            assert got == pytest.approx(es_lp_oracle(sp, 1.0 / gamma, x), abs=1e-12)


def random_density_row(rng, sp):
    w = rng.gamma(1.0, size=sp.n_states) + 1e-3
    return w / float(sp.probs @ w)


class TestCappedGibbsOracle:
    def test_unbinding_cap_is_the_gibbs_density(self):
        rng = np.random.default_rng(105)
        for _ in range(50):
            sp = random_space(rng, max_states=12)
            x = random_rv(rng, sp)
            kappa = float(rng.uniform(0.5, 3.0))
            w = np.exp(x / kappa)
            gibbs = w / float(sp.probs @ w)
            q, val = capped_gibbs_oracle(sp.probs, x, kappa, float(np.max(gibbs)) + 1.0)
            assert np.max(np.abs(q - gibbs)) <= 1e-13
            assert val == pytest.approx(kappa * math.log(float(sp.probs @ w)), abs=1e-13)

    def test_meets_the_kkt_conditions(self):
        # Free states share one multiplier theta = x - kappa * (1 + log q),
        # and each capped state's bound x - kappa * (1 + log cap) is >= theta.
        rng = np.random.default_rng(106)
        for _ in range(100):
            sp = random_space(rng, max_states=40)
            x = random_rv(rng, sp)
            kappa = float(rng.uniform(0.05, 3.0))
            cap = float(rng.uniform(1.05, 4.0))
            q, val = capped_gibbs_oracle(sp.probs, x, kappa, cap)
            assert float(sp.probs @ q) == pytest.approx(1.0, abs=1e-14)
            assert np.min(q) > 0.0 and np.max(q) <= cap
            free = q < cap
            thetas = x - kappa * (1.0 + np.log(q))
            theta = float(np.mean(thetas[free]))
            assert np.max(np.abs(thetas[free] - theta)) <= 1e-12 * max(1.0, abs(theta))
            assert np.all(thetas[~free] >= theta - 1e-12)
            penalty = kappa * float(sp.probs @ (q * np.log(q)))
            assert val == pytest.approx(float(sp.probs @ (q * x)) - penalty, abs=1e-14)

    def test_spread_loss_whose_tail_underflows(self):
        # The top state takes the cap; shifted by max x, every free Gibbs
        # weight underflows to 0, so the scale must come from the largest
        # free state. The free states split the remaining mass 1/2 in
        # proportion to exp(x / kappa): weights 1, e^-10, e^-20.
        p = np.full(4, 0.25)
        x = np.array([100.0, 0.0, -1.0, -2.0])
        kappa, cap = 0.1, 2.0
        assert not np.any(np.exp((x[1:] - x.max()) / kappa))
        q, val = capped_gibbs_oracle(p, x, kappa, cap)
        w = np.exp(-np.array([0.0, 10.0, 20.0]))
        want = np.concatenate([[cap], 2.0 * w / w.sum()])
        assert np.max(np.abs(q - want)) <= 1e-15
        assert val == pytest.approx(float(p @ (want * x))
                                    - kappa * float(p @ (want * np.log(want))), rel=1e-15)

    @pytest.mark.parametrize("kappa, cap", [(0.0, 2.0), (1.0, 1.0), (-1.0, 2.0)])
    def test_needs_a_positive_weight_and_a_cap_above_one(self, kappa, cap):
        with pytest.raises(ValidationError):
            capped_gibbs_oracle(np.full(2, 0.5), np.zeros(2), kappa, cap)


class TestBruteForceValue:
    def test_single_atom_is_exact(self):
        sp = rs.ProbSpace([0.3, 0.7])
        x = sp.rv([1.0, -0.5])
        market = rs.Market.dilation(sp, rs.finite_agents(1), rs.Entropic(1.0), [1.5])
        got = brute_force_value(market, x, default_grid(x, 0))
        assert got == pytest.approx(rs.rho(rs.dilate(rs.Entropic(1.0), 1.5), sp, x),
                                    abs=1e-12)

    def test_two_entropic_atoms_match_closed_form(self):
        sp = rs.ProbSpace([0.4, 0.6])
        x = sp.rv([1.0, -1.0])
        market = rs.Market.dilation(sp, rs.finite_agents(2), rs.Entropic(1.0),
                                    [1.0, 1.0])
        got = brute_force_value(market, x, default_grid(x, 2, points_per_axis=13))
        want = rs.rho(rs.Entropic(2.0), sp, x)
        assert got == pytest.approx(want, abs=1e-4)
        assert got >= want - 1e-9  # never below the true value

    def test_two_es_atoms_match_inflation_closed_form(self):
        sp = rs.ProbSpace([0.4, 0.6])
        x = sp.rv([1.0, -0.5])
        market = rs.Market.inflation(sp, rs.finite_agents(2),
                                     rs.ExpectedShortfall(1.0), [2.0, 3.0])
        got = brute_force_value(market, x, default_grid(x, 2, points_per_axis=13))
        want = rs.rho(rs.ExpectedShortfall(0.5), sp, x)
        assert got == pytest.approx(want, abs=1e-4)

    def test_dimension_cap(self):
        sp = rs.ProbSpace([0.25, 0.25, 0.25, 0.25])
        market = rs.Market.dilation(sp, rs.finite_agents(3), rs.Entropic(1.0),
                                    [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            brute_force_value(market, np.zeros(4), default_grid(np.zeros(4), 8))

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(np.array([0.0]), np.array([0.0]), 5)
        with pytest.raises(ValidationError):
            GridSpec(np.array([0.0]), np.array([1.0]), 1)


class TestVertexEnumLp:
    def test_unit_simplex_best_coordinate(self):
        c = np.array([1.0, 3.0, 2.0])
        problem = LpProblem(c, a_eq=np.ones((1, 3)), b_eq=np.array([1.0]))
        sol = vertex_enum_lp(problem)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(3.0, abs=1e-12)

    def test_matches_highs_solve_on_random_problems(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            c = rng.uniform(-2.0, 2.0, n)
            a_ub = np.vstack([rng.uniform(-1.0, 1.5, (2, n)), np.eye(n)])
            b_ub = np.concatenate([rng.uniform(0.5, 2.0, 2), np.full(n, 4.0)])
            problem = LpProblem(c, a_ub, b_ub)
            got = vertex_enum_lp(problem)
            if got.status == "infeasible":
                with pytest.raises(InfeasibleError):
                    highs_solve(problem)
            else:
                assert got.value == pytest.approx(highs_solve(problem)[1], abs=1e-8)

    def test_infeasible_system(self):
        problem = LpProblem(np.array([1.0]),
                            a_ub=np.array([[1.0]]), b_ub=np.array([-2.0]),
                            a_eq=None, b_eq=None)
        assert vertex_enum_lp(problem).status == "infeasible"

    def test_size_caps(self):
        with pytest.raises(ValidationError):
            vertex_enum_lp(LpProblem(np.zeros(7),
                                     a_eq=np.ones((1, 7)), b_eq=np.ones(1)))


class TestDeterminism:
    def test_brute_force_deterministic(self):
        sp = rs.ProbSpace([0.4, 0.6])
        x = sp.rv([1.0, -1.0])
        market = rs.Market.dilation(sp, rs.finite_agents(2), rs.Entropic(1.0),
                                    [1.0, 2.0])
        grid = default_grid(x, 2, points_per_axis=7)
        assert brute_force_value(market, x, grid) == brute_force_value(market, x, grid)


class TestVertexEnumDegenerate:
    def test_redundant_equality_rows(self):
        problem = LpProblem(np.array([1.0, 0.5]),
                            a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
                            b_eq=np.array([1.0, 1.0]))
        sol = vertex_enum_lp(problem)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_duplicate_rows(self):
        problem = LpProblem(np.array([1.0, 0.5]),
                            a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
                            b_eq=np.array([1.0, 2.0]))
        assert vertex_enum_lp(problem).status == "infeasible"

    def test_vacuous_zero_row(self):
        problem = LpProblem(np.array([1.0, 1.0]),
                            a_ub=np.array([[0.0, 0.0], [1.0, 1.0]]),
                            b_ub=np.array([0.0, 2.0]))
        sol = vertex_enum_lp(problem)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_ties_match_highs_solve(self):
        rng = np.random.default_rng(104)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            rows = rng.integers(0, 3, (2, n)).astype(float)
            a_ub = np.vstack([rows, rows[0:1], np.eye(n)])  # duplicated row
            b_ub = np.concatenate([rng.integers(1, 4, 2).astype(float),
                                   [float(rng.integers(1, 4))], np.full(n, 3.0)])
            if b_ub.size > 8 or n > 6:
                continue
            c = rng.integers(-3, 4, n).astype(float)
            problem = LpProblem(c, a_ub, b_ub)
            _, value = highs_solve(problem)
            want = vertex_enum_lp(problem)
            assert want.status == "optimal"
            assert value == pytest.approx(want.value, abs=1e-8)
