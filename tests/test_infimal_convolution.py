import math

import numpy as np
import pytest

import riskshare as rs
from riskshare.errors import (
    IllPosedError,
    UnsupportedFamilyError,
    ValidationError,
    VacuousExperimentError,
)

from oracle import brute_force_value, default_grid
from support import (
    random_density,
    random_dilation_market,
    random_general_market,
    random_inflation_market,
    random_rv,
    random_scenario_set,
    random_space,
    zero_integral_noise,
)


class TestValueClosedForms:
    def test_identical_entropic_atoms_merge_tolerances(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            n = int(rng.integers(1, 6))
            gamma = float(rng.uniform(0.5, 2.0))
            market = rs.Market.dilation(sp, rs.finite_agents(n),
                                        rs.Entropic(gamma), np.ones(n))
            res = rs.value(market, x)
            assert res.value == pytest.approx(
                rs.rho(rs.Entropic(n * gamma), sp, x), abs=1e-9)
            assert res.attained is rs.Attainment.ATTAINED

    def test_constant_loss_passes_through(self):
        rng = np.random.default_rng(61)
        for market in (random_dilation_market(rng), random_inflation_market(rng),
                       random_general_market(rng)):
            c = 1.25
            x = np.full(market.space.n_states, c)
            assert rs.value(market, x).value == pytest.approx(c, abs=1e-7)

    def test_two_es_atoms_give_weakest_quantile(self):
        rng = np.random.default_rng(62)
        sp = rs.ProbSpace([0.2, 0.3, 0.5])
        for _ in range(10):
            x = random_rv(rng, sp)
            a1, a2 = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))
            market = rs.Market.inflation(sp, rs.finite_agents(2),
                                         rs.ExpectedShortfall(1.0),
                                         [1.0 / a1, 1.0 / a2])
            res = rs.value(market, x)
            want = rs.rho(rs.ExpectedShortfall(max(a1, a2)), sp, x)
            assert res.value == pytest.approx(want, abs=1e-9)

    def test_two_es_atoms_against_brute_force(self):
        sp = rs.ProbSpace([0.25, 0.35, 0.4])
        x = sp.rv([1.0, -0.5, 0.5])
        market = rs.Market.inflation(sp, rs.finite_agents(2),
                                     rs.ExpectedShortfall(1.0), [2.0, 3.0])
        res = rs.value(market, x)
        bf = brute_force_value(market, x, default_grid(x, 3, points_per_axis=9))
        assert bf == pytest.approx(res.value, abs=1e-4)

    def test_share_result_certificates(self):
        rng = np.random.default_rng(63)
        for make in (random_dilation_market, random_inflation_market):
            for _ in range(10):
                market = make(rng)
                x = random_rv(rng, market.space)
                res = rs.value(market, x)
                assert res.allocation is not None
                assert rs.is_feasible(market.agents, res.allocation, x)
                certificate = rs.total_risk(market.agents, market.family,
                                            market.space, res.allocation)
                assert abs(certificate - res.value) <= 1e-9
                assert res.duality_gap >= 0.0
                assert res.duality_gap <= 1e-7


class TestAggregateConjugate:
    def test_dilation_profile_scales_base_conjugate(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            market = random_dilation_market(rng)
            q = random_density(rng, market.space)
            kind = market.kind
            want = rs.conjugate(kind.base, market.space, q) * kind.gamma_total
            got = rs.aggregate_conjugate(market, q)
            assert got == pytest.approx(want, abs=1e-9)

    def test_reference_density_free_for_coherent_families(self):
        rng = np.random.default_rng(65)
        market = random_inflation_market(rng)
        ones = market.space.uniform_density()
        assert rs.aggregate_conjugate(market, ones) == 0.0

    def test_entropic_profile_weighted_kl(self):
        rng = np.random.default_rng(66)
        sp = random_space(rng)
        agents = rs.AgentSpace(("a", "b", "c"), np.array([1.0, 2.0, 0.5]))
        gammas = np.array([0.5, 1.5, 3.0])
        market = rs.Market.dilation(sp, agents, rs.Entropic(1.0), gammas)
        q = random_density(rng, sp)
        want = float(np.dot(agents.weights, gammas)) * rs.kl_divergence(sp, q)
        assert rs.aggregate_conjugate(market, q) == pytest.approx(want, abs=1e-9)

    def test_infinity_absorbs(self):
        sp = rs.ProbSpace([0.2, 0.8])
        family = rs.RiskFamily((rs.Entropic(1.0), rs.ExpectedShortfall(0.5)))
        market = rs.Market.general(sp, rs.finite_agents(2), family)
        q = sp.density([3.0, 0.5])  # exceeds the ES cap of 2
        assert rs.aggregate_conjugate(market, q) == math.inf

    @staticmethod
    def _naive(market, q):
        total = 0.0
        for spec, w in zip(market.family.specs, market.agents.weights):
            pen = rs.conjugate(spec, market.space, q)
            if not math.isfinite(pen):
                return pen
            total += float(w) * pen
        return total

    def test_matches_naive_atom_order_sum_bit_for_bit(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            sp = random_space(rng)
            ent = rs.Entropic(float(rng.uniform(0.3, 3.0)))
            es = rs.ExpectedShortfall(float(rng.uniform(0.1, 1.0)))
            scen = random_scenario_set(rng, sp, 3)
            # shared base objects, nested dilations and repeated atoms
            specs = (ent, rs.Dilation(ent, 2.5), rs.Dilation(rs.Dilation(ent, 0.4), 3.1),
                     rs.Entropic(ent.gamma), rs.Dilation(es, 0.7), es,
                     rs.Dilation(ent, 2.5), ent)
            agents = rs.AgentSpace(tuple(str(i) for i in range(len(specs))),
                                   rng.uniform(0.3, 2.0, len(specs)))
            q = random_density(rng, sp)
            markets = [
                rs.Market.general(sp, agents, rs.RiskFamily(specs)),
                rs.Market.dilation(sp, agents, ent, rng.uniform(0.3, 3.0, len(specs))),
                rs.Market.inflation(sp, agents, scen, rng.uniform(1.0, 4.0, len(specs))),
            ]
            for market in markets:
                for dens in (q, sp.uniform_density()):
                    got = rs.aggregate_conjugate(market, dens)
                    assert got == self._naive(market, dens)

    def test_infinite_atom_returns_before_later_atoms(self, monkeypatch):
        sp = rs.ProbSpace([0.2, 0.8])
        family = rs.RiskFamily((rs.Entropic(1.0), rs.ExpectedShortfall(0.5),
                                rs.Entropic(2.0)))
        market = rs.Market.general(sp, rs.finite_agents(3), family)
        q = sp.density([3.0, 0.5])  # exceeds the ES cap of 2
        assert self._naive(market, q) == math.inf
        calls = []
        real = rs.risk_measures.kl_divergence
        monkeypatch.setattr(rs.risk_measures, "kl_divergence",
                            lambda *a: calls.append(1) or real(*a))
        assert rs.aggregate_conjugate(market, q) == math.inf
        assert len(calls) == 1  # the atom after the infinite one is never evaluated

    def test_density_dimension_checked(self):
        sp = rs.ProbSpace([0.2, 0.8])
        market = rs.Market.general(sp, rs.finite_agents(1),
                                   rs.RiskFamily((rs.Entropic(1.0),)))
        other = rs.ProbSpace([0.2, 0.3, 0.5])
        with pytest.raises(ValidationError):
            rs.aggregate_conjugate(market, other.uniform_density())

    def test_dilation_profile_evaluates_base_kl_once(self, monkeypatch):
        rng = np.random.default_rng(68)
        sp = random_space(rng)
        agents = rs.aumann_agents(1000)
        market = rs.Market.dilation(sp, agents, rs.Entropic(1.0),
                                    rng.uniform(0.3, 3.0, 1000))
        calls = []
        real = rs.risk_measures.kl_divergence
        monkeypatch.setattr(rs.risk_measures, "kl_divergence",
                            lambda *a: calls.append(1) or real(*a))
        rs.value(market, random_rv(rng, sp))
        assert len(calls) == 1


class TestOptimalAllocations:
    def test_single_atom_takes_everything(self):
        sp = rs.ProbSpace([0.5, 0.5])
        x = sp.rv([1.0, -1.0])
        market = rs.Market.dilation(sp, rs.finite_agents(1), rs.Entropic(1.0), [2.0])
        alloc = rs.optimal_allocation_dilated(market, x)
        assert np.allclose(alloc.shares[0], x, atol=1e-15)

    def test_equal_parameters_split_evenly(self):
        sp = rs.ProbSpace([0.5, 0.5])
        x = sp.rv([1.0, -1.0])
        market = rs.Market.dilation(sp, rs.finite_agents(4), rs.Entropic(1.0),
                                    np.full(4, 1.7))
        alloc = rs.optimal_allocation_dilated(market, x)
        for row in alloc.shares:
            assert np.allclose(row, x / 4.0, atol=1e-12)

    def test_one_three_split(self):
        sp = rs.ProbSpace([0.5, 0.5])
        x = sp.rv([2.0, -1.0])
        market = rs.Market.dilation(sp, rs.finite_agents(2), rs.Entropic(1.0),
                                    [1.0, 3.0])
        alloc = rs.optimal_allocation_dilated(market, x)
        assert np.allclose(alloc.shares[0], x / 4.0, atol=1e-12)
        assert np.allclose(alloc.shares[1], 3.0 * x / 4.0, atol=1e-12)
        res = rs.value(market, x)
        certificate = rs.total_risk(market.agents, market.family, market.space, alloc)
        assert abs(certificate - res.value) <= 1e-9

    def test_inflated_single_minimizer(self):
        sp = rs.ProbSpace([0.5, 0.5])
        x = sp.rv([1.0, 0.0])
        market = rs.Market.inflation(sp, rs.finite_agents(3),
                                     rs.ExpectedShortfall(1.0), [2.0, 5.0, 3.0])
        alloc = rs.optimal_allocation_inflated(market, x)
        assert np.allclose(alloc.shares[0], x, atol=1e-15)
        assert np.all(alloc.shares[1:] == 0.0)

    def test_inflated_two_minimizers_split(self):
        sp = rs.ProbSpace([0.5, 0.5])
        x = sp.rv([1.0, 0.0])
        market = rs.Market.inflation(sp, rs.finite_agents(2),
                                     rs.ExpectedShortfall(1.0), [2.0, 2.0])
        alloc = rs.optimal_allocation_inflated(market, x)
        assert np.allclose(alloc.shares, np.vstack([x / 2.0, x / 2.0]), atol=1e-12)

    def test_inflated_weighted_minimizers(self):
        sp = rs.ProbSpace([0.25, 0.75])
        x = sp.rv([1.0, 0.0])
        agents = rs.AgentSpace(("a", "b", "c"), np.array([1.0, 2.0, 1.0]))
        market = rs.Market.inflation(sp, agents, rs.ExpectedShortfall(1.0),
                                     [2.0, 2.0, 5.0])
        alloc = rs.optimal_allocation_inflated(market, x)
        assert np.allclose(alloc.shares[0], x / 3.0, atol=1e-12)
        assert np.allclose(alloc.shares[1], x / 3.0, atol=1e-12)
        assert np.all(alloc.shares[2] == 0.0)
        res = rs.value(market, x)
        assert res.value == pytest.approx(
            rs.rho(rs.ExpectedShortfall(0.5), sp, x), abs=1e-9)

    def test_wrong_family_kind_rejected(self):
        rng = np.random.default_rng(67)
        market = random_general_market(rng)
        x = np.zeros(market.space.n_states)
        with pytest.raises(ValidationError):
            rs.optimal_allocation_dilated(market, x)
        with pytest.raises(ValidationError):
            rs.optimal_allocation_inflated(market, x)

    def test_zero_integral_perturbations_never_improve(self):
        rng = np.random.default_rng(68)
        for make in (random_dilation_market, random_inflation_market):
            market = make(rng)
            x = random_rv(rng, market.space)
            res = rs.value(market, x)
            base = rs.total_risk(market.agents, market.family, market.space,
                                 res.allocation)
            for _ in range(20):
                noise = zero_integral_noise(rng, market.agents, market.space.n_states)
                perturbed = rs.Allocation(res.allocation.shares + noise)
                assert rs.is_feasible(market.agents, perturbed, x)
                risk = rs.total_risk(market.agents, market.family, market.space,
                                     perturbed)
                assert risk >= base - 1e-9


def _recorded_lps(monkeypatch):
    """The LpProblems handed to opt_kernel.lp_solve, in call order."""
    problems = []
    real = rs.opt_kernel.lp_solve
    monkeypatch.setattr(rs.opt_kernel, "lp_solve",
                        lambda problem: problems.append(problem) or real(problem))
    return problems


class TestGeneralFamilyDual:
    def test_weak_duality_on_random_pairs(self):
        rng = np.random.default_rng(69)
        for _ in range(20):
            market = random_general_market(rng)
            x = random_rv(rng, market.space)
            res = rs.value(market, x)
            assert res.attained is rs.Attainment.UNKNOWN
            assert res.allocation is None
            for _ in range(25):
                q = random_density(rng, market.space)
                pen = rs.aggregate_conjugate(market, q)
                if math.isfinite(pen):
                    bound = rs.expect_under(market.space, q, x) - pen
                    assert res.value >= bound - 1e-9

    def test_strong_duality_at_returned_optimizer(self):
        rng = np.random.default_rng(70)
        for make in (random_dilation_market, random_inflation_market,
                     random_general_market):
            for _ in range(5):
                market = make(rng)
                x = random_rv(rng, market.space)
                res = rs.value(market, x)
                assert res.dual_optimizer is not None
                pen = rs.aggregate_conjugate(market, res.dual_optimizer)
                assert math.isfinite(pen)
                dual = rs.expect_under(market.space, res.dual_optimizer, x) - pen
                assert abs(res.value - dual) <= 1e-7

    def test_matches_brute_force_on_small_markets(self):
        rng = np.random.default_rng(71)
        for _ in range(6):
            sp = random_space(rng, max_states=3, min_states=2)
            market = random_general_market(rng, space=sp, max_atoms=2)
            while market.agents.n_atoms != 2:
                market = random_general_market(rng, space=sp, max_atoms=2)
            x = random_rv(rng, sp, scale=1.0)
            res = rs.value(market, x)
            bf = brute_force_value(market, x, default_grid(x, sp.n_states, 9))
            assert bf >= res.value - 1e-7
            assert bf == pytest.approx(res.value, abs=1e-5)

    def test_pure_scenario_market_via_lp(self):
        rng = np.random.default_rng(72)
        sp = random_space(rng, max_states=4)
        x = random_rv(rng, sp)
        shared = random_scenario_set(rng, sp, 3)
        market = rs.Market.general(sp, rs.finite_agents(2),
                                   rs.RiskFamily((shared, shared)))
        res = rs.value(market, x)
        # identical coherent agents: the value is the single-agent risk
        assert res.value == pytest.approx(rs.rho(shared, sp, x), abs=1e-8)

    @pytest.mark.parametrize("n_atoms", [1, 10, 100])
    def test_atoms_sharing_a_matrix_give_one_hull_at_the_smallest_gamma(
            self, monkeypatch, n_atoms):
        rng = np.random.default_rng(74)
        sp = random_space(rng, max_states=8, min_states=8)
        x = random_rv(rng, sp)
        shared = random_scenario_set(rng, sp, 3)
        gammas = [float(g) for g in rng.uniform(1.5, 4.0, n_atoms)]
        market = rs.Market.general(sp, rs.finite_agents(n_atoms), rs.RiskFamily(
            tuple(rs.Inflation(shared, g) for g in gammas)))
        single = rs.Market.general(sp, rs.finite_agents(1), rs.RiskFamily(
            (rs.Inflation(shared, min(gammas)),)))
        problems = _recorded_lps(monkeypatch)
        got = rs.value(market, x).value
        # the first LP is the density LP; the rest are membership checks
        assert problems[0].a_ub.shape[0] == sp.n_states
        assert got == rs.value(single, x).value

    def test_member_hull_subsumes_its_inflation(self, monkeypatch):
        rng = np.random.default_rng(75)
        sp = random_space(rng, max_states=6, min_states=4)
        x = random_rv(rng, sp)
        shared = random_scenario_set(rng, sp, 3)
        market = rs.Market.general(sp, rs.finite_agents(2), rs.RiskFamily(
            (rs.Inflation(shared, 2.0), shared)))
        problems = _recorded_lps(monkeypatch)
        got = rs.value(market, x).value
        # One plain hull is left, solved as its best scenario: the only LPs
        # are the certificate's membership LPs (J weights and a bound).
        assert problems
        assert all(problem.n_vars == 3 + 1 for problem in problems)
        assert got == rs.rho(shared, sp, x)

    def test_inflation_at_one_is_the_plain_hull(self, monkeypatch):
        # Inflation(S, 1.0) admits S's hull: its rows are equalities, so the
        # density LP's only inequalities are the n cap rows.
        rng = np.random.default_rng(76)
        sp = random_space(rng, max_states=8, min_states=5)
        x = random_rv(rng, sp)
        shared = random_scenario_set(rng, sp, 3)
        es = rs.ExpectedShortfall(float(rng.uniform(0.2, 0.8)))
        plain, at_one = (rs.Market.general(sp, rs.finite_agents(2), rs.RiskFamily((es, risk)))
                         for risk in (shared, rs.Inflation(shared, 1.0)))
        problems = _recorded_lps(monkeypatch)
        got = rs.value(at_one, x).value
        assert problems[0].a_ub.shape[0] == sp.n_states
        assert got == rs.value(plain, x).value

    def test_disjoint_scenario_supports_are_ill_posed(self):
        sp = rs.ProbSpace([0.5, 0.5])
        first = rs.ScenarioSet((sp.density([2.0, 0.0]),))
        second = rs.ScenarioSet((sp.density([0.0, 2.0]),))
        market = rs.Market.general(sp, rs.finite_agents(2),
                                   rs.RiskFamily((first, second)))
        with pytest.raises(IllPosedError):
            rs.value(market, [1.0, 0.0])

    def test_entropic_with_hull_agents_unsupported(self):
        rng = np.random.default_rng(73)
        sp = random_space(rng)
        hull = random_scenario_set(rng, sp, 2)
        market = rs.Market.general(sp, rs.finite_agents(2),
                                   rs.RiskFamily((rs.Entropic(1.0), hull)))
        with pytest.raises(UnsupportedFamilyError):
            rs.value(market, random_rv(rng, sp))


class TestValueFunctionIsRiskMeasure:
    def test_axioms_on_random_probes(self):
        rng = np.random.default_rng(74)
        for make in (random_dilation_market, random_inflation_market,
                     random_general_market):
            market = make(rng)
            sp = market.space
            for _ in range(10):
                x = random_rv(rng, sp)
                y = random_rv(rng, sp)
                lam = float(rng.uniform(0.0, 1.0))
                c = float(rng.uniform(-2.0, 2.0))
                vx = rs.value(market, x).value
                vy = rs.value(market, y).value
                assert rs.value(market, np.maximum(x, y)).value >= vy - 1e-7
                assert rs.value(market, x + c).value == pytest.approx(vx + c, abs=1e-7)
                mix = rs.value(market, lam * x + (1.0 - lam) * y).value
                assert mix <= lam * vx + (1.0 - lam) * vy + 1e-7

    def test_continuity_from_above_cash_sequence(self):
        rng = np.random.default_rng(75)
        market = random_dilation_market(rng)
        x = random_rv(rng, market.space)
        base = rs.value(market, x).value
        steps = [1.0, 0.3, 0.1, 0.01, 0.0]
        values = [rs.value(market, x + c).value for c in steps]
        for lo, hi in zip(values[1:], values):
            assert hi >= lo - 1e-9
        for c, v in zip(steps, values):
            assert v == pytest.approx(base + c, abs=1e-9)

    def test_continuity_from_above_pointwise_sequences(self):
        rng = np.random.default_rng(76)
        market = random_inflation_market(rng)
        sp = market.space
        x = random_rv(rng, sp)
        deltas = rng.uniform(0.2, 1.0, sp.n_states)
        values = []
        for factor in (1.0, 0.5, 0.2, 0.05, 0.0):
            values.append(rs.value(market, x + factor * deltas).value)
        for lo, hi in zip(values[1:], values):
            assert hi >= lo - 1e-9
        assert values[-1] == pytest.approx(rs.value(market, x).value, abs=1e-12)


class TestGammaSetIdentity:
    def test_aggregate_penalty_finite_iff_min_inflation_feasible(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            market = random_inflation_market(rng, max_atoms=4)
            kind = market.kind
            merged = rs.inflate(kind.base, kind.gamma_inf)
            for _ in range(20):
                q = random_density(rng, market.space)
                agg = rs.aggregate_conjugate(market, q)
                single = rs.conjugate(merged, market.space, q)
                assert math.isfinite(agg) == math.isfinite(single)


class TestAcceptanceSets:
    def test_zero_is_acceptable_for_normalized_specs(self):
        rng = np.random.default_rng(78)
        market = random_general_market(rng)
        assert rs.acceptance_member(market, np.zeros(market.space.n_states))

    def test_value_shift_lands_on_boundary(self):
        rng = np.random.default_rng(79)
        market = random_dilation_market(rng)
        x = random_rv(rng, market.space)
        v = rs.value(market, x).value
        assert rs.acceptance_member(market, x - v, tol=1e-9)

    @pytest.mark.parametrize("tol", [-1e-7, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        rng = np.random.default_rng(85)
        market = random_dilation_market(rng)
        with pytest.raises(ValidationError):
            rs.acceptance_member(market, np.zeros(market.space.n_states), tol=tol)

    def test_large_constant_is_not_acceptable(self):
        rng = np.random.default_rng(80)
        market = random_dilation_market(rng)
        assert not rs.acceptance_member(market, np.full(market.space.n_states, 10.0))

    def test_samples_are_members(self):
        rng = np.random.default_rng(81)
        for make in (random_dilation_market, random_inflation_market):
            market = make(rng, max_atoms=3)
            for sample in rs.aumann_acceptance_sample(market, 25, rng_seed=5):
                assert rs.acceptance_member(market, sample, tol=1e-7)

    def test_zero_draw_projection_is_member(self):
        rng = np.random.default_rng(82)
        market = random_general_market(rng)
        # projecting the zero allocation recenters each row to -rho_a(0) = 0
        rows = np.zeros((market.agents.n_atoms, market.space.n_states))
        recentered = np.vstack([
            rows[i] - rs.rho(spec, market.space, rows[i])
            for i, spec in enumerate(market.family.specs)
        ])
        integral = market.agents.weights @ recentered
        assert rs.acceptance_member(market, integral, tol=1e-9)

    def test_sample_expectations_bounded_by_aggregate_conjugate(self):
        rng = np.random.default_rng(83)
        market = random_dilation_market(rng, max_atoms=3)
        samples = rs.aumann_acceptance_sample(market, 20, rng_seed=11)
        for _ in range(20):
            q = random_density(rng, market.space)
            pen = rs.aggregate_conjugate(market, q)
            if not math.isfinite(pen):
                continue
            hull_max = max(rs.expect_under(market.space, q, s) for s in samples)
            assert hull_max <= pen + 1e-7

    def test_samples_match_per_row_recentering_bit_for_bit(self):
        rng = np.random.default_rng(86)
        market = random_general_market(
            rng, max_atoms=5, variants=("entropic", "es", "dilation", "inflation"))
        got = rs.aumann_acceptance_sample(market, 3, rng_seed=7)
        draws_rng = np.random.default_rng(7)
        for sample in got:
            draws = draws_rng.normal(0.0, 1.0,
                                     (market.agents.n_atoms, market.space.n_states))
            rows = np.vstack([
                draws[i] - rs.rho(spec, market.space, draws[i])
                for i, spec in enumerate(market.family.specs)
            ])
            assert sample.tolist() == (market.agents.weights @ rows).tolist()

    def test_sample_count_validated(self):
        rng = np.random.default_rng(84)
        market = random_general_market(rng)
        with pytest.raises(ValidationError):
            rs.aumann_acceptance_sample(market, 0, rng_seed=1)

    @pytest.mark.parametrize("count", [2.5, float("nan"), float("inf")])
    def test_sample_count_must_be_whole(self, count):
        rng = np.random.default_rng(85)
        market = random_general_market(rng)
        with pytest.raises(ValidationError, match="whole number"):
            rs.aumann_acceptance_sample(market, count, rng_seed=1)

    def test_whole_float_sample_count_is_a_count(self):
        rng = np.random.default_rng(85)
        market = random_general_market(rng)
        got = rs.aumann_acceptance_sample(market, 2.0, rng_seed=1)
        want = rs.aumann_acceptance_sample(market, 2, rng_seed=1)
        assert [s.tolist() for s in got] == [s.tolist() for s in want]


class TestNonattainment:
    def test_constant_loss_is_vacuous(self):
        sp = rs.ProbSpace([0.25, 0.75])
        with pytest.raises(VacuousExperimentError):
            rs.nonattainment_experiment(rs.ExpectedShortfall(1.0), lambda t: 2.0 + t,
                                        2.0, sp, [1.0, 1.0], [10, 100])

    def test_gap_positive_and_shrinking(self):
        sp = rs.ProbSpace([0.25, 0.75])
        x = sp.rv([1.0, 0.0])
        results = rs.nonattainment_experiment(rs.ExpectedShortfall(1.0),
                                              lambda t: 2.0 + t, 2.0, sp, x,
                                              [10, 100, 1000])
        gaps = [gap for _, _, gap in results]
        assert all(g > 0.0 for g in gaps)
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        # the quantile curve is affine in gamma here, so the gap scales as 1/N
        assert gaps[2] == pytest.approx(gaps[0] / 100.0, rel=1e-6)

    @pytest.mark.parametrize("counts", [[10.7, 100], [2.5], [0], []])
    def test_refinements_must_be_positive_whole_counts(self, counts):
        sp = rs.ProbSpace([0.25, 0.75])
        with pytest.raises(ValidationError, match="whole atom counts"):
            rs.nonattainment_experiment(rs.ExpectedShortfall(1.0), lambda t: 2.0 + t,
                                        2.0, sp, [1.0, 0.0], counts)

    def test_whole_float_and_array_refinements_are_accepted(self):
        sp = rs.ProbSpace([0.25, 0.75])
        results = rs.nonattainment_experiment(rs.ExpectedShortfall(1.0), lambda t: 2.0 + t,
                                              2.0, sp, [1.0, 0.0], np.array([10.0, 100.0]))
        assert [n for n, _, _ in results] == [10, 100]

    def test_profile_must_stay_above_target(self):
        sp = rs.ProbSpace([0.25, 0.75])
        x = sp.rv([1.0, 0.0])
        with pytest.raises(ValidationError):
            rs.nonattainment_experiment(rs.ExpectedShortfall(1.0), lambda t: 2.0 - t,
                                        2.0, sp, x, [10])


class TestMarketValidation:
    def test_dilation_parameters_positive(self):
        sp = rs.ProbSpace([0.5, 0.5])
        with pytest.raises(ValidationError):
            rs.Market.dilation(sp, rs.finite_agents(2), rs.Entropic(1.0), [1.0, 0.0])

    def test_inflation_parameters_at_least_one(self):
        sp = rs.ProbSpace([0.5, 0.5])
        with pytest.raises(ValidationError):
            rs.Market.inflation(sp, rs.finite_agents(2), rs.ExpectedShortfall(1.0),
                                [1.0, 0.5])

    def test_family_size_must_match(self):
        sp = rs.ProbSpace([0.5, 0.5])
        with pytest.raises(ValidationError):
            rs.Market.general(sp, rs.finite_agents(2),
                              rs.RiskFamily((rs.Entropic(1.0),)))

    def test_scenario_set_sized_for_another_space(self):
        small = rs.ProbSpace([0.2, 0.3, 0.5])
        scen = rs.ScenarioSet((small.uniform_density(), small.density([2.0, 1.0, 0.6])))
        sp = rs.ProbSpace([0.1, 0.2, 0.3, 0.4])
        for spec in (scen, rs.Inflation(scen, 1.5)):
            market = rs.Market.general(sp, rs.finite_agents(2),
                                       rs.RiskFamily((spec, rs.ExpectedShortfall(0.5))))
            with pytest.raises(ValidationError, match="3 entries"):
                rs.value(market, np.arange(4.0))


    def test_scenario_set_checked_on_another_space(self):
        # (2, 1, 0.6) has P-mass 1 on (0.2, 0.3, 0.5) and 1.2 on the uniform space.
        small = rs.ProbSpace([0.2, 0.3, 0.5])
        scen = rs.ScenarioSet((small.uniform_density(), small.density([2.0, 1.0, 0.6])))
        sp = rs.ProbSpace([1 / 3, 1 / 3, 1 / 3])
        for spec in (scen, rs.Inflation(scen, 2.0)):
            market = rs.Market.general(sp, rs.finite_agents(2),
                                       rs.RiskFamily((spec, rs.ExpectedShortfall(0.5))))
            with pytest.raises(ValidationError, match="P-expectation 1.2"):
                rs.value(market, np.ones(3))

class TestExtraCrossValidation:
    def test_scenario_inflation_lp_against_vertex_oracle(self):
        # rebuild the production LP for rho(Inflation(ScenarioSet, gamma))
        # and solve it independently by vertex enumeration
        from riskshare.opt_kernel import LpProblem
        from oracle import vertex_enum_lp

        rng = np.random.default_rng(150)
        for _ in range(25):
            sp = random_space(rng, max_states=3)
            x = random_rv(rng, sp)
            base = random_scenario_set(rng, sp, 2)
            gamma = float(rng.uniform(1.0, 3.0))
            spec = rs.inflate(base, gamma)
            got = rs.rho(spec, sp, x)

            n = sp.n_states
            dmat = base.matrix()
            j = dmat.shape[0]
            c = np.concatenate([sp.probs * x, np.zeros(j)])
            a_eq = np.zeros((2, n + j))
            a_eq[0, :n] = sp.probs
            a_eq[1, n:] = 1.0
            a_ub = np.zeros((n, n + j))
            a_ub[:, :n] = np.eye(n)
            a_ub[:, n:] = -gamma * dmat.T
            problem = LpProblem(c, a_ub, np.zeros(n), a_eq, np.array([1.0, 1.0]))
            oracle = vertex_enum_lp(problem)
            assert oracle.status == "optimal"
            assert got == pytest.approx(oracle.value, abs=1e-8)

    def test_three_atom_market_against_brute_force(self):
        rng = np.random.default_rng(151)
        sp = rs.ProbSpace([0.35, 0.65])
        for _ in range(3):
            agents = rs.AgentSpace(("a", "b", "c"), rng.uniform(0.5, 1.5, 3))
            specs = (rs.Entropic(float(rng.uniform(0.5, 2.0))),
                     rs.ExpectedShortfall(float(rng.uniform(0.3, 1.0))),
                     rs.Entropic(float(rng.uniform(0.5, 2.0))))
            market = rs.Market.general(sp, agents, rs.RiskFamily(specs))
            x = random_rv(rng, sp, scale=1.0)
            res = rs.value(market, x)
            found = brute_force_value(market, x, default_grid(x, 4, points_per_axis=9))
            assert abs(found - res.value) <= 1e-5

    def test_dilated_es_agents_in_general_market(self):
        rng = np.random.default_rng(152)
        sp = rs.ProbSpace([0.3, 0.7])
        agents = rs.finite_agents(2)
        spec_es = rs.dilate(rs.ExpectedShortfall(0.5), 2.5)  # still ES(0.5) in value
        family = rs.RiskFamily((rs.Entropic(1.0), spec_es))
        market = rs.Market.general(sp, agents, family)
        x = random_rv(rng, sp, scale=1.0)
        res = rs.value(market, x)
        found = brute_force_value(market, x, default_grid(x, 2, points_per_axis=11))
        assert abs(found - res.value) <= 1e-4
        for _ in range(50):
            q = random_density(rng, sp)
            pen = rs.aggregate_conjugate(market, q)
            if math.isfinite(pen):
                assert res.value >= rs.expect_under(sp, q, x) - pen - 1e-9
