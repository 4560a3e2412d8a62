import numpy as np
import pytest

import riskshare as rs
from riskshare import opt_kernel
from riskshare.agent_space import agent_positions, unit_interval_midpoints
from riskshare.errors import ValidationError

from support import random_rv, random_scenario_set, random_space


class TestAgentSpace:
    def test_labels_must_be_unique(self):
        with pytest.raises(ValidationError):
            rs.AgentSpace(("a", "a"), np.array([1.0, 1.0]))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValidationError):
            rs.AgentSpace(("a", "b"), np.array([1.0, 0.0]))

    def test_finite_factory_uses_counting_measure(self):
        agents = rs.finite_agents(4)
        assert agents.labels == ("1", "2", "3", "4")
        assert agents.total_mass == 4.0

    def test_aumann_factory_normalized(self):
        agents = rs.aumann_agents(10)
        assert agents.total_mass == pytest.approx(1.0, abs=1e-12)
        assert np.all(agents.weights == 0.1)

    def test_shapley_factory_total_mass_three(self):
        for n in (5, 50, 333):
            agents = rs.shapley_agents(n)
            assert agents.total_mass == pytest.approx(3.0, abs=1e-12)
            assert agents.labels[0] == "dirac0"
            assert agents.labels[-1] == "dirac1"

    @pytest.mark.parametrize("factory", [rs.finite_agents, rs.aumann_agents,
                                         rs.shapley_agents, unit_interval_midpoints])
    def test_factories_take_positive_whole_counts(self, factory):
        for bad in (0, -2, 2.5, float("nan"), float("inf"), "3", True, np.True_):
            with pytest.raises(ValidationError, match="positive whole number"):
                factory(bad)
        got, want = factory(3.0), factory(3)
        if isinstance(want, rs.AgentSpace):
            assert got.labels == want.labels
            got, want = got.weights, want.weights
        assert np.array_equal(got, want)

    def test_positions_recover_quadrature_midpoints(self):
        # At n = 3, 7 and 1001 a 12-digit label does not round-trip.
        for n in (3, 4, 7, 1001):
            mids = unit_interval_midpoints(n)
            pos = agent_positions(rs.shapley_agents(n))
            assert pos[0] == 0.0 and pos[-1] == 1.0
            assert np.array_equal(pos[1:-1], mids)
            assert np.array_equal(agent_positions(rs.aumann_agents(n)), mids)


class TestGelfandIntegral:
    def test_single_unit_atom_returns_row(self):
        agents = rs.AgentSpace(("only",), np.array([1.0]))
        alloc = rs.Allocation(np.array([[1.0, -2.0, 3.0]]))
        assert np.array_equal(rs.gelfand_integral(agents, alloc), [1.0, -2.0, 3.0])

    def test_proportional_split_integrates_to_x(self):
        rng = np.random.default_rng(50)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        agents = rs.AgentSpace(("a", "b", "c"), np.array([0.5, 1.5, 1.0]))
        alloc = rs.proportional_split(agents, x)
        assert np.max(np.abs(rs.gelfand_integral(agents, alloc) - x)) <= 1e-12

    def test_weighted_hand_sum(self):
        agents = rs.AgentSpace(("a", "b"), np.array([1.0, 2.0]))
        alloc = rs.Allocation(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(rs.gelfand_integral(agents, alloc), [1.0, 2.0])

    def test_linearity_is_exact(self):
        rng = np.random.default_rng(51)
        agents = rs.AgentSpace(tuple("abcd"), rng.uniform(0.2, 2.0, 4))
        m1 = rng.normal(size=(4, 3))
        m2 = rng.normal(size=(4, 3))
        lhs = rs.gelfand_integral(agents, rs.Allocation(m1 + m2))
        rhs = rs.gelfand_integral(agents, rs.Allocation(m1)) + \
            rs.gelfand_integral(agents, rs.Allocation(m2))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch(self):
        agents = rs.AgentSpace(("a", "b"), np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            rs.gelfand_integral(agents, rs.Allocation(np.zeros((3, 2))))


class TestIsFeasible:
    def test_proportional_split_is_feasible(self):
        rng = np.random.default_rng(52)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        agents = rs.finite_agents(3)
        assert rs.is_feasible(agents, rs.proportional_split(agents, x), x)

    def test_zero_allocation_vs_nonzero_x(self):
        agents = rs.finite_agents(2)
        alloc = rs.Allocation(np.zeros((2, 2)))
        assert not rs.is_feasible(agents, alloc, [1.0, 0.0])

    def test_dilated_optimal_allocation_is_feasible(self):
        rng = np.random.default_rng(53)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        agents = rs.AgentSpace(("a", "b", "c"), np.array([1.0, 0.5, 2.0]))
        gammas = np.array([1.0, 3.0, 0.5])
        total = float(np.dot(agents.weights, gammas))
        alloc = rs.Allocation(np.outer(gammas / total, x))
        assert rs.is_feasible(agents, alloc, x)

    def test_negative_tolerance_rejected(self):
        agents = rs.finite_agents(1)
        with pytest.raises(ValidationError):
            rs.is_feasible(agents, rs.Allocation(np.zeros((1, 2))), [0.0, 0.0], tol=-1.0)

    def test_nan_tolerance_rejected(self):
        agents = rs.finite_agents(1)
        with pytest.raises(ValidationError):
            rs.is_feasible(agents, rs.Allocation(np.zeros((1, 2))), [0.0, 0.0],
                           tol=float("nan"))


class TestTotalRisk:
    def test_zero_shares_normalized_specs(self):
        sp = rs.ProbSpace([0.5, 0.5])
        agents = rs.finite_agents(3)
        family = rs.RiskFamily((rs.Entropic(1.0), rs.ExpectedShortfall(0.5),
                                rs.Entropic(2.0)))
        alloc = rs.Allocation(np.zeros((3, 2)))
        assert rs.total_risk(agents, family, sp, alloc) == pytest.approx(0.0, abs=1e-12)

    def test_proportional_identical_entropic_closed_form(self):
        rng = np.random.default_rng(54)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        agents = rs.AgentSpace(("a", "b"), np.array([1.5, 0.5]))
        gamma = 1.2
        family = rs.RiskFamily((rs.Entropic(gamma),) * 2)
        alloc = rs.proportional_split(agents, x)
        mass = agents.total_mass
        want = mass * gamma * np.log(rs.expect(sp, np.exp(x / (gamma * mass))))
        got = rs.total_risk(agents, family, sp, alloc)
        assert got == pytest.approx(want, abs=1e-9)

    def test_constant_shares_reduce_to_cash(self):
        sp = rs.ProbSpace([0.25, 0.75])
        agents = rs.AgentSpace(("a", "b"), np.array([2.0, 1.0]))
        family = rs.RiskFamily((rs.ExpectedShortfall(0.5), rs.Entropic(1.0)))
        consts = np.array([1.5, -0.5])
        alloc = rs.Allocation(np.tile(consts[:, None], (1, 2)))
        want = float(np.dot(agents.weights, consts))  # rho_a(0) = 0 for both
        assert rs.total_risk(agents, family, sp, alloc) == pytest.approx(want, abs=1e-9)

    def test_recentered_rows_land_in_acceptance_sets(self):
        rng = np.random.default_rng(55)
        sp = random_space(rng)
        agents = rs.finite_agents(4)
        specs = tuple(
            rs.Entropic(float(rng.uniform(0.5, 2.0))) if i % 2 == 0
            else rs.ExpectedShortfall(float(rng.uniform(0.3, 1.0)))
            for i in range(4)
        )
        family = rs.RiskFamily(specs)
        draws = rng.normal(size=(4, sp.n_states))
        recentered = np.vstack([
            draws[i] - rs.rho(specs[i], sp, draws[i]) for i in range(4)
        ])
        for i in range(4):
            assert rs.rho(specs[i], sp, recentered[i]) <= 1e-9

    def test_family_size_checked(self):
        sp = rs.ProbSpace([0.5, 0.5])
        agents = rs.finite_agents(2)
        family = rs.RiskFamily((rs.Entropic(1.0),))
        with pytest.raises(ValidationError):
            rs.total_risk(agents, family, sp, rs.Allocation(np.zeros((2, 2))))

    def test_share_width_checked(self):
        sp = rs.ProbSpace([0.5, 0.5])
        agents = rs.finite_agents(2)
        family = rs.RiskFamily((rs.Entropic(1.0), rs.ExpectedShortfall(0.5)))
        with pytest.raises(ValidationError, match="3 columns for 2 states"):
            rs.total_risk(agents, family, sp, rs.Allocation(np.zeros((2, 3))))

    def test_allocation_rows_checked(self):
        sp = rs.ProbSpace([0.5, 0.5])
        agents = rs.finite_agents(2)
        family = rs.RiskFamily((rs.Entropic(1.0), rs.ExpectedShortfall(0.5)))
        with pytest.raises(ValidationError, match="3 rows for 2 atom risks"):
            rs.total_risk(agents, family, sp, rs.Allocation(np.zeros((3, 2))))


class TestAtomRisks:
    """atom_risks is the one per-atom risk loop: it must reproduce the
    public rho of every row bit for bit."""

    def _specs(self, rng, sp):
        ent = rs.Entropic(float(rng.uniform(0.3, 3.0)))
        es = rs.ExpectedShortfall(float(rng.uniform(0.1, 1.0)))
        scen = random_scenario_set(rng, sp, 3)
        return (
            ent, es, scen,
            rs.Dilation(ent, 2.5), rs.Dilation(es, 0.7), rs.Dilation(scen, 1.9),
            rs.Dilation(rs.Dilation(ent, 0.4), 3.1),
            rs.Inflation(es, 1.8), rs.Inflation(scen, 2.2),
            rs.Dilation(rs.Inflation(scen, 1.3), 0.6),
            rs.Dilation(ent, 1e9),  # a KL weight far above the loss spread
        )

    def test_matches_public_rho_bit_for_bit(self):
        rng = np.random.default_rng(56)
        for _ in range(5):
            sp = random_space(rng)
            specs = self._specs(rng, sp)
            family = rs.RiskFamily(specs)
            alloc = rs.Allocation(rng.normal(0.0, 2.0, (len(specs), sp.n_states)))
            got = rs.atom_risks(family, sp, alloc)
            want = [rs.rho(spec, sp, row) for spec, row in zip(specs, alloc.shares)]
            assert got.tolist() == want

    @pytest.mark.parametrize("n", [4, 16, 100])
    @pytest.mark.parametrize("n_atoms", [1000, 5000])
    def test_matches_public_rho_at_scale(self, monkeypatch, n_atoms, n):
        # Every spec of _specs, interleaved; the inflated scenario sets
        # take the closed form, so no atom makes an LP.
        rng = np.random.default_rng(n_atoms + n)
        p = rng.uniform(0.05, 1.0, n)
        sp = rs.ProbSpace(p / p.sum())
        specs = self._specs(rng, sp)
        family = rs.RiskFamily(tuple(specs[i % len(specs)] for i in range(n_atoms)))
        # Half the rows are whole numbers: ties, and -0.0 beside 0.0.
        shares = rng.normal(0.0, 2.0, (n_atoms, n))
        shares[::2] = np.round(shares[::2])
        alloc = rs.Allocation(shares)

        lp_calls = [0]
        highs_solve = opt_kernel.highs_solve

        def counted(problem):
            lp_calls[0] += 1
            return highs_solve(problem)

        monkeypatch.setattr(opt_kernel, "highs_solve", counted)
        got = rs.atom_risks(family, sp, alloc).tolist()
        block_lps = lp_calls[0]
        want = [rs.rho(spec, sp, row) for spec, row in zip(family.specs, alloc.shares)]
        assert got == want
        assert block_lps == lp_calls[0] - block_lps == 0

    def test_sorting_rule_block_breaks_ties_as_the_rule(self):
        # Repeated losses, 0.0 beside -0.0, and caps whose cumulative mass
        # lands on a state boundary: each row of the block must be the
        # rule's point, byte for byte.
        rng = np.random.default_rng(58)
        for n in (2, 4, 16, 100):
            for p in (np.full(n, 1.0 / n), rng.uniform(0.05, 1.0, n)):
                sp = rs.ProbSpace(p / p.sum())
                xs = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], (60, n))
                caps = rng.choice([1.0, 4.0 / 3.0, 2.0, 4.0, n / 3.0 + 1.0, float(n)], 60)
                got = opt_kernel._sorting_points(sp.probs, xs, caps)
                for row, x, cap in zip(got, xs, caps):
                    want = opt_kernel.sorting_rule_point(sp, x, float(cap))
                    assert row.tobytes() == want.tobytes()
                family = rs.RiskFamily(tuple(rs.ExpectedShortfall(1.0 / c) for c in caps))
                alloc = rs.Allocation(xs)
                assert rs.atom_risks(family, sp, alloc).tolist() == \
                    [rs.rho(s, sp, x) for s, x in zip(family.specs, xs)]

    def test_overflowing_kl_weight_is_rejected(self):
        # 1e308 * 10 overflows the atom's KL weight, as in rho.
        sp = rs.ProbSpace([0.25, 0.75])
        bad = rs.Dilation(rs.Entropic(1e308), 10.0)
        row = np.array([1.0, -0.5])
        with pytest.raises(ValidationError, match="KL weight must be finite"):
            rs.rho(bad, sp, row)
        agents = rs.finite_agents(3)
        alloc = rs.Allocation(np.tile(row, (3, 1)))
        for family in (rs.RiskFamily((bad,) * 3),
                       rs.RiskFamily((rs.ExpectedShortfall(0.5), bad, rs.Entropic(1.0)))):
            with pytest.raises(ValidationError, match="KL weight must be finite"):
                rs.atom_risks(family, sp, alloc)
            with pytest.raises(ValidationError, match="KL weight must be finite"):
                rs.total_risk(agents, family, sp, alloc)
        market = rs.Market.dilation(sp, agents, rs.Entropic(1e308), [10.0] * 3)
        assert market.family.specs == (bad,) * 3
        with pytest.raises(ValidationError, match="KL weight must be finite"):
            rs.pareto_check(market, 3.0 * row, alloc)

    def test_total_risk_is_weighted_atom_risks(self):
        rng = np.random.default_rng(57)
        sp = random_space(rng)
        specs = self._specs(rng, sp)
        agents = rs.AgentSpace(tuple(str(i) for i in range(len(specs))),
                               rng.uniform(0.3, 2.0, len(specs)))
        family = rs.RiskFamily(specs)
        alloc = rs.Allocation(rng.normal(0.0, 2.0, (len(specs), sp.n_states)))
        want = float(np.dot(agents.weights,
                            [rs.rho(spec, sp, row) for spec, row in zip(specs, alloc.shares)]))
        assert rs.total_risk(agents, family, sp, alloc) == want

    def test_shape_checked(self):
        sp = rs.ProbSpace([0.5, 0.5])
        family = rs.RiskFamily((rs.Entropic(1.0),))
        with pytest.raises(ValidationError):
            rs.atom_risks(family, sp, rs.Allocation(np.zeros((2, 2))))
        with pytest.raises(ValidationError):
            rs.atom_risks(family, sp, rs.Allocation(np.zeros((1, 3))))


class TestImmutability:
    def test_arrays_are_read_only(self):
        agents = rs.AgentSpace(("a", "b"), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            agents.weights[0] = 5.0
        alloc = rs.Allocation(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            alloc.shares[0, 0] = 1.0
