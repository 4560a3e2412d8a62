import numpy as np
import pytest

import riskshare as rs
from riskshare import opt_kernel as ok
from riskshare.errors import ConvergenceError, IllPosedError, InfeasibleError, ValidationError

from oracle import vertex_enum_lp
from support import random_density, random_rv, random_scenario_set, random_space


def _random_bounded_problem(rng):
    """Random LP with a box keeping the feasible set bounded (so the vertex
    oracle applies)."""
    n = int(rng.integers(1, 5))
    m_ub = int(rng.integers(0, 3))
    m_eq = int(rng.integers(0, min(2, n) + 1))
    c = rng.uniform(-2.0, 2.0, n)
    a_ub = np.vstack([rng.uniform(-1.0, 2.0, (m_ub, n)), np.eye(n)])
    b_ub = np.concatenate([rng.uniform(0.5, 3.0, m_ub), np.full(n, 5.0)])
    a_eq = rng.uniform(0.0, 1.0, (m_eq, n)) if m_eq else None
    b_eq = rng.uniform(0.5, 2.0, m_eq) if m_eq else None
    return ok.LpProblem(c, a_ub, b_ub, a_eq, b_eq)


class TestLpSolve:
    def test_matches_vertex_enumeration_on_random_problems(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 150:
            problem = _random_bounded_problem(rng)
            if problem.b_ub.size + problem.b_eq.size > 8 or problem.n_vars > 6:
                continue
            got = ok.lp_solve(problem)
            want = vertex_enum_lp(problem)
            assert got.status == want.status
            if got.status == "optimal":
                assert got.value == pytest.approx(want.value, abs=1e-8)
            checked += 1

    def test_reproduces_es_sorting_rule(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            sp = random_space(rng, max_states=12)
            x = random_rv(rng, sp)
            alpha = float(rng.uniform(0.1, 1.0))
            n = sp.n_states
            problem = ok.LpProblem(
                objective=sp.probs * x,
                a_ub=np.eye(n), b_ub=np.full(n, 1.0 / alpha),
                a_eq=sp.probs.reshape(1, -1), b_eq=np.ones(1),
            )
            sol = ok.lp_solve(problem)
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(
                rs.rho(rs.ExpectedShortfall(alpha), sp, x), abs=1e-9)

    def test_infeasible_equalities(self):
        problem = ok.LpProblem(
            objective=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b_eq=np.array([1.0, 2.0]),
        )
        assert ok.lp_solve(problem).status == "infeasible"

    def test_zero_objective_returns_zero_value(self):
        problem = ok.LpProblem(
            objective=np.zeros(2),
            a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
        )
        sol = ok.lp_solve(problem)
        assert sol.status == "optimal"
        assert sol.value == 0.0

    def test_unbounded(self):
        problem = ok.LpProblem(
            objective=np.array([1.0]),
            a_ub=np.array([[-1.0]]), b_ub=np.array([1.0]),
        )
        assert ok.lp_solve(problem).status == "unbounded"

    def test_optimal_point_respects_residual_contract(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            problem = _random_bounded_problem(rng)
            sol = ok.lp_solve(problem)
            if sol.status != "optimal":
                continue
            z = sol.point
            assert np.min(z) >= -1e-9
            if problem.b_eq.size:
                assert np.max(np.abs(problem.a_eq @ z - problem.b_eq)) <= 1e-9
            if problem.b_ub.size:
                assert np.max(problem.a_ub @ z - problem.b_ub) <= 1e-9
            assert sol.value == pytest.approx(float(problem.objective @ z), abs=1e-9)

    def test_bit_identical_determinism(self):
        rng = np.random.default_rng(14)
        problem = _random_bounded_problem(rng)
        a = ok.lp_solve(problem)
        b = ok.lp_solve(problem)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.value == b.value
            assert np.array_equal(a.point, b.point)

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            ok.LpProblem(np.array([1.0]), a_ub=np.array([[1.0, 2.0]]),
                         b_ub=np.array([1.0]))


class TestProjectToDensity:
    def test_variational_characterization(self):
        # <v - proj, z - proj> <= 0 for every feasible z
        rng = np.random.default_rng(15)
        for _ in range(100):
            sp = random_space(rng)
            v = rng.normal(0.0, 2.0, sp.n_states)
            cap = float(rng.uniform(1.3, 4.0)) if rng.uniform() < 0.5 else np.inf
            proj = ok.project_to_density(sp, v, cap)
            assert abs(float(np.dot(sp.probs, proj)) - 1.0) <= 1e-10
            assert np.min(proj) >= -1e-12
            assert np.max(proj - cap) <= 1e-12
            for _ in range(20):
                z = random_density(rng, sp).q
                if np.any(z > cap):
                    continue
                assert float(np.dot(v - proj, z - proj)) <= 1e-9

    def test_feasible_points_are_fixed(self):
        rng = np.random.default_rng(16)
        sp = random_space(rng)
        q = random_density(rng, sp).q
        proj = ok.project_to_density(sp, q)
        assert np.max(np.abs(proj - q)) <= 1e-10

    def test_infeasible_caps_raise(self):
        sp = rs.ProbSpace([0.5, 0.5])
        with pytest.raises(InfeasibleError):
            ok.project_to_density(sp, np.ones(2), 0.4)


class TestMaximizeOverDensities:
    def test_linear_with_box_matches_es_optimizer(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            alpha = float(rng.uniform(0.2, 1.0))
            q, val = ok.maximize_over_densities(
                sp, ok.DensityObjective(payoff=x),
                ok.DensityConstraints(cap=1.0 / alpha),
            )
            assert val == pytest.approx(rs.rho(rs.ExpectedShortfall(alpha), sp, x),
                                        abs=1e-9)
            assert np.max(q.q) <= 1.0 / alpha + 1e-8

    def test_entropic_score_recovers_gibbs_density(self):
        # The capped Gibbs path with caps that never bind against the
        # entropic closed form exp(x / kappa) / E_P[exp(x / kappa)].
        sp = rs.ProbSpace([0.2, 0.3, 0.5])
        x = sp.rv([1.0, 2.0, 3.0])
        q, val = ok.maximize_over_densities(
            sp, ok.DensityObjective(payoff=x, kl_weight=1.5),
            ok.DensityConstraints(cap=10.0),
        )
        want = rs.dual_solve(rs.Entropic(1.5), sp, x)[1]
        assert np.max(np.abs(q.q - want.q)) <= 1e-6
        assert val == pytest.approx(rs.rho(rs.Entropic(1.5), sp, x), abs=1e-9)

    def test_entropic_score_warm_start_matches_closed_form(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            kappa = float(rng.uniform(0.3, 3.0))
            q, val = ok.maximize_over_densities(
                sp, ok.DensityObjective(payoff=x, kl_weight=kappa))
            assert val == pytest.approx(rs.rho(rs.Entropic(kappa), sp, x), abs=1e-9)
            want = rs.dual_solve(rs.Entropic(kappa), sp, x)[1]
            assert np.max(np.abs(q.q - want.q)) <= 1e-6

    def test_constant_payoff_gives_constant_value(self):
        sp = rs.ProbSpace([0.25, 0.75])
        c = 1.5
        q, val = ok.maximize_over_densities(
            sp, ok.DensityObjective(payoff=np.full(2, c), kl_weight=0.8))
        # minimal penalty is KL = 0 at the reference density
        assert val == pytest.approx(c, abs=1e-9)
        assert np.max(np.abs(q.q - 1.0)) <= 1e-6

    def test_solution_satisfies_constraints_within_tolerance(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            cap = float(rng.uniform(1.2, 3.0))
            kappa = float(rng.uniform(0.0, 2.0))
            q, _ = ok.maximize_over_densities(
                sp, ok.DensityObjective(payoff=x, kl_weight=kappa),
                ok.DensityConstraints(cap=cap))
            assert np.max(q.q - cap) <= 1e-8
            assert np.min(q.q) >= -1e-8
            assert abs(float(np.dot(sp.probs, q.q)) - 1.0) <= 1e-8

    def test_member_hull_restricts_to_hull(self):
        rng = np.random.default_rng(20)
        sp = random_space(rng, max_states=5)
        x = random_rv(rng, sp)
        d1 = random_density(rng, sp)
        d2 = random_density(rng, sp)
        hull = np.vstack([d1.q, d2.q])
        q, val = ok.maximize_over_densities(
            sp, ok.DensityObjective(payoff=x),
            ok.DensityConstraints(hulls=((1.0, hull),)))
        want = max(rs.expect_under(sp, d1, x), rs.expect_under(sp, d2, x))
        assert val == pytest.approx(want, abs=1e-9)

    def test_hull_width_must_match_the_space(self):
        sp = rs.ProbSpace([0.1, 0.2, 0.3, 0.4])
        hull = np.ones((2, 3))
        for constraints in (ok.DensityConstraints(hulls=((1.0, hull),)),
                            ok.DensityConstraints(hulls=((1.5, hull),))):
            with pytest.raises(ValidationError, match="3 entries"):
                ok.maximize_over_densities(
                    sp, ok.DensityObjective(payoff=np.arange(4.0)), constraints)

    def test_hull_rows_must_have_unit_mass(self):
        sp = rs.ProbSpace([0.25, 0.25, 0.5])
        hull = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 0.6]])  # masses 1 and 1.05
        for constraints in (ok.DensityConstraints(hulls=((1.0, hull),)),
                            ok.DensityConstraints(hulls=((1.5, hull),))):
            with pytest.raises(ValidationError, match="P-expectation 1.05"):
                ok.maximize_over_densities(
                    sp, ok.DensityObjective(payoff=np.arange(3.0)), constraints)

    def test_nonconvergence_reports_best_iterate(self, monkeypatch):
        # A certificate above tolerance surfaces the point and its residual.
        # The cap of 10 never binds here but selects the capped Gibbs path.
        monkeypatch.setattr(ok, "_KKT_TOL", -1.0)
        sp = rs.ProbSpace([0.2, 0.3, 0.5])
        x = sp.rv([1.0, 2.0, 3.0])
        with pytest.raises(ConvergenceError) as info:
            ok.maximize_over_densities(
                sp, ok.DensityObjective(payoff=x, kl_weight=1.5),
                ok.DensityConstraints(cap=10.0))
        want = rs.dual_solve(rs.Entropic(1.5), sp, x)[1].q
        assert np.max(np.abs(info.value.best_point - want)) <= 1e-6
        assert 0.0 <= info.value.residual <= 1e-9

    def test_kkt_residual_separates_the_optimum_from_other_densities(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            cap = float(rng.uniform(1.2, 3.0))
            q, _ = ok.maximize_over_densities(
                sp, ok.DensityObjective(payoff=x, kl_weight=0.8),
                ok.DensityConstraints(cap=cap))
            assert ok.kkt_residual(sp, x, 0.8, q.q, cap) <= 1e-12
            assert ok.kkt_residual(sp, x, 0.8, np.ones(sp.n_states), cap) > 1e-3

    def test_deterministic(self):
        sp = rs.ProbSpace([0.2, 0.3, 0.5])
        x = sp.rv([1.0, 2.0, 3.0])
        runs = [ok.maximize_over_densities(sp, ok.DensityObjective(x, 0.7))
                for _ in range(2)]
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][0].q, runs[1][0].q)


def test_simplex_iteration_cap_is_distinct_error(monkeypatch):
    from riskshare.errors import IterationLimitError
    monkeypatch.setattr(ok, "_ITER_FACTOR", 0)
    problem = ok.LpProblem(np.array([1.0, 1.0]),
                           a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]))
    with pytest.raises(IterationLimitError):
        ok.lp_solve(problem)


# ---------------------------------------------------------------------------
# General-market duals at n >= 100
# ---------------------------------------------------------------------------

def _probs(rng, n):
    p = rng.uniform(0.05, 1.0, n)
    return p / p.sum()


def _caps_market(rng, n):
    """Three ES-type agents; the dual is a sup of E_Q[x] over q <= cap."""
    space = rs.ProbSpace(_probs(rng, n))
    alpha = float(rng.uniform(0.1, 0.9))
    a2, d = alpha * float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 3.0))
    g = float(rng.uniform(1.2, 3.0))
    a3 = min(1.0, alpha * g * float(rng.uniform(0.2, 1.0)))
    specs = (rs.ExpectedShortfall(alpha), rs.Dilation(rs.ExpectedShortfall(a2), d),
             rs.Inflation(rs.ExpectedShortfall(a3), g))
    market = rs.Market.general(space, rs.finite_agents(3), rs.RiskFamily(specs))
    return market, space.rv(rng.normal(0.0, 1.0, n)), min(1.0 / alpha, 1.0 / a2, g / a3)


def _entropic_caps_market(rng, n, scale):
    """Two entropic agents and one inflated ES: KL weight kappa, caps g/a,
    losses spread over scale * kappa."""
    space = rs.ProbSpace(_probs(rng, n))
    g1, g0 = rng.uniform(0.2, 1.0, 2)
    d = float(rng.uniform(0.5, 2.0))
    a, g = float(rng.uniform(0.1, 0.6)), float(rng.uniform(1.0, 2.0))
    specs = (rs.Entropic(float(g1)), rs.Dilation(rs.Entropic(float(g0)), d),
             rs.Inflation(rs.ExpectedShortfall(a), g))
    market = rs.Market.general(space, rs.finite_agents(3), rs.RiskFamily(specs))
    kappa = float(g1 + d * g0)
    x = space.rv(kappa * scale * rng.normal(0.0, 1.0, n))
    return market, x, kappa, g / a


def _assert_kkt(p, x, kappa, cap, q):
    """KKT conditions of max E_Q[x] - kappa * KL(Q||P) over 0 <= q <= cap,
    E_P[q] = 1, checked in log space: the states strictly between the bounds
    share one multiplier theta = x_i - kappa * (1 + log q_i), each capped
    state's multiplier bound x_i - kappa * (1 + log cap) is at least theta,
    and a state at 0 has a Gibbs weight too small to carry mass."""
    assert abs(float(p @ q) - 1.0) <= 1e-12
    assert np.min(q) >= 0.0 and np.max(q) <= cap * (1.0 + 1e-12)
    free = (q > 0.0) & (q < cap * (1.0 - 1e-9))
    capped = q >= cap * (1.0 - 1e-9)
    thetas = x - kappa * (1.0 + np.log(np.where(q > 0.0, q, 1.0)))
    theta = thetas[np.argmax(np.where(free, p * q, -1.0))]
    # A state's share of the mismatch scales with its mass.
    assert np.max(p[free] * q[free] * np.abs(thetas[free] - theta)) <= 1e-9 * kappa
    assert np.all(x[capped] - kappa * (1.0 + np.log(cap)) >= theta - 1e-9 * kappa)
    zero = q == 0.0
    assert np.all(p[zero] * np.exp((x[zero] - theta) / kappa - 1.0) <= 1e-12)


@pytest.mark.parametrize("n", [100, 200])
class TestGeneralDualAtScale:
    def test_caps_only_value_matches_lp_solve(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(2):
            market, x, cap = _caps_market(rng, n)
            p = market.space.probs
            res = rs.value(market, x)
            problem = ok.LpProblem(objective=p * x, a_ub=np.eye(n), b_ub=np.full(n, cap),
                                   a_eq=p.reshape(1, -1), b_eq=np.ones(1))
            sol = ok.lp_solve(problem)
            assert sol.status == "optimal"
            assert abs(res.value - sol.value) <= 1e-9
            q = res.dual_optimizer.q
            assert np.max(q) <= cap + 1e-9
            assert abs(float(p @ (q * x)) - res.value) <= 1e-12
            assert res.duality_gap == 0.0

    def test_caps_only_value_matches_highs(self, n):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            market, x, cap = _caps_market(rng, n)
            p = market.space.probs
            ref = linprog(-p * x, A_eq=p.reshape(1, -1), b_eq=[1.0],
                          bounds=[(0.0, cap)] * n, method="highs")
            assert ref.status == 0
            assert abs(rs.value(market, x).value + ref.fun) <= 1e-9

    def test_entropic_caps_satisfies_kkt_and_scores_its_value(self, n):
        rng = np.random.default_rng(50 + n)
        for scale in (1.0, 4.0, 8.0, 12.0):
            market, x, kappa, cap = _entropic_caps_market(rng, n, scale)
            res = rs.value(market, x)
            q = res.dual_optimizer
            _assert_kkt(market.space.probs, x, kappa, cap, q.q)
            score = rs.expect_under(market.space, q, x) \
                - kappa * rs.kl_divergence(market.space, q)
            assert abs(res.value - score) <= 1e-9
            assert abs(res.duality_gap) <= 1e-9

    def test_entropic_only_value_is_the_entropic_closed_form(self, n):
        # Sharing among entropic agents gives the entropic measure at the
        # summed tolerance: the market's value and dual optimizer are
        # rho(Entropic(kappa)) and its Gibbs density, bit for bit.
        rng = np.random.default_rng(60 + n)
        for scale in (0.5, 4.0, 40.0):
            space = rs.ProbSpace(_probs(rng, n))
            specs = (rs.Entropic(float(rng.uniform(0.2, 2.0))),
                     rs.Dilation(rs.Entropic(float(rng.uniform(0.2, 2.0))),
                                 float(rng.uniform(0.5, 3.0))),
                     rs.Entropic(float(rng.uniform(0.2, 2.0))))
            agents = rs.AgentSpace(("a", "b", "c"), rng.uniform(0.3, 2.0, 3))
            market = rs.Market.general(space, agents, rs.RiskFamily(specs))
            kappa = 0.0
            for spec, w in zip(specs, agents.weights):
                kappa += rs.dual_set(spec, float(w))[0]
            x = space.rv(scale * rng.normal(0.0, 1.0, n))
            res = rs.value(market, x)
            want, gibbs = rs.dual_solve(rs.Entropic(kappa), space, x)
            assert res.value == want == rs.rho(rs.Entropic(kappa), space, x)
            assert np.array_equal(res.dual_optimizer.q, gibbs.q)
            assert abs(res.duality_gap) <= 1e-9

    def test_one_plain_hull_is_its_best_scenario(self, n):
        rng = np.random.default_rng(70 + n)
        for n_scenarios in (1, 3, 12):
            space = rs.ProbSpace(_probs(rng, n))
            dmat = random_scenario_set(rng, space, n_scenarios).matrix()
            x = space.rv(rng.normal(0.0, 1.0, n))
            scores = [float(np.dot(space.probs, d * x)) for d in dmat]
            best = int(np.argmax(scores))
            q, val = ok.maximize_over_densities(
                space, ok.DensityObjective(payoff=x),
                ok.DensityConstraints(hulls=((1.0, dmat),)))
            assert val == scores[best]
            assert np.array_equal(q.q, dmat[best])


def test_entropic_caps_with_underflowing_gibbs_weights_is_certified():
    # Loss spread 12 kappa at n = 200: the smallest Gibbs weights are far
    # below the rounding of the largest, so the projection sets them to 0 and
    # a gradient test on log q cannot be met. These draws have that shape.
    for seed in (3, 6):
        market, x, kappa, cap = _entropic_caps_market(np.random.default_rng(seed), 200, 12.0)
        q = rs.value(market, x).dual_optimizer.q
        assert np.any(q == 0.0)
        _assert_kkt(market.space.probs, x, kappa, cap, q)


# ---------------------------------------------------------------------------
# Density LP with a cap and a scenario hull
# ---------------------------------------------------------------------------

def _highs_cap_and_hulls(linprog, p, x, cap, hulls):
    """max E_Q[x] over 0 <= q <= cap, E_P[q] = 1 and, for each (gamma, D) in
    hulls, q = D^T lam (gamma None) or q <= gamma D^T lam, lam on the
    simplex."""
    n = len(p)
    n_vars = n + sum(len(dmat) for _, dmat in hulls)
    a_eq, b_eq = [np.concatenate([p, np.zeros(n_vars - n)])], [1.0]
    a_ub, b_ub = [], []
    offset = n
    for gamma, dmat in hulls:
        link = np.zeros((n, n_vars))
        link[:, :n] = np.eye(n)
        link[:, offset:offset + len(dmat)] = -(1.0 if gamma is None else gamma) * dmat.T
        rows, rhs = (a_eq, b_eq) if gamma is None else (a_ub, b_ub)
        rows.extend(link)
        rhs.extend(np.zeros(n))
        simplex = np.zeros(n_vars)
        simplex[offset:offset + len(dmat)] = 1.0
        a_eq.append(simplex)
        b_eq.append(1.0)
        offset += len(dmat)
    ref = linprog(-np.concatenate([p * x, np.zeros(n_vars - n)]),
                  A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                  A_eq=np.array(a_eq), b_eq=b_eq,
                  bounds=[(0.0, cap)] * n + [(0.0, None)] * (n_vars - n), method="highs")
    assert ref.status == 0
    return -ref.fun


# Each market holds an ES cap and one scenario set per flag, inflated or
# plain; "mixed" puts equality hull rows, inequality hull rows and cap rows
# in one LP.
@pytest.mark.parametrize("seed,inflated", [(90, (False,)), (91, (True,)), (92, (False, True))],
                         ids=["False", "True", "mixed"])
def test_es_with_scenario_hull_matches_highs(seed, inflated):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(seed)
    for _ in range(40):
        sp = random_space(rng, max_states=12, min_states=3)
        x = random_rv(rng, sp)
        sets = [random_scenario_set(rng, sp, int(rng.integers(2, 5))) for _ in inflated]
        alpha = float(rng.uniform(0.1, 0.9))
        gammas = [float(rng.uniform(1.0, 3.0)) if flag else None for flag in inflated]
        risks = tuple(hull if g is None else rs.Inflation(hull, g)
                      for hull, g in zip(sets, gammas))
        market = rs.Market.general(sp, rs.finite_agents(1 + len(risks)), rs.RiskFamily(
            (rs.ExpectedShortfall(alpha),) + risks))
        want = _highs_cap_and_hulls(linprog, sp.probs, x, 1.0 / alpha,
                                    [(g, hull.matrix()) for hull, g in zip(sets, gammas)])
        assert abs(rs.value(market, x).value - want) <= 1e-9


def test_es_cap_that_excludes_the_scenario_hull_is_ill_posed():
    sp = rs.ProbSpace([0.5, 0.5])
    hull = rs.ScenarioSet((sp.density([1.8, 0.2]),))
    market = rs.Market.general(sp, rs.finite_agents(2), rs.RiskFamily(
        (rs.ExpectedShortfall(0.8), hull)))  # cap 1.25 < 1.8
    with pytest.raises(IllPosedError):
        rs.value(market, [1.0, 0.0])
