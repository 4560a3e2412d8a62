import math

import numpy as np
import pytest

import riskshare as rs
from riskshare import opt_kernel as ok
from riskshare.errors import ConvergenceError, IllPosedError, InfeasibleError, ValidationError

from oracle import (
    capped_gibbs_oracle,
    es_lp_oracle,
    inflated_hull_oracle,
    vertex_enum_lp,
)
from support import (
    aim_three_hull_market,
    general_dual_hull_market,
    highs_ipm_density_lp,
    random_density,
    random_rv,
    random_scenario_set,
    random_space,
    spread_scenario_set,
)


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


class TestHighsSolve:
    def test_matches_vertex_enumeration_on_random_problems(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 150:
            problem = _random_bounded_problem(rng)
            if problem.b_ub.size + problem.b_eq.size > 8 or problem.n_vars > 6:
                continue
            got = ok.highs_solve(problem)
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
            sol = ok.highs_solve(problem)
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(
                rs.rho(rs.ExpectedShortfall(alpha), sp, x), abs=1e-9)

    def test_infeasible_equalities(self):
        problem = ok.LpProblem(
            objective=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b_eq=np.array([1.0, 2.0]),
        )
        assert ok.highs_solve(problem).status == "infeasible"

    def test_zero_objective_returns_zero_value(self):
        problem = ok.LpProblem(
            objective=np.zeros(2),
            a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
        )
        sol = ok.highs_solve(problem)
        assert sol.status == "optimal"
        assert sol.value == 0.0

    def test_unbounded(self):
        problem = ok.LpProblem(
            objective=np.array([1.0]),
            a_ub=np.array([[-1.0]]), b_ub=np.array([1.0]),
        )
        assert ok.highs_solve(problem).status == "unbounded"

    def test_optimal_point_respects_residual_contract(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            problem = _random_bounded_problem(rng)
            sol = ok.highs_solve(problem)
            if sol.status != "optimal":
                continue
            z = sol.point
            assert np.min(z) >= -1e-9
            if problem.b_eq.size:
                assert np.max(np.abs(problem.a_eq @ z - problem.b_eq)) <= 1e-9
            if problem.b_ub.size:
                assert np.max(problem.a_ub @ z - problem.b_ub) <= 1e-9
            assert sol.value == pytest.approx(float(problem.objective @ z), abs=1e-9)

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            ok.LpProblem(np.array([1.0]), a_ub=np.array([[1.0, 2.0]]),
                         b_ub=np.array([1.0]))

    @pytest.mark.parametrize("upper", [[-1.0, 1.0], [math.nan, 1.0], [1.0], [[1.0, 1.0]]],
                             ids=["negative", "nan", "short", "2d"])
    def test_upper_bound_validation(self, upper):
        with pytest.raises(ValidationError):
            ok.LpProblem(np.ones(2), upper=np.array(upper))


def _milp_solution(problem):
    """The LP by a plain scipy.optimize.milp call with highs_solve's HiGHS
    tolerances: milp's status code and its point, with the entries within
    1e-9 below 0 set to 0 as highs_solve sets them (None with no point)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    res = milp(-problem.objective,
               bounds=Bounds(0.0, math.inf if problem.upper is None else problem.upper),
               constraints=LinearConstraint(
                   np.vstack([problem.a_ub, problem.a_eq]),
                   np.concatenate([np.full(problem.b_ub.size, -math.inf), problem.b_eq]),
                   np.concatenate([problem.b_ub, problem.b_eq])),
               options=dict(ok._HIGHS_TOLERANCES))
    if res.x is None:
        return res.status, None
    return res.status, np.where((res.x < 0.0) & (res.x > -1e-9), 0.0, res.x)


@pytest.mark.filterwarnings("ignore:Unrecognized options:RuntimeWarning")
def test_highs_binding_ends_where_milp_ends_bit_for_bit(monkeypatch):
    # highs_solve hands HiGHS, through scipy's private binding, the model
    # and options that milp hands it: the density LPs of general_dual's hull
    # markets (n = 10, 20, 60, plain and inflated), the membership LPs of
    # user densities and an infeasible density LP end as milp's do, to the
    # last bit of every point.
    lps = []
    highs_solve = ok.highs_solve
    monkeypatch.setattr(ok, "highs_solve", lambda problem: lps.append(problem) or highs_solve(problem))
    for n in (10, 20, 60):
        for seed in range(3):
            for inflated in (False, True):
                market, x = general_dual_hull_market(np.random.default_rng([n, seed]), n, inflated)
                rs.value(market, x)
    assert len(lps) == 18  # one density LP per market; its weights certify it
    rng = np.random.default_rng(32)
    for n in (10, 60, 200):
        sp, dmat = spread_scenario_set(n, n=n)
        for gamma in (1.0, 2.0):
            for q in (dmat[1], 0.5 * (dmat[0] + dmat[2]), random_density(rng, sp).q):
                ok._admits(sp, ok.DensityConstraints(hulls=((gamma, dmat),)), q)
    assert len(lps) == 36
    with pytest.raises(InfeasibleError):
        ok._linear_density_lp(rs.ProbSpace([0.5, 0.5]), np.array([0.0, 1.0]),
                              ok.DensityConstraints(cap=1.2, hulls=((1.0, np.array([[1.8, 0.2]])),)))
    infeasible = lps.pop()
    assert highs_solve(infeasible).status == "infeasible"
    assert _milp_solution(infeasible) == (2, None)
    for problem in lps:
        got = highs_solve(problem)
        status, point = _milp_solution(problem)
        assert (got.status, status) == ("optimal", 0)
        assert got.point.tobytes() == point.tobytes()
        assert got.value == float(problem.objective @ point)


def test_point_that_misses_is_solved_again_by_interior_point(monkeypatch):
    # The stub problem's optimum is q = (0.8, 1.2), lam = (0.6, 0.4). A
    # simplex point over the cap is replaced by the interior-point run's.
    runs = []
    highs_run = ok._highs_run

    def missing_simplex(lp, solver):
        runs.append(solver)
        if solver == "choose":
            return "optimal", np.array([0.5, 1.5, 0.0, 1.0])
        return highs_run(lp, solver)

    monkeypatch.setattr(ok, "_highs_run", missing_simplex)
    q, value, (lam,) = ok._linear_density_lp(_STUB_SPACE, np.array([0.0, 1.0]),
                                             _STUB_CONSTRAINTS)
    assert runs == ["choose", "ipm"]
    assert abs(value - 0.6) <= 1e-12 and np.allclose(q, [0.8, 1.2], atol=1e-12)
    assert np.allclose(lam, [0.6, 0.4], atol=1e-12)


def test_interior_point_run_that_fails_raises_the_simplex_miss(monkeypatch):
    monkeypatch.setattr(ok, "_highs_run", lambda lp, solver: (
        ("optimal", np.array([0.5, 1.5, 0.0, 1.0])) if solver == "choose"
        else ("iteration limit reached", None)))
    with pytest.raises(ConvergenceError, match="upper bound residual") as err:
        ok._linear_density_lp(_STUB_SPACE, np.array([0.0, 1.0]), _STUB_CONSTRAINTS)
    assert abs(err.value.residual - 0.3) <= 1e-12


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
            q, val, _ = ok._maximize(sp, sp.rv(x), 0.0,
                                  ok.DensityConstraints(cap=1.0 / alpha))
            assert val == pytest.approx(rs.rho(rs.ExpectedShortfall(alpha), sp, x),
                                        abs=1e-9)
            assert np.max(q) <= 1.0 / alpha + 1e-8

    def test_entropic_score_recovers_gibbs_density(self):
        # The capped Gibbs path with caps that never bind against the
        # entropic closed form exp(x / kappa) / E_P[exp(x / kappa)].
        sp = rs.ProbSpace([0.2, 0.3, 0.5])
        x = sp.rv([1.0, 2.0, 3.0])
        q, val, _ = ok._maximize(sp, sp.rv(x), 1.5, ok.DensityConstraints(cap=10.0))
        want = rs.dual_solve(rs.Entropic(1.5), sp, x)[1]
        assert np.max(np.abs(q - want.q)) <= 1e-6
        assert val == pytest.approx(rs.rho(rs.Entropic(1.5), sp, x), abs=1e-9)

    def test_entropic_score_warm_start_matches_closed_form(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            kappa = float(rng.uniform(0.3, 3.0))
            q, val, _ = ok._maximize(sp, sp.rv(x), kappa, ok.DensityConstraints())
            assert val == pytest.approx(rs.rho(rs.Entropic(kappa), sp, x), abs=1e-9)
            want = rs.dual_solve(rs.Entropic(kappa), sp, x)[1]
            assert np.max(np.abs(q - want.q)) <= 1e-6

    def test_constant_payoff_gives_constant_value(self):
        sp = rs.ProbSpace([0.25, 0.75])
        c = 1.5
        q, val, _ = ok._maximize(sp, sp.rv(np.full(2, c)), 0.8, ok.DensityConstraints())
        # minimal penalty is KL = 0 at the reference density
        assert val == pytest.approx(c, abs=1e-9)
        assert np.max(np.abs(q - 1.0)) <= 1e-6

    def test_solution_satisfies_constraints_within_tolerance(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            cap = float(rng.uniform(1.2, 3.0))
            kappa = float(rng.uniform(0.0, 2.0))
            q, _, _ = ok._maximize(sp, sp.rv(x), kappa, ok.DensityConstraints(cap=cap))
            assert np.max(q - cap) <= 1e-8
            assert np.min(q) >= -1e-8
            assert abs(float(np.dot(sp.probs, q)) - 1.0) <= 1e-8

    def test_member_hull_restricts_to_hull(self):
        rng = np.random.default_rng(20)
        sp = random_space(rng, max_states=5)
        x = random_rv(rng, sp)
        d1 = random_density(rng, sp)
        d2 = random_density(rng, sp)
        hull = np.vstack([d1.q, d2.q])
        q, val, _ = ok._maximize(sp, sp.rv(x), 0.0, ok.DensityConstraints(hulls=((1.0, hull),)))
        want = max(rs.expect_under(sp, d1, x), rs.expect_under(sp, d2, x))
        assert val == pytest.approx(want, abs=1e-9)

    def test_hull_width_must_match_the_space(self):
        sp = rs.ProbSpace([0.1, 0.2, 0.3, 0.4])
        hull = np.ones((2, 3))
        for constraints in (ok.DensityConstraints(hulls=((1.0, hull),)),
                            ok.DensityConstraints(hulls=((1.5, hull),))):
            with pytest.raises(ValidationError, match="3 entries"):
                ok._maximize(sp, sp.rv(np.arange(4.0)), 0.0, constraints)

    def test_hull_rows_must_have_unit_mass(self):
        sp = rs.ProbSpace([0.25, 0.25, 0.5])
        hull = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 0.6]])  # masses 1 and 1.05
        for constraints in (ok.DensityConstraints(hulls=((1.0, hull),)),
                            ok.DensityConstraints(hulls=((1.5, hull),))):
            with pytest.raises(ValidationError, match="P-expectation 1.05"):
                ok._maximize(sp, sp.rv(np.arange(3.0)), 0.0, constraints)

    def test_nonconvergence_reports_best_iterate(self, monkeypatch):
        # A certificate above tolerance surfaces the point and its residual.
        # The cap of 10 never binds here but selects the capped Gibbs path.
        monkeypatch.setattr(ok, "_KKT_TOL", -1.0)
        sp = rs.ProbSpace([0.2, 0.3, 0.5])
        x = sp.rv([1.0, 2.0, 3.0])
        with pytest.raises(ConvergenceError) as info:
            ok._maximize(sp, x, 1.5, ok.DensityConstraints(cap=10.0))
        want = rs.dual_solve(rs.Entropic(1.5), sp, x)[1].q
        assert np.max(np.abs(info.value.best_point - want)) <= 1e-6
        assert 0.0 <= info.value.residual <= 1e-9

    def test_unit_cap_with_kl_weight_is_the_reference_density(self, monkeypatch):
        # A cap of 1 admits only q = 1, the Gibbs point at theta = -inf; its
        # certificate is exact.
        sp = rs.ProbSpace([0.2, 0.3, 0.5])
        x = sp.rv([1.0, -2.0, 0.5])
        q, val, _ = ok._maximize(sp, x, 0.7, ok.DensityConstraints(cap=1.0))
        assert np.array_equal(q, np.ones(3))
        assert val == float(np.dot(sp.probs, x))
        monkeypatch.setattr(ok, "_KKT_TOL", -1.0)
        with pytest.raises(ConvergenceError) as info:
            ok._maximize(sp, x, 0.7, ok.DensityConstraints(cap=1.0))
        assert info.value.residual == 0.0

    def test_kkt_residual_separates_the_optimum_from_other_densities(self, monkeypatch):
        # The solve certifies its point at the multiplier it solved for: the
        # optimum's residual is at rounding level, while a projection that
        # lands elsewhere (the all-ones density) is far from the Gibbs point.
        rng = np.random.default_rng(21)
        markets = []
        for _ in range(20):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            markets.append((sp, sp.rv(x), ok.DensityConstraints(cap=float(rng.uniform(1.2, 3.0)))))
        with monkeypatch.context() as patch:
            patch.setattr(ok, "_KKT_TOL", -1.0)
            for sp, x, constraints in markets:
                with pytest.raises(ConvergenceError) as info:
                    ok._maximize(sp, x, 0.8, constraints)
                assert info.value.residual <= 1e-12
        monkeypatch.setattr(ok, "project_to_density",
                            lambda space, v, cap: np.ones(space.n_states))
        for sp, x, constraints in markets:
            with pytest.raises(ConvergenceError) as info:
                ok._maximize(sp, x, 0.8, constraints)
            assert info.value.residual > 1e-3

    def test_deterministic(self):
        sp = rs.ProbSpace([0.2, 0.3, 0.5])
        x = sp.rv([1.0, 2.0, 3.0])
        runs = [ok._maximize(sp, x, 0.7, ok.DensityConstraints()) for _ in range(2)]
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][0], runs[1][0])


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
    def test_caps_only_value_matches_highs_solve(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(2):
            market, x, cap = _caps_market(rng, n)
            p = market.space.probs
            res = rs.value(market, x)
            problem = ok.LpProblem(objective=p * x, a_ub=np.eye(n), b_ub=np.full(n, cap),
                                   a_eq=p.reshape(1, -1), b_eq=np.ones(1))
            sol = ok.highs_solve(problem)
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
            q, val, _ = ok._maximize(space, x, 0.0, ok.DensityConstraints(hulls=((1.0, dmat),)))
            assert val == scores[best]
            assert np.array_equal(q, dmat[best])


@pytest.mark.parametrize("n", [100, 200, 500])
def test_capped_gibbs_matches_the_water_filling_oracle(n):
    # KL weight log-uniform on [1e-2, 10], caps on [1.01, 33], losses spread
    # over 0.5 to 12 kappa: from no capped state to dozens, and at the widest
    # spreads the projection zeroes the smallest Gibbs weights.
    rng = np.random.default_rng(90 + n)
    for scale in (0.5, 2.0, 4.0, 8.0, 12.0) * 2:
        space = rs.ProbSpace(_probs(rng, n))
        kappa = float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0))))
        cap = float(rng.uniform(1.01, 33.0))
        x = space.rv(kappa * scale * rng.normal(0.0, 1.0, n))
        q, val, _ = ok._maximize(space, x, kappa, ok.DensityConstraints(cap=cap))
        want_q, want_val = capped_gibbs_oracle(space.probs, x, kappa, cap)
        assert np.max(space.probs * np.abs(q - want_q)) <= 1e-12
        assert abs(val - want_val) <= 1e-12 * abs(want_val)


@pytest.mark.parametrize("kappa", [1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("n", [100, 500])
def test_capped_gibbs_far_below_the_loss_spread_is_certified(n, kappa):
    # P uniform on [0.2, 1], x = 3 N(0, 1), caps on [1.05, 20]: one ulp of
    # theta moves a free exponent by up to 1e-4 here, so the bisection
    # alone leaves the P-mass off 1 (it raised on 14 and 20 of these 20
    # draws at n = 100, kappa = 1e-10 and 1e-12). The value lies between
    # the bounds of the penalty, each loosened by what the KKT tolerance
    # lets the certified point move the value: n * 1e-9 * max|x|.
    for seed in range(20):
        rng = np.random.default_rng([n, seed])
        p = rng.uniform(0.2, 1.0, n)
        space = rs.ProbSpace(p / p.sum())
        x = space.rv(3.0 * rng.normal(0.0, 1.0, n))
        cap = float(rng.uniform(1.05, 20.0))
        q, value, _ = ok._maximize(space, x, kappa, ok.DensityConstraints(cap=cap))
        es = float(np.dot(space.probs, ok.sorting_rule_point(space, x, cap) * x))
        slack = n * ok._KKT_TOL * float(np.max(np.abs(x)))
        assert max(float(space.probs @ x), es - kappa * math.log(cap)) - slack <= value
        assert value <= es + slack
        assert abs(float(space.probs @ q) - 1.0) <= ok._KKT_TOL
        assert float(q.max()) <= cap + ok._KKT_TOL


def _scenario_rows(rng, p, j):
    """j densities on P: P itself, then Gamma(1, 1) draws scaled to P-mass
    1, every third with about a third of its states at 0."""
    rows = [np.ones(p.size)]
    while len(rows) < j:
        w = rng.gamma(1.0, size=p.size) + 1e-3
        if len(rows) % 3 == 2:
            w[rng.random(p.size) < 0.3] = 0.0
        rows.append(w / float(p @ w))
    return np.vstack(rows)


@pytest.mark.parametrize("n", [100, 500])
class TestInflatedHull:
    """The closed form for one inflated scenario set, against
    tests/oracle.inflated_hull_oracle. Each case also checks that
    atom_risks is rho bit for bit, and that the kernel's own t* gives a
    Rockafellar-Uryasev upper bound equal to the value (the second side of
    its gap)."""

    @staticmethod
    def _check(space, dmat, xs, gammas):
        scen = rs.ScenarioSet(tuple(space.density(d) for d in dmat))
        specs = tuple(rs.Inflation(scen, float(g)) for g in gammas)
        values, q, t, _ = ok._inflated_block(space.probs, scen.matrix(), xs,
                                          np.asarray(gammas, dtype=float))
        risks = rs.atom_risks(rs.RiskFamily(specs), space, rs.Allocation(xs)).tolist()
        assert risks == [rs.rho(spec, space, x) for spec, x in zip(specs, xs)] == values
        p = space.probs
        for x, g, value, t_star in zip(xs, gammas, values, t):
            want = inflated_hull_oracle(p, dmat, x, g)
            bound = t_star + g * float(np.max((np.maximum(x - t_star, 0.0) * p) @ dmat.T))
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
            assert abs(bound - value) <= 1e-12 * max(1.0, abs(want))
        return q, t

    def test_crossings_inside_a_segment(self, n):
        rng = np.random.default_rng(300 + n)
        space = rs.ProbSpace(_probs(rng, n))
        dmat = _scenario_rows(rng, space.probs, 6)
        xs = rng.normal(0.0, 2.0, (16, n))
        _, t = self._check(space, dmat, xs, rng.uniform(1.2, 4.0, len(xs)))
        # Some optima sit at a crossing of two scenarios, not at a loss value.
        assert any(t_star not in set(x.tolist()) for x, t_star in zip(xs, t))

    def test_ties_with_negative_zero(self, n):
        rng = np.random.default_rng(310 + n)
        space = rs.ProbSpace(_probs(rng, n))
        dmat = _scenario_rows(rng, space.probs, 5)
        xs = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], (16, n))
        self._check(space, dmat, xs, rng.uniform(1.2, 4.0, len(xs)))

    def test_the_reference_alone_is_expected_shortfall(self, n):
        rng = np.random.default_rng(320 + n)
        space = rs.ProbSpace(_probs(rng, n))
        xs = rng.normal(0.0, 2.0, (8, n))
        xs[::2] = np.round(xs[::2])
        gammas = rng.uniform(1.05, 10.0, len(xs))
        self._check(space, np.ones((1, n)), xs, gammas)
        for x, g in zip(xs, gammas):
            want = es_lp_oracle(space, 1.0 / g, x)
            got = ok._maximize(space, x, 0.0, ok.DensityConstraints(hulls=((g, np.ones((1, n))),)))
            assert abs(got[1] - want) <= 1e-12 * max(1.0, abs(want))

    def test_gamma_just_above_one(self, n):
        rng = np.random.default_rng(330 + n)
        space = rs.ProbSpace(_probs(rng, n))
        dmat = _scenario_rows(rng, space.probs, 4)
        xs = rng.normal(0.0, 2.0, (6, n))
        self._check(space, dmat, xs, [1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6] * 2)

    def test_gamma_large_enough_to_pile_on_the_worst_state(self, n):
        rng = np.random.default_rng(340 + n)
        space = rs.ProbSpace(_probs(rng, n))
        dmat = _scenario_rows(rng, space.probs, 4)
        xs = rng.normal(0.0, 2.0, (6, n))
        q, _ = self._check(space, dmat, xs, 2.0 / space.probs.min() * np.ones(len(xs)))
        for x, row in zip(xs, q):
            assert np.flatnonzero(row).tolist() == [int(np.argmax(x))]


def test_spread_hull_admits_its_own_vertices():
    # Each row of a spread scenario set, at gamma 1 and 2, is a member of
    # the hull: 60 sets of J = 4 at n = 200, 480 membership LPs.
    for seed in range(60):
        sp, dmat = spread_scenario_set(seed)
        for gamma in (1.0, 2.0):
            constraints = ok.DensityConstraints(hulls=((gamma, dmat),))
            for q in dmat:
                assert ok._admits(sp, constraints, q), (seed, gamma)


def test_membership_lp_that_ends_unbounded_is_a_solver_failure(monkeypatch):
    # A solver failure exits 3, not 2 ("bad input"), at gamma 1 as at 2.
    sp, dmat = spread_scenario_set(0, n=6)
    monkeypatch.setattr(ok, "highs_solve", lambda problem: ok.LpSolution("unbounded"))
    for gamma in (1.0, 2.0):
        with pytest.raises(ConvergenceError, match="membership LP ended with status unbounded"):
            ok._admits(sp, ok.DensityConstraints(hulls=((gamma, dmat),)), dmat[0])


def _hull_paths(rng, n):
    """A space of n states and one dual set per hull path of _maximize: the
    vertex (one plain set), one inflated set, a plain and an inflated set
    (two hulls), and an inflated set beside a cap; J = n // 20 + 2 rows
    from _scenario_rows, P among them, so every set is feasible."""
    space = rs.ProbSpace(_probs(rng, n))
    plain, other = (_scenario_rows(rng, space.probs, n // 20 + 2) for _ in range(2))
    gamma, cap = rng.uniform(1.2, 3.0, 2)
    return space, {"vertex": ok.DensityConstraints(hulls=((1.0, plain),)),
                   "inflated": ok.DensityConstraints(hulls=((gamma, plain),)),
                   "two_hulls": ok.DensityConstraints(hulls=((1.0, plain), (gamma, other))),
                   "cap": ok.DensityConstraints(cap=1.0 + cap, hulls=((gamma, other),))}


def _lp_verdict(constraints, q):
    """Membership by the cap and one membership LP per hull, no weights."""
    return bool(q.max() <= constraints.cap + ok.MEMBERSHIP_TOL
                and all(ok._dominated(gamma, d, q) for gamma, d in constraints.hulls))


def _feasible_by_ipm(linprog, constraints, q):
    """Membership by the smallest worst violation min over lam on the
    simplex of max_i (q - gamma * D^T lam)_i per hull, an LP in the primal
    form solved by HiGHS's interior-point method."""
    if not q.max() <= constraints.cap + ok.MEMBERSHIP_TOL:
        return False
    for gamma, dmat in constraints.hulls:
        j, n = dmat.shape
        res = linprog(np.concatenate([np.zeros(j), [1.0]]),
                      A_ub=np.hstack([-gamma * dmat.T, -np.ones((n, 1))]), b_ub=-q,
                      A_eq=np.concatenate([np.ones(j), [0.0]])[None], b_eq=[1.0],
                      bounds=[(0.0, None)] * j + [(None, None)], method="highs-ipm")
        assert res.status == 0
        if res.fun > ok.MEMBERSHIP_TOL:
            return False
    return True


@pytest.mark.parametrize("n", [100, 200, 500])
def test_hull_weights_give_the_membership_lps_verdict(monkeypatch, n):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(400 + n)
    space, duals = _hull_paths(rng, n)
    lps = []
    highs_solve = ok.highs_solve
    monkeypatch.setattr(ok, "highs_solve", lambda problem: lps.append(1) or highs_solve(problem))

    def admits(constraints, q, weights=None):
        lps.clear()
        return ok._admits(space, constraints, q, weights), len(lps)

    for path, constraints in duals.items():
        x = space.rv(rng.normal(0.0, 1.0, n))
        q, _, weights = ok._maximize(space, x, 0.0, constraints)
        # The kernel's weights settle every hull: no LP, the LPs' verdict.
        assert admits(constraints, q, weights) == (True, 0), path
        assert _lp_verdict(constraints, q), path
        # Weights moved to another scenario: that hull alone takes its LP.
        for h, lam in enumerate(weights):
            moved = list(weights)
            moved[h] = np.roll(lam, 1)
            assert admits(constraints, q, tuple(moved)) == (_lp_verdict(constraints, q), 1), path
        # q raised by 1e-6 in its tightest state, where no cap binds (beside
        # a cap every tight state may sit at the cap).
        if path in ("vertex", "inflated"):
            (gamma, dmat), = constraints.hulls
            raised = q.copy()
            raised[np.argmin(gamma * weights[0] @ dmat - q)] += 1e-6
            assert admits(constraints, raised, weights) == (_lp_verdict(constraints, raised), 1), path
        # Densities from outside the kernel take the LP when they meet the cap.
        lam = rng.dirichlet(np.ones(len(constraints.hulls[0][1])))
        for outside in (random_density(rng, space).q, 0.9 * (lam @ constraints.hulls[0][1])):
            verdict, made = admits(constraints, outside)
            assert made >= (outside.max() <= constraints.cap + ok.MEMBERSHIP_TOL), path
            assert verdict == _feasible_by_ipm(linprog, constraints, outside), path


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
        want = highs_ipm_density_lp(linprog, sp.probs, x, 1.0 / alpha,
                                    [(g, hull.matrix()) for hull, g in zip(sets, gammas)])
        assert abs(rs.value(market, x).value - want) <= 1e-9


@pytest.mark.parametrize("n", [60, 100])
@pytest.mark.parametrize("with_es", [False, True], ids=["two_inflated", "es_inflated"])
def test_aim_three_hull_market_is_valued(n, with_es):
    # Markets at aim-3 sizes (J = 21 and 34 scenarios per set) whose dual
    # is one density LP: no exception, and the value of an independent LP
    # solve with a zero duality gap.
    linprog = pytest.importorskip("scipy.optimize").linprog
    for seed in range(4):
        market, x, cap, hulls = aim_three_hull_market(np.random.default_rng([n, seed]), n, with_es)
        res = rs.value(market, x)
        want = highs_ipm_density_lp(linprog, market.space.probs, x, cap, hulls)
        assert abs(res.value - want) <= 1e-9 * max(1.0, abs(want)), seed
        assert abs(res.duality_gap) <= 1e-9


@pytest.mark.parametrize("seed", [5, 36])
def test_aim_three_market_at_500_states_is_valued(seed):
    # HiGHS's simplex point misses a hull row by 3.6e-9 (seed 5) and 5.4e-8
    # (seed 36), past the 1e-9 check; the interior-point run mends it. The
    # reference also runs HiGHS's interior-point method, on the primal LP.
    linprog = pytest.importorskip("scipy.optimize").linprog
    market, x, cap, hulls = aim_three_hull_market(np.random.default_rng([500, seed]), 500, False)
    res = rs.value(market, x)
    want = highs_ipm_density_lp(linprog, market.space.probs, x, cap, hulls)
    assert abs(res.value - want) <= 1e-9 * max(1.0, abs(want))
    assert abs(res.duality_gap) <= 1e-9


# Two states under P = (1/2, 1/2), one scenario set D with the cap 1.2: the
# density LP over (q, lam), q <= D^T lam, E_P[q] = 1, sum(lam) = 1, q <= 1.2.
_STUB_SPACE = rs.ProbSpace([0.5, 0.5])
_STUB_CONSTRAINTS = ok.DensityConstraints(
    cap=1.2, hulls=((1.0, np.array([[1.0, 1.0], [0.5, 1.5]])),))


def _stub_highs_run(monkeypatch, status, x=None):
    """Every HiGHS run, simplex and interior point alike, ends in status at x."""
    monkeypatch.setattr(ok, "_highs_run", lambda lp, solver: (status, x))


def test_density_lp_returns_the_stub_problems_optimum_and_weights():
    q, value, (lam,) = ok._linear_density_lp(_STUB_SPACE, np.array([0.0, 1.0]),
                                             _STUB_CONSTRAINTS)
    assert abs(value - 0.6) <= 1e-12 and np.allclose(q, [0.8, 1.2], atol=1e-12)
    assert np.allclose(lam, [0.6, 0.4], atol=1e-12)  # q = D^T lam


def test_highs_infeasible_is_infeasible_error(monkeypatch):
    _stub_highs_run(monkeypatch, "infeasible")
    with pytest.raises(InfeasibleError):
        ok._linear_density_lp(_STUB_SPACE, np.array([0.0, 1.0]), _STUB_CONSTRAINTS)


@pytest.mark.parametrize("status", ["iteration limit reached", "unbounded", "solve error"],
                         ids=["limit", "unbounded", "other"])
def test_highs_non_optimal_ending_is_convergence_error(monkeypatch, status):
    _stub_highs_run(monkeypatch, status)
    with pytest.raises(ConvergenceError):
        ok._linear_density_lp(_STUB_SPACE, np.array([0.0, 1.0]), _STUB_CONSTRAINTS)


def test_highs_point_over_the_cap_is_convergence_error(monkeypatch):
    # q = D^T lam at lam = (0, 1) meets every row, but q_2 = 1.5 > 1.2.
    _stub_highs_run(monkeypatch, "optimal", np.array([0.5, 1.5, 0.0, 1.0]))
    with pytest.raises(ConvergenceError, match="upper bound residual") as err:
        ok._linear_density_lp(_STUB_SPACE, np.array([0.0, 1.0]), _STUB_CONSTRAINTS)
    assert abs(err.value.residual - 0.3) <= 1e-12


def test_es_cap_that_excludes_the_scenario_hull_is_ill_posed():
    sp = rs.ProbSpace([0.5, 0.5])
    hull = rs.ScenarioSet((sp.density([1.8, 0.2]),))
    market = rs.Market.general(sp, rs.finite_agents(2), rs.RiskFamily(
        (rs.ExpectedShortfall(0.8), hull)))  # cap 1.25 < 1.8
    with pytest.raises(IllPosedError):
        rs.value(market, [1.0, 0.0])


def _bisected_capped_gibbs(space, x, kappa, cap):
    """The capped Gibbs point with theta from exactly 200 bisection steps,
    each bracket loop restarting from the step kappa + max|x|; also
    returns whether theta lies below 0 (the mass at 0 was below 1)."""
    p = space.probs

    def point(theta):
        return np.minimum(cap, np.exp(np.minimum((x - theta) / kappa - 1.0, 700.0)))

    lo = hi = 0.0
    step = kappa + float(np.max(np.abs(x)))
    while float(np.dot(p, point(lo))) < 1.0:
        lo -= step
        step *= 2.0
    step = kappa + float(np.max(np.abs(x)))
    while float(np.dot(p, point(hi))) > 1.0:
        hi += step
        step *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.dot(p, point(mid))) >= 1.0:
            lo = mid
        else:
            hi = mid
    q = ok.project_to_density(space, point(0.5 * (lo + hi)), cap)
    value = float(np.dot(p, x * q)) - kappa * rs.kl_divergence(space, space.density(q))
    return q, value, lo < 0.0


@pytest.mark.parametrize("n", [3, 100, 300])
def test_capped_gibbs_bisection_stops_where_200_steps_end(n):
    # KL weight log-uniform on [1e-3, 1e3], caps on [1.01, 40], losses
    # spread over 0.1 to 10 kappa and offset by up to 1e3 either way, so
    # theta is bracketed below 0 in some draws and above it in others.
    rng = np.random.default_rng(23 + n)
    sides = set()
    for _ in range(40):
        space = rs.ProbSpace(_probs(rng, n))
        kappa = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        cap = float(rng.uniform(1.01, 40.0))
        spread = kappa * float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        offset = float(rng.uniform(-1e3, 1e3))
        x = space.rv(offset + spread * rng.normal(0.0, 1.0, n))
        q, value, _ = ok._maximize(space, x, kappa, ok.DensityConstraints(cap=cap))
        want_q, want_value, below = _bisected_capped_gibbs(space, x, kappa, cap)
        assert q.tobytes() == want_q.tobytes()
        assert value == want_value
        sides.add(below)
    assert sides == {True, False}


@pytest.mark.parametrize("n", [12, 16, 100, 500])
def test_block_under_row_plan_is_maximize_row_by_row(monkeypatch, n):
    # Gibbs rows (flat ones at kappa >= 1e9 among them), sorting-rule rows
    # on tied losses with -0.0 beside 0.0, a capped Gibbs row, a plain
    # scenario set, two inflations of one set and a cap beside a hull,
    # which takes a density LP, in shuffled order.
    rng = np.random.default_rng(230 + n)
    space = rs.ProbSpace(_probs(rng, n))
    plain = ok.DensityConstraints(hulls=((1.0, random_scenario_set(rng, space, 5).matrix()),))
    duals = [(float(k), ok.DensityConstraints()) for k in (0.05, 0.3, 1.0, 4.0, 1e9, 3e12)]
    duals += [(0.0, ok.DensityConstraints(cap=c))
              for c in (math.inf, 1.0, 4.0 / 3.0, 2.0, n / 3.0 + 1.0, float(n))]
    hull = random_scenario_set(rng, space, 6).matrix()
    duals += [(0.7, ok.DensityConstraints(cap=3.0)), (0.0, plain),
              (0.0, ok.DensityConstraints(hulls=((1.8, hull),))),
              (0.0, ok.DensityConstraints(hulls=((1.0 + 1e-9, hull),))),
              (0.0, ok.DensityConstraints(cap=2.5, hulls=((1.0, hull),)))]
    duals = [duals[i] for i in rng.permutation(len(duals))] * 3
    xs = rng.normal(0.0, 2.0, (len(duals), n))
    xs[::2] = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], (len(xs[::2]), n))

    plan = ok._row_plan(duals)
    gibbs, kappa, sort, cap, hulls, other = plan
    assert gibbs.tolist() == [i for i, (k, c) in enumerate(duals)
                              if k > 0.0 and c.cap == math.inf and not c.hulls]
    assert kappa.tolist() == [duals[i][0] for i in gibbs]
    assert sort.tolist() == [i for i, (k, c) in enumerate(duals) if k == 0.0 and not c.hulls]
    assert cap.tolist() == [duals[i][1].cap for i in sort]
    # The two inflations share one matrix object: one group.
    (matrix, inflated, gammas), = hulls
    assert matrix is hull
    assert inflated.tolist() == [i for i, (k, c) in enumerate(duals)
                                 if c.cap == math.inf and len(c.hulls) == 1 and c.hulls[0][0] > 1.0]
    assert gammas.tolist() == [duals[i][1].hulls[0][0] for i in inflated]
    assert [i for i, _, _ in other] == sorted(
        set(range(len(duals))) - set(gibbs) - set(sort) - set(inflated))

    lp_calls = [0]
    highs_solve = ok.highs_solve

    def counted(problem):
        lp_calls[0] += 1
        return highs_solve(problem)

    monkeypatch.setattr(ok, "highs_solve", counted)
    got = ok._maximize_block(space, xs, plan).tolist()
    block_lps = lp_calls[0]
    want = [ok._maximize(space, x, k, c)[1] for x, (k, c) in zip(xs, duals)]
    assert got == want
    # Only the cap-beside-hull rows take the density LP.
    assert block_lps == lp_calls[0] - block_lps == 3


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_row_plan_rejects_a_kl_weight_that_is_not_finite(bad):
    space = rs.ProbSpace([0.25, 0.75])
    with pytest.raises(ValidationError) as solo:
        ok._maximize(space, np.array([1.0, -0.5]), bad, ok.DensityConstraints())
    rows = [(1.0, ok.DensityConstraints()), (0.0, ok.DensityConstraints(cap=2.0)),
            (0.0, ok.DensityConstraints(hulls=((1.0, np.ones((1, 2))),)))]
    for at in range(len(rows) + 1):
        duals = rows[:at] + [(bad, ok.DensityConstraints())] + rows[at:]
        with pytest.raises(ValidationError) as planned:
            ok._row_plan(duals)
        assert str(planned.value) == str(solo.value) == f"the KL weight must be finite, got {bad!r}"


def _same_plan(got, want):
    for a, b in zip(got[:4], want[:4]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert len(got[4]) == len(want[4])
    for (d, rows, gammas), (want_d, want_rows, want_gammas) in zip(got[4], want[4]):
        assert d is want_d
        assert rows.tobytes() == want_rows.tobytes()
        assert gammas.tobytes() == want_gammas.tobytes()
    assert len(got[5]) == len(want[5])
    for (i, k, c), (want_i, want_k, want_c) in zip(got[5], want[5]):
        assert (i, k, c.cap) == (want_i, want_k, want_c.cap)
        assert [(g, d) for g, d in c.hulls] == [(g, d) for g, d in want_c.hulls]


def test_uniform_plan_groups_rows_as_row_plan_does():
    # Per-row and shared parameters: KL weights with zeros (an underflowed
    # dilation), caps beside KL weights, hull gammas at and above 1, and a
    # cap beside a hull.
    rng = np.random.default_rng(240)
    n = 60
    dmat = random_scenario_set(rng, rs.ProbSpace(_probs(rng, 5)), 3).matrix()
    kappa = rng.choice([0.0, 0.5, 2.0], n)
    cap = rng.choice([math.inf, 1.5, 4.0], n)
    gamma = rng.choice([1.0, 1.0 + 1e-9, 3.0], n)
    for k, c, hull in ((kappa, math.inf, None), (kappa, cap, None), (0.0, cap, None),
                       (kappa, 2.0, None), (1.5, math.inf, None),
                       (0.0, math.inf, (gamma, dmat)), (kappa, cap, (gamma, dmat)),
                       (0.0, 2.0, (1.5, dmat)), (0.0, math.inf, (1.0, dmat))):
        ks, cs = np.broadcast_to(k, n), np.broadcast_to(c, n)
        hulls = [() if hull is None else ((float(g), dmat),)
                 for g in np.broadcast_to(1.0 if hull is None else hull[0], n)]
        duals = [(float(ks[i]), ok.DensityConstraints(float(cs[i]), hulls[i])) for i in range(n)]
        _same_plan(ok._uniform_plan(n, k, c, hull), ok._row_plan(duals))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_uniform_plan_rejects_the_first_kl_weight_that_is_not_finite(bad):
    kappa = [1.0, 0.0, bad, math.inf]
    with pytest.raises(ValidationError) as planned:
        ok._uniform_plan(4, kappa, math.inf)
    assert str(planned.value) == f"the KL weight must be finite, got {bad!r}"
