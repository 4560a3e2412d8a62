import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskshare as rs
from riskshare import opt_kernel as ok
from riskshare.errors import ValidationError

from oracle import es_lp_oracle
from support import (
    random_density,
    random_rv,
    random_scenario_set,
    random_space,
    random_spec,
)

ALL_VARIANTS = ("entropic", "es", "scenario", "dilation", "inflation")


class TestSpecValidation:
    def test_entropic_needs_positive_gamma(self):
        with pytest.raises(ValidationError):
            rs.Entropic(0.0)

    def test_es_quantile_range(self):
        with pytest.raises(ValidationError):
            rs.ExpectedShortfall(0.0)
        with pytest.raises(ValidationError):
            rs.ExpectedShortfall(1.5)

    def test_scenario_set_nonempty(self):
        with pytest.raises(ValidationError):
            rs.ScenarioSet(())

    def test_inflation_gamma_at_least_one(self):
        with pytest.raises(ValidationError):
            rs.Inflation(rs.ExpectedShortfall(0.5), 0.9)

    def test_inflation_rejects_entropic_base(self):
        with pytest.raises(ValidationError):
            rs.inflate(rs.Entropic(1.0), 2.0)
        with pytest.raises(ValidationError):
            rs.inflate(rs.dilate(rs.Entropic(1.0), 2.0), 2.0)

    def test_inflation_scenario_base_requires_reference(self):
        sp = rs.ProbSpace([0.5, 0.5])
        no_ref = rs.ScenarioSet((sp.density([0.0, 2.0]),))
        with pytest.raises(ValidationError):
            rs.inflate(no_ref, 2.0)

    def test_dilate_rejects_nonpositive_gamma(self):
        with pytest.raises(ValidationError):
            rs.dilate(rs.Entropic(1.0), -1.0)


class TestRhoExamples:
    @pytest.mark.parametrize("spec", [
        rs.Entropic(1.0),
        rs.ExpectedShortfall(0.5),
        rs.Dilation(rs.Entropic(1.0), 2.0),
        rs.Dilation(rs.Dilation(rs.ExpectedShortfall(0.5), 2.0), 0.5),
        rs.Inflation(rs.ExpectedShortfall(0.5), 1.5),
    ])
    @pytest.mark.parametrize("x", [[1.0, float("nan")], [1.0, float("inf")],
                                   [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_public_rho_rejects_bad_vectors(self, spec, x):
        sp = rs.ProbSpace([0.25, 0.75])
        with pytest.raises(ValidationError):
            rs.rho(spec, sp, x)

    def test_entropic_constant_is_cash(self):
        sp = rs.ProbSpace([0.25, 0.75])
        for gamma in (0.5, 1.0, 3.0):
            assert rs.rho(rs.Entropic(gamma), sp, [2.5, 2.5]) == pytest.approx(2.5, abs=1e-12)

    def test_es_alpha_one_is_expectation(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            assert rs.rho(rs.ExpectedShortfall(1.0), sp, x) == pytest.approx(
                rs.expect(sp, x), abs=1e-12)

    def test_es_half_two_states(self):
        # LP oracle value for max E_Q[x] with 0 <= q <= 2 on p = (1/2, 1/2)
        sp = rs.ProbSpace([0.5, 0.5])
        x = sp.rv([0.0, 1.0])
        assert es_lp_oracle(sp, 0.5, x) == pytest.approx(1.0, abs=1e-12)
        assert rs.rho(rs.ExpectedShortfall(0.5), sp, x) == pytest.approx(1.0, abs=1e-12)

    def test_entropic_closed_form_against_direct_sum(self):
        sp = rs.ProbSpace([0.5, 0.5])
        x = sp.rv([0.0, 1.0])
        direct = math.log(math.fsum([0.5 * math.exp(0.0), 0.5 * math.exp(1.0)]))
        assert rs.rho(rs.Entropic(1.0), sp, x) == pytest.approx(direct, abs=1e-14)
        assert direct == pytest.approx(math.log((1.0 + math.e) / 2.0), abs=1e-14)

    def test_entropic_stable_for_tiny_gamma(self):
        sp = rs.ProbSpace([0.5, 0.5])
        x = sp.rv([0.0, 500.0])
        got = rs.rho(rs.Entropic(1e-3), sp, x)
        assert math.isfinite(got)
        # exact closed form: 500 - gamma * log 2 at this scale
        assert got == pytest.approx(500.0 - 1e-3 * math.log(2.0), abs=1e-9)

    def test_scenario_set_max_of_expectations(self):
        rng = np.random.default_rng(22)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        spec = random_scenario_set(rng, sp, 3)
        want = max(rs.expect_under(sp, d, x) for d in spec.densities)
        assert rs.rho(spec, sp, x) == pytest.approx(want, abs=1e-12)


class TestConjugateExamples:
    def test_reference_density_costs_nothing_for_coherent_variants(self):
        rng = np.random.default_rng(23)
        sp = random_space(rng)
        ones = sp.uniform_density()
        specs = [
            rs.ExpectedShortfall(0.5),
            random_scenario_set(rng, sp, 3),
            rs.inflate(rs.ExpectedShortfall(0.8), 2.0),
            rs.inflate(random_scenario_set(rng, sp, 2), 1.5),
        ]
        for spec in specs:
            pen = rs.conjugate(spec, sp, ones)
            assert pen == 0.0

    def test_entropic_conjugate_is_scaled_kl(self):
        sp = rs.ProbSpace([0.5, 0.5])
        q = sp.density([0.0, 2.0])
        pen = rs.conjugate(rs.Entropic(2.0), sp, q)
        assert pen == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_es_conjugate_infinite_beyond_cap(self):
        sp = rs.ProbSpace([0.5, 0.5])
        q = sp.density([1.9, 0.1])
        assert math.isfinite(rs.conjugate(rs.ExpectedShortfall(0.5), sp, q))
        sp3 = rs.ProbSpace([0.2, 0.8])
        q3 = sp3.density([3.0, 0.5])  # max entry 3 > 1/alpha = 2
        assert rs.conjugate(rs.ExpectedShortfall(0.5), sp3, q3) == math.inf

    def test_scenario_hull_membership(self):
        rng = np.random.default_rng(24)
        sp = random_space(rng, max_states=5)
        spec = random_scenario_set(rng, sp, 3)
        # mixtures of scenarios are members; far-away densities are not
        lam = rng.dirichlet(np.ones(3))
        mix = sp.density(sum(l * d.q for l, d in zip(lam, spec.densities)))
        assert rs.conjugate(spec, sp, mix) == 0.0
        # Every scenario is positive in every state (random_density adds
        # 1e-3 before normalising), so no mixture puts zero mass on state 1
        # and the point mass at state 0 is never in the hull.
        outside = sp.density(np.full(sp.n_states, 0.0) + np.eye(sp.n_states)[0] / sp.probs[0])
        assert rs.conjugate(spec, sp, outside) == math.inf

    @pytest.mark.parametrize("eps, finite", [(5e-10, True), (2e-9, False)])
    def test_scenario_hull_membership_cutoff_is_entrywise(self, eps, finite):
        # Hull of (1, 1) and (1.5, 0.5): its largest state-0 entry is 1.5, so
        # q = (1.5 + eps, 0.5 - eps) exceeds every hull point in state 0 by at
        # least eps, and the vertex (1.5, 0.5) attains exactly eps.
        sp = rs.ProbSpace([0.5, 0.5])
        vertex = np.array([1.5, 0.5])
        spec = rs.ScenarioSet((sp.uniform_density(), sp.density(vertex)))
        q = sp.density([1.5 + eps, 0.5 - eps])
        assert np.max(q.q - vertex) == pytest.approx(eps, rel=1e-6)
        assert math.isfinite(rs.conjugate(spec, sp, q)) is finite

    def test_dilation_scales_conjugate(self):
        rng = np.random.default_rng(25)
        sp = random_space(rng)
        q = random_density(rng, sp)
        base = rs.Entropic(0.7)
        pen = rs.conjugate(rs.Dilation(base, 3.0), sp, q)
        assert pen == pytest.approx(3.0 * rs.conjugate(base, sp, q), abs=1e-12)

    def test_penalty_never_negative_for_normalized_specs(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            sp = random_space(rng)
            spec = random_spec(rng, sp)
            q = random_density(rng, sp)
            pen = rs.conjugate(spec, sp, q)
            if math.isfinite(pen):
                assert pen >= 0.0


class TestDilate:
    def test_scenario_set_is_fixed_point(self):
        rng = np.random.default_rng(27)
        sp = random_space(rng)
        spec = random_scenario_set(rng, sp, 2)
        assert rs.dilate(spec, 5.0) is spec

    def test_dilated_unit_entropic_evaluates_as_entropic_gamma(self):
        rng = np.random.default_rng(28)
        for gamma in (0.5, 2.0, 7.0):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            got = rs.rho(rs.dilate(rs.Entropic(1.0), gamma), sp, x)
            assert got == pytest.approx(rs.rho(rs.Entropic(gamma), sp, x), abs=1e-12)

    def test_unit_dilation_is_identity(self):
        rng = np.random.default_rng(29)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        spec = rs.Entropic(1.3)
        assert rs.dilate(spec, 1.0) is spec
        assert rs.rho(rs.dilate(spec, 1.0), sp, x) == rs.rho(spec, sp, x)

    def test_dilating_es_keeps_value(self):
        # coherent measures are positively homogeneous
        rng = np.random.default_rng(30)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        spec = rs.ExpectedShortfall(0.4)
        got = rs.rho(rs.dilate(spec, 3.0), sp, x)
        assert got == pytest.approx(rs.rho(spec, sp, x), abs=1e-9)

    def test_overflowing_kl_weight_is_rejected(self):
        # dual_set folds the factor into the KL weight: 1e308 * 10 is inf.
        sp = rs.ProbSpace([0.25, 0.75])
        spec = rs.Dilation(rs.Entropic(1e308), 10.0)
        assert rs.dual_set(spec)[0] == math.inf
        for evaluate in (rs.rho, rs.dual_solve):
            with pytest.raises(ValidationError, match="KL weight must be finite"):
                evaluate(spec, sp, np.array([1.0, -0.5]))


class TestEntropicAtLargeKlWeight:
    """Far above the loss spread, rho(Entropic(k), x) is E_P x +
    Var_P(x) / (2k) up to a term of order spread^3 / k^2. Written as
    k * (shift + log mass), it cancelled: both terms near E_P[x] / k, each
    off by k * 1e-16 (0.041 for a value of -1.027 at k = 1e16)."""

    KAPPAS = (1e6, 1e8, 1e10, 1e12, 1e14, 1e16, 3e16, 1e20, 1e300)

    def _draw(self, seed, n):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.05, 1.0, n)
        sp = rs.ProbSpace(p / p.sum())
        return sp, rng.normal(0.0, 1.0, n)

    def _values(self, sp, x):
        """rho at each KL weight, one call at a time and through one
        atom_risks block, which must agree bit for bit."""
        specs = tuple(rs.Entropic(k) for k in self.KAPPAS[:-1])
        specs += (rs.Dilation(rs.Entropic(1e150), 1e150),)
        values = [rs.rho(s, sp, x) for s in specs]
        block = rs.atom_risks(rs.RiskFamily(specs), sp,
                              rs.Allocation(np.tile(x, (len(specs), 1))))
        assert block.tolist() == values
        return values

    @pytest.mark.parametrize("n", [100, 500])
    def test_matches_the_second_order_expansion(self, n):
        for seed in range(3):
            sp, x = self._draw(seed, n)
            mean = float(np.dot(sp.probs, x))
            var = float(np.dot(sp.probs, (x - mean) ** 2))
            spread = float(x.max() - x.min())
            for k, got in zip(self.KAPPAS, self._values(sp, x)):
                want = mean + var / (2.0 * k)
                assert abs(got - want) <= spread ** 3 / k / k + 1e-14 * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [8, 100, 500])
    def test_values_lie_between_the_mean_and_the_largest_loss(self, n):
        # Seed 0 at n = 8 is the draw on which the old form gave 6.70,
        # above max x = 0.041, at k = 3e16.
        for seed in range(3):
            sp, x = self._draw(seed, n)
            mean = float(np.dot(sp.probs, x))
            slack = 1e-14 * np.max(np.abs(x))  # the rounding of E_P x itself
            for got in self._values(sp, x):
                assert mean - slack <= got <= float(x.max())


class TestInflate:
    def test_inflating_reference_scenario_gives_expected_shortfall(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            gamma = float(rng.uniform(1.0, 5.0))
            only_ref = rs.ScenarioSet((sp.uniform_density(),))
            got = rs.rho(rs.inflate(only_ref, gamma), sp, x)
            want = rs.rho(rs.ExpectedShortfall(1.0 / gamma), sp, x)
            assert got == pytest.approx(want, abs=1e-9)

    def test_unit_inflation_is_identity_on_scenario_bases(self):
        rng = np.random.default_rng(32)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        spec = random_scenario_set(rng, sp, 3)
        assert rs.inflate(spec, 1.0) is spec

    def test_literal_unit_inflation_is_the_plain_set_without_lp(self, monkeypatch):
        # Inflation(S, 1.0) admits S's hull, so it takes S's vertex maximum.
        calls = []
        real = ok.highs_solve
        monkeypatch.setattr(ok, "highs_solve", lambda problem: calls.append(1) or real(problem))
        rng = np.random.default_rng(34)
        for _ in range(20):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            spec = random_scenario_set(rng, sp, int(rng.integers(1, 5)))
            literal = rs.Inflation(spec, 1.0)
            assert rs.rho(literal, sp, x) == rs.rho(spec, sp, x)
            got, want = rs.dual_solve(literal, sp, x), rs.dual_solve(spec, sp, x)
            assert got[0] == want[0]
            assert np.array_equal(got[1].q, want[1].q)
        assert calls == []

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            base = rs.ExpectedShortfall(float(rng.uniform(0.4, 1.0)))
            values = [rs.rho(rs.inflate(base, g), sp, x) for g in (1.0, 1.5, 2.5, 4.0)]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-9

    def test_inflating_plain_expectation_gives_expected_shortfall(self):
        rng = np.random.default_rng(134)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        for gamma in (1.0, 2.0, 3.5):
            got = rs.rho(rs.inflate(rs.ExpectedShortfall(1.0), gamma), sp, x)
            assert got == pytest.approx(
                rs.rho(rs.ExpectedShortfall(1.0 / gamma), sp, x), abs=1e-9)

    def test_inflated_es_equals_rescaled_quantile(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            sp = random_space(rng)
            x = random_rv(rng, sp)
            alpha = float(rng.uniform(0.3, 1.0))
            gamma = float(rng.uniform(1.0, 1.0 / alpha))
            got = rs.rho(rs.inflate(rs.ExpectedShortfall(alpha), gamma), sp, x)
            want = rs.rho(rs.ExpectedShortfall(alpha / gamma), sp, x)
            assert got == pytest.approx(want, abs=1e-9)


class TestLeftContinuitySweep:
    def test_constant_payoff_gives_constant_sweep(self):
        sp = rs.ProbSpace([0.25, 0.75])
        points = rs.left_continuity_sweep(rs.ExpectedShortfall(1.0), sp,
                                          [2.0, 2.0], [1.0, 1.5, 2.0, 5.0])
        for _, v in points:
            assert v == pytest.approx(2.0, abs=1e-9)

    def test_expectation_base_reproduces_quantile_curve(self):
        rng = np.random.default_rng(35)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        grid = [1.0, 1.3, 2.0, 3.7, 6.0]
        points = rs.left_continuity_sweep(rs.ExpectedShortfall(1.0), sp, x, grid)
        for g, v in points:
            assert v == pytest.approx(
                rs.rho(rs.ExpectedShortfall(1.0 / g), sp, x), abs=1e-9)

    def test_values_nondecreasing_and_essup_sticky(self):
        rng = np.random.default_rng(36)
        sp = random_space(rng, max_states=4)
        x = random_rv(rng, sp)
        top = rs.essup(sp, x)
        grid = [1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0]
        points = rs.left_continuity_sweep(rs.ExpectedShortfall(1.0), sp, x, grid)
        values = [v for _, v in points]
        hit = False
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9
        for v in values:
            if hit:
                assert v == pytest.approx(top, abs=1e-9)
            if abs(v - top) <= 1e-9:
                hit = True
        assert hit  # gamma = 256 forces all mass on the worst state

    def test_rejects_descending_grid(self):
        sp = rs.ProbSpace([0.5, 0.5])
        with pytest.raises(ValidationError):
            rs.left_continuity_sweep(rs.ExpectedShortfall(1.0), sp, [0.0, 1.0],
                                     [2.0, 1.0])


class TestAxioms:
    def test_axioms_across_variants(self):
        rng = np.random.default_rng(37)
        for variant in ALL_VARIANTS:
            for _ in range(25):
                sp = random_space(rng, max_states=6)
                spec = random_spec(rng, sp, variant)
                x = random_rv(rng, sp)
                y = random_rv(rng, sp)
                lam = float(rng.uniform(0.0, 1.0))
                c = float(rng.uniform(-2.0, 2.0))
                rx = rs.rho(spec, sp, x)
                # monotonicity
                assert rs.rho(spec, sp, np.maximum(x, y)) >= rs.rho(spec, sp, y) - 1e-9
                # cash additivity
                assert rs.rho(spec, sp, x + c) == pytest.approx(rx + c, abs=1e-9)
                # convexity
                mix = rs.rho(spec, sp, lam * x + (1.0 - lam) * y)
                assert mix <= lam * rx + (1.0 - lam) * rs.rho(spec, sp, y) + 1e-9

    def test_sup_norm_lipschitz(self):
        rng = np.random.default_rng(38)
        for variant in ALL_VARIANTS:
            sp = random_space(rng, max_states=5)
            spec = random_spec(rng, sp, variant)
            x = random_rv(rng, sp)
            y = random_rv(rng, sp)
            gap = abs(rs.rho(spec, sp, x) - rs.rho(spec, sp, y))
            assert gap <= float(np.max(np.abs(x - y))) + 1e-9


class TestDuality:
    def test_fenchel_young_weak_duality(self):
        rng = np.random.default_rng(39)
        for variant in ALL_VARIANTS:
            for _ in range(20):
                sp = random_space(rng, max_states=6)
                spec = random_spec(rng, sp, variant)
                x = random_rv(rng, sp)
                q = random_density(rng, sp)
                pen = rs.conjugate(spec, sp, q)
                if math.isfinite(pen):
                    slack = rs.rho(spec, sp, x) - (rs.expect_under(sp, q, x) - pen)
                    assert slack >= -1e-9

    def test_dual_attainment_for_every_variant(self):
        rng = np.random.default_rng(40)
        for variant in ALL_VARIANTS:
            for _ in range(15):
                sp = random_space(rng, max_states=6)
                spec = random_spec(rng, sp, variant)
                x = random_rv(rng, sp)
                val, q = rs.dual_solve(spec, sp, x)
                assert val == pytest.approx(rs.rho(spec, sp, x), abs=1e-9)
                pen = rs.conjugate(spec, sp, q)
                assert math.isfinite(pen)
                gap = val - (rs.expect_under(sp, q, x) - pen)
                assert abs(gap) <= 1e-7

    def test_es_sorting_rule_matches_lp_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            sp = random_space(rng, max_states=12)
            x = random_rv(rng, sp)
            alpha = float(rng.uniform(0.05, 1.0))
            assert rs.rho(rs.ExpectedShortfall(alpha), sp, x) == pytest.approx(
                es_lp_oracle(sp, alpha, x), abs=1e-9)

    @pytest.mark.parametrize("n", [100, 200, 500])
    def test_es_matches_oracle_at_scale(self, n):
        # Every other draw rounds the losses to a coarse grid, so blocks of
        # tied losses straddle the quantile boundary.
        rng = np.random.default_rng(42 + n)
        for k in range(20):
            sp = random_space(rng, max_states=n, min_states=n)
            x = random_rv(rng, sp)
            if k % 2:
                x = np.round(x, 1)
            alpha = 1.0 if k % 5 == 0 else float(rng.uniform(0.01, 1.0))
            assert rs.rho(rs.ExpectedShortfall(alpha), sp, x) == pytest.approx(
                es_lp_oracle(sp, alpha, x), rel=1e-12, abs=1e-12)

    def test_es_optimizer_is_extreme_point(self):
        # sorted tie-breaking makes the optimizer deterministic and extreme
        sp = rs.ProbSpace([0.25, 0.25, 0.25, 0.25])
        x = sp.rv([1.0, 1.0, 0.0, 0.0])  # tie between states 0 and 1
        _, q = rs.dual_solve(rs.ExpectedShortfall(0.25), sp, x)
        assert np.array_equal(q.q, np.array([4.0, 0.0, 0.0, 0.0]))


class TestInflationPlateau:
    def test_equal_values_propagate_upward(self):
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(200):
            sp = random_space(rng, max_states=4)
            x = random_rv(rng, sp)
            base = rs.ExpectedShortfall(1.0)
            gamma = float(rng.uniform(1.0, 3.0))
            gamma_next = gamma * float(rng.uniform(1.1, 1.5))
            v1 = rs.rho(rs.inflate(base, gamma), sp, x)
            v2 = rs.rho(rs.inflate(base, gamma_next), sp, x)
            if abs(v1 - v2) <= 1e-9:
                found += 1
                for mult in (1.7, 2.4, 5.0):
                    v3 = rs.rho(rs.inflate(base, gamma_next * mult), sp, x)
                    assert v3 == pytest.approx(v1, abs=1e-9)
        assert found > 0  # the plateau regime was actually exercised


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
       st.floats(-5.0, 5.0))
def test_hypothesis_cash_additivity_entropic_and_es(values, c):
    sp = rs.ProbSpace([0.1, 0.2, 0.3, 0.4])
    x = sp.rv(values)
    for spec in (rs.Entropic(0.8), rs.ExpectedShortfall(0.35)):
        assert rs.rho(spec, sp, x + c) == pytest.approx(
            rs.rho(spec, sp, x) + c, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
       st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
def test_hypothesis_monotonicity_entropic_and_es(xs, ys):
    sp = rs.ProbSpace([0.1, 0.2, 0.3, 0.4])
    hi = sp.rv(np.maximum(xs, ys))
    lo = sp.rv(np.minimum(xs, ys))
    for spec in (rs.Entropic(1.2), rs.ExpectedShortfall(0.6)):
        assert rs.rho(spec, sp, hi) >= rs.rho(spec, sp, lo) - 1e-9


class TestCompositions:
    def test_dilated_inflation_evaluates_by_homogeneity(self):
        # inflations are coherent, so dilating one cannot change its value
        rng = np.random.default_rng(43)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        inner = rs.inflate(rs.ExpectedShortfall(0.5), 2.0)
        wrapped = rs.Dilation(inner, 3.0)
        assert rs.rho(wrapped, sp, x) == pytest.approx(rs.rho(inner, sp, x), abs=1e-9)
        q = random_density(rng, sp)
        assert math.isfinite(rs.conjugate(wrapped, sp, q)) == \
            math.isfinite(rs.conjugate(inner, sp, q))
        val, opt = rs.dual_solve(wrapped, sp, x)
        assert val == pytest.approx(rs.rho(wrapped, sp, x), abs=1e-9)
        assert math.isfinite(rs.conjugate(wrapped, sp, opt))

    def test_nested_dilations_multiply(self):
        rng = np.random.default_rng(44)
        sp = random_space(rng)
        x = random_rv(rng, sp)
        nested = rs.Dilation(rs.Dilation(rs.Entropic(1.0), 2.0), 3.0)
        assert rs.rho(nested, sp, x) == pytest.approx(
            rs.rho(rs.Entropic(6.0), sp, x), abs=1e-9)


def _families(sp):
    """Each family, and a Dilation of each, on the fixed five-state space."""
    def completed(head):  # the last entry restores unit P-expectation
        last = (1.0 - float(np.dot(sp.probs[:-1], head))) / sp.probs[-1]
        return sp.density(head + [last])

    scen = rs.ScenarioSet((sp.uniform_density(), completed([2.0, 1.5, 1.0, 0.8]),
                           completed([0.5, 0.5, 0.5, 1.2])))
    bases = [rs.Entropic(0.8), rs.ExpectedShortfall(0.4), scen,
             rs.Inflation(rs.ExpectedShortfall(0.5), 2.0), rs.Inflation(scen, 1.5)]
    return bases + [rs.Dilation(b, 1.7) for b in bases]


def _peaked(sp, k, top):
    """Density equal to top at state k and level elsewhere: its maximum is
    top whenever 1 <= top <= 1 / p_k."""
    p = sp.probs
    q = np.full(sp.n_states, (1.0 - p[k] * top) / (1.0 - p[k]))
    q[k] = top
    return sp.density(q)


class TestDualSet:
    SPACE = rs.ProbSpace([0.1, 0.15, 0.2, 0.25, 0.3])

    def test_rho_is_the_maximum_over_the_dual_set(self):
        sp = self.SPACE
        rng = np.random.default_rng(45)
        for spec in _families(sp):
            kappa, dset = rs.dual_set(spec)
            for _ in range(5):
                x = random_rv(rng, sp)
                plain = [hull for gamma, hull in dset.hulls if gamma == 1.0]
                if plain:
                    (hull,) = plain
                    want = max(float(np.dot(sp.probs, d * x)) for d in hull)
                else:
                    _, want, _ = ok._maximize(sp, sp.rv(x), kappa, dset)
                assert rs.rho(spec, sp, x) == pytest.approx(want, abs=1e-9), spec

    def test_conjugate_is_finite_exactly_on_the_dual_set(self):
        sp = self.SPACE
        k = 0  # the least likely state: peaked densities reach 1 / p_k = 10
        for spec in _families(sp):
            _, dset = rs.dual_set(spec)
            cases = [(sp.uniform_density(), True)]
            if math.isfinite(dset.cap):
                cases += [(_peaked(sp, k, dset.cap), True),
                          (_peaked(sp, k, dset.cap + 1e-6), False)]
            for gamma, hull in dset.hulls:
                cases += [(sp.density(0.3 * hull[1] + 0.7 * hull[2]), True),
                          (sp.density(0.6 * hull[1] + 0.4 * hull[2]), True),
                          (_peaked(sp, k, gamma * hull[:, k].max() + 1e-6), False)]
            if isinstance(spec, rs.Entropic) or isinstance(
                    getattr(spec, "base", None), rs.Entropic):
                cases += [(_peaked(sp, k, 9.0), True)]  # KL penalties are finite
            for q, inside in cases:
                assert math.isfinite(rs.conjugate(spec, sp, q)) == inside, (spec, q.q)

    def test_conjugate_is_a_float_and_inf_off_the_dual_set(self):
        sp = self.SPACE
        far = _peaked(sp, 0, 9.0)  # above every cap and hull entry in state 0
        for spec in _families(sp):
            inside = rs.conjugate(spec, sp, sp.uniform_density())
            outside = rs.conjugate(spec, sp, far)
            assert type(inside) is float and type(outside) is float, spec
            kappa, _ = rs.dual_set(spec)
            if kappa > 0.0:
                assert math.isfinite(outside), spec
            else:
                assert inside == 0.0 and outside == math.inf, spec

    def test_conjugate_lp_count(self, monkeypatch):
        sp = self.SPACE
        scen = _families(sp)[2]
        calls = []
        real = ok.highs_solve
        monkeypatch.setattr(ok, "highs_solve", lambda problem: calls.append(1) or real(problem))
        # A density from the caller comes with no hull weights: one membership LP.
        rs.conjugate(rs.Inflation(scen, 1.5), sp, sp.uniform_density())
        assert len(calls) == 1
        rs.conjugate(rs.ExpectedShortfall(0.4), sp, sp.uniform_density())
        assert len(calls) == 1

    def test_weighted_dilated_entropic_kl_weight_folds_outermost_first(self):
        w, d, g0 = 0.1, 0.7, 0.3  # (w * d) * g0 and w * (d * g0) differ in the last bit
        kappa, dset = rs.dual_set(rs.Dilation(rs.Entropic(g0), d), weight=w)
        assert kappa == (w * d) * g0
        assert kappa != w * (d * g0)
        assert dset.cap == math.inf and not dset.hulls

    def test_each_family_maps_to_its_penalty(self):
        entropic, es, scen, infl_es, infl_scen = _families(self.SPACE)[:5]
        # a scenario set is its hull at gamma = 1
        want = {entropic: (0.8, math.inf, ()), es: (0.0, 2.5, ()),
                scen: (0.0, math.inf, (1.0,)), infl_es: (0.0, 4.0, ()),
                infl_scen: (0.0, math.inf, (1.5,))}
        for spec, (kappa, cap, gammas) in want.items():
            for wrapped, scale in ((spec, 1.0), (rs.Dilation(spec, 1.7), 1.7)):
                got_kappa, dset = rs.dual_set(wrapped, weight=3.0)
                assert got_kappa == pytest.approx(3.0 * scale * kappa, rel=1e-15)
                assert dset.cap == cap
                assert tuple(gamma for gamma, _ in dset.hulls) == gammas
                for _, hull in dset.hulls:
                    assert np.array_equal(hull, scen.matrix())

    def test_rho_is_dual_solve_value_bit_for_bit(self):
        sp = self.SPACE
        rng = np.random.default_rng(46)
        for spec in _families(sp):
            for _ in range(5):
                x = random_rv(rng, sp)
                assert rs.rho(spec, sp, x) == rs.dual_solve(spec, sp, x)[0], spec

    def test_inflation_checks_its_vector_once(self, monkeypatch):
        # rho checks x once and builds no density; dual_solve builds one.
        calls = {"rv": 0, "density": 0}

        def counted(name):
            fn = getattr(rs.ProbSpace, name)

            def wrapper(self, values):
                calls[name] += 1
                return fn(self, values)
            return wrapper

        sp = self.SPACE
        x = random_rv(np.random.default_rng(47), sp)
        monkeypatch.setattr(rs.ProbSpace, "rv", counted("rv"))
        monkeypatch.setattr(rs.ProbSpace, "density", counted("density"))
        for spec in _families(sp)[3:5]:
            for wrapped in (spec, rs.Dilation(spec, 1.7)):
                calls.update(rv=0, density=0)
                rs.rho(wrapped, sp, x)
                assert calls == {"rv": 1, "density": 0}, wrapped
                calls.update(rv=0, density=0)
                rs.dual_solve(wrapped, sp, x)
                assert calls == {"rv": 1, "density": 1}, wrapped

    def test_scenario_matrix_is_stacked_once(self):
        scen = _families(self.SPACE)[2]
        mat = scen.matrix()
        assert scen.matrix() is mat
        assert not mat.flags.writeable
        assert np.array_equal(mat, np.vstack([d.q for d in scen.densities]))
        assert rs.dual_set(scen)[1].hulls[0][1] is mat
        assert rs.dual_set(rs.Inflation(scen, 2.0))[1].hulls[0][1] is mat


class TestScenarioWidth:
    """A scenario set built on 3 states, used on a 4-state space."""

    SMALL = rs.ProbSpace([0.2, 0.3, 0.5])
    SPACE = rs.ProbSpace([0.1, 0.2, 0.3, 0.4])

    def _scen(self):
        sp = self.SMALL
        return rs.ScenarioSet((sp.uniform_density(),
                               sp.density([2.0, 1.0, 0.6])))

    @pytest.mark.parametrize("fn", [rs.rho, rs.dual_solve])
    @pytest.mark.parametrize("inflated", [False, True])
    def test_evaluation_rejects_the_width(self, fn, inflated):
        spec = self._scen()
        if inflated:
            spec = rs.Inflation(spec, 1.5)
        with pytest.raises(ValidationError, match="3 entries"):
            fn(spec, self.SPACE, np.arange(4.0))

    @pytest.mark.parametrize("inflated", [False, True])
    def test_conjugate_rejects_the_width(self, inflated):
        spec = self._scen()
        if inflated:
            spec = rs.Inflation(spec, 1.5)
        with pytest.raises(ValidationError, match="3 entries"):
            rs.conjugate(spec, self.SPACE, self.SPACE.uniform_density())


def test_a_set_of_another_width_is_not_merged_by_its_bytes():
    # (1, 1) twice on 2 states has the bytes of (1, 1, 1, 1) on 4 states.
    wide, narrow = rs.ProbSpace([0.25] * 4), rs.ProbSpace([0.5, 0.5])
    family = rs.RiskFamily((rs.ScenarioSet((wide.uniform_density(),)),
                            rs.ScenarioSet((narrow.uniform_density(),) * 2)))
    assert family.specs[0].matrix().tobytes() == family.specs[1].matrix().tobytes()
    market = rs.Market.general(wide, rs.finite_agents(2), family)
    with pytest.raises(ValidationError, match="2 entries"):
        rs.value(market, np.arange(4.0))
    with pytest.raises(ValidationError, match="2 entries"):
        rs.atom_risks(family, wide, rs.Allocation(np.zeros((2, 4))))


class TestScenarioMass:
    """Scenario densities checked on P = (0.2, 0.3, 0.5), used on the uniform
    3-state space, where (2, 1, 0.6) has P-mass 1.2."""

    SMALL = rs.ProbSpace([0.2, 0.3, 0.5])
    SPACE = rs.ProbSpace([1 / 3, 1 / 3, 1 / 3])

    def _scen(self):
        sp = self.SMALL
        return rs.ScenarioSet((sp.density([1.0, 1.0, 1.0]), sp.density([2.0, 1.0, 0.6])))

    @pytest.mark.parametrize("inflated", [False, True])
    def test_rho_rejects_the_mass(self, inflated):
        spec = rs.Inflation(self._scen(), 2.0) if inflated else self._scen()
        with pytest.raises(ValidationError, match="P-expectation 1.2"):
            rs.rho(spec, self.SPACE, np.ones(3))

    def test_conjugate_rejects_the_mass(self):
        with pytest.raises(ValidationError, match="P-expectation 1.2"):
            rs.conjugate(self._scen(), self.SPACE, self.SPACE.uniform_density())


_QUARTER = rs.ProbSpace([0.25, 0.75])


@pytest.mark.parametrize("values", [[2.0, 2.0], [-1.0, 5.0 / 3.0], [math.inf, 0.0]],
                         ids=["mass_2", "negative_entry", "inf_entry"])
@pytest.mark.parametrize("spec", [
    rs.Entropic(1.0), rs.ExpectedShortfall(0.5),
    rs.ScenarioSet((_QUARTER.uniform_density(), _QUARTER.density([2.0, 2.0 / 3.0]))),
], ids=["entropic", "es", "scenario"])
@pytest.mark.parametrize("through", ["conjugate", "aggregate_conjugate"])
def test_penalties_check_a_density_built_directly(values, spec, through):
    # Density does not validate, so these reach the penalty unless it
    # checks them as ProbSpace.density does.
    q = rs.Density(np.array(values))
    with pytest.raises(ValidationError, match="density"):
        if through == "conjugate":
            rs.conjugate(spec, _QUARTER, q)
        else:
            market = rs.Market.general(_QUARTER, rs.finite_agents(1), rs.RiskFamily((spec,)))
            rs.aggregate_conjugate(market, q)


@pytest.mark.parametrize("entry", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_scenario_set_checks_a_member_built_directly(entry):
    # Density does not validate. At P = (1/4, 3/4) the member (-1, 5/3) has
    # P-mass 1, and rho of the set with P at x = (0, 1) read 1.25, above
    # essup(x) = 1; a NaN member was skipped by the scenario scan.
    member = rs.Density(np.array([entry, 5.0 / 3.0]))
    with pytest.raises(ValidationError, match="scenario densities must be finite"):
        rs.ScenarioSet((member, _QUARTER.uniform_density()))


class TestScenarioEquality:
    def test_equal_densities_give_equal_sets(self):
        sp = rs.ProbSpace([0.2, 0.3, 0.5])

        def build():
            return rs.ScenarioSet((sp.uniform_density(), sp.density([2.0, 1.0, 0.6])))

        a, b = build(), build()
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert rs.Inflation(a, 1.5) == rs.Inflation(b, 1.5)
        assert a != rs.ScenarioSet((sp.uniform_density(),))
        assert a != rs.ScenarioSet((sp.density([2.0, 1.0, 0.6]), sp.uniform_density()))
        assert a != rs.ExpectedShortfall(0.5)

    def test_sets_equal_but_for_a_negative_zero_make_one_hull(self, monkeypatch):
        # Both sets list P and (2, 0, 1) at P = (1/4, 1/4, 1/2); one spells
        # its 0 as -0.0. Equal sets merge into one hull, whose best scenario
        # is P: no density LP.
        sp = rs.ProbSpace([0.25, 0.25, 0.5])
        a, b = (rs.ScenarioSet((sp.uniform_density(), rs.Density(np.array([2.0, zero, 1.0]))))
                for zero in (0.0, -0.0))
        assert a == b and hash(a) == hash(b)
        lps = []
        real = ok.highs_solve
        monkeypatch.setattr(ok, "highs_solve", lambda problem: lps.append(1) or real(problem))
        for family in ((a, a), (a, b)):
            market = rs.Market.general(sp, rs.finite_agents(2), rs.RiskFamily(family))
            assert rs.value(market, [1.0, 3.0, 0.0]).value == 1.0
        assert lps == []


def _same_solve(got, want):
    """Two dual_solve results agree in the value and the optimizer's bytes."""
    return got[0] == want[0] and got[1].q.tobytes() == want[1].q.tobytes()


class TestDualSetAtScale:
    """Every spec is valued through its dual set alone, so specs with equal
    dual sets give equal bits. A dilation changes only the KL weight: a
    coherent base keeps its value and optimizer, and nested entropic
    dilations are the entropic spec at the folded weight."""

    # The inflated-hull identity solves two density LPs per draw (about 3 s
    # at n = 500), so it takes fewer draws at the larger sizes.
    LP_DRAWS = {100: 6, 200: 3, 500: 1}

    @pytest.mark.parametrize("n", [100, 200, 500])
    def test_dilated_coherent_spec_is_its_base_bit_for_bit(self, n):
        rng = np.random.default_rng(60 + n)
        for k in range(12):
            sp = random_space(rng, max_states=n, min_states=n)
            x = random_rv(rng, sp)
            scen = random_scenario_set(rng, sp, int(rng.integers(1, 5)))
            bases = [rs.ExpectedShortfall(float(rng.uniform(0.01, 1.0))), scen]
            if k < self.LP_DRAWS[n]:
                bases.append(rs.Inflation(scen, float(rng.uniform(1.0, 4.0))))
            for base in bases:
                g = float(rng.uniform(0.1, 10.0))
                assert _same_solve(rs.dual_solve(rs.Dilation(base, g), sp, x),
                                   rs.dual_solve(base, sp, x)), (base, g)

    @pytest.mark.parametrize("n", [100, 200, 500])
    def test_nested_entropic_dilation_is_entropic_at_its_folded_weight(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(30):
            sp = random_space(rng, max_states=n, min_states=n)
            x = random_rv(rng, sp, scale=float(rng.uniform(0.5, 20.0)))
            g, h = (float(v) for v in rng.uniform(0.1, 5.0, 2))
            spec = rs.Dilation(rs.Dilation(rs.Entropic(float(rng.uniform(0.1, 3.0))), g), h)
            kappa, _ = rs.dual_set(spec)
            assert _same_solve(rs.dual_solve(spec, sp, x),
                               rs.dual_solve(rs.Entropic(kappa), sp, x)), spec

    @pytest.mark.parametrize("n", [100, 200, 500])
    def test_capped_kl_value_is_its_mean_minus_the_weighted_kl(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(20):
            sp = random_space(rng, max_states=n, min_states=n)
            x = random_rv(rng, sp)
            kappa = float(rng.uniform(0.05, 5.0))
            cap = float(rng.uniform(1.05, 20.0))
            q, value, _ = ok._maximize(sp, x, kappa, ok.DensityConstraints(cap=cap))
            want = float(np.dot(sp.probs, x * q)) - kappa * rs.kl_divergence(sp, rs.Density(q))
            assert value == want, (kappa, cap)
