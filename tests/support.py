"""Shared random generators for the test suite. Everything is driven by an
explicit numpy Generator so runs are reproducible."""

import numpy as np

import riskshare as rs


def random_space(rng, max_states=10, min_states=2) -> rs.ProbSpace:
    n = int(rng.integers(min_states, max_states + 1))
    p = rng.uniform(0.05, 1.0, n)
    return rs.ProbSpace(p / p.sum())


def random_rv(rng, space, scale=2.0) -> np.ndarray:
    return space.rv(rng.uniform(-scale, scale, space.n_states))


def random_density(rng, space) -> rs.Density:
    q = rng.uniform(0.0, 2.0, space.n_states) + 1e-3
    q /= float(np.dot(space.probs, q))
    return space.density(q)


def random_scenario_set(rng, space, n_scenarios=3, include_reference=True):
    dens = []
    if include_reference:
        dens.append(space.uniform_density())
    while len(dens) < n_scenarios:
        dens.append(random_density(rng, space))
    return rs.ScenarioSet(tuple(dens))


def spread_scenario_set(seed, n=200, n_scenarios=4):
    """A space of n states (P uniform(0.2, 1), normalised) and the matrix of
    a scenario set: the uniform density, then n_scenarios - 1 densities
    drawn uniform(0.1, 2) and rescaled to P-mass 1. At n = 200 the
    membership LP must decide many of these hulls' own vertices."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.2, 1.0, n)
    space = rs.ProbSpace(p / p.sum())
    rows = rng.uniform(0.1, 2.0, (n_scenarios - 1, n))
    rows /= (rows @ space.probs)[:, None]
    return space, np.vstack([np.ones(n), rows])


def aim_three_hull_market(rng, n, with_es):
    """A general market of moderate size whose dual is one density LP: two
    inflated scenario sets, or an expected shortfall beside one. P mixes
    the uniform weights with a Dirichlet(2) draw, half and half; each set
    holds J = n // 3 + 1 densities, P itself and then Gamma(1, 1) draws
    (plus 1e-3) scaled to P-mass 1, and is inflated by gamma ~ U(1.2, 3);
    the ES level is U(0.1, 0.9). Every atom has weight 1. Returns the
    market, a standard normal loss, the ES cap (None without ES) and the
    (gamma, D) pairs of the inflated sets."""
    p = 0.5 / n + 0.5 * rng.dirichlet(np.full(n, 2.0))
    space = rs.ProbSpace(p / p.sum())
    hulls = []
    for _ in range(1 if with_es else 2):
        rows = rng.gamma(1.0, size=(n // 3, n)) + 1e-3
        rows /= (rows @ space.probs)[:, None]
        hulls.append((float(rng.uniform(1.2, 3.0)), np.vstack([np.ones(n), rows])))
    specs = [rs.Inflation(rs.ScenarioSet(tuple(space.density(d) for d in dmat)), gamma)
             for gamma, dmat in hulls]
    cap = None
    if with_es:
        alpha = float(rng.uniform(0.1, 0.9))
        specs.insert(0, rs.ExpectedShortfall(alpha))
        cap = 1.0 / alpha
    market = rs.Market.general(space, rs.finite_agents(len(specs)), rs.RiskFamily(tuple(specs)))
    return market, space.rv(rng.normal(0.0, 1.0, n)), cap, hulls


def general_dual_hull_market(rng, n, inflated):
    """A general market of two scenario sets, plain or each inflated by
    gamma ~ U(1.2, 3), as the benchmark's general_dual workload draws them:
    P mixes the uniform weights with a Dirichlet(2) draw, half and half;
    each set holds J = n // 3 + 1 densities, P itself and then Gamma(1, 1)
    draws (plus 1e-3) scaled to P-mass 1, drawn row by row. Every atom has
    weight 1. Returns the market and a standard normal loss."""
    p = 0.5 / n + 0.5 * rng.dirichlet(np.full(n, 2.0))
    p /= p.sum()
    space = rs.ProbSpace(p)
    mats = []
    for _ in range(2):
        rows = [np.ones(n)]
        while len(rows) < n // 3 + 1:
            w = rng.gamma(1.0, size=n) + 1e-3
            rows.append(w / float(p @ w))
        mats.append(np.vstack(rows))
    specs = [rs.ScenarioSet(tuple(space.density(r) for r in m)) for m in mats]
    if inflated:
        specs = [rs.Inflation(s, float(g)) for s, g in zip(specs, rng.uniform(1.2, 3.0, 2))]
    market = rs.Market.general(space, rs.finite_agents(2), rs.RiskFamily(tuple(specs)))
    return market, space.rv(rng.normal(0.0, 1.0, n))


def highs_ipm_density_lp(linprog, p, x, cap, hulls):
    """max E_Q[x] over 0 <= q <= cap, E_P[q] = 1 and, for each (gamma, D) in
    hulls, q = D^T lam (gamma None) or q <= gamma D^T lam, lam on the
    simplex; cap may be None for none. By HiGHS's interior-point method, not
    the dual simplex the package runs first on its LPs; the package runs the
    interior-point method too, on a simplex point that misses its 1e-9
    residual check, so on such LPs this reference is not independent."""
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
                  bounds=[(0.0, cap)] * n + [(0.0, None)] * (n_vars - n), method="highs-ipm")
    assert ref.status == 0
    return -ref.fun


def random_spec(rng, space, variant=None) -> rs.RiskSpec:
    """One random spec; variant in {entropic, es, scenario, dilation, inflation}."""
    if variant is None:
        variant = rng.choice(["entropic", "es", "scenario", "dilation", "inflation"])
    if variant == "entropic":
        return rs.Entropic(float(rng.uniform(0.3, 3.0)))
    if variant == "es":
        return rs.ExpectedShortfall(float(rng.uniform(0.1, 1.0)))
    if variant == "scenario":
        return random_scenario_set(rng, space, int(rng.integers(1, 4)))
    if variant == "dilation":
        base = random_spec(rng, space, str(rng.choice(["entropic", "es"])))
        return rs.dilate(base, float(rng.uniform(0.5, 4.0)))
    if variant == "inflation":
        if rng.uniform() < 0.5:
            base = rs.ExpectedShortfall(float(rng.uniform(0.3, 1.0)))
        else:
            base = random_scenario_set(rng, space, int(rng.integers(1, 4)))
        return rs.inflate(base, float(rng.uniform(1.0, 4.0)))
    raise ValueError(variant)


def random_agents(rng, max_atoms=5) -> rs.AgentSpace:
    n = int(rng.integers(1, max_atoms + 1))
    return rs.AgentSpace(
        tuple(f"a{i}" for i in range(n)),
        rng.uniform(0.3, 2.0, n),
    )


def random_general_market(rng, space=None, max_atoms=4,
                          variants=("entropic", "es")) -> rs.Market:
    """General-family market; default variants keep the dual solver on the
    cheap KL+caps path."""
    if space is None:
        space = random_space(rng)
    agents = random_agents(rng, max_atoms)
    specs = tuple(random_spec(rng, space, str(rng.choice(list(variants))))
                  for _ in range(agents.n_atoms))
    return rs.Market.general(space, agents, rs.RiskFamily(specs))


def random_dilation_market(rng, space=None, max_atoms=6, base=None) -> rs.Market:
    if space is None:
        space = random_space(rng)
    agents = random_agents(rng, max_atoms)
    if base is None:
        base = rs.Entropic(float(rng.uniform(0.5, 2.0)))
    gammas = rng.uniform(0.3, 3.0, agents.n_atoms)
    return rs.Market.dilation(space, agents, base, gammas)


def random_inflation_market(rng, space=None, max_atoms=6, base=None) -> rs.Market:
    if space is None:
        space = random_space(rng)
    agents = random_agents(rng, max_atoms)
    if base is None:
        base = rs.ExpectedShortfall(float(rng.uniform(0.4, 1.0)))
    gammas = rng.uniform(1.0, 4.0, agents.n_atoms)
    return rs.Market.inflation(space, agents, base, gammas)


def zero_integral_noise(rng, agents, n_states, scale=0.3) -> np.ndarray:
    """Perturbation matrix whose Gelfand integral is exactly zero."""
    noise = rng.normal(0.0, scale, (agents.n_atoms, n_states))
    mean = (agents.weights @ noise) / agents.total_mass
    return noise - np.tile(mean, (agents.n_atoms, 1))
