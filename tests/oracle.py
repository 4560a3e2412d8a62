"""Brute-force reference implementations, for tests only.

These deliberately avoid the code paths they check: the expected-shortfall
oracle takes the Rockafellar-Uryasev minimum over the loss values in numpy
instead of the sorting rule or any package LP, the inflated-hull oracle
takes it over the loss values and every crossing of two scenarios' terms
instead of the kernel's sort and envelope, the capped Gibbs oracle
water-fills exactly instead of bisecting for a multiplier and projecting,
the sharing-value oracle searches allocation space directly instead of
using closed forms or the dual, and the LP oracle enumerates basic
solutions instead of running HiGHS, the package's one LP solver.
The allocation search and the vertex enumeration are capped at desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from riskshare.agent_space import Allocation, total_risk
from riskshare.errors import ValidationError
from riskshare.infimal_convolution import Market
from riskshare.opt_kernel import LpProblem, LpSolution
from riskshare.prob_core import ProbSpace

BRUTE_FORCE_MAX_DIMS = 6
VERTEX_ENUM_MAX_VARS = 6
VERTEX_ENUM_MAX_CONSTRAINTS = 8
_POLISH_STEP_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Axis-aligned search grid: bounds per coordinate plus a point count."""

    lower: np.ndarray
    upper: np.ndarray
    points_per_axis: int

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValidationError("grid bounds must have matching shapes")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("grid bounds must be finite")
        if np.any(lo >= hi):
            raise ValidationError("grid lower bounds must be below upper bounds")
        if self.points_per_axis < 2:
            raise ValidationError("need at least two points per axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


def default_grid(x, n_dims: int, points_per_axis: int = 13) -> GridSpec:
    """Bounds of +-2 * sup|x| per coordinate; optimal allocations of the
    covered families stay inside this box."""
    bound = 2.0 * float(np.max(np.abs(np.asarray(x, dtype=float))))
    if bound == 0.0:
        bound = 1.0
    return GridSpec(np.full(n_dims, -bound), np.full(n_dims, bound), points_per_axis)


def es_lp_oracle(space: ProbSpace, alpha: float, x) -> float:
    """Expected shortfall by the dual of its defining LP (maximize E_Q[x]
    over densities capped at 1/alpha), the Rockafellar-Uryasev form
    min_t t + E_P[(x - t)^+] / alpha. The function of t is convex and
    piecewise linear with its kinks at the loss values, so the minimum over
    them is exact. O(n^2) numpy, independent of the sorting rule and of
    any LP solver."""
    if not (0.0 < alpha <= 1.0):
        raise ValidationError("quantile level must lie in (0, 1]")
    x = space.rv(x)
    excess = np.maximum(x[None, :] - x[:, None], 0.0) @ space.probs
    return float(np.min(x + excess / alpha))


def inflated_hull_oracle(p, dmat, x, gamma: float) -> float:
    """max E_Q[x] over {q <= gamma * D^T lam, E_P[q] = 1, lam on the
    simplex}, rows of D densities and gamma > 1, as the Rockafellar-Uryasev
    minimum of f(t) = t + gamma * max_j E_{Q_j}[(x - t)^+].

    f is convex and piecewise linear, with its kinks at the loss values and
    where two scenarios' terms cross between adjacent loss values. So the
    minimum over every loss value and every pairwise crossing in every
    segment is exact. Each segment's lines come from masked matrix sums, not
    from running sums along a sort; O(n^2 J + n J^3) numpy.
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    weighted = np.atleast_2d(np.asarray(dmat, dtype=float)) * p  # p_i * d_ji
    losses = np.unique(x)  # ascending; -0.0 and 0.0 are one value
    at_losses = losses + gamma * np.max(
        np.maximum(x[None, :] - losses[:, None], 0.0) @ weighted.T, axis=1)
    # Segment k is (losses[k], losses[k + 1]); the states above it are
    # those with x >= losses[k + 1], and there each term is a - b t.
    above = (x[None, :] >= losses[1:, None]).astype(float)
    a, b = above @ (weighted * x).T, above @ weighted.T  # (segments, J)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (a[:, :, None] - a[:, None, :]) / (b[:, :, None] - b[:, None, :])
    inside = (t > losses[:-1, None, None]) & (t < losses[1:, None, None])
    t = np.where(inside, t, losses[:-1, None, None])  # a loss value stands in
    terms = a[:, None, None, :] - b[:, None, None, :] * t[..., None]
    at_crossings = t + gamma * np.max(terms, axis=-1)
    return float(min(at_losses.min(), at_crossings.min(initial=math.inf)))


def capped_gibbs_oracle(p, x, kappa: float, cap: float) -> tuple[np.ndarray, float]:
    """Maximizer and value of E_Q[x] - kappa * KL(Q||P) over the densities
    {0 <= q <= cap, E_P[q] = 1}, by exact water-filling (kappa > 0, cap > 1).

    The optimizer is q = min(cap, c * exp(x / kappa)) for one scale c, so its
    capped states are a top-k set in x. Capping the top k states and scaling
    the others to the remaining mass gives a scale c_k. For any capped set
    the mass sum_i p_i min(cap, c * exp(x_i / kappa)) is at most that
    set's linear profile at c, so every c_k is at most the optimizer's c,
    with equality at its own k: the optimizer takes the largest c_k. Each
    k's sum is shifted by its largest free state, because exp((x - max x) /
    kappa) underflows over the whole free tail when x is spread out. No
    bisection, no projection and no clip on the exponent; O(n^2) numpy.
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (kappa > 0.0 and cap > 1.0):
        raise ValidationError("the capped Gibbs oracle needs kappa > 0 and cap > 1")
    order = np.argsort(-x, kind="stable")
    ps, xs = p[order], x[order]
    capped_mass = cap * np.concatenate([[0.0], np.cumsum(ps)[:-1]])
    best = None
    for k in range(x.size):
        free_mass = 1.0 - capped_mass[k]
        if free_mass <= 0.0:
            break
        shifted = np.exp((xs[k:] - xs[k]) / kappa)  # the largest free state is exp(0)
        total = float(ps[k:] @ shifted)
        log_scale = math.log(free_mass / total) - xs[k] / kappa  # log c_k
        if best is None or log_scale > best[0]:
            best = (log_scale, np.concatenate([np.full(k, cap), free_mass * shifted / total]))
    q = np.empty(x.size)
    q[order] = best[1]
    held = q > 0.0
    entropy = float(p[held] @ (q[held] * np.log(q[held])))
    return q, float(p @ (q * x)) - kappa * entropy


def brute_force_value(market: Market, x, grid: GridSpec) -> float:
    """Direct minimization of total risk over feasible allocations.

    Exhaustive grid search over the free coordinates (the last atom's row
    is pinned by feasibility), then coordinate descent with step halving
    down to 1e-6. For the convex objectives used here the result is within
    grid resolution of the true value and never below it.
    """
    x = market.space.rv(x)
    n_atoms = market.agents.n_atoms
    n_states = market.space.n_states
    n_free = (n_atoms - 1) * n_states
    if n_free > BRUTE_FORCE_MAX_DIMS:
        raise ValidationError(
            f"free allocation dimensions {n_free} exceed cap {BRUTE_FORCE_MAX_DIMS}"
        )
    if grid.lower.size not in (1, n_free) and n_free > 0:
        raise ValidationError("grid bounds do not match the free dimensions")

    weights = market.agents.weights

    def objective(free: np.ndarray) -> float:
        shares = np.empty((n_atoms, n_states))
        if n_atoms > 1:
            shares[:-1] = free.reshape(n_atoms - 1, n_states)
        covered = weights[:-1] @ shares[:-1] if n_atoms > 1 else 0.0
        shares[-1] = (x - covered) / weights[-1]
        return total_risk(market.agents, market.family, market.space,
                          Allocation(shares))

    if n_free == 0:
        return objective(np.zeros(0))

    lo = np.broadcast_to(grid.lower, (n_free,))
    hi = np.broadcast_to(grid.upper, (n_free,))
    axes = [np.linspace(lo[d], hi[d], grid.points_per_axis) for d in range(n_free)]
    best_val = np.inf
    best_pt = None
    for combo in itertools.product(*axes):
        pt = np.array(combo)
        val = objective(pt)
        if val < best_val:
            best_val, best_pt = val, pt

    step = float(np.max((hi - lo) / (grid.points_per_axis - 1)))
    pt = best_pt.copy()
    while step > _POLISH_STEP_FLOOR:
        improved = False
        for d in range(n_free):
            for delta in (step, -step):
                trial = pt.copy()
                trial[d] += delta
                val = objective(trial)
                if val < best_val - 1e-15:
                    best_val, pt = val, trial
                    improved = True
        if not improved:
            step *= 0.5
    return float(best_val)


def vertex_enum_lp(problem: LpProblem) -> LpSolution:
    """Exhaustive basic-solution enumeration for small LPs.

    Converts to standard equality form with slacks and tries every basis.
    Assumes a bounded feasible region (the random problems this oracle is
    used on include box constraints), so the optimum sits at a vertex.
    """
    n = problem.n_vars
    m_ub = problem.b_ub.size
    m = m_ub + problem.b_eq.size
    if n > VERTEX_ENUM_MAX_VARS or m > VERTEX_ENUM_MAX_CONSTRAINTS:
        raise ValidationError(
            f"oracle capped at {VERTEX_ENUM_MAX_VARS} vars / "
            f"{VERTEX_ENUM_MAX_CONSTRAINTS} constraints"
        )
    if m == 0:
        if np.any(problem.objective > 1e-10):
            raise ValidationError("unconstrained problem has no vertices")
        return LpSolution("optimal", np.zeros(n), 0.0)
    n_cols = n + m_ub
    body = np.zeros((m, n_cols))
    body[:m_ub, :n] = problem.a_ub
    body[:m_ub, n:] = np.eye(m_ub)
    body[m_ub:, :n] = problem.a_eq
    rhs = np.concatenate([problem.b_ub, problem.b_eq])

    # Vertices are basic solutions of a full-row-rank subsystem; dependent
    # rows are dropped here and enforced through the full residual check
    # below (so inconsistent duplicates still yield "infeasible").
    independent: list[int] = []
    for i in range(m):
        candidate = body[independent + [i]]
        if np.linalg.matrix_rank(candidate, tol=1e-9) == len(independent) + 1:
            independent.append(i)
    reduced, reduced_rhs = body[independent], rhs[independent]
    rank = len(independent)
    if rank > n_cols:
        raise ValidationError("more independent equations than columns")

    best_val = -np.inf
    best_pt = None
    for cols in itertools.combinations(range(n_cols), rank):
        sub = reduced[:, cols]
        try:
            basic = np.linalg.solve(sub, reduced_rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(basic)) or np.min(basic) < -1e-9:
            continue
        z = np.zeros(n_cols)
        z[list(cols)] = basic
        if np.max(np.abs(body @ z - rhs)) > 1e-7:
            continue
        val = float(problem.objective @ z[:n])
        if val > best_val:
            best_val, best_pt = val, z[:n]
    if best_pt is None:
        return LpSolution("infeasible")
    return LpSolution("optimal", np.where(best_pt < 0.0, 0.0, best_pt), best_val)
