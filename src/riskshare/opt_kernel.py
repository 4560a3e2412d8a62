"""Small dense optimization routines: a two-phase simplex, exact
maximization over densities, and membership in a set of densities.

Maximizing E_Q[x] - kappa * KL(Q||P) over densities has one solve path per
constraint structure, and the private ``_maximize`` is the one place that
picks it: the sorting rule for a density cap alone with kappa = 0, the
Gibbs closed form (log-sum-exp) for kappa > 0 and no cap, the capped Gibbs
point (certified by its KKT residual) for a finite cap with kappa > 0, the
best scenario for one hull at gamma = 1 and no cap, and the simplex for any
other scenario-hull constraints. The cap is one number bounding every entry
of dQ/dP; math.inf means uncapped. The hulls are one list of (gamma, D)
pairs, q <= gamma * D^T lam for some weights lam on the simplex; a plain
scenario set is its gamma = 1 entry. ``_maximize`` checks the hulls (one
column per state, rows of unit P-mass); ``maximize_over_densities`` also
checks the payoff, then wraps the vector from ``_maximize`` as a Density
once. Callers with a checked payoff, such as the risk-measure evaluator,
call ``_maximize``.
``_admits`` checks the hulls the same way and tests whether a density meets
the constraints, one small LP per hull (``_dominated``), so every LP in the
package is built here.

LP instances here are small (variables on the order of the number of states
plus a handful of scenario weights), so the simplex favors determinism over
speed: Bland's rule, no scaling, no presolve. Identical inputs produce
bit-identical outputs. Bland's rule prevents cycling only in exact
arithmetic; with floating-point ties in the reduced costs and ratio test the
loop can still cycle on degenerate LPs, and then stops at the iteration cap
with IterationLimitError.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    InfeasibleError,
    IterationLimitError,
    UnsupportedFamilyError,
    ValidationError,
)
from .prob_core import DENSITY_SUM_TOL, Density, ProbSpace

_RC_TOL = 1e-10     # reduced-cost threshold for entering columns
_PIV_TOL = 1e-10    # minimum magnitude for a pivot element
_FEAS_TOL = 1e-9    # phase-1 residual above which the problem is infeasible
_ITER_FACTOR = 10_000  # iteration cap = factor * number of columns
# Shared cutoff for the 0-vs-infinity decision in coherent conjugates:
# constraint residuals up to this size still count as feasible.
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LpProblem:
    """maximize objective @ z  subject to  a_ub z <= b_ub, a_eq z = b_eq, z >= 0."""

    objective: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("objective must be a nonempty 1-d vector")
        n = c.size
        a_ub, b_ub = _as_constraints(self.a_ub, self.b_ub, n, "ub")
        a_eq, b_eq = _as_constraints(self.a_eq, self.b_eq, n, "eq")
        for arr, name in ((c, "objective"), (a_ub, "a_ub"), (b_ub, "b_ub"),
                          (a_eq, "a_eq"), (b_eq, "b_eq")):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must contain only finite entries")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)

    @property
    def n_vars(self) -> int:
        return int(self.objective.size)


def _as_constraints(a, b, n, name):
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    if a is None or b is None:
        raise ValidationError(f"a_{name} and b_{name} must be given together")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.size, n):
        raise ValidationError(
            f"a_{name} has shape {a.shape}; expected ({b.size}, {n})"
        )
    return a, b


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    point: np.ndarray | None = None
    value: float | None = None


def _objective_row(tableau, basis, cost):
    """Reduced-cost row z - c for the current basis (rhs slot carries c_B b)."""
    row = np.concatenate([-cost, [0.0]])
    for i, b in enumerate(basis):
        if cost[b] != 0.0:
            row += cost[b] * tableau[i]
    return row


def _pivot(tableau, obj, basis, row, col):
    tableau[row] /= tableau[row, col]
    piv = tableau[row].copy()
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, piv)
    obj -= obj[col] * piv
    basis[row] = col


def _simplex_loop(tableau, obj, basis, allowed_cols, cap, counter):
    """Run Bland-rule pivots to optimality. Returns 'optimal' or 'unbounded'."""
    while True:
        entering = -1
        for j in allowed_cols:
            if obj[j] < -_RC_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = tableau[:, entering]
        rhs = tableau[:, -1]
        best_ratio = None
        leave = -1
        for i in range(tableau.shape[0]):
            if col[i] > _PIV_TOL:
                ratio = rhs[i] / col[i]
                if leave < 0 or ratio < best_ratio - 1e-12:
                    best_ratio = ratio
                    leave = i
                elif abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tableau, obj, basis, leave, entering)
        counter[0] += 1
        if counter[0] > cap:
            raise IterationLimitError(
                f"simplex iteration cap {cap} exceeded (cycling guard)"
            )


def lp_solve(problem: LpProblem) -> LpSolution:
    """Dense two-phase simplex with Bland's rule.

    Deterministic given the input; primal residuals of an optimal point are
    verified to be within 1e-9.
    """
    n = problem.n_vars
    m_ub = problem.b_ub.size
    m = m_ub + problem.b_eq.size
    n_cols = n + m_ub  # originals + slacks

    if m == 0:
        # No constraints: optimum at 0 unless some objective entry is positive.
        if np.any(problem.objective > _RC_TOL):
            return LpSolution("unbounded")
        return LpSolution("optimal", np.zeros(n), 0.0)

    body = np.zeros((m, n_cols))
    body[:m_ub, :n] = problem.a_ub
    body[:m_ub, n:] = np.eye(m_ub)
    body[m_ub:, :n] = problem.a_eq
    rhs = np.concatenate([problem.b_ub, problem.b_eq])
    neg = rhs < 0.0
    body[neg] *= -1.0
    rhs = np.abs(rhs)

    # Phase 1: artificial basis, minimize the artificial mass.
    total_cols = n_cols + m
    tableau = np.zeros((m, total_cols + 1))
    tableau[:, :n_cols] = body
    tableau[:, n_cols:total_cols] = np.eye(m)
    tableau[:, -1] = rhs
    basis = list(range(n_cols, total_cols))
    cost1 = np.zeros(total_cols)
    cost1[n_cols:] = -1.0
    obj = _objective_row(tableau, basis, cost1)
    cap = _ITER_FACTOR * total_cols
    counter = [0]
    status = _simplex_loop(tableau, obj, basis, range(n_cols), cap, counter)
    if status != "optimal":  # phase 1 is always bounded below by 0
        raise ConvergenceError("phase-1 simplex reported unbounded")
    if obj[-1] < -_FEAS_TOL:
        return LpSolution("infeasible")

    # Drive artificials out of the basis; drop rows that are redundant.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_cols:
            pivot_col = -1
            for j in range(n_cols):
                if j not in basis and abs(tableau[i, j]) > _PIV_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, obj, basis, i, pivot_col)
            else:
                keep[i] = False
    tableau = tableau[keep]
    basis = [b for i, b in enumerate(basis) if keep[i]]

    # Phase 2 on the original columns only.
    tableau = np.concatenate([tableau[:, :n_cols], tableau[:, -1:]], axis=1)
    cost2 = np.zeros(n_cols)
    cost2[:n] = problem.objective
    obj = _objective_row(tableau, basis, cost2)
    status = _simplex_loop(tableau, obj, basis, range(n_cols), cap, counter)
    if status == "unbounded":
        return LpSolution("unbounded")

    full = np.zeros(n_cols)
    for i, b in enumerate(basis):
        full[b] = tableau[i, -1]
    x = full[:n]
    _verify_residuals(problem, x)
    x = np.where((x < 0.0) & (x > -_FEAS_TOL), 0.0, x)
    return LpSolution("optimal", x, float(problem.objective @ x))


def _verify_residuals(problem: LpProblem, x: np.ndarray):
    if problem.b_eq.size:
        r = np.max(np.abs(problem.a_eq @ x - problem.b_eq))
        if r > _FEAS_TOL:
            raise ConvergenceError(f"equality residual {r:.3e} exceeds 1e-9",
                                   best_point=x, residual=float(r))
    if problem.b_ub.size:
        r = np.max(problem.a_ub @ x - problem.b_ub)
        if r > _FEAS_TOL:
            raise ConvergenceError(f"inequality residual {r:.3e} exceeds 1e-9",
                                   best_point=x, residual=float(r))
    if np.min(x, initial=0.0) < -_FEAS_TOL:
        raise ConvergenceError("negative variable beyond tolerance",
                               best_point=x, residual=float(-np.min(x)))


# ---------------------------------------------------------------------------
# Maximization over densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityObjective:
    """Score q -> E_Q[payoff] - kl_weight * KL(Q || P); concave in q."""

    payoff: np.ndarray
    kl_weight: float = 0.0

    def __post_init__(self):
        if self.kl_weight < 0.0:
            raise ValidationError("kl_weight must be nonnegative")


@dataclass(frozen=True, eq=False)
class DensityConstraints:
    """Feasible densities beyond {q >= 0, E_P[q] = 1}.

    cap: q <= cap in every state (math.inf means uncapped).
    hulls: for each (gamma, D), there must exist a convex combination d of
        the rows of D (densities) with q <= gamma * d entrywise. At
        gamma = 1 this is q = d, since both sides have P-mass 1: q lies in
        the hull of D's rows.
    """

    cap: float = math.inf
    hulls: tuple = ()


def maximize_over_densities(
    space: ProbSpace,
    objective: DensityObjective,
    constraints: DensityConstraints = DensityConstraints(),
) -> tuple[Density, float]:
    """Maximize the score over feasible densities.

    Each constraint structure has one exact solve path:

    * caps only and a linear score: the sorting rule
      (:func:`sorting_rule_point`), O(n log n);
    * no cap, no hull and kl_weight > 0: the Gibbs density
      exp(x / kl_weight) / E_P[exp(x / kl_weight)], by log-sum-exp;
    * a finite cap and kl_weight > 0: the capped Gibbs point
      (:func:`capped_gibbs_point`), projected onto the capped density set
      and certified by its KKT residual (:func:`kkt_residual`);
    * one hull at gamma = 1 (a plain scenario set), no cap and a linear
      score: the best scenario, a vertex of the hull;
    * any other scenario hulls (several, inflated, or beside a cap) and a
      linear score: the dense simplex on the density LP.

    Raises ValidationError when the payoff or a hull matrix does not fit
    the space, InfeasibleError when no density satisfies the constraints,
    UnsupportedFamilyError for scenario hulls mixed with a KL penalty, and
    ConvergenceError (carrying the point and its residual) only on the
    capped Gibbs path, when the point's KKT residual exceeds the module
    tolerance; the density LP's simplex may also raise it or
    IterationLimitError.
    """
    x = space.rv(objective.payoff)
    q, value = _maximize(space, x, objective.kl_weight, constraints)
    return space.density(q), value


def _check_hulls(space: ProbSpace, constraints: DensityConstraints):
    """Every hull matrix must have one column per state of the space, and
    every row P-mass 1 on it: a density checked on another space of the
    same width need not be a density here."""
    for _, d in constraints.hulls:
        if np.shape(d)[-1] != space.n_states:
            raise ValidationError(f"scenario densities have {np.shape(d)[-1]} entries "
                                  f"but the space has {space.n_states} states")
        for mass in np.atleast_1d(np.dot(d, space.probs)):
            if abs(mass - 1.0) > DENSITY_SUM_TOL:
                raise ValidationError(f"scenario density has P-expectation {float(mass)!r} "
                                      f"on this space; expected 1 within {DENSITY_SUM_TOL}")


def _maximize(space: ProbSpace, x: np.ndarray, kappa: float,
              constraints: DensityConstraints) -> tuple[np.ndarray, float]:
    """maximize_over_densities on a payoff already sized to the space, the
    optimizer unwrapped. This is the one place that picks the algorithm for
    a dual-set structure; it checks the hulls itself."""
    cap = constraints.cap
    if constraints.hulls:
        _check_hulls(space, constraints)
        if kappa != 0.0:
            raise UnsupportedFamilyError(
                "entropic-penalized scores support only a density cap; scenario-hull "
                "constraints mixed with a KL penalty have no solver here"
            )
        (gamma, dmat), *others = constraints.hulls
        if gamma == 1.0 and not others and cap == math.inf:
            # A plain scenario set: the best scenario, a vertex of its hull.
            best_value, best = -math.inf, None
            for d in np.atleast_2d(dmat):
                v = float(np.dot(space.probs, d * x))
                if v > best_value:
                    best_value, best = v, d
            return best, best_value
        return _linear_density_lp(space, x, constraints)
    if kappa == 0.0:
        q = sorting_rule_point(space, x, cap)
        return q, float(np.dot(space.probs, q * x))
    if cap == math.inf:
        # The Gibbs density, by log-sum-exp with a max shift: x / kappa can
        # overflow for small kappa.
        scaled = x / kappa
        shift = float(scaled.max())  # the method skips np.max's Python dispatch
        w = np.exp(scaled - shift)
        mass = float(np.dot(space.probs, w))
        return w / mass, kappa * (shift + math.log(mass))
    return _certified_gibbs(space, x, kappa, cap)


def _linear_density_lp(space, x, constraints):
    p = space.probs
    n = space.n_states
    # A stable sort puts the plain hulls (gamma = 1) first, so their weight
    # columns lead. A plain hull enters as n equality rows rather than the
    # equivalent q <= D^T lam, on which the Bland simplex can cycle.
    hulls = sorted(((float(g), np.atleast_2d(np.asarray(d, dtype=float)))
                    for g, d in constraints.hulls), key=lambda hull: hull[0] != 1.0)
    n_total = n + sum(len(d) for _, d in hulls)

    c = np.zeros(n_total)
    c[:n] = p * x

    eq_rows, eq_rhs = [np.concatenate([p, np.zeros(n_total - n)])], [1.0]
    ub_rows, ub_rhs = [], []
    if math.isfinite(constraints.cap):
        ub_rows.extend(np.eye(n, n_total))
        ub_rhs.extend(np.full(n, constraints.cap))

    offset = n
    for gamma, dmat in hulls:
        weights = slice(offset, offset + len(dmat))
        block = np.zeros((n, n_total))
        if gamma == 1.0:  # q = D^T lam
            block[:, :n] = -np.eye(n)
            block[:, weights] = dmat.T
            eq_rows.extend(block)
            eq_rhs.extend(np.zeros(n))
        else:  # q <= gamma * D^T lam
            block[:, :n] = np.eye(n)
            block[:, weights] = -gamma * dmat.T
            ub_rows.extend(block)
            ub_rhs.extend(np.zeros(n))
        srow = np.zeros(n_total)
        srow[weights] = 1.0
        eq_rows.append(srow)
        eq_rhs.append(1.0)
        offset += len(dmat)

    problem = LpProblem(
        objective=c,
        a_ub=np.array(ub_rows) if ub_rows else None,
        b_ub=np.array(ub_rhs) if ub_rhs else None,
        a_eq=np.array(eq_rows),
        b_eq=np.array(eq_rhs),
    )
    sol = lp_solve(problem)
    if sol.status == "infeasible":
        raise InfeasibleError("no density satisfies the feasibility constraints")
    if sol.status != "optimal":
        raise ConvergenceError(f"density LP ended with status {sol.status}")
    return sol.point[:n], float(sol.value)


def _admits(space: ProbSpace, constraints: DensityConstraints, q: np.ndarray) -> bool:
    """Whether the density vector q satisfies the constraints: q exceeds the
    cap by at most MEMBERSHIP_TOL, and for each hull the largest entrywise
    violation, minimized over hull weights, is at most MEMBERSHIP_TOL.

    A hull at gamma = 1 (a plain scenario set) takes the same test: every
    state has p > 0, so q <= D^T lam with both sides of P-mass 1 forces
    q = D^T lam.
    """
    _check_hulls(space, constraints)
    if not q.max() <= constraints.cap + MEMBERSHIP_TOL:
        return False
    return all(_dominated(space, gamma, d, q) for gamma, d in constraints.hulls)


def _dominated(space: ProbSpace, gamma: float, dmat: np.ndarray, q: np.ndarray) -> bool:
    """Whether q <= gamma * d for some d in the hull of dmat's rows: the
    worst violation, minimized over hull weights, is within tolerance."""
    n = space.n_states
    j = dmat.shape[0]
    n_total = j + 1  # hull weights then the violation bound t
    c = np.zeros(n_total)
    c[-1] = -1.0

    a_eq = np.zeros((1, n_total))
    a_eq[0, :j] = 1.0
    b_eq = np.ones(1)

    a_ub = np.zeros((n, n_total))
    a_ub[:, :j] = -gamma * dmat.T
    a_ub[:, -1] = -1.0
    b_ub = -q

    sol = lp_solve(LpProblem(c, a_ub, b_ub, a_eq, b_eq))
    if sol.status != "optimal":
        raise ValidationError(f"inflation feasibility LP ended with status {sol.status}")
    return -float(sol.value) <= MEMBERSHIP_TOL


def _check_cap(cap: float):
    """A cap below 1 admits P-mass below 1, so no density exists."""
    if cap < 1.0 - 1e-9:
        raise InfeasibleError(f"cap {cap!r} admits total mass < 1; no density exists")


def sorting_rule_point(space: ProbSpace, x, cap: float = math.inf) -> np.ndarray:
    """Maximizer of E_Q[x] over {0 <= q <= cap, E_P[q] = 1}.

    States are ranked by x descending, ties broken by state index, and each
    is filled up to its cap until the P-mass reaches 1; the boundary state
    carries the remainder. The result is a deterministic extreme point, found
    in O(n log n). With the cap at 1/alpha it is the expected-shortfall
    optimizer. Raises InfeasibleError when the cap is below 1.
    """
    p = space.probs
    x = np.asarray(x, dtype=float)
    _check_cap(cap)
    n = p.size
    order = np.lexsort((np.arange(n), -x))
    cum = np.cumsum(p[order] * cap)
    k = min(int(np.searchsorted(cum, 1.0 - 1e-12)), n - 1)
    before = float(cum[k - 1]) if k > 0 else 0.0
    q = np.zeros(n)
    q[order[:k]] = cap
    q[order[k]] = (1.0 - before) / p[order[k]]
    return q


def project_to_density(space: ProbSpace, v: np.ndarray,
                       cap: float = math.inf) -> np.ndarray:
    """Euclidean projection of v onto {q : 0 <= q <= cap, E_P[q] = 1}.

    The projection is clip(v - theta * p, 0, cap) for the multiplier theta
    solving E_P[q(theta)] = 1; that mass profile is piecewise linear and
    decreasing in theta, so the crossing segment is found exactly by a
    binary search over the sorted clip breakpoints. Feasibility requires
    cap >= 1.
    """
    p = space.probs
    v = np.asarray(v, dtype=float)
    _check_cap(cap)

    def mass(theta):
        return float(np.dot(p, np.clip(v - theta * p, 0.0, cap)))

    def solve_at(theta_probe, lo, hi):
        # Active sets are constant between breakpoints; solve the linear
        # equation for theta there and keep it inside the bracket.
        vals = v - theta_probe * p
        free = (vals > 0.0) & (vals < cap)
        capped = vals >= cap
        slope = float(np.dot(p[free], p[free]))
        if slope <= 0.0:
            return lo
        const = (float(np.dot(p[free], v[free]))
                 + float(np.dot(p[capped], np.full(np.count_nonzero(capped), cap))))
        theta = (const - 1.0) / slope
        return min(max(theta, lo), hi)

    points = [v / p]
    if math.isfinite(cap):
        points.append((v - cap) / p)
    bps = np.unique(np.concatenate(points))
    if mass(bps[0]) <= 1.0:
        theta = solve_at(bps[0] - 1.0, -np.inf, bps[0])
    else:
        # First breakpoint with mass <= 1. The probes are those of numpy's
        # left-sided searchsorted over all the masses, so the result is the
        # same even where rounding breaks their monotonicity.
        k = bisect.bisect_left(bps, -1.0, key=lambda b: -mass(b))
        if k >= bps.size:
            theta = bps[-1]
        elif mass(bps[k]) == 1.0:
            theta = bps[k]
        else:
            theta = solve_at(0.5 * (bps[k - 1] + bps[k]), bps[k - 1], bps[k])
    return np.clip(v - theta * p, 0.0, cap)


# Largest KKT violation, in P-mass, accepted for the capped Gibbs point.
_KKT_TOL = 1e-9


def capped_gibbs_point(space: ProbSpace, x, kappa: float,
                       cap: float = math.inf) -> np.ndarray:
    """Maximizer of q -> E_Q[x] - kappa * KL(Q||P) on the capped density
    simplex: q = min(cap, exp((x - theta)/kappa - 1)) with the multiplier
    theta fixed by E_P[q] = 1 (bisection). The objective is strictly concave,
    so this KKT point is the unique optimum."""
    p = space.probs
    x = np.asarray(x, dtype=float)
    _check_cap(cap)
    if cap <= 1.0 + 1e-12:
        return np.full(p.size, cap)

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
    return point(0.5 * (lo + hi))


def kkt_residual(space: ProbSpace, x, kappa: float, q: np.ndarray,
                 cap: float = math.inf) -> float:
    """Distance, in P-mass, of q from the KKT conditions for maximizing
    E_Q[x] - kappa * KL(Q||P) over {0 <= q <= cap, E_P[q] = 1}.

    Besides feasibility, the conditions ask for one multiplier theta with
    q = min(cap, exp((x - theta)/kappa - 1)) on every state. The residual
    is the larger of the feasibility violation and the minimum over theta of
    max_i p_i * |q_i - min(cap, exp(...))|, found by bisection since the
    signed gap rises with theta. Weighting by p keeps it finite: a Gibbs
    weight that underflowed to 0 costs its true, negligible mass, not the
    infinite log a gradient test would meet.
    """
    if not kappa > 0.0:
        raise ValidationError("the KL weight kappa must be > 0")
    p = space.probs
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_cap(cap)
    feasibility = max(abs(float(np.dot(p, q)) - 1.0),
                      float(np.max(p * (q - cap))), float(np.max(-p * q)))

    def gaps(theta):
        # Largest mass of q above, and below, the Gibbs weights at theta.
        d = p * (q - np.minimum(cap, np.exp(np.minimum((x - theta) / kappa - 1.0, 700.0))))
        return float(np.max(d)), float(np.max(-d))

    # Every exponent is clipped at 700 at lo and underflows to 0 at hi.
    lo = float(np.min(x)) - 702.0 * kappa
    hi = float(np.max(x)) + 800.0 * kappa
    with np.errstate(over="ignore"):
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            above, below = gaps(mid)
            if above < below:
                lo = mid
            else:
                hi = mid
        stationarity = min(max(gaps(lo)), max(gaps(hi)))
    return max(feasibility, stationarity)


def _certified_gibbs(space, x, kappa, cap):
    q = project_to_density(space, capped_gibbs_point(space, x, kappa, cap), cap)
    residual = kkt_residual(space, x, kappa, q, cap)
    if not residual <= _KKT_TOL:
        raise ConvergenceError(
            f"capped Gibbs point has KKT residual {residual:.3e} above {_KKT_TOL}",
            best_point=q, residual=residual,
        )
    p = space.probs
    pos = q > 0.0
    ent = np.zeros_like(q)
    ent[pos] = q[pos] * np.log(q[pos])
    return q, float(np.dot(p, x * q) - kappa * np.dot(p, ent))
