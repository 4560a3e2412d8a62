"""Small dense optimization routines: LPs by HiGHS, exact or certified
maximization over densities, and membership in a set of densities.

This module is the one place that picks the solve path for a constraint
structure. ``_maximize`` maximizes E_Q[x] - kappa * KL(Q||P) over densities
for one payoff row (the risk-measure evaluator and the general sharing value
call it). ``_row_plan`` groups many rows' dual sets by path once
(``_uniform_plan`` by array operations, where the rows share one structure
and differ in their parameters), and
``_maximize_block`` follows the plan for a block of rows (the per-atom risks
of an allocation): the Gibbs, sorting-rule and inflated-hull rows vectorised
but for one np.dot and one log per row, every other row by _maximize, bit
for bit. One inflated hull takes the Rockafellar-Uryasev closed form
(``_inflated_block``); the density LP (``_linear_density_lp``) is left to
several hulls or a hull beside a cap. _maximize also returns, for each hull,
the weights lam that put its optimizer under gamma * D^T lam.

``_admits`` tests whether a density meets the constraints. A hull whose
weights come with the density and prove it dominated is settled by that
O(nJ) check; any other hull takes one small LP (``_dominated``), so a
density from the kernel makes no LP and one from a user makes one per hull.
Every LP in the package is built here and solved by HiGHS's dual revised
simplex, called through scipy's binding of HiGHS (``highs_solve``; scipy is
imported on the first LP, so importing the package loads no scipy). Its
point is checked here, and one that misses the check is solved once more by
HiGHS's interior-point method. _maximize and _admits check the hulls
themselves (one column per state, rows of unit P-mass); the payoff and the
density are the caller's to check.

The cap is one number bounding every entry of dQ/dP; math.inf means
uncapped. The hulls are one list of (gamma, D) pairs, q <= gamma * D^T lam
for some weights lam on the simplex; a plain scenario set is its gamma = 1
entry.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError, UnsupportedFamilyError, ValidationError
from .prob_core import DENSITY_SUM_TOL, Density, ProbSpace, kl_divergence

_FEAS_TOL = 1e-9    # primal residual above which an LP solver's point is rejected
# Shared cutoff for the 0-vs-infinity decision in coherent conjugates:
# constraint residuals up to this size still count as feasible.
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LpProblem:
    """maximize objective @ z  subject to  a_ub z <= b_ub, a_eq z = b_eq,
    0 <= z <= upper. upper holds one bound per variable, math.inf where
    there is none; None means none at all."""

    objective: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    upper: np.ndarray | None = None

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
        if self.upper is not None:
            upper = np.asarray(self.upper, dtype=float)
            if upper.shape != (n,) or not (upper >= 0.0).all():
                raise ValidationError(f"upper must hold {n} bounds >= 0, inf allowed")
            object.__setattr__(self, "upper", upper)
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


# HiGHS's primal and dual feasibility tolerances, below the 1e-9 at which
# its point is verified; HiGHS accepts none below 1e-10. At HiGHS's default
# of 1e-7, 1 of 200 density LPs of tests/support.aim_three_hull_market
# (n 20-150) ended "optimal" with a hull row 2.5e-9 off; at 1e-10 the worst
# was 5.5e-11.
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10}


def highs_solve(problem: LpProblem) -> LpSolution:
    """The LP by HiGHS (its dual revised simplex), upper bounds included,
    through scipy's binding of HiGHS with the model and options that
    scipy.optimize.milp would pass it, without milp's set-up. The optimal
    point's primal residuals are verified to be within 1e-9; a point that
    misses is solved once more by HiGHS's interior-point method (with its
    crossover), whose point must pass the same check, or ConvergenceError
    is raised. Entries within that tolerance below 0 are set to 0. HiGHS's
    infeasible and unbounded verdicts are the statuses of those names, and
    any other ending raises ConvergenceError. scipy is imported on the
    first call."""
    lp = _highs_lp(problem)
    status, x = _highs_run(lp, "choose")
    if status in ("infeasible", "unbounded"):
        return LpSolution(status)
    if status != "optimal":
        raise ConvergenceError(f"HiGHS ended with status {status!r}")
    try:
        _verify_residuals(problem, x)
    except ConvergenceError as missed:
        # The simplex point can end "optimal" within HiGHS's 1e-10 yet miss
        # a row by more than 1e-9 (two n = 500 inflated-hull markets of
        # aim_three_hull_market do), and HiGHS takes no tighter tolerance.
        status, x = _highs_run(lp, "ipm")
        if status != "optimal":
            raise missed
        _verify_residuals(problem, x)
    x = np.where((x < 0.0) & (x > -_FEAS_TOL), 0.0, x)
    return LpSolution("optimal", x, float(problem.objective @ x))


def _highs_lp(problem: LpProblem):
    """The problem as a HiGHS model: minimize -objective over 0 <= z <=
    upper, with the rows of a_ub (below b_ub) and then of a_eq (at b_eq),
    held column by column. Every vector goes in as a list, which the
    binding copies about twice as fast as an array."""
    from scipy.optimize._highspy import _core

    n = problem.n_vars
    rows = np.vstack([problem.a_ub, problem.a_eq])
    cols, row_index = np.nonzero(rows.T)
    lp = _core.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = len(rows)
    lp.col_cost_ = (-problem.objective).tolist()
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [math.inf] * n if problem.upper is None else problem.upper.tolist()
    lp.row_lower_ = [-math.inf] * problem.b_ub.size + problem.b_eq.tolist()
    lp.row_upper_ = problem.b_ub.tolist() + problem.b_eq.tolist()
    matrix = lp.a_matrix_  # a view: setting its fields sets the model's
    matrix.format_ = _core.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = len(rows)
    matrix.start_ = np.searchsorted(cols, np.arange(n + 1)).tolist()
    matrix.index_ = row_index.tolist()
    matrix.value_ = rows[row_index, cols].tolist()
    return lp


@functools.cache
def _highs_options(solver: str):
    """The options milp passes HiGHS (no log, the tolerances above), for
    HiGHS's solver of that name; built once per name, as building them
    costs about 30 us, a tenth of a small LP."""
    from scipy.optimize._highspy import _core

    options = _core.HighsOptions()
    options.log_to_console = False
    for name, value in _HIGHS_TOLERANCES.items():
        setattr(options, name, value)
    options.solver = solver
    return options


def _highs_run(lp, solver: str) -> tuple[str, np.ndarray | None]:
    """Run HiGHS's solver of that name ("choose" for its default, "ipm")
    on the model: its model status in lower case ("optimal",
    "infeasible", "unbounded", "iteration limit reached", ...) and, when
    optimal, its point."""
    from scipy.optimize._highspy import _core

    highs = _core._Highs()
    highs.passOptions(_highs_options(solver))
    highs.passModel(lp)
    highs.run()
    status = highs.modelStatusToString(highs.getModelStatus()).lower()
    if status != "optimal":
        return status, None
    return status, np.array(highs.getSolution().col_value)


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
    if problem.upper is not None:
        r = np.max(x - problem.upper)
        if r > _FEAS_TOL:
            raise ConvergenceError(f"upper bound residual {r:.3e} exceeds 1e-9",
                                   best_point=x, residual=float(r))


# ---------------------------------------------------------------------------
# Maximization over densities
# ---------------------------------------------------------------------------

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


def _check_hull(space: ProbSpace, d):
    """A hull matrix must have one column per state of the space, and every
    row P-mass 1 on it: a density checked on another space of the same
    width need not be a density here."""
    if np.shape(d)[-1] != space.n_states:
        raise ValidationError(f"scenario densities have {np.shape(d)[-1]} entries "
                              f"but the space has {space.n_states} states")
    for mass in np.atleast_1d(np.dot(d, space.probs)):
        if abs(mass - 1.0) > DENSITY_SUM_TOL:
            raise ValidationError(f"scenario density has P-expectation {float(mass)!r} "
                                  f"on this space; expected 1 within {DENSITY_SUM_TOL}")


def _check_kl_weight(kappa: float):
    # A dilation or a market merge can overflow kappa; inf * 0.0 is NaN.
    if not math.isfinite(kappa):
        raise ValidationError(f"the KL weight must be finite, got {kappa!r}")


def _maximize(space: ProbSpace, x: np.ndarray, kappa: float,
              constraints: DensityConstraints) -> tuple[np.ndarray, float, tuple]:
    """Maximize E_Q[x] - kappa * KL(Q||P) over the densities that meet the
    constraints; returns the optimizer's vector, the value and its hull
    weights: one lam per hull, in the constraints' order, with the
    optimizer under gamma * D^T lam (the witness that :func:`_admits`
    checks). x must be a finite float vector already sized to the space;
    the hulls are checked here.

    Each constraint structure has one exact solve path:

    * kappa = 0 and a cap alone (or none): the sorting rule
      (:func:`sorting_rule_point`), O(n log n);
    * kappa > 0, no cap and no hull: the Gibbs density
      exp(x / kappa) / E_P[exp(x / kappa)], by log-sum-exp (by log1p and
      expm1 where the loss spread is below kappa / 1024), the one-row case
      of :func:`_gibbs_block`;
    * kappa > 0 and a finite cap: the capped Gibbs point, certified by its
      KKT residual at its own multiplier (:func:`_certified_gibbs`);
    * kappa = 0, one hull at gamma = 1 (a plain scenario set) and no cap:
      the best scenario j, a vertex of the hull, with weights e_j;
    * kappa = 0, one hull at gamma > 1 (an inflated scenario set) and no
      cap: the Rockafellar-Uryasev minimum over t, the one-row case of
      :func:`_inflated_block`, O(nJ + J^2) after a sort, with the weights
      of the (at most two) scenarios active at t*;
    * kappa = 0 and any other scenario hulls (several, or beside a cap):
      the density LP, which HiGHS solves (:func:`_linear_density_lp`),
      with the weights of its solution.

    Raises ValidationError when kappa is not finite or a hull matrix does
    not fit the space, InfeasibleError when no density satisfies the
    constraints, UnsupportedFamilyError for scenario hulls mixed with a KL
    penalty, and ConvergenceError (carrying the point and its residual) on
    the capped Gibbs path when the point's KKT residual exceeds the module
    tolerance; the density LP raises ConvergenceError when HiGHS ends
    otherwise than optimal or its point misses the constraints by more than
    1e-9.
    """
    _check_kl_weight(kappa)
    cap = constraints.cap
    if constraints.hulls:
        for _, d in constraints.hulls:
            _check_hull(space, d)
        if kappa != 0.0:
            raise UnsupportedFamilyError(
                "entropic-penalized scores support only a density cap; scenario-hull "
                "constraints mixed with a KL penalty have no solver here"
            )
        (gamma, dmat), *others = constraints.hulls
        if gamma == 1.0 and not others and cap == math.inf:
            # A plain scenario set: the best scenario, a vertex of its hull.
            rows = np.atleast_2d(dmat)
            best_value, best = -math.inf, 0
            for j, d in enumerate(rows):
                v = float(np.dot(space.probs, d * x))
                if v > best_value:
                    best_value, best = v, j
            lam = np.zeros(len(rows))
            lam[best] = 1.0
            return rows[best], best_value, (lam,)
        if _is_inflated_hull(kappa, constraints):
            values, q, _, lam = _inflated_block(space.probs, dmat, x[None],
                                                np.array([gamma], float))
            return q[0], values[0], (lam[0],)
        return _linear_density_lp(space, x, constraints)
    if kappa == 0.0:
        q = sorting_rule_point(space, x, cap)
        return q, float(np.dot(space.probs, q * x)), ()
    if cap == math.inf:
        values, w, mass = _gibbs_block(space.probs, x[None], np.array([kappa]))
        return w[0] / mass[0], values[0], ()
    q, value = _certified_gibbs(space, x, kappa, cap)
    return q, value, ()


def _is_inflated_hull(kappa, constraints) -> bool:
    """One hull at gamma > 1, no cap and no KL weight: the closed form."""
    return (kappa == 0.0 and constraints.cap == math.inf and len(constraints.hulls) == 1
            and constraints.hulls[0][0] > 1.0)


def _row_plan(duals) -> tuple:
    """Group rows by the path _maximize picks, from each row's dual set
    (kappa, DensityConstraints): the Gibbs rows (kappa > 0, no cap, no hull)
    with their KL weights, the sorting-rule rows (kappa = 0, no hull) with
    their caps, the inflated-hull rows as (D, rows, gammas), one entry per
    matrix object, and every other row as (row, kappa, constraints). Raises
    _maximize's ValidationError when some kappa is not finite."""
    gibbs, kappas, sort, caps, other = [], [], [], [], []
    hulls: dict[int, tuple] = {}
    for i, (kappa, constraints) in enumerate(duals):
        _check_kl_weight(kappa)
        if not constraints.hulls and kappa == 0.0:
            sort.append(i)
            caps.append(constraints.cap)
        elif not constraints.hulls and kappa > 0.0 and constraints.cap == math.inf:
            gibbs.append(i)
            kappas.append(kappa)
        elif _is_inflated_hull(kappa, constraints):
            gamma, dmat = constraints.hulls[0]
            group = hulls.setdefault(id(dmat), (dmat, [], []))
            group[1].append(i)
            group[2].append(gamma)
        else:
            other.append((i, kappa, constraints))
    return (np.array(gibbs, dtype=int), np.array(kappas, dtype=float),
            np.array(sort, dtype=int), np.array(caps, dtype=float),
            tuple((d, np.array(rows, dtype=int), np.array(gammas, dtype=float))
                  for d, rows, gammas in hulls.values()),
            tuple(other))


def _uniform_plan(n_rows: int, kappa, cap, hull=None) -> tuple:
    """_row_plan, by array operations, for n_rows rows whose dual sets share
    one structure and differ only in their parameters: the KL weight kappa
    and the cap, each one entry per row or one for all, and at most one hull
    (gamma, D), D shared by every row and gamma one entry per row or one for
    all. The groups, their order and their entries are _row_plan's, and so
    is the ValidationError for the first KL weight that is not finite."""
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), n_rows)
    cap = np.broadcast_to(np.asarray(cap, dtype=float), n_rows)
    bad = np.flatnonzero(~np.isfinite(kappa))
    if bad.size:
        _check_kl_weight(float(kappa[bad[0]]))
    rows = np.arange(n_rows)
    if hull is None:
        sort = kappa == 0.0
        gibbs = (kappa > 0.0) & (cap == math.inf)
        groups, other = (), ~(sort | gibbs)
    else:
        gamma = np.broadcast_to(np.asarray(hull[0], dtype=float), n_rows)
        dmat = hull[1]
        sort = gibbs = np.zeros(n_rows, dtype=bool)
        inflated = (kappa == 0.0) & (cap == math.inf) & (gamma > 1.0)
        groups = ((dmat, rows[inflated], gamma[inflated]),) if inflated.any() else ()
        other = ~inflated

    def constraints(i):
        hulls = () if hull is None else ((float(gamma[i]), dmat),)
        return DensityConstraints(float(cap[i]), hulls)

    return (rows[gibbs], kappa[gibbs], rows[sort], cap[sort], groups,
            tuple((i, float(kappa[i]), constraints(i))
                  for i in np.flatnonzero(other).tolist()))


def _maximize_block(space: ProbSpace, xs: np.ndarray, plan: tuple) -> np.ndarray:
    """The values of _maximize, bit for bit, for the rows of a (k, n) block
    at the dual sets that _row_plan grouped into plan: the Gibbs rows in one
    block, the sorting-rule rows in another, the inflated-hull rows in one
    block per matrix, then each other row by its own _maximize call, with
    that call's LP or scenario scan. Raises what _maximize raises on some
    row."""
    gibbs, kappa, sort, cap, hulls, other = plan
    p = space.probs
    out = np.empty(len(xs))
    if gibbs.size:
        out[gibbs] = _gibbs_block(p, xs[gibbs], kappa)[0]
    if sort.size:
        rows = xs[sort]
        out[sort] = [float(np.dot(p, row)) for row in _sorting_points(p, rows, cap) * rows]
    for dmat, rows, gammas in hulls:
        _check_hull(space, dmat)
        out[rows] = _inflated_block(p, dmat, xs[rows], gammas)[0]
    for i, k, constraints in other:
        out[i] = _maximize(space, xs[i], k, constraints)[1]
    return out


# A loss spread below this fraction of kappa takes the Gibbs value as
# max x + kappa * log1p(E_P[expm1((x - max x) / kappa)]). There
# kappa * (shift + log mass) cancels: both terms near E_P[x] / kappa, each
# carrying kappa * 1e-16 of rounding. Above it the shifted form stays, with
# the bits it always had.
_FLAT_SPREAD = 2.0 ** -10


def _gibbs_block(p, xs, kappa):
    """The Gibbs form for each row of a (k, n) block at its KL weight
    kappa > 0: the values, the weights w = exp(x / kappa - max(x / kappa))
    (shifted, as x / kappa can overflow) and their P-masses; the density is
    w / mass. The elementwise work runs over the block; each row keeps its
    own np.dot and math.log, since a matrix product or np.log rounds
    differently."""
    kl = kappa.tolist()
    scaled = xs / kappa[:, None]
    shift = scaled.max(axis=1)
    w = np.exp(scaled - shift[:, None])
    mass = [float(np.dot(p, row)) for row in w]
    values = [k * (s + math.log(m)) for k, s, m in zip(kl, shift.tolist(), mass)]
    flat = np.flatnonzero(shift - scaled.min(axis=1) < _FLAT_SPREAD)
    if flat.size:
        top = xs[flat].max(axis=1)
        drops = np.expm1((xs[flat] - top[:, None]) / kappa[flat, None])
        for i, t, row in zip(flat.tolist(), top.tolist(), drops):
            values[i] = t + kl[i] * math.log1p(float(np.dot(p, row)))
    return values, w, mass


def _sorting_points(p, xs, cap):
    """:func:`sorting_rule_point` for each row of the block at its own cap,
    bit for bit: the rule's stable argsort of -x, row by row."""
    _check_cap(float(cap.min()))
    return _fill(p, np.argsort(-xs, axis=1, kind="stable"), cap[:, None])


def _fill(p, order, caps):
    """Each row's density that fills its states in the given order, each up
    to its cap (caps sorted as order, or one per row), until the P-mass
    reaches 1; the boundary state carries the remainder."""
    k, n = order.shape
    rows = np.arange(k)
    cum = np.cumsum(p[order] * caps, axis=1)
    # cum is nondecreasing, so this count is the rule's searchsorted.
    edge = np.minimum(np.count_nonzero(cum < 1.0 - 1e-12, axis=1), n - 1)
    before = np.where(edge > 0, cum[rows, edge - 1], 0.0)
    ranked = np.where(np.arange(n) < edge[:, None], caps, 0.0)
    ranked[rows, edge] = (1.0 - before) / p[order[rows, edge]]
    q = np.empty_like(ranked)
    q[rows[:, None], order] = ranked
    return q


# Bound on the cells of _inflated_rows' (rows, states, scenarios)
# temporaries: a larger block runs in slices of rows. Each row's arithmetic
# is its own, so the slicing moves no bit.
_HULL_SLICE_CELLS = 2 ** 18


def _inflated_block(p, dmat, xs, gamma):
    """Maximize E_Q[x] over {q <= gamma * D^T lam, E_P[q] = 1, lam on the
    simplex} for each row x of a (k, n) block at its own gamma > 1, where
    the rows of D are densities. Returns the values, one np.dot per row, the
    optimizers (k, n), each row's t* and its weights lam (k, J)
    (:func:`_inflated_rows`)."""
    dmat = np.atleast_2d(np.asarray(dmat, dtype=float))
    j, n = dmat.shape
    step = max(1, _HULL_SLICE_CELLS // ((n + 1) * j + j * j))
    q, t, lam = (np.concatenate(part) for part in zip(*(
        _inflated_rows(p, dmat, xs[lo:lo + step], gamma[lo:lo + step])
        for lo in range(0, len(xs), step))))
    values = [float(np.dot(p, row)) for row in q * xs]
    return values, q, t, lam


def _inflated_rows(p, dmat, xs, gamma):
    """The optimizers, t* and weights of :func:`_inflated_block` for a
    slice of rows.

    By LP duality over E_P[q] = 1 and a minimax swap, the value is

        min over t of f(t) = t + gamma * max_j E_{Q_j}[(x - t)^+],

    convex and piecewise linear (Rockafellar-Uryasev; J = 1 with D = P is
    expected shortfall at level 1 / gamma). Between two adjacent loss values
    each scenario's term is a line, so f's minimum lies at the best loss
    value u or at a crossing of two lines in one of the two segments next
    to u (ties merge into one loss value, so a segment never has zero
    width). Within a segment, f is the upper envelope of the lines
    alpha_j + beta_j t, whose minimum over all t is the largest crossing
    of a rising line with a falling one; it counts when it lies inside the
    segment. The optimizer mixes the (at most two) scenarios active at t*
    by lam, so that f's slope is 0 at t*: q = gamma * D^T lam above t*, and
    the states at t* take the remainder, in state order (:func:`_fill`).
    Those two entries of lam, zero elsewhere, are the row's weights.
    """
    k, n = xs.shape
    rows = np.arange(k)
    order = np.argsort(-xs, axis=1, kind="stable")
    v = np.take_along_axis(xs, order, axis=1)  # losses, descending
    pd = p[order][:, :, None] * dmat.T[order]   # p_i * d_ji, (k, n, J)
    # mass[:, i] is Q_j(x > v_i) at the first state of a run of equal
    # losses, and Q_j of every state at i = n; top[:, i] is E_{Q_j}[x; x > v_i].
    mass = np.zeros((k, n + 1, len(dmat)))
    top = np.zeros_like(mass)
    np.cumsum(pd, axis=1, out=mass[:, 1:])
    np.cumsum(pd * v[:, :, None], axis=1, out=top[:, 1:])
    shortfall = top[:, :n] - mass[:, :n] * v[:, :, None]  # E_{Q_j}[(x - v_i)^+]
    f = v + gamma[:, None] * shortfall.max(axis=2)
    f[:, 1:][v[:, 1:] == v[:, :-1]] = np.inf  # a loss value once, at its first state
    at = np.argmin(f, axis=1)
    u = v[rows, at]
    below = at + np.count_nonzero(v == u[:, None], axis=1)  # first state under u
    # f's lines on (u, next loss value up) and on (next loss value down, u).
    up = _envelope_minimum(top[rows, at], mass[rows, at], gamma, u,
                           np.where(at > 0, v[rows, at - 1], np.inf))
    down = _envelope_minimum(top[rows, below], mass[rows, below], gamma,
                             np.where(below < n, v[rows, np.minimum(below, n - 1)], -np.inf), u)

    # At u itself: the scenario active just below u is the one of largest
    # Q_j(x >= u) among those that tie at u, and just above u the one of
    # smallest Q_j(x > u). f's slopes there are 1 - gamma * those masses.
    over, under = mass[rows, at], mass[rows, below]
    ties = shortfall[rows, at]
    ties = ties == ties.max(axis=1, keepdims=True)
    left = np.where(ties, under, -np.inf).argmax(axis=1)
    right = np.where(ties, over, np.inf).argmin(axis=1)
    lo_left = gamma * over[rows, left]
    hi_left, hi_right = gamma * under[rows, left], gamma * under[rows, right]
    # One scenario whose slopes bracket 0, else the mix of the two whose
    # Q(x >= u) masses bracket 1 / gamma.
    mix = (lo_left > 1.0) & (hi_right < 1.0)
    width = np.where(mix, hi_left - hi_right, 1.0)
    first = np.where(lo_left <= 1.0, left, right)
    pair = [first, np.where(mix, left, first)]
    lam = [np.where(mix, (hi_left - 1.0) / width, 1.0),
           np.where(mix, (1.0 - hi_right) / width, 0.0)]
    t = u.copy()
    best = f[rows, at]
    for value, cross, js, lams in (up, down):
        take = value < best
        best = np.where(take, value, best)
        t = np.where(take, cross, t)
        pair = [np.where(take, a, b) for a, b in zip(js, pair)]
        lam = [np.where(take, a, b) for a, b in zip(lams, lam)]
    caps = gamma[:, None] * (lam[0][:, None] * dmat[pair[0]] + lam[1][:, None] * dmat[pair[1]])
    weights = np.zeros((k, len(dmat)))
    # One scenario alone is the pair (j, j) with lam (1, 0): its 1 goes last.
    weights[rows, pair[1]] = lam[1]
    weights[rows, pair[0]] = lam[0]
    return _fill(p, order, np.take_along_axis(caps, order, axis=1)), t, weights


def _envelope_minimum(above, mass, gamma, lo, hi):
    """For each row, the minimum of f(t) = max_j alpha_j + beta_j t over the
    open segment (lo, hi), where alpha = gamma * E_{Q_j}[x; x above the
    segment] and beta = 1 - gamma * Q_j(above): the value, or +inf where
    the minimum over all t lies outside the segment, its t, the pair (j, l)
    of a rising and a falling line that cross there, and the weights that
    mix their slopes to 0."""
    k, j = mass.shape
    rows = np.arange(k)
    alpha = gamma[:, None] * above
    beta = 1.0 - gamma[:, None] * mass
    rise, fall = beta[:, :, None], beta[:, None, :]
    valid = (rise >= 0.0) & (fall <= 0.0) & (rise > fall)
    width = np.where(valid, rise - fall, 1.0)
    cross = np.where(valid, (alpha[:, :, None] * -fall + alpha[:, None, :] * rise) / width,
                     -np.inf)
    a, b = np.divmod(cross.reshape(k, -1).argmax(axis=1), j)
    value, span = cross[rows, a, b], width[rows, a, b]
    t = (alpha[rows, b] - alpha[rows, a]) / span
    inside = np.isfinite(value) & (lo < t) & (t < hi)
    return (np.where(inside, value, np.inf), t, (a, b),
            (-beta[rows, b] / span, beta[rows, a] / span))


def _linear_density_lp(space, x, constraints):
    """Maximize E_Q[x] over the densities that meet the constraints, as one
    LP over (q, lam_1, ..., lam_H) for H hulls, solved by HiGHS
    (:func:`highs_solve`): each hull enters as the n rows q - gamma * D^T
    lam_h <= 0 and its weight-sum row, and the cap as the bounds q <= cap.
    Returns q, the value and the weights (lam_1, ..., lam_H). Raises
    InfeasibleError when no density meets them and ConvergenceError when
    HiGHS ends otherwise than optimal."""
    p = space.probs
    n = space.n_states
    hulls = [(float(g), np.atleast_2d(np.asarray(d, dtype=float))) for g, d in constraints.hulls]
    n_total = n + sum(len(d) for _, d in hulls)

    c = np.zeros(n_total)
    c[:n] = p * x
    a_ub = np.zeros((n * len(hulls), n_total))
    a_eq = np.zeros((1 + len(hulls), n_total))
    a_eq[0, :n] = p
    weights = []
    offset = n
    for k, (gamma, dmat) in enumerate(hulls):
        cols = slice(offset, offset + len(dmat))
        weights.append(cols)
        block = a_ub[k * n:(k + 1) * n]
        block[:, :n] = np.eye(n)
        block[:, cols] = -gamma * dmat.T
        a_eq[1 + k, cols] = 1.0
        offset += len(dmat)
    upper = None
    if math.isfinite(constraints.cap):
        upper = np.full(n_total, math.inf)
        upper[:n] = constraints.cap

    problem = LpProblem(c, a_ub, np.zeros(len(a_ub)), a_eq, np.ones(len(a_eq)), upper)
    sol = highs_solve(problem)
    if sol.status == "infeasible":
        raise InfeasibleError("no density satisfies the feasibility constraints")
    if sol.status != "optimal":
        raise ConvergenceError(f"density LP ended with status {sol.status}")
    return sol.point[:n], float(sol.value), tuple(sol.point[w] for w in weights)


def _admits(space: ProbSpace, constraints: DensityConstraints, q: np.ndarray,
            weights: tuple | None = None) -> bool:
    """Whether the density vector q satisfies the constraints: q exceeds the
    cap by at most MEMBERSHIP_TOL, and for each hull q is dominated by
    gamma times a point of the hull, up to MEMBERSHIP_TOL.

    weights, where given, holds one lam per hull, as _maximize returns them
    with its optimizer. A hull whose lam proves q dominated
    (:func:`_proves`) is settled by that O(nJ) check. Every other hull, and
    every hull when no weights are given (a density from a user), takes the
    membership LP (:func:`_dominated`). A lam that proves q dominated makes
    the LP's smallest violation at most MEMBERSHIP_TOL too, so the verdict
    is the LP's either way.

    A hull at gamma = 1 (a plain scenario set) takes the same test: every
    state has p > 0, so q <= D^T lam with both sides of P-mass 1 forces
    q = D^T lam.
    """
    for _, d in constraints.hulls:
        _check_hull(space, d)
    if not q.max() <= constraints.cap + MEMBERSHIP_TOL:
        return False
    if weights is None:
        weights = (None,) * len(constraints.hulls)
    return all(_proves(gamma, d, q, lam) or _dominated(gamma, d, q)
               for (gamma, d), lam in zip(constraints.hulls, weights, strict=True))


def _proves(gamma: float, dmat: np.ndarray, q: np.ndarray, lam) -> bool:
    """Whether the weights lam (None for none) prove q <= gamma * D^T lam'
    up to MEMBERSHIP_TOL in every state, for lam' = lam / sum(lam), a point
    of the simplex: lam must be >= 0 with a positive sum."""
    if lam is None or not (lam >= 0.0).all():
        return False
    total = lam.sum()
    return bool(total > 0.0
                and (q - gamma * ((lam / total) @ np.atleast_2d(dmat))).max() <= MEMBERSHIP_TOL)


def _dominated(gamma: float, dmat: np.ndarray, q: np.ndarray) -> bool:
    """Whether q <= gamma * D^T lam for some weights lam on the simplex, up
    to MEMBERSHIP_TOL in every state, by one LP (:func:`highs_solve`).

    The smallest worst violation, min over lam of max(0, max_i (q - gamma *
    D^T lam)_i), equals by LP duality

        max  q @ mu - gamma * s   over mu >= 0 (one per state), s >= 0,
        s.t. D mu <= s (one row per scenario),  sum(mu) <= 1.

    Every right-hand side is >= 0, so the origin is feasible, and sum(mu)
    <= 1 bounds the objective. An LP that still ends other than optimal is
    a solver failure: ConvergenceError.
    """
    j, n = np.atleast_2d(dmat).shape
    c = np.concatenate([q, [-gamma]])
    a_ub = np.zeros((j + 1, n + 1))
    a_ub[:j, :n] = dmat
    a_ub[:j, n] = -1.0
    a_ub[j, :n] = 1.0
    b_ub = np.zeros(j + 1)
    b_ub[j] = 1.0
    sol = highs_solve(LpProblem(c, a_ub, b_ub))
    if sol.status != "optimal":
        raise ConvergenceError(f"membership LP ended with status {sol.status}")
    return float(sol.value) <= MEMBERSHIP_TOL


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
    # Array methods rather than numpy's function wrappers: the same
    # kernels, with less Python per call on this one-row path.
    order = (-x).argsort(kind="stable")
    cum = (p[order] * cap).cumsum()
    k = min(int(cum.searchsorted(1.0 - 1e-12)), n - 1)
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


def _certified_gibbs(space, x, kappa, cap):
    """Maximizer and value of E_Q[x] - kappa * KL(Q||P) over {0 <= q <= cap,
    E_P[q] = 1}: the KKT point q = min(cap, exp((x - theta)/kappa - 1)),
    unique as the objective is strictly concave, with the multiplier theta
    fixed by E_P[q] = 1 (bisection). The point is projected onto the capped
    density set, and (q, theta) is certified by its KKT residual at that
    theta: the larger of q's feasibility violation and max_i p_i * |q_i -
    min(cap, exp((x_i - theta)/kappa - 1))|, how far the projection moved
    the point; weighting by p keeps it finite where a Gibbs weight underflows
    to 0.

    Far below the loss spread no float theta puts the P-mass within
    _KKT_TOL of 1: one ulp of theta moves each free exponent by ulp(theta) /
    kappa. Where the check fails and the bisection's point misses P-mass 1
    by more than _KKT_TOL, the point keeps the bisection's capped set,
    scales its free states exactly (water-filling, relative to their
    largest loss rather than to theta) and is certified again by the same
    residual. Above _KKT_TOL, raises ConvergenceError carrying q and the
    residual."""
    p = space.probs

    def point(theta):
        return np.minimum(cap, np.exp(np.minimum((x - theta) / kappa - 1.0, 700.0)))

    if cap <= 1.0 + 1e-12:
        theta = -math.inf  # every state sits at the cap
    else:
        lo = hi = 0.0
        step = kappa + float(np.max(np.abs(x)))
        # The mass at 0 decides which bracket loop runs; only one does.
        while float(np.dot(p, point(lo))) < 1.0:
            lo -= step
            step *= 2.0
        while float(np.dot(p, point(hi))) > 1.0:
            hi += step
            step *= 2.0
        # Bisect until the midpoint rounds to an endpoint: no float lies
        # strictly between them, so more halvings would not move it.
        theta = 0.5 * (lo + hi)
        while lo < theta < hi:
            if float(np.dot(p, point(theta))) >= 1.0:
                lo = theta
            else:
                hi = theta
            theta = 0.5 * (lo + hi)
    gibbs = point(theta)
    q = project_to_density(space, gibbs, cap)
    residual = _kkt_residual(p, q, cap, gibbs)
    free = gibbs < cap
    room = 1.0 - cap * float(np.dot(p, ~free))  # the free states' P-mass
    if (not residual <= _KKT_TOL and abs(float(np.dot(p, gibbs)) - 1.0) > _KKT_TOL
            and room > 0.0 and free.any()):
        z = (x - np.max(x[free])) / kappa
        w = np.exp(np.minimum(z, 0.0))
        scale = room / float(np.dot(p[free], w[free]))
        q = np.where(free, scale * w, cap)
        residual = _kkt_residual(p, q, cap, np.exp(np.minimum(math.log(scale) + z,
                                                              math.log(cap))))
    if not residual <= _KKT_TOL:
        raise ConvergenceError(f"capped Gibbs point has KKT residual {residual:.3e} "
                               f"above {_KKT_TOL}", best_point=q, residual=residual)
    return q, float(np.dot(p, x * q)) - kappa * kl_divergence(space, Density(q))


def _kkt_residual(p, q, cap, target):
    """The larger of q's feasibility violation (P-mass, cap, sign) and
    max_i p_i * |q_i - target_i|, where target is min(cap, the Gibbs value)
    at the point's multiplier."""
    return max(abs(float(np.dot(p, q)) - 1.0), float(np.max(p * (q - cap))),
               float(np.max(-p * q)), float(np.max(p * np.abs(q - target))))
