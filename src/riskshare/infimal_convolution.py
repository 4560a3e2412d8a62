"""The value function of unconstrained risk sharing over an agent space.

The sharing problem minimizes the weighted sum of per-atom risks over all
allocations whose Gelfand integral is the shared loss. Three market kinds
are handled:

* dilation profiles: per-atom dilations of one base with parameters
  gamma_a; the value closed-forms to the base dilated by the aggregate
  Gamma = sum_a w_a gamma_a, and the proportional allocation
  (gamma_a x / Gamma) attains it;
* inflation profiles: per-atom inflations of one coherent base; the value
  closed-forms to the base inflated by the smallest gamma_a, attained by
  loading all risk on the minimizing atoms;
* general families: the value is computed through its dual, maximizing
  E_Q[x] minus the weighted sum of per-atom penalties over densities. The
  atoms' dual sets (risk_measures.dual_set) merge into one KL weight, one
  density cap and a set of scenario hulls, and opt_kernel solves each
  structure exactly: the sorting rule for a cap alone, the KKT-certified
  capped Gibbs point for a KL weight with a cap, the simplex when hulls are
  present. No primal allocation is certified on this path.

The non-attainment experiment discretizes a strictly-decreasing-to-Gamma
parameter profile at increasing resolution and reports the (positive,
vanishing) gap between the discrete values and the continuum target.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import opt_kernel
from .agent_space import (
    AgentSpace,
    Allocation,
    RiskFamily,
    atom_risks,
    unit_interval_midpoints,
)
from .errors import (
    IllPosedError,
    InfeasibleError,
    ValidationError,
    VacuousExperimentError,
)
from .prob_core import Density, ProbSpace, essup, expect_under
from .risk_measures import (
    RiskSpec,
    _conjugate,
    dilate,
    dual_set,
    dual_solve,
    inflate,
    rho,
)

ARGMIN_TOL = 1e-12        # atoms within this of the minimum count as minimizers
CERTIFICATE_TOL = 1e-9    # allocation certificates must match the value this tightly
VACUOUS_TOL = 1e-9


class Attainment(str, enum.Enum):
    ATTAINED = "attained"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class DilationProfile:
    base: RiskSpec
    gammas: np.ndarray
    gamma_total: float  # sum_a w_a gamma_a


@dataclass(frozen=True, eq=False)
class InflationProfile:
    base: RiskSpec
    gammas: np.ndarray
    gamma_inf: float               # min over atoms; the discrete aggregate
    target_gamma: float | None = None  # continuum essential infimum, if any


@dataclass(frozen=True)
class GeneralFamily:
    pass


GENERAL = GeneralFamily()


@dataclass(frozen=True, eq=False)
class Market:
    space: ProbSpace
    agents: AgentSpace
    family: RiskFamily
    kind: DilationProfile | InflationProfile | GeneralFamily

    def __post_init__(self):
        if len(self.family) != self.agents.n_atoms:
            raise ValidationError("risk family size does not match agent space")

    @classmethod
    def general(cls, space, agents, family) -> "Market":
        return cls(space, agents, family, GENERAL)

    @classmethod
    def dilation(cls, space, agents, base, gammas) -> "Market":
        g = np.asarray(gammas, dtype=float)
        if g.shape != (agents.n_atoms,):
            raise ValidationError("need one dilation parameter per atom")
        if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
            raise ValidationError("dilation parameters must be finite and > 0")
        total = float(np.dot(agents.weights, g))
        if not (math.isfinite(total) and total > 0.0):
            raise ValidationError("aggregate dilation parameter must be finite and > 0")
        family = RiskFamily(tuple(dilate(base, float(v)) for v in g))
        g = g.copy()
        g.setflags(write=False)
        return cls(space, agents, family, DilationProfile(base, g, total))

    @classmethod
    def inflation(cls, space, agents, base, gammas,
                  target_gamma: float | None = None) -> "Market":
        g = np.asarray(gammas, dtype=float)
        if g.shape != (agents.n_atoms,):
            raise ValidationError("need one inflation parameter per atom")
        if not np.all(np.isfinite(g)) or np.any(g < 1.0):
            raise ValidationError("inflation parameters must be >= 1")
        family = RiskFamily(tuple(inflate(base, float(v)) for v in g))
        g = g.copy()
        g.setflags(write=False)
        return cls(space, agents, family,
                   InflationProfile(base, g, float(np.min(g)), target_gamma))


@dataclass(frozen=True, eq=False)
class ShareResult:
    value: float
    allocation: Allocation | None
    attained: Attainment
    dual_optimizer: Density | None
    duality_gap: float


def aggregate_conjugate(market: Market, q: Density) -> float:
    """Weighted sum of per-atom penalties at q, in [0, math.inf], with
    infinity absorbing.

    q is checked once; the penalties are memoised over the nodes of the
    spec tree, so atoms dilating one base share one evaluation of it."""
    if q.q.size != market.space.n_states:
        raise ValidationError("density dimension does not match space")
    total = 0.0
    memo: dict[int, float] = {}
    for spec, w in zip(market.family.specs, market.agents.weights):
        pen = _conjugate(spec, market.space, q, memo)
        if not math.isfinite(pen):
            return math.inf
        total += float(w) * pen
    return total


def optimal_allocation_dilated(market: Market, x) -> Allocation:
    """Proportional-to-tolerance rows gamma_a * x / Gamma."""
    if not isinstance(market.kind, DilationProfile):
        raise ValidationError("market does not carry a dilation profile")
    x = market.space.rv(x)
    kind = market.kind
    return Allocation(np.outer(kind.gammas / kind.gamma_total, x))


def optimal_allocation_inflated(market: Market, x) -> Allocation:
    """x split evenly (by mass) over the atoms with the smallest parameter."""
    if not isinstance(market.kind, InflationProfile):
        raise ValidationError("market does not carry an inflation profile")
    x = market.space.rv(x)
    kind = market.kind
    mask = kind.gammas <= kind.gamma_inf + ARGMIN_TOL
    mass = float(np.dot(market.agents.weights, mask.astype(float)))
    shares = np.zeros((market.agents.n_atoms, market.space.n_states))
    shares[mask] = x / mass
    return Allocation(shares)


def value(market: Market, x) -> ShareResult:
    """Evaluate the sharing problem's value at x, with certificates.

    Closed-form profiles return an optimal allocation; the general path
    returns the dual value and optimizer only. Raises IllPosedError when no
    density has finite aggregate penalty (the value would be -inf).
    """
    x = market.space.rv(x)
    kind = market.kind
    if isinstance(kind, DilationProfile):
        vspec = dilate(kind.base, kind.gamma_total)
        val, q = dual_solve(vspec, market.space, x)
        alloc = optimal_allocation_dilated(market, x)
        return _result(market, x, val, alloc, Attainment.ATTAINED, q)
    if isinstance(kind, InflationProfile):
        vspec = inflate(kind.base, kind.gamma_inf)
        val, q = dual_solve(vspec, market.space, x)
        alloc = optimal_allocation_inflated(market, x)
        return _result(market, x, val, alloc, Attainment.ATTAINED, q)
    val, q = _general_dual_value(market, x)
    return _result(market, x, val, None, Attainment.UNKNOWN, q)


def _result(market, x, val, alloc, attained, q) -> ShareResult:
    pen = aggregate_conjugate(market, q)
    if math.isfinite(pen):
        gap = val - (expect_under(market.space, q, x) - pen)
    else:
        gap = math.inf
    if -CERTIFICATE_TOL <= gap < 0.0:
        gap = 0.0
    return ShareResult(float(val), alloc, attained, q, float(gap))


def _general_dual_value(market: Market, x) -> tuple[float, Density]:
    # Merge the atoms' dual sets: weighted KL weights add up, the tightest
    # cap binds, and every distinct scenario hull applies.
    kl_weight, cap = 0.0, math.inf
    member: dict[bytes, np.ndarray] = {}
    dominating: dict[tuple[float, bytes], tuple[float, np.ndarray]] = {}
    for spec, w in zip(market.family.specs, market.agents.weights):
        kappa, dset = dual_set(spec, float(w))
        kl_weight += kappa
        cap = min(cap, dset.cap)
        for d in dset.member_hulls:
            member.setdefault(d.tobytes(), d)
        for gamma, d in dset.dominating_hulls:
            dominating.setdefault((gamma, d.tobytes()), (gamma, d))
    constraints = opt_kernel.DensityConstraints(
        cap, tuple(member.values()), tuple(dominating.values()))
    objective = opt_kernel.DensityObjective(payoff=x, kl_weight=kl_weight)
    try:
        q, val = opt_kernel.maximize_over_densities(market.space, objective, constraints)
    except InfeasibleError as exc:
        raise IllPosedError(
            "every density has infinite aggregate penalty; the sharing value "
            "is -inf (the agents share no prior)"
        ) from exc
    return val, q


def acceptance_member(market: Market, x, tol: float = 1e-7) -> bool:
    """Whether x belongs to the value function's acceptance set."""
    if not tol >= 0.0:
        raise ValidationError("tolerance must be >= 0")
    return value(market, x).value <= tol


def aumann_acceptance_sample(market: Market, n_samples: int,
                             rng_seed: int) -> list[np.ndarray]:
    """Random members of the aggregate acceptance set.

    Each sample draws one payoff per atom, recenters it into that atom's
    acceptance set by subtracting its risk, and returns the Gelfand integral
    of the recentered allocation. Every returned vector passes
    :func:`acceptance_member` at tolerance 1e-7 by construction.
    """
    if not float(n_samples).is_integer() or n_samples < 1:
        raise ValidationError(
            f"the sample count must be a positive whole number, got {n_samples!r}")
    rng = np.random.default_rng(rng_seed)
    out = []
    w = market.agents.weights
    for _ in range(int(n_samples)):
        draws = rng.normal(0.0, 1.0, (market.agents.n_atoms, market.space.n_states))
        risks = atom_risks(market.family, market.space, Allocation(draws))
        out.append(w @ (draws - risks[:, None]))
    return out


def nonattainment_experiment(base: RiskSpec, gamma_of, target_gamma: float,
                             space: ProbSpace, x,
                             refinements) -> list[tuple[int, float, float]]:
    """Discrete witness of continuum non-attainment for inflation profiles.

    ``gamma_of`` maps a unit-interval position to a parameter strictly above
    ``target_gamma`` (the continuum essential infimum, never attained). Each
    refinement N discretizes the interval into N midpoint atoms; the reported
    gap is the discrete sharing value minus the continuum value
    rho(inflate(base, target_gamma), x), positive at every N and shrinking
    as the mesh refines.

    Raises VacuousExperimentError when the inflation value is already
    constant above ``target_gamma`` (then every gap would be 0 and the
    experiment shows nothing).
    """
    refinements = list(refinements)
    if not refinements or any(not float(n).is_integer() or n < 1 for n in refinements):
        raise ValidationError(f"refinements must be positive whole atom counts, got {refinements}")
    refinements = [int(n) for n in refinements]
    if target_gamma < 1.0:
        raise ValidationError("target inflation parameter must be >= 1")
    x = space.rv(x)
    continuum_value = rho(inflate(base, target_gamma), space, x)
    # The inflation value is nondecreasing in gamma with limit essup(x), so
    # it moves above target_gamma exactly when it has not yet reached essup.
    if abs(essup(space, x) - continuum_value) <= VACUOUS_TOL:
        raise VacuousExperimentError(
            "the inflation value already equals the essential supremum at the "
            "target parameter, so it is constant in gamma and every "
            "discretization gap is 0"
        )
    results = []
    for n in refinements:
        gammas = np.array([float(gamma_of(t)) for t in unit_interval_midpoints(n)])
        if np.any(gammas <= target_gamma):
            raise ValidationError(
                "profile must stay strictly above the target parameter"
            )
        discrete = float(np.min(gammas))
        val = rho(inflate(base, discrete), space, x)
        results.append((n, val, val - continuum_value))
    return results

