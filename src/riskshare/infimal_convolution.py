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
  atoms' dual sets, held by the family as arrays (risk_measures._AtomDuals),
  merge into one KL weight, one
  density cap and one scenario hull per distinct matrix, at the smallest
  gamma any atom gives it (a plain set is gamma = 1); each Market holds
  that merged set, built on first use. It goes to opt_kernel._maximize,
  the entry that also evaluates rho, which picks the exact solve path for
  its structure. No primal allocation is certified on this path.

A profile market is held as its base and parameter vector: its family
builds the atoms' array form from them by array operations, equal to the
form of the per-atom specs, which it builds only when they are read. Every
market then takes the same folds over that form: the merged dual set, the
certificate and the per-atom plan.

On every path the certificate values the aggregate penalty at the dual
optimizer, as aggregate_conjugate does: one membership test in the merged
set, through opt_kernel._admits, then, where some atom has a KL part,
KL(Q||P) once and the atoms' KL parts summed in atom order. The optimizer
comes with the kernel's hull weights, one lam per hull of the merged set
(a profile's value spec has the same hulls), so the membership test checks
that witness in O(nJ) and makes no LP unless the witness fails.

The non-attainment experiment discretizes a strictly-decreasing-to-Gamma
parameter profile at increasing resolution and reports the (positive,
vanishing) gap between the discrete values and the continuum target.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import opt_kernel
from .agent_space import (
    AgentSpace,
    Allocation,
    RiskFamily,
    _check_tol,
    _is_whole_count,
    _whole_count,
    atom_risks,
    unit_interval_midpoints,
)
from .errors import (
    IllPosedError,
    InfeasibleError,
    ValidationError,
    VacuousExperimentError,
)
from .prob_core import Density, ProbSpace, essup
from .risk_measures import (
    ExpectedShortfall,
    RiskSpec,
    ScenarioSet,
    _AtomDuals,
    _check_inflation_base,
    _solve,
    dilate,
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


class _ProfileFamily(RiskFamily):
    """The risk family of a profile market, held as its kind: the base and
    one parameter per atom. The spec tuple is built on first read, the one
    an explicit RiskFamily of the atoms' dilate(base, gamma_a) or
    inflate(base, gamma_a) would hold. The atom count and the plan of
    atom_risks come from the parameters, by array operations: no solve
    path builds a per-atom spec."""

    def __init__(self, kind: DilationProfile | InflationProfile):
        object.__setattr__(self, "kind", kind)

    def __len__(self) -> int:
        return self.kind.gammas.size

    @cached_property
    def specs(self) -> tuple[RiskSpec, ...]:
        wrap = dilate if isinstance(self.kind, DilationProfile) else inflate
        return tuple(wrap(self.kind.base, float(v)) for v in self.kind.gammas)

    @cached_property
    def _duals(self) -> _AtomDuals:
        """The base's form spread over the atoms by array operations, equal
        field for field to the spelled-out specs' form. A dilation puts
        gamma before the base's factors, unless no atom is dilated (a
        scenario-set base, which dilate returns as it is, or every gamma
        1.0; an atom at gamma = 1 keeps the padding 1.0 in that column). An
        inflation sets the caps gamma / alpha of an ES base, or the hull
        gammas of a scenario set, the base itself at gamma = 1."""
        base, g = self.kind.base, self.kind.gammas
        one = _AtomDuals.of((base,))
        kl, factors, cap, gamma, hull = [a.repeat(g.size, axis=0) for a in (
            one.kl, one.factors, one.cap, one.gamma, one.hull)]
        if isinstance(self.kind, DilationProfile):
            if not isinstance(base, ScenarioSet) and (g != 1.0).any():
                factors = np.column_stack((g, factors))
        elif isinstance(base, ExpectedShortfall):
            cap = g / base.alpha
        else:
            gamma = g
        return _AtomDuals(kl, factors, cap, gamma, hull, one.matrices)


@dataclass(frozen=True, eq=False)
class Market:
    space: ProbSpace
    agents: AgentSpace
    family: RiskFamily
    kind: DilationProfile | InflationProfile | GeneralFamily

    def __post_init__(self):
        if len(self.family) != self.agents.n_atoms:
            raise ValidationError("risk family size does not match agent space")

    @cached_property
    def _dual_set(self) -> tuple[float, opt_kernel.DensityConstraints, bool]:
        """The merged dual set of the weighted atoms and whether any atom
        has a KL part (risk_measures._AtomDuals.merged), built on first use
        rather than at construction."""
        return self.family._duals.merged(self.agents.weights)

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
        if not isinstance(base, RiskSpec):
            raise ValidationError("dilation base must be a RiskSpec")
        g = g.copy()
        g.setflags(write=False)
        kind = DilationProfile(base, g, total)
        return cls(space, agents, _ProfileFamily(kind), kind)

    @classmethod
    def inflation(cls, space, agents, base, gammas,
                  target_gamma: float | None = None) -> "Market":
        g = np.asarray(gammas, dtype=float)
        if g.shape != (agents.n_atoms,):
            raise ValidationError("need one inflation parameter per atom")
        if not np.all(np.isfinite(g)) or np.any(g < 1.0):
            raise ValidationError("inflation parameters must be >= 1")
        _check_inflation_base(base)
        g = g.copy()
        g.setflags(write=False)
        kind = InflationProfile(base, g, float(np.min(g)), target_gamma)
        return cls(space, agents, _ProfileFamily(kind), kind)


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

    q is checked once, as ProbSpace.density checks it. Its membership is
    tested once, in the market's merged dual set (one membership LP per
    hull, as q comes with no hull weights): the sum of the atoms' indicator
    penalties is the indicator of that set. Off it the sum is math.inf; on
    it KL(Q||P) is evaluated once, and each atom's KL part, w times its
    spec's conjugate, adds up in atom order. A market whose atoms have no
    KL part returns 0.0, the bits of that sum of w * 0.0."""
    return _aggregate_penalty(market, market.space.density(q.q))


def _aggregate_penalty(market: Market, q: Density, weights: tuple | None = None) -> float:
    """aggregate_conjugate at a density already checked on the space, its
    membership tested with the hull weights given (opt_kernel._admits)."""
    return market.family._duals.penalty(market.space, q, market.agents.weights,
                                         market._dual_set, weights)


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
        val, q, weights = _solve(vspec, market.space, x)
        alloc = optimal_allocation_dilated(market, x)
        return _result(market, x, val, alloc, Attainment.ATTAINED, q, weights)
    if isinstance(kind, InflationProfile):
        vspec = inflate(kind.base, kind.gamma_inf)
        val, q, weights = _solve(vspec, market.space, x)
        alloc = optimal_allocation_inflated(market, x)
        return _result(market, x, val, alloc, Attainment.ATTAINED, q, weights)
    val, q, weights = _general_dual_value(market, x)
    return _result(market, x, val, None, Attainment.UNKNOWN, q, weights)


def _result(market, x, val, alloc, attained, q, weights) -> ShareResult:
    """The ShareResult at the solver's value, optimizer vector q and its hull
    weights: q is checked as a density, and the gap is val - (E_Q[x] -
    penalty), the penalty's membership test taking the weights."""
    q = market.space.density(q)
    pen = _aggregate_penalty(market, q, weights)
    if math.isfinite(pen):
        # x and q were validated on this space already: E_Q[x] directly.
        gap = val - (float(np.dot(market.space.probs, q.q * x)) - pen)
    else:
        gap = math.inf
    if -CERTIFICATE_TOL <= gap < 0.0:
        gap = 0.0
    return ShareResult(float(val), alloc, attained, q, float(gap))


def _general_dual_value(market: Market, x) -> tuple[float, np.ndarray, tuple]:
    try:
        kl_weight, constraints, _ = market._dual_set
        q, val, weights = opt_kernel._maximize(market.space, x, kl_weight, constraints)
    except InfeasibleError as exc:
        raise IllPosedError(
            "every density has infinite aggregate penalty; the sharing value "
            "is -inf (the agents share no prior)"
        ) from exc
    return val, q, weights


def acceptance_member(market: Market, x, tol: float = 1e-7) -> bool:
    """Whether x belongs to the value function's acceptance set."""
    _check_tol(tol)
    return value(market, x).value <= tol


def aumann_acceptance_sample(market: Market, n_samples: int,
                             rng_seed: int) -> list[np.ndarray]:
    """Random members of the aggregate acceptance set.

    Each sample draws one payoff per atom, recenters it into that atom's
    acceptance set by subtracting its risk, and returns the Gelfand integral
    of the recentered allocation. Every returned vector passes
    :func:`acceptance_member` at tolerance 1e-7 by construction. The seed
    is a whole number >= 0, 2 and 2.0 alike.
    """
    n_samples = _whole_count(n_samples, "the sample count")
    if not _is_whole_count(rng_seed, least=0):
        raise ValidationError(f"the seed must be a whole number >= 0, got {rng_seed!r}")
    rng = np.random.default_rng(int(rng_seed))
    out = []
    w = market.agents.weights
    for _ in range(n_samples):
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
    if not refinements or not all(map(_is_whole_count, refinements)):
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

