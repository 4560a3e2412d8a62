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
  density cap and one scenario hull per distinct matrix, at the smallest
  gamma any atom gives it (a plain set is gamma = 1); each Market holds
  that merged set, built on first use. It goes to opt_kernel._maximize,
  the entry that also evaluates rho, which picks the exact solve path for
  its structure. No primal allocation is certified on this path.

A profile market is held as its base and parameter vector: its merged
dual set, certificate and per-atom plan come from them by array
operations, with the bits of the loops over the per-atom specs, which its
family builds only when they are read.

On every path the certificate values the aggregate penalty at the dual
optimizer, as aggregate_conjugate does: one membership test in the merged
set, through opt_kernel._admits, then the atoms' KL parts in atom order, a
sum skipped (it is 0.0) when no atom has one. The optimizer comes with the
kernel's hull weights, one lam per hull of the merged set (a profile's
value spec has the same hulls), so the membership test checks that
witness in O(nJ) and makes no LP unless the witness fails.

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
    Dilation,
    Entropic,
    ExpectedShortfall,
    RiskSpec,
    _check_inflation_base,
    _conjugate,
    _solve,
    dilate,
    dual_set,
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
    def _plan(self) -> tuple:
        """opt_kernel._uniform_plan of the atoms' dual sets. A dilation's
        rows share its base's constraints, with KL weights dual_set(base,
        gamma); an ES inflation's are sorting rows at caps gamma / alpha; a
        scenario-set inflation's form one hull group, but for atoms at
        gamma = 1, which are the base itself."""
        base, g = self.kind.base, self.kind.gammas
        if isinstance(self.kind, DilationProfile):
            with np.errstate(over="ignore"):  # as a float fold, to inf
                kappa, dset = dual_set(base, g)
            return opt_kernel._uniform_plan(g.size, kappa, dset.cap,
                                            dset.hulls[0] if dset.hulls else None)
        if isinstance(base, ExpectedShortfall):
            return opt_kernel._uniform_plan(g.size, 0.0, g / base.alpha)
        return opt_kernel._uniform_plan(g.size, 0.0, math.inf, (g, base.matrix()))


def _has_kl(spec: RiskSpec) -> bool:
    """Whether a spec has a KL part: it is Entropic under its dilations."""
    while isinstance(spec, Dilation):
        spec = spec.base
    return isinstance(spec, Entropic)


def _sum_in_atom_order(terms) -> float:
    """The sum 0.0 + t_0 + t_1 + ... of a float loop over the atoms, bit for
    bit: np.add.accumulate adds in sequence, where np.sum adds pairwise."""
    with np.errstate(over="ignore"):  # as a float loop, to inf
        return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


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
        """The merged dual set (kappa, DensityConstraints) of the weighted
        atoms, and whether any atom has a KL part, built on first use
        rather than at construction: weighted KL weights add up in atom
        order, the tightest cap binds, and each distinct scenario matrix D
        applies once. The set {q <= gamma * D^T lam} grows with gamma, so
        D keeps its smallest gamma (at its first-seen position); a plain
        set is gamma = 1, the least. The indicator of this set is the sum
        of the atoms' indicators.

        A dilation profile's atoms share their base's constraints, and
        their KL weights are dual_set(base, w * gamma), summed in atom
        order. An inflation profile's merged set is its base's inflated at
        gamma_inf: the cap gamma / alpha and the hull's gamma are both
        least at the least gamma.

        Whether an atom has a KL part is read from its own unweighted KL
        weight: that of the spec under its dilations, as ``_conjugate``
        reads it, which is > 0 exactly for an Entropic spec. The merged
        kappa cannot tell: w * kappa can underflow to 0.0 where
        w * (kappa * KL) does not."""
        kind = self.kind
        if isinstance(kind, DilationProfile):
            with np.errstate(over="ignore"):  # as a float fold, to inf
                kappa, dset = dual_set(kind.base, self.agents.weights * kind.gammas)
            has_kl = _has_kl(kind.base)
            return (_sum_in_atom_order(kappa) if has_kl else 0.0), dset, has_kl
        if isinstance(kind, InflationProfile):
            return 0.0, dual_set(inflate(kind.base, kind.gamma_inf))[1], False
        kl_weight, cap, has_kl = 0.0, math.inf, False
        hulls: dict[bytes, tuple[float, np.ndarray]] = {}
        for spec, w in zip(self.family.specs, self.agents.weights):
            kappa, dset = dual_set(spec, float(w))
            kl_weight += kappa
            cap = min(cap, dset.cap)
            for gamma, d in dset.hulls:
                key = d.tobytes()
                if key not in hulls or gamma < hulls[key][0]:
                    hulls[key] = (gamma, d)
            has_kl = has_kl or _has_kl(spec)
        return (kl_weight, opt_kernel.DensityConstraints(cap, tuple(hulls.values())),
                has_kl)

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

    q is checked once. Its membership is tested once, in the market's
    merged dual set (one membership LP per hull, as q comes with no hull
    weights): the sum of the atoms' indicator penalties is the indicator
    of that set. Off it the sum is math.inf; on it the KL parts
    add up in atom order, memoised over the nodes of the spec tree, so
    atoms dilating one base share one evaluation of it. A dilation
    profile's KL parts are w * (K * gamma), K the base's, so K is evaluated
    once and the terms are summed as arrays. A market whose atoms have no
    KL part returns 0.0, the bits of that sum of w * 0.0."""
    if q.q.size != market.space.n_states:
        raise ValidationError("density dimension does not match space")
    return _aggregate_penalty(market, q)


def _aggregate_penalty(market: Market, q: Density, weights: tuple | None = None) -> float:
    """aggregate_conjugate at a density already sized to the space, its
    membership tested with the hull weights given (opt_kernel._admits)."""
    _, constraints, has_kl = market._dual_set
    if not opt_kernel._admits(market.space, constraints, q.q, weights):
        return math.inf
    if not has_kl:
        return 0.0
    kind = market.kind
    if isinstance(kind, DilationProfile):
        pen = _conjugate(kind.base, market.space, q, {})
        with np.errstate(over="ignore"):  # as a float loop, to inf
            terms = market.agents.weights * (pen * kind.gammas)
        return _sum_in_atom_order(terms)
    total = 0.0
    memo: dict[int, float] = {}
    for spec, w in zip(market.family.specs, market.agents.weights):
        total += float(w) * _conjugate(spec, market.space, q, memo)
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

