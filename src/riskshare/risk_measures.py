"""Risk measures on finite spaces and their convex conjugates.

Five families are supported:

* ``Entropic(gamma)``: gamma * log E_P[exp(x / gamma)], conjugate
  gamma * KL(Q || P).
* ``ExpectedShortfall(alpha)``: average of the worst alpha probability mass
  of losses; equivalently the supremum of E_Q[x] over densities capped at
  1/alpha. Coherent.
* ``ScenarioSet(densities)``: supremum of E_Q[x] over a finite scenario
  hull. Coherent.
* ``Dilation(base, gamma)``: gamma * base(x / gamma). Leaves coherent
  measures unchanged; rescales the entropic family's tolerance.
* ``Inflation(base, gamma)``: enlarges a coherent base's scenario set by a
  factor gamma >= 1 (intersected with the probability densities); generates
  expected shortfall from the plain expectation.

``dual_set`` is the one map from a spec to its dual penalty: a KL weight
plus the set of densities the spec admits. ``rho`` and ``dual_solve`` share
one evaluator, ``_solve``: a dilation rescales its base, and every other
spec maximizes E_Q[x] over its ``dual_set`` in ``opt_kernel._maximize``,
which picks the solve path, closed forms included (log-sum-exp and its Gibbs
weights for a KL weight alone, the best scenario for a plain set).
``conjugate`` reads ``dual_set`` too and returns a float in [0, math.inf]:
kappa * KL on the dual set, math.inf off it. This module builds no LP:
``opt_kernel`` also tests membership in a dual set.

Validation boundary: the public functions check their inputs; the private
evaluators ``_solve`` and ``_conjugate`` trust them, except for the width and
row masses of a scenario matrix, which ``opt_kernel`` checks itself where
the matrix meets the space. Per-atom loops run through
``agent_space.atom_risks`` and ``infimal_convolution.aggregate_conjugate``,
which check a whole allocation or density once and then call the private
evaluators per atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opt_kernel
from .errors import ValidationError
from .prob_core import Density, ProbSpace, kl_divergence


class RiskSpec:
    """Base marker for risk-measure specifications. Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Entropic(RiskSpec):
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValidationError("entropic risk tolerance must be finite and > 0")


@dataclass(frozen=True)
class ExpectedShortfall(RiskSpec):
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError("quantile level must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class ScenarioSet(RiskSpec):
    """Compares and hashes by its stacked matrix: Density compares by
    identity, so two sets listing equal densities would otherwise differ."""

    densities: tuple[Density, ...]

    def __post_init__(self):
        dens = tuple(self.densities)
        if not dens:
            raise ValidationError("scenario set must be nonempty")
        sizes = set()
        for d in dens:
            if not isinstance(d, Density):
                raise ValidationError("scenario members must be Density instances")
            sizes.add(d.q.size)
        if len(sizes) != 1:
            raise ValidationError("scenario members must share one dimension")
        object.__setattr__(self, "densities", dens)
        matrix = np.vstack([d.q for d in dens])
        matrix.setflags(write=False)
        object.__setattr__(self, "_matrix", matrix)

    def matrix(self) -> np.ndarray:
        """Scenario densities stacked as rows, once and read-only."""
        return self._matrix

    def __eq__(self, other):
        if not isinstance(other, ScenarioSet):
            return NotImplemented
        return np.array_equal(self._matrix, other._matrix)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which array_equal already equates.
        return hash((self._matrix + 0.0).tobytes())

    def contains_reference(self, tol: float = opt_kernel.MEMBERSHIP_TOL) -> bool:
        """Whether P itself (the all-ones density) is listed as a scenario."""
        return any(np.max(np.abs(d.q - 1.0)) <= tol for d in self.densities)


@dataclass(frozen=True)
class Dilation(RiskSpec):
    base: RiskSpec
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValidationError("dilation parameter must be finite and > 0")
        if not isinstance(self.base, RiskSpec):
            raise ValidationError("dilation base must be a RiskSpec")


@dataclass(frozen=True)
class Inflation(RiskSpec):
    base: RiskSpec
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValidationError("inflation parameter must be >= 1")
        if not isinstance(self.base, (ScenarioSet, ExpectedShortfall)):
            raise ValidationError(
                "inflation requires a base with a scenario-supremum dual form "
                "(ScenarioSet or ExpectedShortfall); entropic-type bases are rejected"
            )
        if isinstance(self.base, ScenarioSet) and not self.base.contains_reference():
            raise ValidationError(
                "inflation of a scenario set requires the all-ones density "
                "(the reference measure) among the scenarios"
            )


def dilate(spec: RiskSpec, gamma: float) -> RiskSpec:
    """gamma-dilation of a spec. Coherent scenario sets are fixed points."""
    dilated = Dilation(spec, gamma)  # validates, also where spec is returned
    if isinstance(spec, ScenarioSet) or gamma == 1.0:
        return spec
    return dilated


def inflate(spec: RiskSpec, gamma: float) -> RiskSpec:
    """gamma-inflation of a coherent spec with a scenario-supremum dual form."""
    inflated = Inflation(spec, gamma)  # validates, also where spec is returned
    return spec if gamma == 1.0 else inflated


_UNCONSTRAINED = opt_kernel.DensityConstraints()


def dual_set(spec: RiskSpec, weight: float = 1.0
             ) -> tuple[float, opt_kernel.DensityConstraints]:
    """The dual penalty of ``weight * spec``: its KL weight kappa and the
    densities it admits.

    The penalty at a density Q is kappa * KL(Q||P) when Q satisfies the
    constraints and +inf otherwise. Entropic(g) gives kappa = g and no
    constraint; expected shortfall caps dQ/dP at 1/alpha; a scenario set
    admits its hull, the hull at gamma = 1; an inflation admits its base set
    enlarged by gamma (within the densities); a dilation by d multiplies kappa by d and keeps
    the constraints. Weights and dilation factors fold into kappa
    outermost first, (w * d) * g, so a market's merged KL weight is the sum
    of its atoms' in atom order.
    """
    if isinstance(spec, Dilation):
        return dual_set(spec.base, weight * spec.gamma)
    if isinstance(spec, Entropic):
        return weight * spec.gamma, _UNCONSTRAINED
    if isinstance(spec, ExpectedShortfall):
        return 0.0, opt_kernel.DensityConstraints(cap=1.0 / spec.alpha)
    if isinstance(spec, ScenarioSet):
        return 0.0, opt_kernel.DensityConstraints(hulls=((1.0, spec.matrix()),))
    if isinstance(spec, Inflation):
        if isinstance(spec.base, ExpectedShortfall):
            return 0.0, opt_kernel.DensityConstraints(cap=spec.gamma / spec.base.alpha)
        return 0.0, opt_kernel.DensityConstraints(hulls=((spec.gamma, spec.base.matrix()),))
    raise ValidationError(f"unknown risk spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def rho(spec: RiskSpec, space: ProbSpace, x) -> float:
    """Evaluate the risk of a loss vector."""
    return _solve(spec, space, space.rv(x))[0]


def dual_solve(spec: RiskSpec, space: ProbSpace, x) -> tuple[float, Density]:
    """Risk value together with a density attaining the dual supremum
    E_Q[x] - conjugate(Q)."""
    value, q = _solve(spec, space, space.rv(x))
    return value, space.density(q)


def _solve(spec: RiskSpec, space: ProbSpace, x: np.ndarray) -> tuple[float, np.ndarray]:
    """rho and the vector of a dual optimizer, for a finite float vector
    already sized to the space: a dilation rescales its base, and every
    other spec maximizes E_Q[x] over its dual set in the kernel."""
    if isinstance(spec, Dilation):
        value, q = _solve(spec.base, space, x / spec.gamma)
        return spec.gamma * value, q
    q, value = opt_kernel._maximize(space, x, *dual_set(spec))
    return value, q


# ---------------------------------------------------------------------------
# Conjugates
# ---------------------------------------------------------------------------

def conjugate(spec: RiskSpec, space: ProbSpace, q: Density) -> float:
    """Convex conjugate (penalty) of the spec at a density, in [0, math.inf].
    A coherent spec's penalty is 0 on its dual set and math.inf off it."""
    if q.q.size != space.n_states:
        raise ValidationError("density dimension does not match space")
    return _conjugate(spec, space, q, {})


def _conjugate(spec: RiskSpec, space: ProbSpace, q: Density,
               memo: dict[int, float]) -> float:
    """conjugate at a density already sized to the space, memoised in
    ``memo`` by spec node: a dilation's penalty is its base's times gamma,
    so each distinct base object is evaluated once per memo. The keys are
    object ids, so the memo must not outlive the specs."""
    pen = memo.get(id(spec))
    if pen is not None:
        return pen
    if isinstance(spec, Dilation):
        pen = _conjugate(spec.base, space, q, memo) * spec.gamma
    else:
        kappa, constraints = dual_set(spec)
        if not opt_kernel._admits(space, constraints, q.q):
            pen = math.inf
        elif kappa > 0.0:
            pen = kappa * kl_divergence(space, q)
        else:
            pen = 0.0
    memo[id(spec)] = pen
    return pen


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

def left_continuity_sweep(spec: RiskSpec, space: ProbSpace, x,
                          gammas) -> list[tuple[float, float]]:
    """Evaluate gamma -> rho(inflate(spec, gamma), x) on an ascending grid.

    Values are nondecreasing in gamma (constraint-set inclusion), and the
    map is left continuous on (1, inf), so shrinking the grid step shrinks
    the jump estimates at interior points.
    """
    grid = [float(g) for g in gammas]
    if not grid:
        raise ValidationError("gamma grid must be nonempty")
    if any(g < 1.0 for g in grid):
        raise ValidationError("gamma grid values must be >= 1")
    if any(b > a for a, b in zip(grid[1:], grid)):
        raise ValidationError("gamma grid must be ascending")
    x = space.rv(x)
    return [(g, _solve(inflate(spec, g), space, x)[0]) for g in grid]
