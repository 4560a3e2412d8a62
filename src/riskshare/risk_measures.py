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
one evaluator, ``_solve``: every spec maximizes over its ``dual_set`` (a
dilation only scales the KL weight) in ``opt_kernel._maximize``, which
picks the solve path, closed forms included (log-sum-exp and its Gibbs
weights for a KL weight alone, the best scenario for a plain set, the
Rockafellar-Uryasev minimum for an inflated one).

``_AtomDuals`` holds the dual sets of a family's atoms as arrays: per atom
its leaf's KL weight and constraints (from ``dual_set``), its dilation
factors, and at most one hull, as gamma and an index into the family's
distinct scenario matrices. A market's merged dual set, its penalty sum at
a density and its per-atom solve plan (``opt_kernel._row_plan``) are each
one fold over that form. ``conjugate`` reads the same form for its one
spec and returns a float in [0, math.inf]: kappa * KL on the dual set,
math.inf off it. This module builds no LP: ``opt_kernel`` also tests
membership in a dual set, by one LP per hull for a density that comes from
the caller.

Validation boundary: the public functions check their inputs, ``conjugate``
its density and ``ScenarioSet`` its members' entries as
``ProbSpace.density`` does; the private evaluators
(``_solve`` and the folds of ``_AtomDuals``) trust them, except for the
width and row masses of a scenario matrix, which ``opt_kernel`` checks
itself where the matrix meets the space. Per-atom loops run through
``agent_space.atom_risks`` and ``infimal_convolution.aggregate_conjugate``,
which check a whole allocation or density once. ``aggregate_conjugate``
then tests membership once in the market's merged dual set, as
``conjugate`` does in the spec's own, and evaluates KL(Q||P) once for all
the atoms' KL parts; ``atom_risks`` hands the family's plan, grouped once
from its form, to one ``opt_kernel._maximize_block`` call, which values
every atom with ``rho``'s bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opt_kernel
from .errors import ValidationError
from .prob_core import _DENSITY_NEG_TOL, Density, ProbSpace, kl_divergence


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
    identity, so two sets listing equal densities would otherwise differ.
    A Density built directly is not checked, so the set checks its members'
    entries once, as ProbSpace.density does (finite, none below -1e-12);
    their P-mass needs a space, which opt_kernel brings."""

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
        # + 0.0 turns -0.0 into 0.0, so that equal matrices share their bytes.
        matrix = np.vstack([d.q for d in dens]) + 0.0
        if not np.isfinite(matrix).all() or (matrix < -_DENSITY_NEG_TOL).any():
            raise ValidationError("scenario densities must be finite and nonnegative")
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
        return hash(self._matrix.tobytes())

    def contains_reference(self) -> bool:
        """Whether P itself (the all-ones density) is listed as a scenario,
        within opt_kernel.MEMBERSHIP_TOL in every state."""
        return any(np.max(np.abs(d.q - 1.0)) <= opt_kernel.MEMBERSHIP_TOL
                   for d in self.densities)


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
        _check_inflation_base(self.base)


def _check_inflation_base(base):
    """An inflation base must have a scenario-supremum dual form that lists
    the reference measure."""
    if not isinstance(base, (ScenarioSet, ExpectedShortfall)):
        raise ValidationError(
            "inflation requires a base with a scenario-supremum dual form "
            "(ScenarioSet or ExpectedShortfall); entropic-type bases are rejected"
        )
    if isinstance(base, ScenarioSet) and not base.contains_reference():
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
    outermost first, (w * d) * g, as :class:`_AtomDuals` folds them for a
    whole family.
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
    value, q, _ = _solve(spec, space, space.rv(x))
    return value, space.density(q)


def _solve(spec: RiskSpec, space: ProbSpace, x: np.ndarray) -> tuple[float, np.ndarray, tuple]:
    """rho, the vector of a dual optimizer and its hull weights (one lam per
    hull of the spec's ``dual_set``, as ``opt_kernel._maximize`` returns
    them), for a finite float vector already sized to the space: every
    spec, a dilation included, maximizes E_Q[x] minus its ``dual_set``
    penalty in the kernel."""
    q, value, weights = opt_kernel._maximize(space, x, *dual_set(spec))
    return value, q, weights


# ---------------------------------------------------------------------------
# Conjugates
# ---------------------------------------------------------------------------

def conjugate(spec: RiskSpec, space: ProbSpace, q: Density) -> float:
    """Convex conjugate (penalty) of the spec at a density, in [0, math.inf].
    A coherent spec's penalty is 0 on its dual set and math.inf off it.
    q is checked as ProbSpace.density checks it."""
    duals = _AtomDuals.of((spec,))
    return duals.penalty(space, space.density(q.q), 1.0, duals.merged(1.0))


def _sum_in_atom_order(terms) -> float:
    """The sum 0.0 + t_0 + t_1 + ... of a float loop over the atoms, bit for
    bit: np.add.accumulate adds in sequence, where np.sum adds pairwise."""
    with np.errstate(over="ignore"):  # as a float loop, to inf
        return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


@dataclass(frozen=True, eq=False)
class _AtomDuals:
    """The dual sets of a family's atoms in array form, one row per atom in
    atom order:

    * kl: the KL weight of the atom's leaf, the spec under its dilations
      (0.0 for a coherent leaf);
    * factors: its dilation factors, outermost first, right-aligned and
      padded on the left with 1.0, a factor that moves no bit;
    * cap: its density cap (math.inf for none);
    * gamma, hull: its hull, if any, as gamma and an index into matrices
      (1.0 and -1 for none).

    matrices holds the family's distinct scenario matrices, distinct by
    shape and bytes, in first-seen order. The merged dual set, the penalty sum and
    the per-atom plan are each one fold over these arrays.
    """

    kl: np.ndarray
    factors: np.ndarray
    cap: np.ndarray
    gamma: np.ndarray
    hull: np.ndarray
    matrices: tuple

    @classmethod
    def of(cls, specs) -> "_AtomDuals":
        """The form of a nonempty spec sequence, in one pass over it: each
        spec's dilation factors, then its leaf's ``dual_set``."""
        rows = []
        for spec in specs:
            chain = []
            while isinstance(spec, Dilation):
                chain.append(spec.gamma)
                spec = spec.base
            kl, dset = dual_set(spec)
            rows.append((kl, chain, dset.cap, dset.hulls))
        return cls._of_rows(rows)

    @classmethod
    def _of_rows(cls, rows) -> "_AtomDuals":
        """The form of rows (leaf KL weight, factors outermost first, cap,
        hulls: at most one (gamma, D)), its matrices keyed by their shape
        and bytes: a 2 x 2 matrix that shares a 1 x 4 one's bytes must not
        pass as it."""
        kl, chains, cap, hulls = zip(*rows)
        depth = max(map(len, chains))
        matrices: dict[tuple, tuple[int, np.ndarray]] = {}
        hull = [matrices.setdefault((h[0][1].shape, h[0][1].tobytes()),
                                    (len(matrices), h[0][1]))[0]
                if h else -1 for h in hulls]
        return cls(np.array(kl, dtype=float),
                   np.array([(1.0,) * (depth - len(c)) + tuple(c) for c in chains], dtype=float),
                   np.array(cap, dtype=float),
                   np.array([h[0][0] if h else 1.0 for h in hulls], dtype=float),
                   np.array(hull, dtype=int), tuple(d for _, d in matrices.values()))

    def kappa(self, weights) -> np.ndarray:
        """Each atom's KL weight at its weight (one per atom, or one for
        all), as ``dual_set(spec, w)`` folds it: w times the factors
        outermost first, times the leaf's. A coherent atom's is 0.0, also
        where the fold overflowed (inf * 0.0 would be NaN)."""
        with np.errstate(over="ignore", invalid="ignore"):
            fold = weights
            for f in self.factors.T:
                fold = fold * f
            return np.where(self.kl > 0.0, fold * self.kl, 0.0)

    def merged(self, weights) -> tuple[float, opt_kernel.DensityConstraints, bool]:
        """The merged dual set of the weighted atoms: their KL weights
        summed in atom order, the tightest cap, and each distinct matrix D
        once at the smallest gamma any atom gives it (the set {q <= gamma *
        D^T lam} grows with gamma; a plain set is gamma = 1). Its indicator
        is the sum of the atoms' indicators. The third entry says whether
        some leaf has a KL weight, never whether the merged one is > 0:
        w * kappa can underflow to 0.0 where w * (kappa * KL) does not."""
        gammas = np.full(len(self.matrices), math.inf)
        some = self.hull >= 0
        np.minimum.at(gammas, self.hull[some], self.gamma[some])
        constraints = opt_kernel.DensityConstraints(
            float(self.cap.min()), tuple(zip(gammas.tolist(), self.matrices)))
        has_kl = bool((self.kl > 0.0).any())
        # With no KL leaf every term is 0.0, and so is their sum.
        return (_sum_in_atom_order(self.kappa(weights)) if has_kl else 0.0), constraints, has_kl

    def plan(self) -> tuple:
        """opt_kernel._row_plan of the unweighted atoms."""
        return opt_kernel._row_plan(self.kappa(1.0), self.cap, self.gamma, self.hull,
                                    self.matrices)

    def penalty(self, space: ProbSpace, q: Density, weights, merged: tuple,
                hull_weights: tuple | None = None) -> float:
        """The weighted sum of the atoms' penalties at a density already
        checked on the space, given the ``merged`` set at these weights: q
        is tested once in that set (with the hull weights, where given,
        through opt_kernel._admits); off it the sum is math.inf. On it each
        KL atom's part is w * ((kl * KL(Q||P)) * its factors innermost
        first), the conjugate of its spec times w, with KL(Q||P) evaluated
        once; the parts add in atom order. No KL leaf: 0.0."""
        _, constraints, has_kl = merged
        if not opt_kernel._admits(space, constraints, q.q, hull_weights):
            return math.inf
        if not has_kl:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            parts = self.kl * kl_divergence(space, q)
            for f in self.factors.T[::-1]:
                parts = parts * f
            return _sum_in_atom_order(np.where(self.kl > 0.0, weights * parts, 0.0))


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
