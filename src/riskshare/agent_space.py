"""Weighted atomic agent spaces, per-agent risk assignments, and allocations.

Continuum agent spaces enter as quadratures: the unit interval becomes N
midpoint atoms of weight 1/N, and mixed spaces (a la Shapley) add unit Dirac
atoms on top. The Gelfand integral of an allocation then reduces to a
weighted sum over atoms, one number per state. Per-atom risks are valued in
opt_kernel, which picks each atom's solve path from its dual set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import opt_kernel
from .errors import ValidationError
from .prob_core import ProbSpace
from .risk_measures import RiskSpec, _AtomDuals

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AgentSpace:
    """Finitely many atoms (label, weight > 0); weights are the mu-masses."""

    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        labels = tuple(str(lab) for lab in self.labels)
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("agent weights must form a nonempty vector")
        if len(labels) != w.size:
            raise ValidationError("labels and weights must have equal length")
        if len(set(labels)) != len(labels):
            raise ValidationError("agent labels must be unique")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValidationError("agent weights must be finite and > 0")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def _is_whole_count(n, least: int = 1) -> bool:
    """Whether n is a whole number >= least, 3 and 3.0 alike; a bool is not."""
    return (isinstance(n, numbers.Real) and not isinstance(n, bool)
            and float(n).is_integer() and n >= least)


def _whole_count(n, what: str) -> int:
    if not _is_whole_count(n):
        raise ValidationError(f"{what} must be a positive whole number, got {n!r}")
    return int(n)


def finite_agents(n: int) -> AgentSpace:
    """N discrete agents under the counting measure (each weight 1)."""
    n = _whole_count(n, "the agent count")
    return AgentSpace(tuple(str(i + 1) for i in range(n)), np.ones(n))


def unit_interval_midpoints(n: int) -> np.ndarray:
    n = _whole_count(n, "the quadrature atom count")
    return (np.arange(n) + 0.5) / n


def aumann_agents(n: int) -> AgentSpace:
    """Midpoint quadrature of the unit interval under normalized Lebesgue
    measure: N atoms of weight 1/N, a pure continuum discretization."""
    mids = unit_interval_midpoints(n)
    labels = tuple(f"t{float(t)!r}" for t in mids)
    return AgentSpace(labels, np.full(mids.size, 1.0 / mids.size))


def shapley_agents(n: int) -> AgentSpace:
    """Lebesgue quadrature (mass 1) plus unit Dirac atoms at both endpoints:
    two large agents and a continuum of small ones, total mass 3."""
    continuum = aumann_agents(n)
    labels = ("dirac0",) + continuum.labels + ("dirac1",)
    weights = np.concatenate([[1.0], continuum.weights, [1.0]])
    return AgentSpace(labels, weights)


def agent_positions(agents: AgentSpace) -> np.ndarray:
    """Unit-interval coordinates for quadrature-style atoms.

    Atoms labeled ``t<value>`` map to that value; ``dirac0``/``dirac1`` map to
    the endpoints. Used by profile factories that evaluate a formula gamma(t).
    """
    out = np.empty(agents.n_atoms)
    for i, lab in enumerate(agents.labels):
        if lab == "dirac0":
            out[i] = 0.0
        elif lab == "dirac1":
            out[i] = 1.0
        elif lab.startswith("t"):
            try:
                out[i] = float(lab[1:])
            except ValueError:
                raise ValidationError(f"atom {lab!r} has no interval position")
        else:
            raise ValidationError(f"atom {lab!r} has no interval position")
    return out


@dataclass(frozen=True)
class RiskFamily:
    """One risk spec per atom, in atom order. The atoms' dual sets are held
    in array form (``_duals``) and grouped by solve path once for
    atom_risks (``_plan``), both built on first use."""

    specs: tuple[RiskSpec, ...]

    def __post_init__(self):
        specs = tuple(self.specs)
        if not specs:
            raise ValidationError("risk family must be nonempty")
        for s in specs:
            if not isinstance(s, RiskSpec):
                raise ValidationError("family members must be RiskSpec instances")
        object.__setattr__(self, "specs", specs)

    def __len__(self) -> int:
        return len(self.specs)

    @cached_property
    def _duals(self) -> _AtomDuals:
        return _AtomDuals.of(self.specs)

    @cached_property
    def _plan(self) -> tuple:
        return self._duals.plan()


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-atom payoff rows: shares[a, s] is atom a's loss in state s."""

    shares: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.shares, dtype=float)
        if m.ndim != 2:
            raise ValidationError("allocation shares must be a 2-d matrix")
        if not np.all(np.isfinite(m)):
            raise ValidationError("allocation shares must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "shares", m)

    @property
    def n_atoms(self) -> int:
        return int(self.shares.shape[0])


def gelfand_integral(agents: AgentSpace, alloc: Allocation) -> np.ndarray:
    """State-wise weighted sum over atoms: the aggregate payoff the
    allocation actually distributes."""
    if alloc.n_atoms != agents.n_atoms:
        raise ValidationError(
            f"allocation has {alloc.n_atoms} rows for {agents.n_atoms} atoms"
        )
    return agents.weights @ alloc.shares


def proportional_split(agents: AgentSpace, x) -> Allocation:
    """Every atom takes x / mu(A); always feasible for x."""
    x = np.asarray(x, dtype=float)
    return Allocation(np.tile(x / agents.total_mass, (agents.n_atoms, 1)))


def _check_tol(tol: float, name: str = "tolerance"):
    """A tolerance must be finite and >= 0: at math.inf every check it
    bounds passes, whatever the input."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"{name} must be >= 0 and finite, got {tol!r}")


def is_feasible(agents: AgentSpace, alloc: Allocation, x,
                tol: float = FEASIBILITY_TOL) -> bool:
    """Whether the allocation integrates to x within sup-norm tol."""
    _check_tol(tol, "feasibility tolerance")
    x = np.asarray(x, dtype=float)
    integral = gelfand_integral(agents, alloc)
    if integral.shape != x.shape:
        raise ValidationError("aggregate payoff dimension does not match x")
    return float(np.max(np.abs(integral - x))) <= tol


def atom_risks(family: RiskFamily, space: ProbSpace,
               alloc: Allocation) -> np.ndarray:
    """Per-atom risks rho(spec_a, row_a), in atom order, bit for bit.

    This is the one per-atom risk loop. The family size and the share width
    are checked once; Allocation already holds a finite 2-d matrix, so no
    row is checked again. Then one opt_kernel._maximize_block call values
    every row at its atom's dual set, by the family's cached plan: the
    kernel picks each row's solve path, and a hull atom takes the one
    density LP or scenario scan that rho makes. Raises what rho raises on
    some atom.
    """
    if len(family) != alloc.n_atoms:
        raise ValidationError(
            f"allocation has {alloc.n_atoms} rows for {len(family)} atom risks"
        )
    if alloc.shares.shape[1] != space.n_states:
        raise ValidationError(
            f"allocation has {alloc.shares.shape[1]} columns for "
            f"{space.n_states} states"
        )
    return opt_kernel._maximize_block(space, alloc.shares, family._plan)


def total_risk(agents: AgentSpace, family: RiskFamily, space: ProbSpace,
               alloc: Allocation) -> float:
    """Weighted sum of per-atom risks, reduced in ascending atom order."""
    if len(family) != agents.n_atoms:
        raise ValidationError("risk family size does not match agent space")
    return float(np.dot(agents.weights, atom_risks(family, space, alloc)))
