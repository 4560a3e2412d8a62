"""Pareto efficiency of allocations and the cash-compensated improvement.

An allocation of x is Pareto efficient exactly when its total risk equals
the sharing value at x. Given any feasible allocation with strictly lower
total risk, a side-payment scheme turns it into an allocation that strictly
improves every atom by the same cash amount R (Kaldor-Hicks style): the
beneficiaries compensate the losers and the average saving is shared out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agent_space import Allocation, _check_tol, atom_risks, is_feasible
from .errors import ValidationError
from .infimal_convolution import Market, value

PARETO_TOL = 1e-7  # looser than feasibility: value() may pass through a solver


@dataclass(frozen=True, eq=False)
class ParetoVerdict:
    efficient: bool
    witness: Allocation | None  # a strict improvement, when one is certified
    excess: float               # total risk above the sharing value


def pareto_check(market: Market, x, alloc: Allocation,
                 tol: float = PARETO_TOL) -> ParetoVerdict:
    """Decide efficiency by comparing total risk with the sharing value.

    When the market carries a closed-form optimal allocation and the input
    is inefficient, the verdict also carries an explicit improvement built
    as :func:`pareto_improve` builds it. Each allocation's atom risks are
    valued once: the input's, and the optimal allocation's when the input
    is inefficient.
    """
    _check_tol(tol)
    x = market.space.rv(x)
    if not is_feasible(market.agents, alloc, x):
        raise ValidationError("allocation does not integrate to x")
    result = value(market, x)
    risks = atom_risks(market.family, market.space, alloc)
    total = float(np.dot(market.agents.weights, risks))
    excess = total - result.value
    efficient = excess <= tol
    witness = None
    if not efficient and result.allocation is not None:
        better = result.allocation
        better_risks = atom_risks(market.family, market.space, better)
        if float(np.dot(market.agents.weights, better_risks)) < total:
            if not is_feasible(market.agents, better, x):
                raise ValidationError("better does not integrate to x")
            witness = _compensate(market, better, risks, better_risks)
    return ParetoVerdict(efficient, witness, max(float(excess), 0.0))


def pareto_improve(market: Market, x, alloc: Allocation,
                   better: Allocation) -> Allocation:
    """Cash-compensated reallocation improving every atom by the same amount.

    Requires better to be feasible with strictly lower total risk. Writing
    r_a for the per-atom risks, the returned rows are

        Z_a = better_a + r_a(alloc) - r_a(better) - R,
        R   = (1 / mu(A)) * sum_a w_a (r_a(alloc) - r_a(better)) > 0,

    so the transfers integrate to zero (Z stays feasible) and by cash
    additivity every atom's risk drops by exactly R.
    """
    x = market.space.rv(x)
    if not is_feasible(market.agents, alloc, x):
        raise ValidationError("alloc does not integrate to x")
    if not is_feasible(market.agents, better, x):
        raise ValidationError("better does not integrate to x")
    return _compensate(market, better, atom_risks(market.family, market.space, alloc),
                       atom_risks(market.family, market.space, better))


def _compensate(market: Market, better: Allocation, risks_old: np.ndarray,
                risks_new: np.ndarray) -> Allocation:
    """:func:`pareto_improve`'s rows from the atom risks of both allocations."""
    saving = float(np.dot(market.agents.weights, risks_old - risks_new))
    if saving <= 0.0:
        raise ValidationError(
            "no strict total-risk improvement: the compensation R would not "
            "be positive"
        )
    r = saving / market.agents.total_mass
    transfers = risks_old - risks_new - r
    return Allocation(better.shares + transfers[:, None])
