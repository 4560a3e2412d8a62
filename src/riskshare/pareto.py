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

from .agent_space import Allocation, _check_tol, atom_risks, is_feasible, total_risk
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
    by :func:`pareto_improve`.
    """
    _check_tol(tol)
    x = market.space.rv(x)
    if not is_feasible(market.agents, alloc, x):
        raise ValidationError("allocation does not integrate to x")
    result = value(market, x)
    excess = total_risk(market.agents, market.family, market.space, alloc) - result.value
    efficient = excess <= tol
    witness = None
    if not efficient and result.allocation is not None:
        better = result.allocation
        if _total(market, better) < _total(market, alloc):
            witness = pareto_improve(market, x, alloc, better)
    return ParetoVerdict(efficient, witness, max(float(excess), 0.0))


def _total(market: Market, alloc: Allocation) -> float:
    return total_risk(market.agents, market.family, market.space, alloc)


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
    risks_old = atom_risks(market.family, market.space, alloc)
    risks_new = atom_risks(market.family, market.space, better)
    saving = float(np.dot(market.agents.weights, risks_old - risks_new))
    if saving <= 0.0:
        raise ValidationError(
            "no strict total-risk improvement: the compensation R would not "
            "be positive"
        )
    r = saving / market.agents.total_mass
    transfers = risks_old - risks_new - r
    return Allocation(better.shares + transfers[:, None])
