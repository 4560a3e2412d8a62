"""Finite probability spaces, random variables over states, and densities.

Everything downstream (risk measures, the value function, the LP kernel)
works on a finite state space with strictly positive weights, so almost-sure
statements become exact vector statements. Random variables are plain float
vectors validated against a space; densities (Radon-Nikodym derivatives
dQ/dP) get a thin wrapper type because they travel through solver interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Constructor tolerances. The probability weights are validated tightly and
# renormalized; densities keep a looser gate because solver outputs feed back
# in as densities.
PROB_SUM_TOL = 1e-12
DENSITY_SUM_TOL = 1e-9
_DENSITY_NEG_TOL = 1e-12


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must contain only finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class ProbSpace:
    """Finite state space with strictly positive weights summing to one.

    Weights are renormalized exactly after validation, so states with zero
    probability never exist and essential suprema reduce to plain maxima.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = _as_float_vector(self.probs, "probs")
        if np.any(p <= 0.0):
            raise ValidationError("state probabilities must be strictly positive")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"state probabilities sum to {total!r}; expected 1 within {PROB_SUM_TOL}"
            )
        p = p / total
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n_states(self) -> int:
        return int(self.probs.size)

    def rv(self, values) -> np.ndarray:
        """Validate a payoff vector against this space and return it read-only."""
        x = _as_float_vector(values, "rv values")
        if x.size != self.n_states:
            raise ValidationError(
                f"rv has {x.size} entries but the space has {self.n_states} states"
            )
        x.setflags(write=False)
        return x

    def density(self, values) -> "Density":
        """Validate a dQ/dP vector: nonnegative with unit P-expectation."""
        q = _as_float_vector(values, "density values")
        if q.size != self.n_states:
            raise ValidationError(
                f"density has {q.size} entries but the space has {self.n_states} states"
            )
        if (q < -_DENSITY_NEG_TOL).any():
            raise ValidationError("density entries must be nonnegative")
        q = np.maximum(q, 0.0)
        mass = float(np.dot(self.probs, q))
        if abs(mass - 1.0) > DENSITY_SUM_TOL:
            raise ValidationError(
                f"density has P-expectation {mass!r}; expected 1 within {DENSITY_SUM_TOL}"
            )
        q.setflags(write=False)
        return Density(q)

    def uniform_density(self) -> "Density":
        """dP/dP: the all-ones density (Q = P)."""
        return Density(np.ones(self.n_states))


@dataclass(frozen=True, eq=False)
class Density:
    """Radon-Nikodym derivative of an absolutely continuous Q with respect
    to P. Construct through :meth:`ProbSpace.density` so the invariants
    (nonnegativity, unit expectation) are checked against the right space."""

    q: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.q, dtype=float)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "q", arr)


def _check_dims(space: ProbSpace, v: np.ndarray, name: str):
    if v.shape != (space.n_states,):
        raise ValidationError(
            f"{name} has shape {v.shape} but the space has {space.n_states} states"
        )


def expect(space: ProbSpace, x) -> float:
    """E_P[x] = sum_i p_i x_i."""
    x = space.rv(x)
    return float(np.dot(space.probs, x))


def expect_under(space: ProbSpace, q: Density, x) -> float:
    """E_Q[x] = sum_i p_i q_i x_i.

    With q the all-ones density this reproduces :func:`expect` bit for bit:
    the elementwise product by 1.0 is exact and the dot uses the same order.
    """
    x = space.rv(x)
    _check_dims(space, q.q, "density")
    return float(np.dot(space.probs, q.q * x))


def essup(space: ProbSpace, x) -> float:
    """Essential supremum of x; a plain max, since every state has mass."""
    x = space.rv(x)
    return float(np.max(x))


def kl_divergence(space: ProbSpace, q: Density) -> float:
    """D_KL(Q || P) = E_P[q log q], with the 0 log 0 = 0 convention.

    Nonnegative by Gibbs' inequality; tiny negative rounding is clamped.
    """
    _check_dims(space, q.q, "density")
    qv = q.q
    pos = qv > 0.0
    terms = np.zeros_like(qv)
    terms[pos] = qv[pos] * np.log(qv[pos])
    val = float(np.dot(space.probs, terms))
    return max(val, 0.0)
