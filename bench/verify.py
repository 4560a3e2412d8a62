"""Independent reference answers for the benchmark's generated inputs.

Nothing here calls a riskshare solver. Closed forms are plain numpy; the
scenario-hull programs go to ``scipy.optimize.linprog(method="highs")``.
Each market comes with a plain-dict description written by the generator
(``ref``), so the references never read the program's own objects.
"""

from __future__ import annotations

import math

import numpy as np

VALUE_RTOL = 1e-7  # scaled by 1 + max|x|; the program's LPs verify to 1e-9


def value_tol(x) -> float:
    return VALUE_RTOL * (1.0 + float(np.max(np.abs(x))))


# ---------------------------------------------------------------------------
# Risk measures
# ---------------------------------------------------------------------------

def entropic(p, x, gamma):
    """gamma * log E_P[exp(x / gamma)] for each row of x (one gamma per row
    or one for all)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    g = np.broadcast_to(np.asarray(gamma, dtype=float), x.shape[:1])
    z = x / g[:, None]
    shift = np.max(z, axis=1)
    return g * (np.log(np.exp(z - shift[:, None]) @ np.asarray(p)) + shift)


def expected_shortfall(p, x, alpha):
    """Average of the worst alpha probability mass along the last axis."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), x.shape[:1])
    order = np.argsort(-x, axis=1, kind="stable")
    xs = np.take_along_axis(x, order, axis=1)
    ps = np.asarray(p)[order]
    before = np.cumsum(ps, axis=1) - ps
    take = np.clip(alpha[:, None] - before, 0.0, ps)
    out = np.sum(take * xs, axis=1) / alpha
    return out


def hull_lp(p, x, cap=None, members=(), dominating=()):
    """max E_P[q x] over densities q with q <= cap, q in conv(rows of each
    member matrix), and q <= gamma * (convex combination of rows) for each
    (gamma, matrix) in dominating. Returns None when infeasible."""
    from scipy.optimize import linprog

    p = np.asarray(p, dtype=float)
    n = p.size
    blocks = [np.asarray(d, dtype=float) for d in members]
    doms = [(float(g), np.asarray(d, dtype=float)) for g, d in dominating]
    sizes = [d.shape[0] for d in blocks] + [d.shape[0] for _, d in doms]
    n_total = n + sum(sizes)
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    row = np.zeros(n_total)
    row[:n] = p
    a_eq.append(row)
    b_eq.append(1.0)
    off = n
    for d in blocks:
        j = d.shape[0]
        blk = np.zeros((n, n_total))
        blk[:, :n] = np.eye(n)
        blk[:, off:off + j] = -d.T
        a_eq.extend(blk)
        b_eq.extend([0.0] * n)
        row = np.zeros(n_total)
        row[off:off + j] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
        off += j
    for g, d in doms:
        j = d.shape[0]
        blk = np.zeros((n, n_total))
        blk[:, :n] = np.eye(n)
        blk[:, off:off + j] = -g * d.T
        a_ub.extend(blk)
        b_ub.extend([0.0] * n)
        row = np.zeros(n_total)
        row[off:off + j] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
        off += j
    bounds = [(0.0, None if cap is None else float(cap))] * n + [(0.0, None)] * (n_total - n)
    c = np.zeros(n_total)
    c[:n] = -p * np.asarray(x, dtype=float)
    res = linprog(c, A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def capped_gibbs(p, x, kappa, cap):
    """Maximum of E_Q[x] - kappa * KL(Q||P) over densities q <= cap.

    KKT: q = min(cap, exp((x - theta)/kappa - 1)) with theta fixed by
    E_P[q] = 1; the mass is decreasing in theta, found by bisection.
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    cap = math.inf if cap is None else float(cap)

    def q_at(theta):
        return np.minimum(cap, np.exp(np.minimum((x - theta) / kappa - 1.0, 700.0)))

    hi = float(np.max(x)) - kappa  # every exponent <= 0, so mass <= 1
    lo = float(np.min(x)) - kappa * (1.0 + (math.log(cap) if math.isfinite(cap) else 0.0)) - 1.0
    if math.isfinite(cap) and cap * p.sum() <= 1.0 + 1e-12:
        q = np.full_like(x, cap)
    else:
        while float(p @ q_at(lo)) < 1.0:
            lo -= kappa + 1.0
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if float(p @ q_at(mid)) >= 1.0:
                lo = mid
            else:
                hi = mid
        q = q_at(0.5 * (lo + hi))
    q = q / float(p @ q)
    pos = q > 0.0
    kl = float(p[pos] @ (q[pos] * np.log(q[pos])))
    return float(p @ (q * x)) - kappa * kl


# ---------------------------------------------------------------------------
# Profile markets
# ---------------------------------------------------------------------------

def profile_atom_risks(ref, rows, gammas):
    """Reference risk of each row under its atom's spec."""
    p = ref["probs"]
    base = ref["base"]
    rows = np.atleast_2d(rows)
    gammas = np.asarray(gammas, dtype=float)
    if ref["kind"] == "dilation":
        if base["type"] == "entropic":
            return entropic(p, rows, base["gamma"] * gammas)
        return expected_shortfall(p, rows, base["alpha"])
    if base["type"] == "es":
        return expected_shortfall(p, rows, base["alpha"] / gammas)
    out = np.empty(rows.shape[0])
    memo = {}
    for i, (r, g) in enumerate(zip(rows, gammas)):
        if np.all(r == r[0]):
            out[i] = r[0]  # every density integrates a constant to itself
            continue
        key = (float(g), r.tobytes())
        if key not in memo:
            memo[key] = hull_lp(p, r, dominating=((g, base["densities"]),))
        out[i] = memo[key]
    return out


def profile_value(ref, x) -> float:
    """Closed-form sharing value: the base at the aggregate parameter."""
    p = ref["probs"]
    base = ref["base"]
    g = np.asarray(ref["gammas"], dtype=float)
    w = np.asarray(ref["weights"], dtype=float)
    if ref["kind"] == "dilation":
        if base["type"] == "entropic":
            return float(entropic(p, x, base["gamma"] * float(w @ g))[0])
        return float(expected_shortfall(p, x, base["alpha"])[0])
    gmin = float(np.min(g))
    if base["type"] == "es":
        return float(expected_shortfall(p, x, base["alpha"] / gmin)[0])
    return hull_lp(p, x, dominating=((gmin, base["densities"]),))


def check_profile_value(ref, x, result) -> str | None:
    """None when the value result is right, else the reason it is not."""
    want = profile_value(ref, x)
    tol = value_tol(x)
    if abs(result["value"] - want) > tol:
        return f"value {result['value']!r} != reference {want!r}"
    if not (result["duality_gap"] <= tol):
        return f"duality gap {result['duality_gap']!r} above {tol}"
    shares = result["shares"]
    w = np.asarray(ref["weights"], dtype=float)
    if np.max(np.abs(w @ shares - x)) > 1e-9 * (1.0 + np.max(np.abs(x))):
        return "allocation does not integrate to the loss"
    risks = profile_atom_risks(ref, shares, ref["gammas"])
    if abs(float(w @ risks) - want) > tol:
        return "allocation's total risk misses the value"
    return None


def check_pareto(ref, x, alloc_rows, verdict, tol) -> str | None:
    """Verdict against the reference excess of the input allocation."""
    w = np.asarray(ref["weights"], dtype=float)
    want_value = profile_value(ref, x)
    old = profile_atom_risks(ref, alloc_rows, ref["gammas"])
    excess = float(w @ old) - want_value
    scale = value_tol(x)
    if abs(verdict["excess"] - max(excess, 0.0)) > scale:
        return f"excess {verdict['excess']!r} != reference {max(excess, 0.0)!r}"
    if abs(excess - tol) > scale and verdict["efficient"] != (excess <= tol):
        return f"verdict efficient={verdict['efficient']} but reference excess is {excess!r}"
    witness = verdict["witness"]
    if verdict["efficient"]:
        return None if witness is None else "efficient verdict carries a witness"
    if witness is None:
        return "inefficient closed-form market without a witness"
    if np.max(np.abs(w @ witness - x)) > 1e-9 * (1.0 + np.max(np.abs(x))):
        return "witness does not integrate to the loss"
    new = profile_atom_risks(ref, witness, ref["gammas"])
    if not np.all(new < old - 0.5 * excess / w.sum()):
        return "witness does not improve every atom"
    return None


# ---------------------------------------------------------------------------
# General markets
# ---------------------------------------------------------------------------

def general_value(ref, x):
    """Reference dual value; None when no density is feasible."""
    p = ref["probs"]
    family = ref["family"]
    if family == "caps":
        alpha = 1.0 / ref["cap"]
        return float(expected_shortfall(p, x, alpha)[0])
    if family == "entropic_caps":
        return capped_gibbs(p, x, ref["kappa"], ref["cap"])
    return hull_lp(p, x, cap=ref.get("cap"), members=ref["members"],
                   dominating=ref["dominating"])


def check_general(ref, x, outcome) -> str | None:
    """outcome is ('ok', value) or ('error', exception type name).

    For a raised error the answer says only whether the exit itself is
    wrong: IllPosedError (exit 4) on a market with a feasible density.
    """
    want = general_value(ref, x)
    kind, payload = outcome
    if kind == "error":
        if payload == "IllPosedError" and want is not None:
            return "IllPosedError on a market whose reference LP is feasible"
        return None
    if want is None:
        return "returned a value for an infeasible market"
    if abs(payload - want) > value_tol(x):
        return f"value {payload!r} != reference {want!r}"
    return None
