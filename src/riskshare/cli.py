"""Command-line front end: load market spec files, run the solvers, write
machine-readable result records.

Every command runs through one pipeline, :func:`_command`: check ``--tol``,
load the spec (JSON with one canonical schema, see README and ``markets/``),
solve, stamp the command, spec digest, seed and tol into the record, and
write it, plus ``<out>.csv`` for the experiments. Records are deterministic:
identical spec files and seeds produce byte-identical output, so wall-clock
timing goes to stderr instead of into the record.

Exit codes: 0 success, 2 validation error, 3 solver non-convergence,
4 ill-posed market (value -inf), 5 unsupported family for the operation.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import click
import numpy as np

from .agent_space import (
    AgentSpace,
    Allocation,
    RiskFamily,
    _check_tol,
    _is_whole_count,
    agent_positions,
    aumann_agents,
    finite_agents,
    shapley_agents,
    total_risk,
    unit_interval_midpoints,
)
from .errors import (
    ConvergenceError,
    IllPosedError,
    RiskShareError,
    UnsupportedFamilyError,
    ValidationError,
)
from .infimal_convolution import (
    DilationProfile,
    InflationProfile,
    Market,
    nonattainment_experiment,
    value,
)
from .pareto import PARETO_TOL, pareto_check
from .prob_core import ProbSpace
from .risk_measures import (
    Dilation,
    Entropic,
    ExpectedShortfall,
    Inflation,
    RiskSpec,
    ScenarioSet,
    left_continuity_sweep,
)

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ILL_POSED = 4
EXIT_UNSUPPORTED = 5


# ---------------------------------------------------------------------------
# Spec file parsing
# ---------------------------------------------------------------------------

def _need(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object, got {doc!r}")
    if key not in doc:
        raise ValidationError(f"{path}.{key}: missing required field")
    return doc[key]


def _as_num(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {v!r}")
    return float(v)


_NUMBER_TYPES = frozenset((int, float))


def _as_vector(v, path: str) -> list[float]:
    if not isinstance(v, list) or not v:
        raise ValidationError(f"{path}: expected a nonempty array of numbers")
    if set(map(type, v)) <= _NUMBER_TYPES:  # the common case: no entry's path is needed
        return [float(e) for e in v]
    return [_as_num(e, f"{path}[{i}]") for i, e in enumerate(v)]


def parse_risk_spec(doc, space: ProbSpace, path: str) -> RiskSpec:
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a risk descriptor object")
    kind = _need(doc, "type", path)
    try:
        if kind == "entropic":
            return Entropic(_as_num(_need(doc, "gamma", path), f"{path}.gamma"))
        if kind in ("expected_shortfall", "es"):
            return ExpectedShortfall(_as_num(_need(doc, "alpha", path), f"{path}.alpha"))
        if kind == "scenario_set":
            rows = _need(doc, "densities", path)
            if not isinstance(rows, list) or not rows:
                raise ValidationError(f"{path}.densities: expected an array of vectors")
            dens = tuple(
                space.density(_as_vector(r, f"{path}.densities[{i}]"))
                for i, r in enumerate(rows)
            )
            return ScenarioSet(dens)
        if kind == "dilation":
            base = parse_risk_spec(_need(doc, "base", path), space, f"{path}.base")
            return Dilation(base, _as_num(_need(doc, "gamma", path), f"{path}.gamma"))
        if kind == "inflation":
            base = parse_risk_spec(_need(doc, "base", path), space, f"{path}.base")
            return Inflation(base, _as_num(_need(doc, "gamma", path), f"{path}.gamma"))
    except ValidationError as exc:
        if str(exc).startswith(path):
            raise
        raise ValidationError(f"{path}: {exc}") from exc
    raise ValidationError(f"{path}.type: unknown risk type {kind!r}")


_AGENT_SPACES = {"finite": finite_agents, "aumann": aumann_agents,
                 "shapley": shapley_agents}


def _parse_agent_space(doc, path: str) -> tuple[AgentSpace, np.ndarray | None]:
    """The agent space, and its atoms' unit-interval positions: the
    quadrature midpoints (shapley's endpoints beside them), None for finite
    agents."""
    kind = _need(doc, "kind", path)
    n = _need(doc, "n", path)
    if not _is_whole_count(n):
        raise ValidationError(f"{path}.n: expected a positive integer")
    factory = _AGENT_SPACES.get(kind) if isinstance(kind, str) else None
    if factory is None:
        raise ValidationError(f"{path}.kind: unknown agent space kind {kind!r}")
    agents = factory(n)
    if kind == "finite":
        return agents, None
    mids = unit_interval_midpoints(n)
    return agents, (mids if kind == "aumann" else np.concatenate([[0.0], mids, [1.0]]))


def _parse_atom_list(entries, path: str, want_risks: bool,
                     space: ProbSpace) -> tuple[AgentSpace, list[RiskSpec] | None]:
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{path}: expected a nonempty array of agents")
    labels, weights, risks = [], [], []
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an agent object")
        label = str(_need(entry, "label", where))
        where = f"{path}[{i}] (atom {label!r})"
        weight = _as_num(_need(entry, "weight", where), f"{where}.weight")
        if weight <= 0.0:
            raise ValidationError(f"{where}.weight: must be > 0")
        labels.append(label)
        weights.append(weight)
        if want_risks:
            risks.append(parse_risk_spec(_need(entry, "risk", where), space,
                                         f"{where}.risk"))
        elif "risk" in entry:
            raise ValidationError(
                f"{where}.risk: give per-agent risks or a profile, not both"
            )
    agents = AgentSpace(tuple(labels), np.array(weights))
    return agents, (risks if want_risks else None)


def _formula_fn(doc, path: str):
    kind = _need(doc, "kind", path)
    if kind != "affine":
        raise ValidationError(f"{path}.kind: unknown formula kind {kind!r}")
    intercept = _as_num(_need(doc, "intercept", path), f"{path}.intercept")
    slope = _as_num(_need(doc, "slope", path), f"{path}.slope")
    return (lambda t: intercept + slope * t), intercept, slope


def load_market(doc: dict) -> tuple[Market, np.ndarray]:
    """Build a Market plus the loss vector from a parsed spec document."""
    if not isinstance(doc, dict):
        raise ValidationError("spec: expected a JSON object at top level")
    space = ProbSpace(np.array(_as_vector(_need(doc, "probs", "spec"), "spec.probs")))
    x = space.rv(_as_vector(_need(doc, "loss", "spec"), "spec.loss"))

    profile = doc.get("profile")
    if profile is None:
        agents, risks = _parse_atom_list(_need(doc, "agents", "spec"), "spec.agents",
                                         True, space)
        market = Market.general(space, agents, RiskFamily(tuple(risks)))
        return market, x

    if not isinstance(profile, dict):
        raise ValidationError("spec.profile: expected an object")
    positions = None
    if "agents" in doc:
        agents, _ = _parse_atom_list(doc["agents"], "spec.agents", False, space)
    elif "agent_space" in doc:
        agents, positions = _parse_agent_space(doc["agent_space"], "spec.agent_space")
    else:
        raise ValidationError("spec: profile markets need 'agents' or 'agent_space'")

    kind = _need(profile, "kind", "spec.profile")
    base = parse_risk_spec(_need(profile, "base", "spec.profile"), space,
                           "spec.profile.base")
    if "gammas" in profile:
        gammas = np.array(_as_vector(profile["gammas"], "spec.profile.gammas"))
        if gammas.size != agents.n_atoms:
            raise ValidationError(
                f"spec.profile.gammas: {gammas.size} values for "
                f"{agents.n_atoms} atoms"
            )
    elif "gamma_formula" in profile:
        _, intercept, slope = _formula_fn(profile["gamma_formula"], "spec.profile.gamma_formula")
        if positions is None:
            positions = agent_positions(agents)
        gammas = intercept + slope * positions
    else:
        raise ValidationError("spec.profile: needs 'gammas' or 'gamma_formula'")

    if kind == "dilation":
        return Market.dilation(space, agents, base, gammas), x
    if kind == "inflation":
        target = profile.get("target_gamma")
        if target is not None:
            target = _as_num(target, "spec.profile.target_gamma")
        return Market.inflation(space, agents, base, gammas, target), x
    raise ValidationError(f"spec.profile.kind: unknown profile kind {kind!r}")


def _load_json(path: str, what: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"{what}: cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{what}: {path} is not valid JSON: {exc}") from exc
    return doc, hashlib.sha256(raw).hexdigest()


def _load_allocation(path: str) -> tuple[Allocation, str]:
    doc, digest = _load_json(path, "alloc")
    body = doc.get("allocation", doc) if isinstance(doc, dict) else doc
    if not isinstance(body, dict) or "shares" not in body:
        raise ValidationError("alloc: expected an object with a 'shares' matrix")
    shares = body["shares"]
    if not isinstance(shares, list) or not shares:
        raise ValidationError("alloc.shares: expected a nonempty matrix")
    rows = [_as_vector(r, f"alloc.shares[{i}]") for i, r in enumerate(shares)]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError("alloc.shares: rows must have equal length")
    return Allocation(np.array(rows)), digest


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("parameter", "value", "gap")


_INDENT = "  "


def _json_float(v: float) -> str:
    """json's spelling of a float: its repr, or Infinity, -Infinity, NaN."""
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return float.__repr__(v)


def _json_block(items, indent: str, brackets: str = "[]") -> str:
    """Rendered entries laid out as json.dumps(indent=2) lays out a list
    (or, with ``brackets="{}"``, a dict's ``key: value`` items) at
    ``indent``. No rendered entry is empty, so an empty body is an empty
    container."""
    inner = indent + _INDENT
    body = f",\n{inner}".join(items)
    if not body:
        return brackets
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _json_float_array(a: np.ndarray, indent: str) -> str:
    """The text of ``a.tolist()`` for a float array of at least one
    dimension. Each distinct row, keyed by its bytes (so -0.0 and 0.0 stay
    apart), is rendered once: one float.__repr__ per entry, json's
    spellings only when the array holds a non-finite value."""
    spell = float.__repr__ if np.isfinite(a).all() else _json_float
    rows: dict[bytes, str] = {}

    def render(sub: np.ndarray, indent: str) -> str:
        if sub.ndim > 1:
            inner = indent + _INDENT
            return _json_block([render(r, inner) for r in sub], indent)
        key = sub.tobytes()
        text = rows.get(key)
        if text is None:
            text = rows[key] = _json_block(map(spell, sub.tolist()), indent)
        return text

    return render(a, indent)


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, default=lambda o:
    o.tolist())``, byte for byte, for dicts with str keys: json's rules for
    each type, in json's order of tests (a numpy float64 is a float), and
    numpy arrays and scalars through ``tolist``, float arrays rendered by
    :func:`_json_float_array`."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    inner = indent + _INDENT
    if isinstance(obj, (list, tuple)):
        return _json_block([_json_text(v, inner) for v in obj], indent)
    if isinstance(obj, dict):
        return _json_block([f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                            for k, v in sorted(obj.items())], indent, "{}")
    if isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind == "f":
        return _json_float_array(obj, indent)
    return _json_text(obj.tolist(), indent)


def _write_record(out_path: str, record: dict):
    # The bytes of json.dumps(record, sort_keys=True, indent=2,
    # default=lambda o: o.tolist()) + "\n", whose encoder is pure Python
    # once indent is set; float arrays dominate a record's size.
    text = _json_text(record) + "\n"
    path = Path(out_path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_csv(out_path: str, rows: list[tuple]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    Path(out_path).write_text(buf.getvalue(), encoding="utf-8")


def _alloc_payload(agents: AgentSpace, alloc: Allocation) -> dict:
    return {"labels": list(agents.labels), "shares": alloc.shares}


# Error class -> exit code; the first match wins, so subclasses come first.
_EXIT_CODES = (
    (ValidationError, EXIT_VALIDATION),
    (IllPosedError, EXIT_ILL_POSED),
    (UnsupportedFamilyError, EXIT_UNSUPPORTED),
    (ConvergenceError, EXIT_NO_CONVERGENCE),
    (RiskShareError, EXIT_VALIDATION),
)

_SHARED_OPTIONS = (
    click.option("--spec", "spec_path", required=True,
                 type=click.Path(), help="Market spec file (JSON)."),
    click.option("--out", "out_path", required=True,
                 type=click.Path(), help="Result file to write."),
    click.option("--seed", type=int, default=0, show_default=True,
                 help="Seed recorded for reproducibility."),
    click.option("--tol", type=float, default=None,
                 help="Verdict tolerance for pareto; other commands only record it."),
)


@click.group()
def main():
    """Risk-sharing solver: values, allocations, Pareto checks, experiments."""


def _command(name: str, *extra_options):
    """Register ``fn(doc, market, x, tol, **opts) -> (fields, rows)`` as a
    command: check ``--tol``, load the spec, run ``fn``, stamp the shared
    keys into ``fields`` and write the record. ``rows`` other than None go
    into the record under ``"rows"`` and into ``<out>.csv``."""

    def register(fn):
        @functools.wraps(fn)
        def callback(spec_path, out_path, seed, tol, **opts):
            start = time.perf_counter()
            try:
                if tol is not None:
                    _check_tol(tol, "--tol: tolerance")
                doc, digest = _load_json(spec_path, "spec")
                market, x = load_market(doc)
                fields, rows = fn(doc, market, x, tol, **opts)
                record = {"command": name, "spec_sha256": digest, "seed": seed,
                          "tol": tol, **fields}
                if rows is not None:
                    record["rows"] = [dict(zip(_CSV_COLUMNS, row)) for row in rows]
                _write_record(out_path, record)
                if rows is not None:
                    _write_csv(f"{out_path}.csv", rows)
            except RiskShareError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(next(code for cls, code in _EXIT_CODES if isinstance(exc, cls)))
            finally:
                click.echo(f"timing_s={time.perf_counter() - start:.6f}", err=True)

        for option in _SHARED_OPTIONS + extra_options:
            callback = option(callback)
        return main.command(name)(callback)

    return register


@_command("value")
def cmd_value(doc, market, x, tol):
    """Sharing value of the market's loss, with dual certificate."""
    result = value(market, x)
    return {
        "value": result.value,
        "attained": result.attained.value,
        "duality_gap": result.duality_gap,
        "dual_optimizer": result.dual_optimizer.q
        if result.dual_optimizer is not None else None,
        "allocation": _alloc_payload(market.agents, result.allocation)
        if result.allocation is not None else None,
    }, None


@_command("allocate")
def cmd_allocate(doc, market, x, tol):
    """Optimal allocation for dilation/inflation profile markets."""
    if not isinstance(market.kind, (DilationProfile, InflationProfile)):
        raise UnsupportedFamilyError(
            "no optimal-allocation formula for general families; only "
            "dilation and inflation profiles are supported"
        )
    result = value(market, x)
    alloc = result.allocation
    risk = total_risk(market.agents, market.family, market.space, alloc)
    return {
        "value": result.value,
        "total_risk": risk,
        "gap": risk - result.value,
        "attained": result.attained.value,
        "allocation": _alloc_payload(market.agents, alloc),
    }, None


@_command("pareto", click.option("--alloc", "alloc_path", required=True, type=click.Path(),
                                 help="Allocation file (JSON with a 'shares' matrix)."))
def cmd_pareto(doc, market, x, tol, alloc_path):
    """Pareto-efficiency verdict for an allocation of the market's loss."""
    alloc, alloc_digest = _load_allocation(alloc_path)
    verdict = pareto_check(market, x, alloc, tol=tol if tol is not None else PARETO_TOL)
    return {
        "alloc_sha256": alloc_digest,
        "efficient": verdict.efficient,
        "excess": verdict.excess,
        "witness": _alloc_payload(market.agents, verdict.witness)
        if verdict.witness is not None else None,
    }, None


def _sweep_base(market: Market) -> RiskSpec:
    kind = market.kind
    if isinstance(kind, InflationProfile):
        return kind.base
    if isinstance(kind, DilationProfile):
        # Its atoms share one coherent spec only as the base itself: a
        # scenario set, which dilations fix, or a base every atom takes at
        # gamma = 1.
        shared = isinstance(kind.base, ScenarioSet) or bool(np.all(kind.gammas == 1.0))
        specs = {kind.base} if shared else set()
    else:
        specs = set(market.family.specs)
    if len(specs) == 1:
        only = next(iter(specs))
        if isinstance(only, (ScenarioSet, ExpectedShortfall)):
            return only
    raise ValidationError(
        "sweep needs an inflation profile or a single shared coherent spec"
    )


def _parse_float_list(raw: str, name: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"{name}: expected comma-separated numbers") from exc
    if not values:
        raise ValidationError(f"{name}: expected at least one value")
    return values


@_command("sweep", click.option("--gamma-grid", "gamma_grid", required=True,
                                help="Comma-separated ascending inflation parameters, "
                                "all >= 1."))
def cmd_sweep(doc, market, x, tol, gamma_grid):
    """Inflation value along a parameter grid (CSV next to the record)."""
    grid = _parse_float_list(gamma_grid, "--gamma-grid")
    points = left_continuity_sweep(_sweep_base(market), market.space, x, grid)
    values = [v for _, v in points]
    gaps = [0.0] + [b - a for a, b in zip(values, values[1:])]
    return {}, [(g, v, gap) for (g, v), gap in zip(points, gaps)]


@_command("nonattain", click.option("--refinements", required=True,
                                    help="Comma-separated atom counts, e.g. 10,100,1000."))
def cmd_nonattain(doc, market, x, tol, refinements):
    """Discretization-gap experiment for a formula inflation profile."""
    if not isinstance(market.kind, InflationProfile):
        raise ValidationError("nonattain needs an inflation profile market")
    profile = doc["profile"]
    if "gamma_formula" not in profile:
        raise ValidationError(
            "spec.profile.gamma_formula: required for the nonattain experiment"
        )
    fn, intercept, slope = _formula_fn(profile["gamma_formula"],
                                       "spec.profile.gamma_formula")
    target = market.kind.target_gamma
    if target is None:
        if slope <= 0.0:
            raise ValidationError(
                "spec.profile.target_gamma: required unless the formula slope "
                "is positive (then the intercept is the unattained infimum)"
            )
        target = intercept
    counts = _parse_float_list(refinements, "--refinements")
    results = nonattainment_experiment(market.kind.base, fn, target,
                                       market.space, x, counts)
    return {"target_gamma": target}, results


if __name__ == "__main__":
    main()
