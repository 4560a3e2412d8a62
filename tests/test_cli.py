import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import riskshare as rs
from riskshare.cli import _write_record, load_market, main, parse_risk_spec
from riskshare.errors import ValidationError

REPO = Path(__file__).resolve().parent.parent
MARKETS = REPO / "markets"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_golden_value_records():
    runner = CliRunner()
    for name in ("finite", "aumann", "shapley", "scenario"):
        with runner.isolated_filesystem():
            result = runner.invoke(main, [
                "value", "--spec", str(MARKETS / f"{name}.json"),
                "--out", "out.json"])
            assert result.exit_code == 0, result.output
            got = Path("out.json").read_bytes()
        want = (GOLDEN / f"value_{name}.json").read_bytes()
        assert got == want, f"value record for {name} drifted from golden file"


def test_golden_allocate_records():
    runner = CliRunner()
    for name in ("aumann", "shapley", "scenario"):
        with runner.isolated_filesystem():
            result = runner.invoke(main, [
                "allocate", "--spec", str(MARKETS / f"{name}.json"),
                "--out", "out.json"])
            assert result.exit_code == 0
            got = Path("out.json").read_bytes()
        assert got == (GOLDEN / f"allocate_{name}.json").read_bytes()


def test_scenario_golden_value_is_the_highs_density_lp():
    # The inflated scenario set takes the closed form; an independent LP
    # solver must agree with the golden record: HiGHS's interior-point
    # method, not the dual simplex the package runs on its density LP.
    linprog = pytest.importorskip("scipy.optimize").linprog

    doc = json.loads((MARKETS / "scenario.json").read_text())
    market, x = load_market(doc)
    p, dmat = market.space.probs, np.array(doc["profile"]["base"]["densities"])
    gamma, (j, n) = market.kind.gamma_inf, dmat.shape
    # variables (q, lam): max E_P[q x], q <= gamma * D^T lam, E_P[q] = 1, sum(lam) = 1
    res = linprog(-np.concatenate([p * x, np.zeros(j)]),
                  A_ub=np.hstack([np.eye(n), -gamma * dmat.T]), b_ub=np.zeros(n),
                  A_eq=[np.concatenate([p, np.zeros(j)]),
                        np.concatenate([np.zeros(n), np.ones(j)])],
                  b_eq=[1.0, 1.0], bounds=(0.0, None), method="highs-ipm")
    assert res.status == 0
    record = json.loads((GOLDEN / "value_scenario.json").read_text())
    assert abs(record["value"] - -res.fun) <= 1e-12
    assert record["duality_gap"] == 0.0


@pytest.mark.parametrize("bad", [True, "1"])
def test_a_bad_number_is_named_by_its_entry(tmp_path, bad):
    # Numbers are type-checked row by row; the message still names the
    # one entry that is not a number, as it did entry by entry.
    doc = json.loads((MARKETS / "scenario.json").read_text())
    market, x = load_market(doc)
    shares = rs.optimal_allocation_inflated(market, x).shares.tolist()
    shares[3][5] = bad
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"shares": shares}))
    doc["probs"][2] = bad
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    for args, message in (
            (["pareto", "--spec", str(MARKETS / "scenario.json"), "--alloc", str(alloc)],
             f"alloc.shares[3][5]: expected a number, got {bad!r}"),
            (["value", "--spec", str(spec)], f"spec.probs[2]: expected a number, got {bad!r}")):
        result = run_cli(args + ["--out", str(out)])
        assert result.exit_code == 2
        assert f"error: {message}\n" in result.output
        assert not out.exists()


def test_golden_experiment_outputs():
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, [
            "nonattain", "--spec", str(MARKETS / "aumann.json"),
            "--refinements", "10,100,1000", "--out", "na.json"])
        assert result.exit_code == 0
        assert Path("na.json").read_bytes() == \
            (GOLDEN / "nonattain_aumann.json").read_bytes()
        assert Path("na.json.csv").read_bytes() == \
            (GOLDEN / "nonattain_aumann.json.csv").read_bytes()
    with runner.isolated_filesystem():
        result = runner.invoke(main, [
            "sweep", "--spec", str(MARKETS / "aumann.json"),
            "--gamma-grid", "1.0,1.5,2.0,2.5,3.0", "--out", "sw.json"])
        assert result.exit_code == 0
        assert Path("sw.json").read_bytes() == \
            (GOLDEN / "sweep_aumann.json").read_bytes()
        assert Path("sw.json.csv").read_bytes() == \
            (GOLDEN / "sweep_aumann.json.csv").read_bytes()


def test_golden_pareto_record():
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, [
            "pareto", "--spec", str(MARKETS / "shapley.json"),
            "--alloc", str(MARKETS / "shapley_alloc.json"), "--out", "out.json"])
        assert result.exit_code == 0, result.output
        got = Path("out.json").read_bytes()
    assert got == (GOLDEN / "pareto_shapley.json").read_bytes()


def test_repeated_runs_are_byte_identical(tmp_path):
    runner = CliRunner()
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        result = runner.invoke(main, [
            "value", "--spec", str(MARKETS / "finite.json"), "--out", str(out)])
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_record_embeds_input_digest(tmp_path):
    import hashlib
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(MARKETS / "finite.json"),
                      "--out", str(out)])
    assert result.exit_code == 0
    record = json.loads(out.read_text())
    want = hashlib.sha256((MARKETS / "finite.json").read_bytes()).hexdigest()
    assert record["spec_sha256"] == want
    assert record["command"] == "value"


def test_malformed_spec_exits_2_with_field_message(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "probs": [0.5, 0.5],
        "loss": [1.0, 0.0],
        "agents": [{"label": "a", "weight": -1.0,
                    "risk": {"type": "es", "alpha": 0.5}}],
    }))
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(spec), "--out", str(out)])
    assert result.exit_code == 2
    assert "weight" in result.output
    assert "atom 'a'" in result.output
    assert not out.exists()


def test_missing_field_names_the_path(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"probs": [0.5, 0.5], "loss": [1.0, 0.0]}))
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(spec), "--out", str(out)])
    assert result.exit_code == 2
    assert "agents" in result.output


def test_overflowing_kl_weight_exits_2(tmp_path):
    # The dilation folds into the KL weight 1e308 * 10 = inf, which would
    # score NaN and write a record that is not valid JSON.
    spec = tmp_path / "overflow.json"
    spec.write_text(json.dumps({
        "probs": [0.25, 0.75], "loss": [1.0, -0.5],
        "agents": [{"label": "a", "weight": 1.0,
                    "risk": {"type": "dilation", "gamma": 10,
                             "base": {"type": "entropic", "gamma": 1e308}}}]}))
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(spec), "--out", str(out)])
    assert result.exit_code == 2
    assert "KL weight must be finite" in result.output
    assert not out.exists()


def test_unreadable_spec_exits_2(tmp_path):
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(tmp_path / "missing.json"),
                      "--out", str(out)])
    assert result.exit_code == 2


def test_ill_posed_market_exits_4(tmp_path):
    spec = tmp_path / "ill.json"
    spec.write_text(json.dumps({
        "probs": [0.5, 0.5],
        "loss": [1.0, 0.0],
        "agents": [
            {"label": "a", "weight": 1.0,
             "risk": {"type": "scenario_set", "densities": [[2.0, 0.0]]}},
            {"label": "b", "weight": 1.0,
             "risk": {"type": "scenario_set", "densities": [[0.0, 2.0]]}},
        ],
    }))
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(spec), "--out", str(out)])
    assert result.exit_code == 4


def test_allocate_on_general_market_exits_5(tmp_path):
    out = tmp_path / "out.json"
    result = run_cli(["allocate", "--spec", str(MARKETS / "finite.json"),
                      "--out", str(out)])
    assert result.exit_code == 5


def test_allocate_then_pareto_round_trip(tmp_path):
    alloc_out = tmp_path / "alloc.json"
    result = run_cli(["allocate", "--spec", str(MARKETS / "shapley.json"),
                      "--out", str(alloc_out)])
    assert result.exit_code == 0
    record = json.loads(alloc_out.read_text())
    assert record["gap"] <= 1e-9

    verdict_out = tmp_path / "verdict.json"
    result = run_cli(["pareto", "--spec", str(MARKETS / "shapley.json"),
                      "--alloc", str(alloc_out), "--out", str(verdict_out)])
    assert result.exit_code == 0
    verdict = json.loads(verdict_out.read_text())
    assert verdict["efficient"] is True
    assert verdict["excess"] <= 1e-7
    assert "alloc_sha256" in verdict


def test_pareto_flags_inefficient_allocation(tmp_path):
    market, x = load_market(json.loads((MARKETS / "shapley.json").read_text()))
    prop = rs.proportional_split(market.agents, x)
    alloc_path = tmp_path / "prop.json"
    alloc_path.write_text(json.dumps(
        {"allocation": {"shares": [list(map(float, row)) for row in prop.shares]}}))
    out = tmp_path / "verdict.json"
    result = run_cli(["pareto", "--spec", str(MARKETS / "shapley.json"),
                      "--alloc", str(alloc_path), "--out", str(out)])
    assert result.exit_code == 0
    verdict = json.loads(out.read_text())
    assert verdict["efficient"] is False
    assert verdict["excess"] > 1e-6
    assert verdict["witness"] is not None


@pytest.mark.parametrize("tol", ["nan", "-1e-7"])
def test_pareto_nan_or_negative_tolerance_exits_2(tmp_path, tol):
    out = tmp_path / "verdict.json"
    result = run_cli(["pareto", "--spec", str(MARKETS / "shapley.json"),
                      "--alloc", str(MARKETS / "shapley_alloc.json"),
                      "--tol", tol, "--out", str(out)])
    assert result.exit_code == 2
    assert "tolerance must be >= 0" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["value", "--spec", str(MARKETS / "finite.json"), "--tol", "nan"],
    ["pareto", "--spec", str(MARKETS / "shapley.json"),
     "--alloc", str(MARKETS / "shapley_alloc.json"), "--tol", "inf"],
])
def test_non_finite_tolerance_exits_2_before_writing(tmp_path, args):
    # JSON has no NaN or Infinity, and an infinite pareto tolerance would
    # declare every allocation efficient.
    out = tmp_path / "record.json"
    result = run_cli(args + ["--out", str(out)])
    assert result.exit_code == 2
    assert "tolerance must be >= 0 and finite" in result.output
    assert not out.exists()


def test_sweep_column_is_nondecreasing(tmp_path):
    out = tmp_path / "sweep.json"
    result = run_cli(["sweep", "--spec", str(MARKETS / "aumann.json"),
                      "--gamma-grid", "1.0,1.2,1.7,2.4,3.0,4.0",
                      "--out", str(out)])
    assert result.exit_code == 0
    rows = json.loads(out.read_text())["rows"]
    values = [r["value"] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    csv_lines = (tmp_path / "sweep.json.csv").read_text().splitlines()
    assert csv_lines[0] == "parameter,value,gap"
    assert len(csv_lines) == 7


def test_nonattain_emits_positive_decreasing_gaps(tmp_path):
    out = tmp_path / "na.json"
    result = run_cli(["nonattain", "--spec", str(MARKETS / "aumann.json"),
                      "--refinements", "10,100,1000", "--out", str(out)])
    assert result.exit_code == 0
    gaps = [r["gap"] for r in json.loads(out.read_text())["rows"]]
    assert all(g > 0.0 for g in gaps)
    assert gaps[2] < gaps[1] < gaps[0]


def test_nonattain_vacuous_loss_exits_2(tmp_path):
    doc = json.loads((MARKETS / "aumann.json").read_text())
    doc["loss"] = [1.0, 1.0]  # constant: inflation value never moves
    spec = tmp_path / "flat.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "na.json"
    result = run_cli(["nonattain", "--spec", str(spec),
                      "--refinements", "10,100", "--out", str(out)])
    assert result.exit_code == 2


def test_alloc_file_with_top_level_array_exits_2(tmp_path):
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
    out = tmp_path / "verdict.json"
    result = run_cli(["pareto", "--spec", str(MARKETS / "shapley.json"),
                      "--alloc", str(alloc_path), "--out", str(out)])
    assert result.exit_code == 2
    assert "alloc" in result.output
    assert not out.exists()


@pytest.mark.parametrize("field", ["agent_space", "gamma_formula"])
def test_number_in_place_of_an_object_exits_2(tmp_path, field):
    doc = json.loads((MARKETS / "aumann.json").read_text())
    if field == "agent_space":
        doc["agent_space"] = 20
    else:
        doc["profile"]["gamma_formula"] = 2.0
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(spec), "--out", str(out)])
    assert result.exit_code == 2
    assert f"{field}: expected an object" in result.output
    assert not out.exists()


def test_boolean_atom_count_exits_2(tmp_path):
    # JSON true parses to a Python bool, which isinstance(..., int) accepts.
    doc = json.loads((MARKETS / "aumann.json").read_text())
    doc["agent_space"]["n"] = True
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(spec), "--out", str(out)])
    assert result.exit_code == 2
    assert "agent_space.n: expected a positive integer" in result.output
    assert not out.exists()


def _aumann_with_count(tmp_path, n, name):
    doc = json.loads((MARKETS / "aumann.json").read_text())
    doc["agent_space"]["n"] = n
    spec = tmp_path / name
    spec.write_text(json.dumps(doc))
    return spec


def test_whole_float_atom_count_is_a_count(tmp_path):
    records = []
    for n, name in ((3, "int.json"), (3.0, "float.json")):
        out = tmp_path / f"out_{name}"
        result = run_cli(["value", "--spec", str(_aumann_with_count(tmp_path, n, name)),
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        record = json.loads(out.read_text())
        del record["spec_sha256"]
        records.append(record)
    assert records[0] == records[1]


def test_profile_positions_are_the_quadrature_midpoints(tmp_path):
    # At n = 3 a 12-digit atom label does not round-trip its midpoint;
    # gamma_formula evaluates the midpoints the agent space holds.
    spec = _aumann_with_count(tmp_path, 3, "n3.json")
    value_out, na_out = tmp_path / "value.json", tmp_path / "na.json"
    assert run_cli(["value", "--spec", str(spec), "--out", str(value_out)]).exit_code == 0
    assert run_cli(["nonattain", "--spec", str(spec), "--refinements", "3",
                    "--out", str(na_out)]).exit_code == 0
    (row,) = json.loads(na_out.read_text())["rows"]
    assert json.loads(value_out.read_text())["value"] == row["value"]


def test_nonattain_rejects_fractional_refinements(tmp_path):
    out = tmp_path / "na.json"
    result = run_cli(["nonattain", "--spec", str(MARKETS / "aumann.json"),
                      "--refinements", "10.7,100", "--out", str(out)])
    assert result.exit_code == 2
    assert "whole atom counts" in result.output
    assert not out.exists()


def test_timing_goes_to_stderr_not_record(tmp_path):
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(MARKETS / "finite.json"),
                      "--out", str(out)])
    assert "timing_s=" in result.output
    assert "timing" not in out.read_text()


class TestSpecParsing:
    def test_every_risk_type_parses(self):
        sp = rs.ProbSpace([0.5, 0.5])
        specs = [
            {"type": "entropic", "gamma": 1.0},
            {"type": "es", "alpha": 0.5},
            {"type": "expected_shortfall", "alpha": 0.5},
            {"type": "scenario_set", "densities": [[1.0, 1.0], [0.0, 2.0]]},
            {"type": "dilation", "base": {"type": "entropic", "gamma": 1.0},
             "gamma": 2.0},
            {"type": "inflation", "base": {"type": "es", "alpha": 0.5},
             "gamma": 1.5},
        ]
        for doc in specs:
            parse_risk_spec(doc, sp, "spec")

    def test_unknown_type_is_named(self):
        sp = rs.ProbSpace([0.5, 0.5])
        with pytest.raises(ValidationError, match="unknown risk type"):
            parse_risk_spec({"type": "varcovar"}, sp, "spec")

    def test_profile_gamma_count_checked(self):
        doc = {
            "probs": [0.5, 0.5], "loss": [1.0, 0.0],
            "agents": [{"label": "a", "weight": 1.0}],
            "profile": {"kind": "dilation",
                        "base": {"type": "entropic", "gamma": 1.0},
                        "gammas": [1.0, 2.0]},
        }
        with pytest.raises(ValidationError, match="gammas"):
            load_market(doc)

    def test_profile_and_per_agent_risks_conflict(self):
        doc = {
            "probs": [0.5, 0.5], "loss": [1.0, 0.0],
            "agents": [{"label": "a", "weight": 1.0,
                        "risk": {"type": "entropic", "gamma": 1.0}}],
            "profile": {"kind": "dilation",
                        "base": {"type": "entropic", "gamma": 1.0},
                        "gammas": [1.0]},
        }
        with pytest.raises(ValidationError, match="not both"):
            load_market(doc)

    def test_named_agent_space_with_formula(self):
        doc = {
            "probs": [0.5, 0.5], "loss": [1.0, 0.0],
            "agent_space": {"kind": "shapley", "n": 4},
            "profile": {"kind": "dilation",
                        "base": {"type": "entropic", "gamma": 1.0},
                        "gamma_formula": {"kind": "affine", "intercept": 1.0,
                                          "slope": 2.0}},
        }
        market, x = load_market(doc)
        assert market.agents.n_atoms == 6
        assert market.kind.gammas[0] == 1.0   # dirac0 at t=0
        assert market.kind.gammas[-1] == 3.0  # dirac1 at t=1


def test_solver_nonconvergence_exits_3(tmp_path, monkeypatch):
    import riskshare.opt_kernel as ok
    # No KKT residual is negative, so the capped Gibbs certificate fails.
    # The ES cap of 10 never binds on two states, but it is what puts the
    # market on the capped Gibbs path: uncapped KL has a closed form.
    monkeypatch.setattr(ok, "_KKT_TOL", -1.0)
    spec = tmp_path / "entropic.json"
    spec.write_text(json.dumps({
        "probs": [0.25, 0.75], "loss": [1.0, -0.5],
        "agents": [{"label": "a", "weight": 1.0,
                    "risk": {"type": "entropic", "gamma": 1.0}},
                   {"label": "b", "weight": 1.0,
                    "risk": {"type": "es", "alpha": 0.1}}]}))
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(spec), "--out", str(out)])
    assert result.exit_code == 3


def test_density_lp_nonconvergence_exits_3(tmp_path, monkeypatch):
    # Two inflated scenario sets take the density LP; HiGHS ending at its
    # iteration limit (status 1) is a solver failure, not an answer.
    optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(optimize, "milp", lambda *args, **kwargs: optimize.OptimizeResult(
        status=1, message="stub iteration limit", x=None))
    spec = tmp_path / "hulls.json"
    spec.write_text(json.dumps({
        "probs": [0.5, 0.5], "loss": [1.0, -0.5],
        "agents": [{"label": label, "weight": 1.0,
                    "risk": {"type": "inflation", "gamma": 1.5,
                             "base": {"type": "scenario_set",
                                      "densities": [[1.0, 1.0], scenario]}}}
                   for label, scenario in (("a", [0.5, 1.5]), ("b", [1.5, 0.5]))]}))
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(spec), "--out", str(out)])
    assert result.exit_code == 3
    assert not out.exists()


def test_scenario_profile_makes_no_lp_and_loads_no_scipy(tmp_path):
    # The inflated scenario-set profile certifies its optimizer by the closed
    # form's own hull weights. A lost witness would make a membership LP,
    # import scipy (about 0.3 s on first use) and pay HiGHS's set-up on every
    # call; a fresh interpreter shows both.
    script = """
import sys
import riskshare.opt_kernel as ok
from riskshare.cli import main
lps = []
real = ok.highs_solve
ok.highs_solve = lambda problem: lps.append(problem) or real(problem)
for command in ("value", "allocate"):
    main([command, "--spec", sys.argv[1], "--out", sys.argv[2]], standalone_mode=False)
assert lps == [], len(lps)
assert "scipy" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", script, str(MARKETS / "scenario.json"),
                             str(tmp_path / "out.json")], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_record_round_trips_losslessly(tmp_path):
    out = tmp_path / "out.json"
    result = run_cli(["value", "--spec", str(MARKETS / "shapley.json"),
                      "--out", str(out)])
    assert result.exit_code == 0
    text = out.read_text()
    record = json.loads(text)
    assert json.dumps(record, sort_keys=True, indent=2) + "\n" == text


def test_sweep_accepts_shared_coherent_spec_without_profile(tmp_path):
    spec = tmp_path / "shared.json"
    spec.write_text(json.dumps({
        "probs": [0.5, 0.5], "loss": [1.0, 0.0],
        "agents": [
            {"label": "a", "weight": 1.0, "risk": {"type": "es", "alpha": 0.5}},
            {"label": "b", "weight": 1.0, "risk": {"type": "es", "alpha": 0.5}},
        ]}))
    out = tmp_path / "sweep.json"
    result = run_cli(["sweep", "--spec", str(spec), "--gamma-grid", "1.0,1.5,2.0",
                      "--out", str(out)])
    assert result.exit_code == 0
    assert len(json.loads(out.read_text())["rows"]) == 3


def test_sweep_accepts_two_agents_listing_one_scenario_set(tmp_path):
    risk = {"type": "scenario_set", "densities": [[1.0, 1.0], [1.5, 0.5]]}

    def sweep(labels):
        name = "".join(labels)
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({
            "probs": [0.5, 0.5], "loss": [1.0, 0.0],
            "agents": [{"label": a, "weight": 1.0, "risk": risk} for a in labels]}))
        out = tmp_path / f"{name}_sweep.json"
        result = run_cli(["sweep", "--spec", str(spec), "--gamma-grid", "1.0,1.5,2.0",
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        return json.loads(out.read_text())["rows"]

    assert sweep(["a", "b"]) == sweep(["a"])


def test_sweep_rejects_heterogeneous_market_without_profile(tmp_path):
    spec = tmp_path / "mixed.json"
    spec.write_text(json.dumps({
        "probs": [0.5, 0.5], "loss": [1.0, 0.0],
        "agents": [
            {"label": "a", "weight": 1.0, "risk": {"type": "es", "alpha": 0.5}},
            {"label": "b", "weight": 1.0, "risk": {"type": "entropic", "gamma": 1.0}},
        ]}))
    result = run_cli(["sweep", "--spec", str(spec), "--gamma-grid", "1.0,2.0",
                      "--out", str(tmp_path / "s.json")])
    assert result.exit_code == 2


@pytest.mark.parametrize("base, gammas", [
    ("scenario", [0.5, 1.0, 2.5]),  # dilations fix a scenario set
    ("es", [1.0, 1.0, 1.0]),
    ("es", [1.0, 2.0, 1.0]),
    ("es", [2.0, 2.0, 2.0]),
    ("entropic", [1.0, 1.0, 1.0]),
])
def test_sweep_base_of_a_dilation_profile_matches_its_spelled_out_family(base, gammas):
    from riskshare.cli import _sweep_base

    sp = rs.ProbSpace([0.5, 0.5])
    base = {"scenario": rs.ScenarioSet((sp.density([1.0, 1.0]), sp.density([1.5, 0.5]))),
            "es": rs.ExpectedShortfall(0.5), "entropic": rs.Entropic(1.0)}[base]
    market = rs.Market.dilation(sp, rs.finite_agents(3), base, gammas)
    spelled = rs.Market.general(sp, market.agents, rs.RiskFamily(market.family.specs))
    try:
        want = _sweep_base(spelled)
    except ValidationError:
        with pytest.raises(ValidationError, match="single shared coherent spec"):
            _sweep_base(market)
    else:
        assert _sweep_base(market) is want is base


# ---------------------------------------------------------------------------
# The record writer: the bytes of json.dumps(record, sort_keys=True,
# indent=2, default=lambda o: o.tolist()) plus a newline
# ---------------------------------------------------------------------------

def _stdlib_record(record) -> bytes:
    return (json.dumps(record, sort_keys=True, indent=2,
                       default=lambda obj: obj.tolist()) + "\n").encode()


def _first_difference(got, want):
    """None when equal, else the first differing offset with some context:
    pytest's own diff of two large records would take minutes."""
    if got == want:
        return None
    i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
             min(len(got), len(want)))
    return i, got[max(0, i - 40):i + 40], want[max(0, i - 40):i + 40]


_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16, 0.1,
                math.inf, -math.inf, math.nan)
_LABELS = ("a", 'quo"te', "back\\slash", "ünïcode", "日本",
           "emoji \U0001F600", "tab\tnew\nline", "ctl\x01", "")


def _random_float(rng) -> float:
    if rng.random() < 0.5:
        return float(_EDGE_FLOATS[rng.integers(len(_EDGE_FLOATS))])
    return float(rng.normal() * 10.0 ** int(rng.integers(-20, 21)))


def _random_float_array(rng) -> np.ndarray:
    """Rows drawn with repeats from a small pool that holds a 0.0 row and
    a -0.0 row, so a row cache must key rows by their bytes."""
    if rng.random() < 0.15:
        return np.zeros(((0, 3), (2, 0), (0,))[rng.integers(3)])
    lead = tuple(int(k) for k in rng.integers(1, 5, int(rng.integers(0, 3))))
    m = int(rng.integers(0, 6))
    pool = [np.zeros(m), np.full(m, -0.0), np.full(m, 0.25)]
    pool += [np.array([_random_float(rng) for _ in range(m)]) for _ in range(3)]
    if rng.random() < 0.5:  # a finite array takes the repr-only path
        pool = [np.where(np.isfinite(row), row, 1.5) for row in pool]
    rows = [pool[k] for k in rng.integers(len(pool), size=int(np.prod(lead)))]
    return np.array(rows, dtype=float).reshape(lead + (m,))


def _random_entry(rng, depth: int):
    kind = int(rng.integers(0, 13 if depth < 3 else 8))
    if kind == 0:
        return _random_float(rng)
    if kind == 1:
        return np.float64(_random_float(rng))
    if kind == 2:
        return np.int64(rng.integers(-2**62, 2**62))
    if kind == 3:
        return np.bool_(rng.random() < 0.5) if rng.random() < 0.5 else bool(rng.random() < 0.5)
    if kind == 4:
        return _LABELS[rng.integers(len(_LABELS))]
    if kind == 5:
        if rng.random() < 0.5:
            return None
        return int(rng.integers(-9, 9)) * 10**int(rng.integers(0, 25))  # past int64 too
    if kind == 6:
        return _random_float_array(rng)
    if kind == 7:
        return rng.integers(-5, 5, (2, 3)) if rng.random() < 0.5 else np.array([True, False])
    if kind == 8:
        return [_random_entry(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    if kind == 9:
        return tuple(_random_entry(rng, depth + 1) for _ in range(rng.integers(0, 4)))
    return _random_record(rng, depth + 1)


def _random_record(rng, depth: int = 0) -> dict:
    return {_LABELS[rng.integers(len(_LABELS))] + str(rng.integers(3)):
            _random_entry(rng, depth) for _ in range(rng.integers(0, 5))}


def test_record_writer_matches_stdlib_json_byte_for_byte(tmp_path):
    rng = np.random.default_rng(28)
    fixed = {
        "floats": list(_EDGE_FLOATS),
        "rows": np.array([[0.0, 1e-5], [-0.0, 1e-5], [0.0, 1e-5], [-0.0, -0.0],
                          [0.0, 0.0], [math.nan, math.inf], [5e-324, 1e16]]),
        "scalars": [np.float64(0.1), np.float64(-0.0), np.int64(-7), np.bool_(True),
                    np.bool_(False)],
        "labels": list(_LABELS),
        "empty": [(), [], {}, np.zeros((0, 3)), np.zeros((2, 0)), np.zeros(0)],
        "deep": {"b": (1, (2.5, [])), "a": {"z": None, "y": np.full((2, 2, 2), -0.0)}},
    }
    out = tmp_path / "record.json"
    for record in [fixed] + [_random_record(rng) for _ in range(400)]:
        want = _stdlib_record(record)
        _write_record(str(out), record)
        assert _first_difference(out.read_bytes(), want) is None
        # numpy's print options must not reach the record: under legacy
        # 1.13, str(np.float64) keeps 12 significant digits.
        with np.printoptions(legacy="1.13"):
            _write_record(str(out), record)
        assert _first_difference(out.read_bytes(), want) is None


def _stdlib_redump(text: str) -> str:
    """Floats round-trip through repr, so the stdlib re-dump of a record's
    own parse is its text, whatever wrote it."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_records_at_aim_sizes_equal_their_stdlib_redump(tmp_path):
    rng = np.random.default_rng(1002)
    n = 16
    p = rng.dirichlet(np.full(n, 2.0)) + 0.5 / n
    p /= p.sum()
    x = rng.normal(0.0, 1.0, n)
    dil = tmp_path / "dilation.json"
    dil.write_text(json.dumps({
        "probs": p.tolist(), "loss": x.tolist(),
        "agent_space": {"kind": "shapley", "n": 1000},
        "profile": {"kind": "dilation", "base": {"type": "entropic", "gamma": 1.3},
                    "gammas": rng.uniform(0.5, 3.0, 1002).tolist()}}))
    market, _ = load_market(json.loads(dil.read_text()))
    assert market.agents.n_atoms == 1002
    # The whole loss on the first atom: feasible, not efficient.
    shares = np.zeros((1002, n))
    shares[0] = x / market.agents.weights[0]
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"shares": shares.tolist()}))

    m = 8
    pi = rng.dirichlet(np.full(m, 2.0)) + 0.5 / m
    pi /= pi.sum()
    infl = tmp_path / "inflation.json"
    infl.write_text(json.dumps({
        "probs": pi.tolist(), "loss": rng.normal(0.0, 1.0, m).tolist(),
        "agent_space": {"kind": "aumann", "n": 2000},
        "profile": {"kind": "inflation", "base": {"type": "es", "alpha": 0.6},
                    "gamma_formula": {"kind": "affine", "intercept": 1.5, "slope": 1.0}}}))

    for spec, n_atoms in ((dil, 1002), (infl, 2000)):
        for cmd in ("value", "allocate"):
            out = tmp_path / f"{cmd}_{spec.stem}.json"
            result = run_cli([cmd, "--spec", str(spec), "--out", str(out)])
            assert result.exit_code == 0, result.output
            text = out.read_text()
            assert _first_difference(text, _stdlib_redump(text)) is None
            assert len(json.loads(text)["allocation"]["shares"]) == n_atoms
    out = tmp_path / "pareto_dilation.json"
    result = run_cli(["pareto", "--spec", str(dil), "--alloc", str(alloc),
                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert _first_difference(text, _stdlib_redump(text)) is None
    record = json.loads(text)
    assert record["efficient"] is False
    assert len(record["witness"]["shares"]) == 1002


def _profile_specs(tmp_path, n_atoms):
    """A dilation spec with one parameter per atom and an ES inflation spec
    with a parameter formula, both on n_atoms continuum atoms and 8 states,
    and the proportional split of the loss for the pareto command."""
    rng = np.random.default_rng(1003)
    probs, loss = [0.125] * 8, [(3 * i % 8 - 3.5) / 4 for i in range(8)]
    atoms = {"kind": "aumann", "n": n_atoms}
    dil = tmp_path / f"dilation_{n_atoms}.json"
    dil.write_text(json.dumps({
        "probs": probs, "loss": loss, "agent_space": atoms,
        "profile": {"kind": "dilation", "base": {"type": "entropic", "gamma": 1.3},
                    "gammas": rng.uniform(0.5, 3.0, n_atoms).tolist()}}))
    infl = tmp_path / f"inflation_{n_atoms}.json"
    infl.write_text(json.dumps({
        "probs": probs, "loss": loss, "agent_space": atoms,
        "profile": {"kind": "inflation", "base": {"type": "es", "alpha": 0.6},
                    "gamma_formula": {"kind": "affine", "intercept": 1.5, "slope": 1.0}}}))
    alloc = tmp_path / f"alloc_{n_atoms}.json"
    alloc.write_text(json.dumps({"shares": [loss] * n_atoms}))
    return dil, infl, alloc


def test_profile_commands_build_no_per_atom_spec(tmp_path, monkeypatch):
    built = []
    for cls in (rs.Dilation, rs.Inflation):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, real=cls.__post_init__: built.append(1) or real(self))

    def counts(n_atoms):
        dil, infl, alloc = _profile_specs(tmp_path, n_atoms)
        runs = {}
        for kind, spec in (("dilation", dil), ("inflation", infl)):
            for cmd in ("value", "allocate"):
                runs[f"{cmd} {kind}"] = [cmd, "--spec", str(spec)]
            runs[f"pareto {kind}"] = ["pareto", "--spec", str(spec), "--alloc", str(alloc)]
        for kind, spec in (("dilation", dil), ("inflation", infl)):
            runs[f"sweep {kind}"] = ["sweep", "--spec", str(spec), "--gamma-grid", "1.0,1.5,2.0"]
        runs["nonattain"] = ["nonattain", "--spec", str(infl), "--refinements", "10,100,1000"]
        out = {}
        for name, args in runs.items():
            built.clear()
            result = run_cli(args + ["--out", str(tmp_path / "out.json")])
            # An entropic dilation profile has no coherent spec to sweep.
            assert result.exit_code == (2 if name == "sweep dilation" else 0), result.output
            out[name] = len(built)
        return out

    # Each command builds a few specs of its own (the market's aggregate, a
    # sweep's grid), none per atom.
    large = counts(2000)
    assert large == counts(20)
    assert max(large.values()) <= 5

    dil, infl, _ = _profile_specs(tmp_path, 2000)
    for spec, wrap in ((dil, rs.dilate), (infl, rs.inflate)):
        market, _ = load_market(json.loads(spec.read_text()))
        built.clear()
        specs = market.family.specs  # spelled out on first read
        assert len(built) == 2000
        assert specs == tuple(wrap(market.kind.base, float(g)) for g in market.kind.gammas)
