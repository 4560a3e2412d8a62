import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import riskshare as rs
from riskshare.cli import load_market, main, parse_risk_spec
from riskshare.errors import ValidationError

REPO = Path(__file__).resolve().parent.parent
MARKETS = REPO / "markets"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_golden_value_records():
    runner = CliRunner()
    for name in ("finite", "aumann", "shapley"):
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
    for name in ("aumann", "shapley"):
        with runner.isolated_filesystem():
            result = runner.invoke(main, [
                "allocate", "--spec", str(MARKETS / f"{name}.json"),
                "--out", "out.json"])
            assert result.exit_code == 0
            got = Path("out.json").read_bytes()
        assert got == (GOLDEN / f"allocate_{name}.json").read_bytes()


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
