import csv
import json

import pytest

from jamnet.cli import main, parse_config, ParseError


def _write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "setting": "SymI",
        "transmitters": {"count": 2, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "output_path": str(tmp_path / "run"),
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_minimal_symI():
    doc = json.dumps({
        "setting": "SymI",
        "transmitters": {"count": 2, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
    })
    cfg = parse_config(doc, "closed-form")
    assert cfg.scenario.num_transmitters == 2


def test_parse_rejects_unknown_key():
    doc = json.dumps({"setting": "SymI", "alpha_vector": [1, 2]})
    with pytest.raises(ParseError, match="alpha_vector"):
        parse_config(doc, "closed-form")


def test_parse_rejects_missing_eta_for_symIII():
    doc = json.dumps({
        "setting": "SymIII",
        "transmitters": {"count": 4, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "epsilon": 0.75,
    })
    with pytest.raises(ParseError, match="eta required"):
        parse_config(doc, "closed-form")


def test_parse_simulate_requires_monte_carlo():
    doc = json.dumps({
        "setting": "SymI",
        "transmitters": {"count": 2, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
    })
    with pytest.raises(ParseError, match="monte_carlo"):
        parse_config(doc, "simulate")


def test_closed_form_run_and_determinism(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["closed-form", "--config", str(cfg)]) == 0
    csv_bytes = (tmp_path / "run.csv").read_bytes()
    json_bytes = (tmp_path / "run.json").read_bytes()

    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0] == ["setting", "M", "K", "alpha", "beta", "P", "cost_printed", "cost_oracle"]
    assert float(rows[1][6]) == pytest.approx(0.6, abs=1e-15)
    assert float(rows[1][7]) == pytest.approx(0.6, abs=1e-15)

    assert main(["closed-form", "--config", str(cfg)]) == 0
    assert (tmp_path / "run.csv").read_bytes() == csv_bytes
    assert (tmp_path / "run.json").read_bytes() == json_bytes


def test_closed_form_rejects_asym_setting(tmp_path):
    cfg = _write_config(
        tmp_path, setting="AsymI", sum_power_transmit=2.0, sum_power_attack=1.0
    )
    assert main(["closed-form", "--config", str(cfg)]) == 1


def test_invalid_config_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["closed-form", "--config", str(path)]) == 1


def test_solve_asym_runs(tmp_path):
    cfg = _write_config(
        tmp_path, setting="AsymII", sum_power_transmit=2.0, sum_power_attack=1.0
    )
    assert main(["solve-asym", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0][:4] == ["lambda1", "lambda2", "lambda3", "lambda4"]
    assert float(rows[1][-1]) < 1e-8  # max_kkt_residual
    payload = json.loads((tmp_path / "run.json").read_text())
    assert "asym2-multiplier-identity" in payload["known_discrepancy_tags"]
    assert payload["report"]["oracle_cost"] == pytest.approx(5 / 6, abs=1e-10)


def test_solve_asym_nonconvergence_exits_2(tmp_path):
    cfg = _write_config(
        tmp_path,
        setting="AsymII",
        transmitters={"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        adversaries={"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        sum_power_transmit=0.1,
        sum_power_attack=50.0,
    )
    assert main(["solve-asym", "--config", str(cfg)]) == 2
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["error"]["type"] == "NonConvergence"
    assert "residuals" in payload["error"]


def test_simulate_command_and_seed_override(tmp_path):
    cfg = _write_config(
        tmp_path, monte_carlo={"samples": 20000, "seed": 5, "chunks": 2}
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0] == ["samples", "seed", "empirical_mse", "standard_error", "analytic_mse"]
    assert rows[1][1] == "5"
    assert float(rows[1][4]) == pytest.approx(0.6, abs=1e-12)
    assert main(["simulate", "--config", str(cfg), "--seed", "9"]) == 0
    assert _read_csv(tmp_path / "run.csv")[1][1] == "9"


def test_sweep_attack_power_monotone(tmp_path):
    cfg = _write_config(
        tmp_path,
        setting="AsymI",
        sum_power_transmit=2.0,
        sum_power_attack=0.0,
        sweep={"param": "P_A", "from": 0.0, "to": 2.0, "steps": 21},
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert len(rows) == 22  # header + 21 points
    costs = [float(r[2]) for r in rows[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))


def test_ceo_curve_command(tmp_path):
    cfg = _write_config(
        tmp_path, sweep={"param": "rate", "from": 0.0, "to": 5.0, "steps": 11}
    )
    assert main(["ceo-curve", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0] == ["rate", "distortion"]
    assert len(rows) == 12
    assert float(rows[1][1]) == 1.0


def test_maxcorr_command(tmp_path):
    cfg = _write_config(
        tmp_path, sweep={"param": "rho", "from": 0.0, "to": 0.9, "steps": 3}
    )
    assert main(["maxcorr", "--config", str(cfg)]) == 0
    rows = _read_csv(tmp_path / "run.csv")
    assert rows[0] == ["rho", "rho_star", "abs_error"]
    assert all(float(r[2]) <= 1e-2 for r in rows[1:])


def test_verify_command(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["verify", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "run.json").read_text())
    adv = payload["adversary_check"]
    tx = payload["transmitter_check"]
    assert adv["best_deviation_cost"] <= adv["base_cost"] + 1e-3
    assert tx["best_deviation_cost"] >= tx["base_cost"] - 1e-8


_ASYM_BUDGETS = {"setting": "AsymI", "sum_power_transmit": 2.0, "sum_power_attack": 1.0}
_SYM3_FRACTIONS = {"setting": "SymIII", "epsilon": 0.5, "eta": 1.0}


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("closed-form", {"transmitters": {"count": 2, "alpha": "x", "beta": 1.0, "power": 1.0}}),
        ("closed-form", {"adversaries": [{"alpha": None, "beta": 1.0, "power": 1.0}]}),
        ("solve-asym", {**_ASYM_BUDGETS, "sum_power_transmit": "3"}),
        ("closed-form", {**_SYM3_FRACTIONS, "epsilon": "a"}),
        ("closed-form", {"transmitters": {"count": True, "alpha": 1.0, "beta": 1.0, "power": 1.0}}),
        ("simulate", {"monte_carlo": {"samples": 100, "seed": True}}),
        ("closed-form", {"transmitters": {"count": 2, "alpha": 10**400, "beta": 1.0, "power": 1.0}}),
    ],
    ids=["alpha-string", "alpha-null", "P_T-string", "epsilon-string", "count-bool", "seed-bool",
         "alpha-int-overflow"],
)
def test_bad_numbers_exit_1_with_one_line(tmp_path, capsys, command, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("jamnet: invalid config:")


@pytest.mark.parametrize(
    "overrides, param",
    [
        ({"setting": "SymII"}, "epsilon"),
        ({"setting": "SymI"}, "eta"),
        (_ASYM_BUDGETS, "eta"),
        ({}, "P_A"),
        (_ASYM_BUDGETS, "P"),
        ({}, "rate"),
    ],
)
def test_sweep_rejects_params_that_do_not_apply(tmp_path, capsys, overrides, param):
    cfg = _write_config(
        tmp_path, **overrides, sweep={"param": param, "from": 0.0, "to": 1.0, "steps": 3}
    )
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "does not apply" in capsys.readouterr().err
