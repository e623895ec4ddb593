import csv
import json

import pytest

from jamnet import cli
from jamnet.cli import main, parse_config, ParseError
from jamnet.model import (EmptyAdversarySet, InvalidProfile, InvalidScenario, JamnetError,
                          NoRoot)


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
        tmp_path, monte_carlo={"samples": 20000, "seed": 5}
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
        ("simulate", {"monte_carlo": {"samples": 100, "seed": 1, "chunks": 2}}),
    ],
    ids=["alpha-string", "alpha-null", "P_T-string", "epsilon-string", "count-bool", "seed-bool",
         "alpha-int-overflow", "mc-chunks-unknown-key"],
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


def _sensors(alpha, beta, power=1.0):
    return {"count": 1, "alpha": alpha, "beta": beta, "power": power}


# alpha^2*P overflows inside a product: E{Y^2} is inf and the cost inf/inf.
_OVERFLOWING_PRODUCT = {
    "SymI": {"transmitters": {**_sensors(1e100, 1.0, 1e200), "count": 2},
             "adversaries": _sensors(1e100, 1.0, 1e200)},
    "SymII": {"setting": "SymII", "transmitters": {**_sensors(1e100, 1e-100, 1e200), "count": 2},
              "adversaries": _sensors(1e100, 1e-100, 1e200)},
}
_MC = {"monte_carlo": {"samples": 1000, "seed": 1}}


@pytest.mark.parametrize(
    "command, overrides, error",
    [
        ("closed-form", {"transmitters": {**_sensors(1e200, 1e200), "count": 2},
                         "adversaries": _sensors(1e200, 1e200)}, "OverflowError"),
        ("closed-form", {"transmitters": {**_sensors(1e170, 1.0), "count": 2},
                         "adversaries": _sensors(1e170, 1.0)}, "OverflowError"),
        ("solve-asym", {**_ASYM_BUDGETS, "transmitters": _sensors(1e-200, 1e-200)},
         "DegenerateInput"),
        ("solve-asym", {**_ASYM_BUDGETS, "setting": "AsymII",
                        "transmitters": _sensors(1e-200, 1e-200)}, "DegenerateInput"),
        ("solve-asym", {**_ASYM_BUDGETS, "transmitters": _sensors(1e200, 1.0)}, "OverflowError"),
        ("solve-asym", {**_ASYM_BUDGETS, "setting": "AsymII",
                        "transmitters": _sensors(1e200, 1.0)}, "OverflowError"),
        # lambda1 reaches 1e200 and lambda2^2 overflows in the outer scan.
        ("solve-asym", {**_ASYM_BUDGETS, "setting": "AsymII",
                        "transmitters": [{"alpha": 1e-100, "beta": 1e-100, "power": 0.0},
                                         {"alpha": 1.0, "beta": 1.0, "power": 0.0}],
                        "adversaries": _sensors(1e-100, 1e-100)}, "OverflowError"),
    ]
    + [(command, {**_OVERFLOWING_PRODUCT[setting], **_MC}, "NumericalFailure")
       for setting in ("SymI", "SymII") for command in ("closed-form", "simulate", "verify")],
    ids=["SymI-gain-1e200", "SymI-alpha-1e170", "AsymI-no-information-path",
         "AsymII-no-information-path", "AsymI-alpha-1e200", "AsymII-alpha-1e200",
         "AsymII-scan-square-overflow"]
    + [f"{setting}-{command}-alpha2P-overflow"
       for setting in ("SymI", "SymII") for command in ("closed-form", "simulate", "verify")],
)
def test_numerical_failures_exit_2_with_error_block(tmp_path, capsys, command, overrides, error):
    cfg = _write_config(tmp_path, **overrides)
    (tmp_path / "run.csv").write_text("left by an earlier run\n")
    assert main([command, "--config", str(cfg)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(f"jamnet {command}: FAILED ({error}")
    text = (tmp_path / "run.json").read_text()
    assert "NaN" not in text
    assert json.loads(text)["error"]["type"] == error
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "command, sweep",
    [
        ("maxcorr", {"param": "rho", "from": 0.0, "to": 1.0, "steps": 3}),
        ("maxcorr", {"param": "rho", "from": -1.5, "to": -1.5, "steps": 1}),
        ("maxcorr", {"param": "rate", "from": 0.0, "to": 1.0, "steps": 3}),
        ("ceo-curve", {"param": "rate", "from": -1.0, "to": 1.0, "steps": 3}),
        ("ceo-curve", {"param": "rho", "from": 0.0, "to": 0.5, "steps": 3}),
        ("ceo-curve", {"param": "P", "from": 0.0, "to": 1.0, "steps": 3}),
    ],
    ids=["maxcorr-rho-1", "maxcorr-rho-minus-1.5", "maxcorr-rate", "ceo-rate-minus-1",
         "ceo-rho", "ceo-P"],
)
def test_axis_commands_validate_their_sweep(tmp_path, capsys, command, sweep):
    cfg = _write_config(tmp_path, sweep=sweep)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("jamnet: invalid config:")


def test_out_with_suffix_writes_both_files(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["closed-form", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    assert (tmp_path / "x.csv").is_file() and (tmp_path / "x.json").is_file()
    assert not (tmp_path / "run.csv").exists()


def test_seed_without_monte_carlo_changes_nothing(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["closed-form", "--config", str(cfg)]) == 0
    plain = [(tmp_path / name).read_bytes() for name in ("run.csv", "run.json")]
    assert main(["closed-form", "--config", str(cfg), "--seed", "9"]) == 0
    assert [(tmp_path / name).read_bytes() for name in ("run.csv", "run.json")] == plain


@pytest.mark.parametrize("error", [EmptyAdversarySet, NoRoot, JamnetError])
@pytest.mark.parametrize("command, overrides", [
    ("closed-form", {}),
    ("simulate", _MC),
    ("verify", {}),
    ("sweep", {"sweep": {"param": "alpha", "from": 1.0, "to": 2.0, "steps": 2}}),
])
def test_any_package_error_exits_2_with_error_block(tmp_path, capsys, monkeypatch, error,
                                                    command, overrides):
    def fail(s):
        raise error("no adversarial sensors")

    monkeypatch.setattr(cli, "equilibrium_report", fail)
    cfg = _write_config(tmp_path, **overrides)
    (tmp_path / "run.csv").write_text("left by an earlier run\n")
    assert main([command, "--config", str(cfg)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == [f"jamnet {command}: FAILED ({error.__name__}: no adversarial sensors)"]
    report = json.loads((tmp_path / "run.json").read_text())
    assert report["error"] == {"type": error.__name__, "message": "no adversarial sensors",
                               "iterations": None, "residuals": []}
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("error", [InvalidProfile, InvalidScenario, ParseError])
def test_invalid_input_errors_keep_exit_1(tmp_path, capsys, monkeypatch, error):
    def fail(s):
        raise error("bad input")

    monkeypatch.setattr(cli, "equilibrium_report", fail)
    assert main(["verify", "--config", str(_write_config(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "jamnet: invalid config: bad input\n"
