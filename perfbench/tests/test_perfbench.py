"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import jamnet  # noqa: E402
import jamnet.cli  # noqa: E402

SYM = {"transmitters": {"count": 3, "alpha": 1.0, "beta": 1.0, "power": 1.0},
       "adversaries": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0}}
ASYM = {"transmitters": [{"alpha": 1.0, "beta": 1.0, "power": 0.0},
                         {"alpha": 0.7, "beta": 1.5, "power": 0.0}],
        "adversaries": [{"alpha": 0.8, "beta": 1.0, "power": 0.0}],
        "sum_power_transmit": 3.0, "sum_power_attack": 0.5}
SMALL = [
    workloads.Command("closed-form", {"setting": "SymIII", **SYM, "epsilon": 1 / 3, "eta": 1.0}),
    workloads.Command("solve-asym", {"setting": "AsymII", **ASYM}),
    workloads.Command("simulate", {"setting": "SymI", **SYM,
                                   "monte_carlo": {"samples": 5000, "seed": 3}}),
    workloads.Command("verify", {"setting": "SymI", **SYM}),
    workloads.Command("sweep", {"setting": "AsymI", **ASYM,
                                "sweep": {"param": "P_A", "from": 0.1, "to": 1.0, "steps": 3}}),
    workloads.Command("maxcorr", {"setting": "SymI", **SYM,
                                  "sweep": {"param": "rho", "from": 0.3, "to": 0.3, "steps": 1}}),
    workloads.Command("ceo-curve", {"setting": "SymI", **SYM,
                                    "sweep": {"param": "rate", "from": 0, "to": 4, "steps": 9}}),
]


def bindings():
    return {(name, attr): obj for name in tracing.MODULES
            for attr, obj in vars(getattr(jamnet, name)).items()}


@pytest.fixture
def runner(tmp_path):
    return harness.Runner(jamnet.cli, SMALL, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 11)
    assert first == workloads.generate(workload, 11)
    other = workloads.generate(workload, 12)
    assert len(other) == len(first)
    assert [c.config for c in other] != [c.config for c in first]


def test_benchmark_json_names_the_workloads_and_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configs_parse(workload):
    for cmd in workloads.generate(workload, 1) + [workloads.WARMUP[workload]]:
        jamnet.cli.parse_config(json.dumps(cmd.config), cmd.command)


def test_wrappers_are_restored_after_a_traced_run(runner):
    before = bindings()
    with tracing.Tracer(jamnet, layers.COUNTERS) as tracer:
        # A name imported into another module is wrapped there too.
        for module in ("asym", "simulate"):
            assert getattr(jamnet, module).validate_profile is not before[module, "validate_profile"]
        assert jamnet.cli.validate_scenario is not before["cli", "validate_scenario"]
        runner.run_pass(tracer)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "cli.run_command", "model.validate_profile",
            "simulate.run_monte_carlo", "bounds.discretized_correlation_operator"} <= names
    assert all(span.command is not None for span in tracer.spans)


def test_traced_outputs_are_byte_identical(runner):
    plain = runner.collect(runner.run_pass().results)
    assert [status for status, _ in plain.outcomes] == [checks.OK] * len(SMALL)
    runner.clear_outputs()
    with tracing.Tracer(jamnet, layers.COUNTERS) as tracer:
        traced = runner.collect(runner.run_pass(tracer).results)
    assert traced.digests == plain.digests
    metrics = layers.pass_metrics(layers.PassTrace(tracer), 4e7, traced.output_bytes)
    assert metrics["simulate.normals_drawn"] == 5000 * (3 + 1 + 2 + 1)
    assert metrics["bounds.ndtr_evals"] == 2 * 257 * 12 * 257
    assert metrics["asym.solve_theorem5.converged_ratio"] == 1.0


def _replace_cell(path: Path, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = value
    path.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")


@pytest.mark.parametrize("corrupt", [
    lambda stems: _replace_cell(Path(stems[0] + ".csv"), "cost_oracle", "1.5"),
    lambda stems: _replace_cell(Path(stems[2] + ".csv"), "empirical_mse", "0.1"),
    lambda stems: _replace_cell(Path(stems[1] + ".csv"), "max_kkt_residual", "nan"),
    lambda stems: Path(stems[3] + ".json").write_text("{"),
    lambda stems: Path(stems[5] + ".csv").unlink(),
    # Still passes its own checks, but differs from the reference bytes.
    lambda stems: Path(stems[4] + ".json").write_text(Path(stems[4] + ".json").read_text() + " "),
])
def test_a_corrupted_output_is_counted_as_failed(runner, corrupt):
    results = runner.run_pass().results
    reference = runner.collect(results).digests
    corrupt(runner.stems)
    tally = harness.Tally()
    tally.add_outputs("pass", runner.collect(results), reference)
    assert (tally.attempted, tally.failed) == (len(SMALL), 1)


def test_exit_2_is_accepted_only_as_a_theorem5_nonconvergence(tmp_path):
    dominated = dict(ASYM, sum_power_transmit=0.5, sum_power_attack=2.0)
    commands = [workloads.Command("solve-asym", {"setting": "AsymII", **dominated}),
                workloads.Command("closed-form", {"setting": "SymI", **SYM})]
    runner = harness.Runner(jamnet.cli, commands, tmp_path)
    results = runner.run_pass().results
    assert results == [2, 0]
    outcomes = runner.collect(results).outcomes
    assert [status for status, _ in outcomes] == [checks.NONCONVERGED, checks.OK]
    status, reason = checks.check_output(commands[1], 2, None, '{"command": "closed-form"}')
    assert status == checks.FAILED and "exit 2" in reason


def test_run_fails_without_the_jamnet_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "bounds",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no jamnet source" in proc.stderr
