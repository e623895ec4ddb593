"""Golden CLI outputs: one small config per command and setting.

Each case runs ``jamnet.cli.main`` and compares the exit code, the CSV and
the JSON report with the files recorded under ``tests/golden/``.  Exit codes,
CSV headers, integers and strings must match exactly; every other number must
match within 1e-12, absolute or relative.  Discrepancy notes must match as
text once their numeric literals are masked, and, sorted, they must pair up
one to one with the recorded notes, the numbers of each pair agreeing within
the same tolerance.

To re-record after an intended output change, run from the repo root:

    PYTHONPATH=src python tests/test_golden_outputs.py

The recorder rewrites only the files whose text changes, and prints each one
with the largest change of any number outside the discrepancy notes, on the
comparison's scale (relative above 1, absolute below).
"""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from jamnet.cli import main
from jamnet.model import KNOWN_DISCREPANCY_TAGS

GOLDEN_DIR = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"
TOL = 1e-12
_INT = re.compile(r"-?\d+")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _uniform(count, alpha, beta, power=1.0):
    return {"count": count, "alpha": alpha, "beta": beta, "power": power}


def _sensors(*gains):
    return [{"alpha": a, "beta": b, "power": 0.0} for a, b in gains]


_SYM1 = {"setting": "SymI", "transmitters": _uniform(3, 1.3, 0.7, 1.5),
         "adversaries": _uniform(1, 1.3, 0.7, 1.5)}
_SYM2 = {"setting": "SymII", "transmitters": _uniform(4, 0.9, 1.2),
         "adversaries": _uniform(2, 0.9, 1.2)}


def _sym3(epsilon, eta):
    return {"setting": "SymIII", "transmitters": _uniform(4, 0.9, 1.2),
            "adversaries": _uniform(2, 0.9, 1.2), "epsilon": epsilon, "eta": eta}


# AsymI's best channel is adversary 1 (k* > 0).
_ASYM1 = {"setting": "AsymI",
          "transmitters": _sensors((1.0, 0.8), (0.6, 1.5), (1.7, 0.4)),
          "adversaries": _sensors((0.6, 1.1), (1.4, 0.9), (0.9, 1.3)),
          "sum_power_transmit": 3.0, "sum_power_attack": 0.8}
_ASYM2 = {"setting": "AsymII",
          "transmitters": _sensors((1.0, 0.8), (0.6, 1.5), (1.7, 0.4)),
          "adversaries": _sensors((0.7, 1.1), (1.2, 0.9)),
          "sum_power_transmit": 3.0, "sum_power_attack": 0.5}
_ASYM2_DIVERGENT = {"setting": "AsymII", "transmitters": _uniform(1, 1.0, 1.0),
                    "adversaries": _uniform(1, 1.0, 1.0),
                    "sum_power_transmit": 0.1, "sum_power_attack": 50.0}

_MC = {"monte_carlo": {"samples": 70_000, "seed": 11}}


def _sweep(param, start, stop):
    return {"sweep": {"param": param, "from": start, "to": stop, "steps": 3}}


CASES = {
    "closed_form_sym1": ("closed-form", _SYM1),
    "closed_form_sym2": ("closed-form", _SYM2),
    "closed_form_sym3_saddle": ("closed-form", _sym3(0.75, 0.5)),
    "closed_form_sym3_stackelberg": ("closed-form", _sym3(0.25, 0.5)),
    "solve_asym_asym1": ("solve-asym", _ASYM1),
    "solve_asym_asym2": ("solve-asym", _ASYM2),
    "solve_asym_asym2_nonconvergence": ("solve-asym", _ASYM2_DIVERGENT),
    "simulate_sym1": ("simulate", {**_SYM1, **_MC}),
    "simulate_sym2": ("simulate", {**_SYM2, **_MC}),
    "simulate_sym3_eta0": ("simulate", {**_sym3(0.75, 0.0), **_MC}),
    "simulate_sym3_eta_half": ("simulate", {**_sym3(0.75, 0.5), **_MC}),
    "simulate_asym1": ("simulate", {**_ASYM1, **_MC}),
    "simulate_asym2": ("simulate", {**_ASYM2, **_MC}),
    "verify_sym1": ("verify", _SYM1),
    "verify_sym2": ("verify", _SYM2),
    "verify_sym3": ("verify", _sym3(0.75, 0.5)),
    "verify_asym1": ("verify", _ASYM1),
    "verify_asym2": ("verify", _ASYM2),
    "sweep_sym1": ("sweep", {**_SYM1, **_sweep("alpha", 0.5, 1.5)}),
    "sweep_sym2": ("sweep", {**_SYM2, **_sweep("beta", 0.5, 2.0)}),
    "sweep_sym3": ("sweep", {**_sym3(0.5, 0.5), **_sweep("epsilon", 0.5, 1.0)}),
    "sweep_asym1": ("sweep", {**_ASYM1, **_sweep("P_A", 0.0, 2.0)}),
    "sweep_asym2": ("sweep", {**_ASYM2, **_sweep("P_T", 2.0, 4.0)}),
    "sweep_asym2_attack": ("sweep", {**_ASYM2, **_sweep("P_A", 1.0, 7.0)}),
    "ceo_curve": ("ceo-curve", {**_ASYM1, **_sweep("rate", 0.0, 2.0)}),
    "maxcorr": ("maxcorr", {**_SYM1, **_sweep("rho", 0.0, 0.8)}),
}


def _run(name, tmp_path):
    command, config = CASES[name]
    cfg_path = tmp_path / f"{name}.cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / name)])
    csv_path = tmp_path / f"{name}.csv"
    csv_text = csv_path.read_text() if csv_path.exists() else None
    return code, csv_text, (tmp_path / f"{name}.json").read_text()


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _mask_notes(notes: list) -> list:
    return sorted({_NUMBER.sub("#", note) for note in notes})


def _compare_notes(got: list, want: list, where: str) -> None:
    assert _mask_notes(got) == _mask_notes(want), where
    assert len(got) == len(want), f"{where}: {len(got)} notes, recorded {len(want)}"
    for g, w in zip(sorted(got), sorted(want)):
        g_nums = [float(x) for x in _NUMBER.findall(g)]
        w_nums = [float(x) for x in _NUMBER.findall(w)]
        assert len(g_nums) == len(w_nums) and all(map(_close, g_nums, w_nums)), \
            f"{where}: {g!r} != {w!r}"


def _compare(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            if key == "discrepancy_notes":
                _compare_notes(got[key], want[key], f"{where}.{key}")
            else:
                _compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and _close(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _csv_cell(cell: str):
    if _INT.fullmatch(cell):
        return int(cell)
    try:
        return float(cell)
    except ValueError:
        return cell


def _compare_csv(got: str, want: str, where: str) -> None:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert got_rows[0] == want_rows[0], f"{where} header"
    _compare([[_csv_cell(c) for c in row] for row in got_rows[1:]],
             [[_csv_cell(c) for c in row] for row in want_rows[1:]], where)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, csv_text, json_text = _run(name, tmp_path)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    want_csv = GOLDEN_DIR / f"{name}.csv"
    assert (csv_text is None) == (not want_csv.exists())
    if csv_text is not None:
        _compare_csv(csv_text, want_csv.read_text(), f"{name}.csv")
    _compare(json.loads(json_text), json.loads((GOLDEN_DIR / f"{name}.json").read_text()),
             f"{name}.json")


def test_every_tag_a_note_ends_with_is_registered():
    # A report-level or sweep-level note that ends in [tag] names a
    # registered discrepancy with a description.
    tags = set()
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        payload = json.loads(path.read_text())
        notes = payload.get("report", {}).get("discrepancy_notes", [])
        for note in notes + payload.get("discrepancy_notes", []):
            tag = re.search(r"\[([^\[\]]+)\]$", note)
            if tag:
                assert KNOWN_DISCREPANCY_TAGS.get(tag[1]), f"{path.name}: {note!r}"
                tags.add(tag[1])
    assert len(tags) >= 5, tags


def _numbers(value) -> list:
    """The numbers of a parsed report or CSV, discrepancy notes left out."""
    if isinstance(value, dict):
        return [x for key, v in value.items() if key != "discrepancy_notes" for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _parse(path: Path, text: str):
    if path.suffix == ".json":
        return json.loads(text)
    return [[_csv_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _rewrite(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` where it changes the file, and say how."""
    if path.exists() and path.read_text() == text:
        return
    if not path.exists():
        change = "new file"
    else:
        old, new = _numbers(_parse(path, path.read_text())), _numbers(_parse(path, text))
        if len(old) != len(new):
            change = f"{len(old)} numbers before, {len(new)} now"
        else:
            largest = max((abs(a - b) / max(1.0, abs(a), abs(b))
                           for a, b in zip(old, new) if a != b), default=0.0)
            change = f"largest change outside the notes {largest:.3g}"
    path.write_text(text)
    print(f"rewrote {path.name}: {change}")


def _record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            with contextlib.redirect_stdout(io.StringIO()):  # the CLI's own summary lines
                codes[name], csv_text, json_text = _run(name, Path(tmp))
            if csv_text is not None:
                _rewrite(GOLDEN_DIR / f"{name}.csv", csv_text)
            _rewrite(GOLDEN_DIR / f"{name}.json", json_text)
    _rewrite(EXIT_CODES, json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
